import pytest

from cyclodes import adsets, cyclotomy, dhm, ff
from cyclodes.dhm import SET_A, SET_B, SET_C, SET_D, SET_E, SET_F
from oracles import restricted_distance


# ---------------------------------------------------------------------------
# condition data
# ---------------------------------------------------------------------------

def test_corollary1_lists():
    assert set(dhm.corollary_triples("t1", False)) == {
        (0, 1, 3), (0, 2, 1), (1, 2, 0), (1, 3, 2),
        (2, 0, 3), (2, 3, 1), (3, 1, 0), (3, 0, 2)}
    assert set(dhm.corollary_triples("s1", False)) == {
        (0, 1, 2), (0, 3, 2), (1, 0, 3), (1, 2, 3),
        (2, 1, 0), (2, 3, 0), (3, 0, 1), (3, 2, 1)}


def test_corollary2_tm1_list():
    assert set(dhm.corollary_triples("tm1", True)) == {
        (0, 2, 1), (0, 3, 1), (1, 0, 2), (1, 3, 2),
        (2, 0, 3), (2, 1, 3), (3, 1, 0), (3, 2, 0)}


def test_corollary_lists_are_valid_triples():
    for with_zero in (False, True):
        for cond in dhm.CONDITIONS[4]:
            trips = dhm.corollary_triples(cond, with_zero)
            assert len(trips) == 8
            for (i, j, l) in trips:
                assert len({i, j, l}) == 3 and {i, j, l} <= set(range(4))


def test_corollary_unknown_condition():
    with pytest.raises(ValueError):
        dhm.corollary_triples("t2", False)


def test_theorem12_x1_pairs():
    pairs = dhm.theorem12_pairs("x1")
    assert len(pairs) == 8
    unordered = {frozenset((I, J)) for I, J in pairs}
    assert unordered == {
        frozenset((SET_A, SET_C)), frozenset((SET_A, SET_D)),
        frozenset((SET_B, SET_C)), frozenset((SET_B, SET_D))}


def test_theorem12_y1a_pairs_both_orders():
    pairs = dhm.theorem12_pairs("y1a")
    assert set(pairs) == {(SET_A, SET_F), (SET_F, SET_A),
                          (SET_B, SET_F), (SET_F, SET_B)}


def test_theorem12_pairs_intersection_filter():
    # guard against transcription slips: recompute the |I & J| = 3 filter
    for cond, fam in dhm.THEOREM12_FAMILIES.items():
        expected = tuple((I, J) for I in fam for J in fam
                         if I != J and len(I & J) == 3)
        assert dhm.theorem12_pairs(cond) == expected
        for I, J in dhm.theorem12_pairs(cond):
            assert len(I & J) == 3


def test_named_sets_are_rotations_of_each_other():
    shift = lambda S, t: frozenset((i + t) % 12 for i in S)
    assert shift(SET_A, 1) == SET_D and shift(SET_A, 2) == SET_B
    assert shift(SET_A, 3) == SET_C and shift(SET_E, 1) == SET_F


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_order4_sizes():
    s5 = cyclotomy.build_classes(5, 4)
    c = dhm.build(s5, dhm.triple_recipe((0, 1, 3)))
    assert c.k == 4                       # f = 1: four singleton classes
    s29 = cyclotomy.build_classes(29, 4)
    c = dhm.build(s29, dhm.triple_recipe((0, 1, 3)))
    assert c.k == 28


def test_build_order4_q37_classifies():
    s = cyclotomy.build_classes(37, 4)
    cls = adsets.classify(adsets.distance_spectrum(
        dhm.build(s, dhm.triple_recipe((1, 0, 3)))))
    assert cls.parameters == (74, 36, 17, 54)


def test_build_order4_rejects():
    s = cyclotomy.build_classes(29, 4)
    for triple in ((0, 0, 1), (0, 1, 4)):
        with pytest.raises(ValueError):
            dhm.build(s, dhm.triple_recipe(triple))
    s17 = cyclotomy.build_classes(17, 4)   # 17 = 1 (mod 8)
    with pytest.raises(ValueError):
        dhm.build(s17, dhm.triple_recipe((0, 1, 3)))


def test_build_order12_q13():
    s = cyclotomy.build_classes(13, 12, 2)
    plain = dhm.build(s, dhm.Recipe(12, SET_A, SET_E))
    assert plain.k == 12
    assert adsets.classify(adsets.distance_spectrum(plain)).parameters == (26, 12, 5, 18)
    with_zero = dhm.build(s, dhm.Recipe(12, SET_A, SET_E, include_zero=True))
    assert with_zero.k == 13
    assert adsets.classify(adsets.distance_spectrum(with_zero)).parameters == (26, 13, 6, 19)


def test_build_order12_q37_x1():
    s = cyclotomy.build_classes(37, 12, 2)
    cset = dhm.build(s, dhm.Recipe(12, SET_A, SET_C))
    assert adsets.classify(adsets.distance_spectrum(cset)).parameters == (74, 36, 17, 54)


def test_recipe_normalises_and_checks_its_indices():
    r = dhm.Recipe(12, [0, 1, 4, 5, 8, 9], (0, 2, 4, 6, 8, 10))
    assert (r.I, r.J) == (SET_A, SET_E) and type(r.I) is type(r.J) is frozenset
    assert dhm.SET_NAMES[r.I] == "A"
    assert dhm.triple_recipe((0, 1, 3), True) == dhm.Recipe(4, {0, 1}, {3, 1}, True)
    for d, I, J in ((4, {0, 4}, {1, 2}), (4, {-1, 0}, {1, 2}),
                    (6, {0, 1, 2}, {3, 4}), (6, {0, 1, 2}, {0, 1, 2, 3})):
        with pytest.raises(ValueError):
            dhm.Recipe(d, I, J)


def test_build_rejects_a_system_of_another_order():
    s = cyclotomy.build_classes(13, 12)
    with pytest.raises(ValueError, match="order-4 recipe needs an order-4 system"):
        dhm.build(s, dhm.triple_recipe((0, 1, 3)))


def test_build_order12_rejects():
    s = cyclotomy.build_classes(13, 12, 2)
    with pytest.raises(ValueError):
        dhm.build(s, dhm.Recipe(12, frozenset({0, 1}), SET_E))
    s73 = cyclotomy.build_classes(73, 12)   # f = 6 even
    with pytest.raises(ValueError):
        dhm.build(s73, dhm.Recipe(12, SET_A, SET_E))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_predicted_dI_examples():
    s = cyclotomy.build_classes(13, 12, 2)
    part = dhm.calibrate_order12(s)
    assert part.y_signed == -1
    # w = 1 lies in D_0 (even class): (13 + 2 - 3)/4 = 3
    assert dhm.predicted_dI(s, SET_A, 1, part) == 3
    # parity patterns: (q-1)/4 on the off-parity side
    w_odd = next(a for a in range(1, 13) if s.klass(a) % 2 == 1)
    assert dhm.predicted_dI(s, SET_E, w_odd, part) == 3     # (13-1)/4
    w_even = next(a for a in range(1, 13) if s.klass(a) % 2 == 0)
    assert dhm.predicted_dI(s, SET_F, w_even, part) == 3


def test_predicted_dI_matches_counts():
    for q in (13, 37):
        s = cyclotomy.build_classes(q, 12)
        part = dhm.calibrate_order12(s)
        for I in (SET_A, SET_B, SET_C, SET_D, SET_E, SET_F):
            DI = s.union(I)
            for w in range(1, q):
                assert dhm.predicted_dI(s, I, w, part) == \
                    restricted_distance(DI, DI, w, q)


def test_predicted_dI_rejects_unknown_set():
    s = cyclotomy.build_classes(13, 12, 2)
    part = dhm.calibrate_order12(s)
    with pytest.raises(ValueError):
        dhm.predicted_dI(s, frozenset({0, 1, 2, 3, 4, 5}), 1, part)


def test_predicted_dIJ_example_q13():
    s = cyclotomy.build_classes(13, 12, 2)
    part = dhm.calibrate_order12(s)
    # w = 1 in D_0 (even): (q + x - 2)/4 = (13 - 3 - 2)/4 = 2
    assert dhm.predicted_dIJ(s, SET_A, SET_C, 1, part) == 2


def _all_family_pairs():
    seen = set()
    for cond in dhm.ORDER12_CONDITIONS:
        for pair in dhm.theorem12_pairs(cond):
            seen.add(pair)
    return sorted(seen, key=lambda p: (sorted(p[0]), sorted(p[1])))


def test_predicted_dIJ_matches_counts_everywhere():
    for q in (13, 37):
        s = cyclotomy.build_classes(q, 12)
        part = dhm.calibrate_order12(s)
        for (I, J) in _all_family_pairs():
            DI, DJ = s.union(I), s.union(J)
            for w in range(1, q):
                assert dhm.predicted_dIJ(s, I, J, w, part) == \
                    restricted_distance(DI, DJ, w, q), (q, I, J, w)


def test_predicted_dIJ_matches_counts_at_every_named_pair():
    # every named pattern is +4-invariant, so every ordered pair of them has
    # a closed form, |A & B| = 0 included; a set that is not raises
    for q in (13, 37):
        s = cyclotomy.build_classes(q, 12)
        part = dhm.calibrate_order12(s)
        for I in dhm.NAMED_SETS.values():
            for J in dhm.NAMED_SETS.values():
                DI, DJ = s.union(I), s.union(J)
                for w in range(1, q):
                    assert dhm.predicted_dIJ(s, I, J, w, part) == \
                        restricted_distance(DI, DJ, w, q), (q, I, J, w)
        with pytest.raises(ValueError, match="not invariant under \\+4"):
            dhm.predicted_dIJ(s, frozenset(range(6)), SET_A, 1, part)
        with pytest.raises(ValueError, match="not invariant under \\+4"):
            dhm.predicted_spectrum(part, SET_A, frozenset(range(6)), False)


def test_predicted_spectrum_matches_counts():
    for q in (13, 37):
        s = cyclotomy.build_classes(q, 12)
        part = dhm.calibrate_order12(s)
        for (I, J) in _all_family_pairs():
            for z in (False, True):
                cset = dhm.build(s, dhm.Recipe(12, I, J, z))
                spec = adsets.distance_spectrum(cset)
                assert dhm.predicted_spectrum(part, I, J, z) == spec.histogram


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def reference_list_match(sys):
    """The list matching that fitted t before the gate table, kept as the
    reference for the congruence sign: each zero variant's hit set is matched
    to the one condition list it equals, or (at q = 5) to the union of the s1
    list and a t list.  Returns the names matched without and with (0,0), and
    the t sign when exactly one of t1, tm1 was matched."""
    matched = []
    for z, table in ((False, dhm.COROLLARY1_TRIPLES), (True, dhm.COROLLARY2_TRIPLES)):
        hit_set = set(dhm.order4_hit_triples(sys, z))
        names = [(name,) for name, trips in table.items() if hit_set == set(trips)]
        names += [tuple(sorted(("s1", t))) for t in ("t1", "tm1")
                  if hit_set == set(table["s1"]) | set(table[t])]
        matched.append(names[0] if names else ())
    both = set(matched[0]) | set(matched[1])
    t_signed = None
    if "t1" in both and "tm1" not in both:
        t_signed = 1
    elif "tm1" in both and "t1" not in both:
        t_signed = -1
    return matched[0], matched[1], t_signed


def assert_fit_matches_list_matching(bound):
    """At every prime q = 5 (mod 8) below bound the congruence-pinned t gates
    the condition names of the reference list matching, and has its sign at
    |t| = 1; at gateless primes the search hits nothing."""
    for q in range(5, bound, 8):
        if not ff.is_prime(q):
            continue
        s = cyclotomy.build_classes(q, 4)
        part = dhm.match_order4_conditions(s)
        no_zero, with_zero, t_signed = reference_list_match(s)
        assert t_signed == (part.y_signed if part.y_abs == 1 else None), q
        assert dhm.matching_conditions(4, part) == sorted(no_zero), q
        if part.y_abs == 1 or part.x == 1:
            assert no_zero and no_zero == with_zero, q
        else:
            assert no_zero == with_zero == (), q
            assert dhm.order4_hit_triples(s, False) == [], q
            assert dhm.order4_hit_triples(s, True) == [], q


def test_order4_fit_matches_list_matching_to_3000():
    assert_fit_matches_list_matching(3000)


def assert_gated_lists_are_the_hits(s, names):
    for z in (False, True):
        assert set(dhm.order4_hit_triples(s, z)) == {
            trip for cond in names for trip in dhm.corollary_triples(cond, z)}


def test_calibrate_order4_q29():
    s = cyclotomy.build_classes(29, 4)
    part = dhm.match_order4_conditions(s)
    names = dhm.matching_conditions(4, part)
    assert names in (["t1"], ["tm1"])
    assert_gated_lists_are_the_hits(s, names)
    assert part.y_signed in (1, -1)


def test_calibrate_order4_q37_s1():
    # s = 1, |t| = 3: t's sign gates nothing, but the congruence still pins it
    s = cyclotomy.build_classes(37, 4)
    part = dhm.match_order4_conditions(s)
    assert dhm.matching_conditions(4, part) == ["s1"]
    assert_gated_lists_are_the_hits(s, ["s1"])
    root = 2 * pow(s.g, (37 - 1) // 4, 37)
    assert part.y_signed == cyclotomy.congruence_sign(part.x, part.y_abs, root, 37) == 3


def test_calibrate_order4_q5_double_gate():
    # q=5 is the one prime with s = 1 and |t| = 1: the hit set is the union
    # of the s1 list and one t list
    s = cyclotomy.build_classes(5, 4)
    part = dhm.match_order4_conditions(s)
    names = dhm.matching_conditions(4, part)
    assert names[0] == "s1" and len(names) == 2
    assert_gated_lists_are_the_hits(s, names)
    assert part.y_signed in (1, -1)


def test_calibrate_order4_gateless_prime():
    # 61 = 25 + 36: s = 5, |t| = 3, no condition applies, so verify refuses q
    with pytest.raises(ValueError, match=r"q=61 .* \(s=5, \|t\|=3\)"):
        dhm.calibrated_system(61, 4)
    s = cyclotomy.build_classes(61, 4)
    part = dhm.match_order4_conditions(s)
    assert dhm.matching_conditions(4, part) == []
    assert abs(part.y_signed) == 3
    assert dhm.order4_hit_triples(s, False) == []
    assert dhm.order4_hit_triples(s, True) == []


def test_calibrate_order4_needs_exactly_one_fit(monkeypatch):
    # hit triples that the gated lists do not reproduce are a hard error, at
    # a gated prime and at a gateless one alike
    monkeypatch.setattr(dhm, "order4_hit_triples", lambda sys, z: [(0, 1, 2)])
    for q in (29, 61):
        with pytest.raises(ArithmeticError, match=f"q={q}"):
            dhm.match_order4_conditions(cyclotomy.build_classes(q, 4))


def test_gates_table():
    part = cyclotomy.QuadraticPartition(q=5, x=1, y_abs=1, y_signed=-1)
    assert dhm.gates(4, part) == {"s1": True, "t1": False, "tm1": True}
    assert dhm.matching_conditions(4, part) == ["s1", "tm1"]
    part = cyclotomy.QuadraticPartition(q=13, x=-3, y_abs=1, y_signed=1)
    assert dhm.gates(12, part) == {"x1": False, "y1": True, "ym1": False}
    assert dhm.matching_conditions(12, part) == ["y1a", "y1b"]
    with pytest.raises(ValueError):
        dhm.gates(6, part)


def test_matching_conditions():
    s13 = cyclotomy.build_classes(13, 12, 2)
    part = dhm.calibrate_order12(s13)
    assert dhm.matching_conditions(12, part) == ["ym1a", "ym1b"]
    s37 = cyclotomy.build_classes(37, 12, 2)
    part37 = dhm.calibrate_order12(s37)
    assert dhm.matching_conditions(12, part37) == ["x1"]


# ---------------------------------------------------------------------------
# family verification
# ---------------------------------------------------------------------------

def test_verify_family_order12_x1_q37():
    report = dhm.verify_family(37, 12, "x1")
    assert len(report.recipes) == 16
    assert report.all_pass
    assert all(r["predicted_matches_counts"] for r in report.recipes)


def test_verify_family_order12_q13_no_zero():
    report = dhm.verify_family(13, 12, "ym1a", include_zero=False)
    assert report.calibrated_sign == -1
    assert report.all_pass


def test_verify_family_zero_variant_slot_rule_q13():
    # with (0,0) adjoined a y family lists its pairs with the parity pattern
    # in the second slot only, the order in which the calibrated family passes
    rep = dhm.verify_family(13, 12, "ym1a", include_zero=True)
    outcome = {(tuple(r["I"]), tuple(r["J"])): r["pass"] for r in rep.recipes}
    assert outcome == {(tuple(sorted(SET_A)), tuple(sorted(SET_E))): True,
                       (tuple(sorted(SET_B)), tuple(sorted(SET_E))): True}
    # every recipe's predicted histogram still matches the counted one
    assert all(r["predicted_matches_counts"] for r in rep.recipes)
    # the opposite family fails in that order (it passes parity-first, which
    # test_zero_slot_pairs_match_counts_q13 checks)
    rep_opp = dhm.verify_family(13, 12, "y1b", include_zero=True)
    outcome_opp = {(tuple(r["I"]), tuple(r["J"])): r["pass"] for r in rep_opp.recipes}
    assert outcome_opp == {(tuple(sorted(SET_C)), tuple(sorted(SET_E))): False,
                           (tuple(sorted(SET_D)), tuple(sorted(SET_E))): False}
    assert all(r["predicted_matches_counts"] for r in rep_opp.recipes)
    # the plain variant and the x = 1 family keep both slot orders
    assert len(dhm.verify_family(13, 12, "ym1a", include_zero=False).recipes) == 4
    assert len(dhm.verify_family(37, 12, "x1", include_zero=True).recipes) == 8


def test_zero_slot_pairs_q13():
    s = cyclotomy.build_classes(13, 12, 2)
    part = dhm.calibrate_order12(s)
    pairs = {(dhm.SET_NAMES[I], dhm.SET_NAMES[J])
             for I, J in dhm.zero_slot_pairs(part)}
    assert pairs == {("A", "E"), ("B", "E"), ("C", "F"), ("D", "F"),
                     ("E", "C"), ("E", "D"), ("F", "A"), ("F", "B")}


def test_zero_slot_pairs_match_counts_q13():
    s = cyclotomy.build_classes(13, 12, 2)
    part = dhm.calibrate_order12(s)
    predicted = set(dhm.zero_slot_pairs(part))
    target = dhm.theorem_parameters(13, True)
    for cond in ("y1a", "y1b", "ym1a", "ym1b"):
        for (I, J) in dhm.theorem12_pairs(cond):
            cset = dhm.build(s, dhm.Recipe(12, I, J, include_zero=True))
            ok = adsets.classify(adsets.distance_spectrum(cset)).parameters == target
            assert ok == ((I, J) in predicted), (I, J)


def test_verify_family_precondition_errors():
    with pytest.raises(ValueError):
        dhm.verify_family(17, 4, "t1")      # 17 = 1 (mod 8)
    with pytest.raises(ValueError):
        dhm.verify_family(37, 12, "nope")
    with pytest.raises(ValueError):
        dhm.verify_family(73, 12, "x1")     # f even


def test_theorem_parameters():
    assert dhm.theorem_parameters(13, False) == (26, 12, 5, 18)
    assert dhm.theorem_parameters(13, True) == (26, 13, 6, 19)
    assert dhm.theorem_parameters(37, False) == (74, 36, 17, 54)


def test_order4_t_sign_meets_the_order12_y_congruence():
    """At every |t| = 1 prime q = 5 (mod 8) below 20,000 the t that the
    reference list matching fits to the hit triples is the one sign with
    s = 2t * g**((q-1)/4) (mod q), the root that pins y at order 12, and
    that match_order4_conditions reads (cyclotomy.resolve_signs)."""
    checked = []
    for q in range(5, 20000, 8):
        if not ff.is_prime(q) or cyclotomy.quadratic_partitions(q).y_abs != 1:
            continue
        s = cyclotomy.build_classes(q, 4)
        assert reference_list_match(s)[2] == dhm.match_order4_conditions(s).y_signed, q
        checked.append(q)
    assert len(checked) == 27
