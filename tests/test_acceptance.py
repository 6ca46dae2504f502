"""Acceptance suite: one test per criterion, zero tolerance, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.
"""

import time

import numpy as np

from cyclodes import adsets, cyclotomy, dhm, ff, search, seqkit
from cyclodes.adsets import CharacteristicSet
from cyclodes.dhm import SET_A, SET_E
from oracles import delta_term, restricted_distance

LEMMA_PRIMES = (13, 37, 61, 109, 157)
ORDER4_T_PRIMES = (13, 29, 53, 173)
ORDER4_S_PRIMES = (37, 101, 197)
ORDER12_PRIMES = {37: "x1", 13: "y", 229: "y"}


def _announce(number: int, label: str, started: float, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{label}]: {status} ({time.perf_counter() - started:.2f}s)")


def _all_family_pairs():
    seen = []
    for cond in dhm.ORDER12_CONDITIONS:
        for pair in dhm.theorem12_pairs(cond):
            if pair not in seen:
                seen.append(pair)
    return seen


# ---------------------------------------------------------------------------
# 1. cyclotomic identities for q = 13 (mod 24), q <= 1000
# ---------------------------------------------------------------------------

def test_criterion_1_cyclotomic_identities():
    t0 = time.perf_counter()
    ok = True
    primes = [q for q in range(13, 1001, 24) if ff.is_prime(q)]
    assert primes[0] == 13 and primes[-1] == 997 and len(primes) == 22
    for q in primes:
        s = cyclotomy.build_classes(q, 12)
        table = cyclotomy.cyclotomic_numbers(s)
        ok &= table.sum() == q - 2
        for h, rs in enumerate(table.sum(axis=1).tolist()):
            ok &= rs == s.f - (1 if h == 6 else 0)
        ok &= np.array_equal(table, table.ravel()[cyclotomy.orbit_representatives(12)])
    elapsed = time.perf_counter() - t0
    _announce(1, "cyclotomic identities q<=1000", t0, ok and elapsed < 5.0)
    assert ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. coefficient-matrix reproduction at every case-1 prime <= 1000
# ---------------------------------------------------------------------------

def test_criterion_2_case1_matrix():
    t0 = time.perf_counter()
    primes = [q for q in range(13, 1001, 24) if ff.is_prime(q)]
    case1 = []
    ok = True
    for q in primes:
        s = cyclotomy.build_classes(q, 12)
        if cyclotomy.classify_case(s).case_number != 1:
            continue
        case1.append(q)
        part = cyclotomy.resolve_signs(s, cyclotomy.quadratic_partitions(q))
        ok &= np.array_equal(cyclotomy.m1_predicted(q, part), cyclotomy.cyclotomic_numbers(s))
    ok &= case1 == [13, 709, 757]
    _announce(2, f"case-1 matrix at {case1}", t0, ok)
    assert ok


# ---------------------------------------------------------------------------
# 3. lemma suite at q in {13, 37, 61, 109, 157}
# ---------------------------------------------------------------------------

def test_criterion_3_lemma_suite():
    t0 = time.perf_counter()
    ok = True
    for q in LEMMA_PRIMES:
        s = cyclotomy.build_classes(q, 12)
        part = dhm.calibrate_order12(s)
        unions = {name: s.union(idx) for name, idx in dhm.NAMED_SETS.items()}

        # closed-form d_I for all six patterns, every w != 0
        for name, I in dhm.NAMED_SETS.items():
            DI = unions[name]
            for w in range(1, q):
                ok &= dhm.predicted_dI(s, I, w, part) == \
                    restricted_distance(DI, DI, w, q)

        # closed-form d_{I,J} for every family pair, every w != 0
        for (I, J) in _all_family_pairs():
            DI, DJ = s.union(I), s.union(J)
            for w in range(1, q):
                ok &= dhm.predicted_dIJ(s, I, J, w, part) == \
                    restricted_distance(DI, DJ, w, q)

        # slice decomposition and zero-pair correction, exhaustive (w1, w2)
        for (I, J) in _all_family_pairs():
            DI, DJ = s.union(I), s.union(J)
            plain = CharacteristicSet(q=q, part0=DI, part1=DJ)
            extended = CharacteristicSet(q=q, part0=DI | {0}, part1=DJ)
            for w2 in range(q):
                if w2 == 0:
                    ok &= adsets.distance_at(plain, 1, 0) == 2 * len(DI & DJ)
                    ok &= adsets.distance_at(extended, 1, 0) == \
                        adsets.distance_at(plain, 1, 0)
                    continue
                d0 = restricted_distance(DI, DI, w2, q) + \
                    restricted_distance(DJ, DJ, w2, q)
                d1 = restricted_distance(DI, DJ, w2, q) + \
                    restricted_distance(DJ, DI, w2, q)
                ok &= adsets.distance_at(plain, 0, w2) == d0
                ok &= adsets.distance_at(plain, 1, w2) == d1
                ok &= adsets.distance_at(extended, 0, w2) == \
                    d0 + len(DI & {w2, (-w2) % q})
                ok &= adsets.distance_at(extended, 1, w2) == \
                    d1 + len(DJ & {w2, (-w2) % q})

        # delta terms: class-shift rule vs direct intersection, all patterns
        probes = list(dhm.NAMED_SETS.values()) + \
            [frozenset({0, 6, 1, 2, 3, 4}), frozenset({1, 2, 3, 4, 5, 7})]
        for I in probes:
            DI = s.union(I)
            for w2 in range(1, q):
                ok &= delta_term(I, s, w2) == len(DI & {w2, (-w2) % q})
    elapsed = time.perf_counter() - t0
    _announce(3, "lemma suite", t0, ok and elapsed < 30.0)
    assert ok
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. order-4 condition lists at the validation primes
# ---------------------------------------------------------------------------

def test_criterion_4_order4_lists():
    t0 = time.perf_counter()
    ok = True
    for q in ORDER4_T_PRIMES + ORDER4_S_PRIMES:
        hits_nz = set(dhm.order4_hit_triples(cyclotomy.build_classes(q, 4), False))
        hits_z = set(dhm.order4_hit_triples(cyclotomy.build_classes(q, 4), True))
        match_nz = [c for c, trips in dhm.COROLLARY1_TRIPLES.items()
                    if hits_nz == set(trips)]
        match_z = [c for c, trips in dhm.COROLLARY2_TRIPLES.items()
                   if hits_z == set(trips)]
        ok &= len(match_nz) == 1 and len(match_z) == 1
        ok &= match_nz == match_z
        if q in ORDER4_S_PRIMES:
            ok &= match_nz == ["s1"]
        else:
            ok &= match_nz[0] in ("t1", "tm1")
        # the search accepts a triple only at the exact target parameters,
        # so re-assert them through an independent spectrum per listed triple
        s = cyclotomy.build_classes(q, 4)
        for include_zero, hit_set in ((False, hits_nz), (True, hits_z)):
            target = dhm.theorem_parameters(q, include_zero)
            for (i, j, l) in hit_set:
                cset = dhm.build(s, dhm.triple_recipe((i, j, l), include_zero))
                cls = adsets.classify(adsets.distance_spectrum(cset))
                ok &= cls.parameters == target
    elapsed = time.perf_counter() - t0
    _announce(4, "order-4 corollary lists", t0, ok and elapsed < 60.0)
    assert ok
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. order-12 theorems plus the exhaustive cross-check
# ---------------------------------------------------------------------------

def test_criterion_5_order12_theorems():
    t0 = time.perf_counter()
    ok = True
    for q, kind in ORDER12_PRIMES.items():
        s = cyclotomy.build_classes(q, 12)
        part = dhm.calibrate_order12(s)
        if kind == "x1":
            conditions = ["x1"]
            ok &= part.x == 1
        else:
            ok &= abs(part.y_signed) == 1
            conditions = (["ym1a", "ym1b"] if part.y_signed == -1
                          else ["y1a", "y1b"])
            opposite = (["y1a", "y1b"] if part.y_signed == -1
                        else ["ym1a", "ym1b"])
            # exactly one y-sign family succeeds: the calibrated one passes
            # in full (checked below), the opposite fails on every pair
            for cond in opposite:
                for (I, J) in dhm.theorem12_pairs(cond):
                    cset = dhm.build(s, dhm.Recipe(12, I, J, False))
                    cls = adsets.classify(adsets.distance_spectrum(cset))
                    ok &= cls.parameters != dhm.theorem_parameters(q, False)

        # plain variant: every ordered pair of the calibrated conditions
        for cond in conditions:
            rep = dhm.verify_family(q, 12, cond, include_zero=False)
            ok &= rep.all_pass

        # with (0,0): at x = 1 both slot orders work; at |y| = 1 exactly one
        # slot order per unordered pair, the one the closed forms predict
        if kind == "x1":
            rep = dhm.verify_family(q, 12, "x1", include_zero=True)
            ok &= rep.all_pass
        else:
            predicted = set(dhm.zero_slot_pairs(part))
            target = dhm.theorem_parameters(q, True)
            seen_unordered = set()
            relevant = [p for c in ("y1a", "y1b", "ym1a", "ym1b")
                        for p in dhm.theorem12_pairs(c)]
            for (I, J) in relevant:
                cset = dhm.build(s, dhm.Recipe(12, I, J, True))
                cls = adsets.classify(adsets.distance_spectrum(cset))
                hit = cls.parameters == target
                ok &= hit == ((I, J) in predicted)
                if hit:
                    seen_unordered.add(frozenset((I, J)))
            # every unordered pair of both families is reachable in one order
            ok &= seen_unordered == {frozenset(p) for p in relevant}

    # exhaustive 853776-pair cross-checks at q = 13 and 37
    for q in (13, 37):
        s = cyclotomy.build_classes(q, 12)
        part = dhm.calibrate_order12(s)
        for include_zero in (False, True):
            hits = {(frozenset(h.I), frozenset(h.J))
                    for h in search.exhaustive_search(q, 12, include_zero)}
            if include_zero:
                expected_family = (set(dhm.zero_slot_pairs(part))
                                   if abs(part.y_signed) == 1 else set())
                if part.x == 1:
                    expected_family |= set(dhm.theorem12_pairs("x1"))
            else:
                expected_family = {p for c in dhm.matching_conditions(12, part)
                                   for p in dhm.theorem12_pairs(c)}
            ok &= {(frozenset(I), frozenset(J))
                   for I, J in expected_family} <= hits
            extras = len(hits) - len(expected_family)
            # q=37 is exact; the degenerate f=1 prime carries 24 extras,
            # reported by the search rather than suppressed
            ok &= extras == (24 if q == 13 else 0)
    elapsed = time.perf_counter() - t0
    _announce(5, "order-12 theorems + exhaustive cross-check", t0,
              ok and elapsed < 120.0)
    assert ok
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. nonexistence probe at orders 6, 8, 10
# ---------------------------------------------------------------------------

def test_criterion_6_orders_6_8_10():
    t0 = time.perf_counter()
    ok = True
    for d in (6, 8, 10):
        for include_zero in (False, True):
            report = search.cross_prime_family_report(d, 500, include_zero)
            ok &= len(report.primes) >= 9
            ok &= report.families == []
            # sporadic single-prime hits (they exist at d=10, q=11) are
            # listed, never silenced, and never span two primes
            for spo in report.sporadic:
                ok &= len(spo["primes_passed"]) == 1
    elapsed = time.perf_counter() - t0
    _announce(6, "orders 6/8/10 nonexistence, q<=500", t0, ok and elapsed < 600.0)
    assert ok
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. sequence layer
# ---------------------------------------------------------------------------

def test_criterion_7_sequences():
    t0 = time.perf_counter()
    ok = True
    s13 = cyclotomy.build_classes(13, 12, 2)
    cset = dhm.build(s13, dhm.Recipe(12, SET_A, SET_E))
    seq = seqkit.set_sequence(cset)
    profile = seqkit.autocorrelation(seq)
    ok &= seq.n == 26 and seq.weight == 12
    ok &= profile.levels == {26: 1, 2: 7, -2: 18}
    for q in LEMMA_PRIMES:
        s = cyclotomy.build_classes(q, 12)
        for include_zero in (False, True):
            c = dhm.build(s, dhm.Recipe(12, SET_A, SET_E, include_zero))
            ok &= seqkit.verify_ac_identity(c)
    elapsed = time.perf_counter() - t0
    _announce(7, "sequence layer", t0, ok and elapsed < 5.0)
    assert ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 8. determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_8_worker_determinism():
    t0 = time.perf_counter()
    ok = True
    configs = [(4, sorted(ORDER4_T_PRIMES + ORDER4_S_PRIMES), False),
               (6, search.search_primes(6, 500), False),
               (8, search.search_primes(8, 500), False),
               (10, search.search_primes(10, 500), False),
               (12, [13, 37], False),
               (12, [13, 37], True)]
    for d, primes, include_zero in configs:
        solo = search.cross_prime_family_report(d, 0, include_zero,
                                                primes=primes, workers=1)
        multi = search.cross_prime_family_report(d, 0, include_zero,
                                                 primes=primes, workers=8)
        solo_bytes = "\n".join(h.to_json() for h in solo.hits) + solo.family_csv()
        multi_bytes = "\n".join(h.to_json() for h in multi.hits) + multi.family_csv()
        ok &= solo_bytes == multi_bytes
        ok &= solo.to_dict() == multi.to_dict()
    _announce(8, "worker determinism", t0, ok)
    assert ok
