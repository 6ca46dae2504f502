from itertools import combinations
from math import comb

import pytest

from cyclodes import cyclotomy, dhm, search
from cyclodes.adsets import DifferenceSpectrum, classify, distance_spectrum


def enumerate_pairs(d: int, size_i: int, size_j: int):
    """All C(d,size_i)*C(d,size_j) ordered pairs, lexicographic."""
    if size_i > d or size_j > d:
        raise ValueError("subset sizes cannot exceed d")
    for I in combinations(range(d), size_i):
        for J in combinations(range(d), size_j):
            yield I, J


def exhaustive_search_direct(q: int, d: int, include_zero: bool) -> list[search.SearchHit]:
    """The sweep's oracle: every pair's set built by dhm.build and decided
    by its direct spectrum; output identical to search.exhaustive_search."""
    sys = cyclotomy.build_classes(q, d)
    n, k, lam, tcount = target = dhm.theorem_parameters(q, include_zero)
    return [search.SearchHit(q=q, d=d, I=I, J=J, include_zero=include_zero,
                             n=n, k=k, lam=lam, t=tcount)
            for I, J in enumerate_pairs(d, d // 2, d // 2)
            if classify(distance_spectrum(dhm.build(
                sys, dhm.Recipe(d, I, J, include_zero)))).parameters == target]


def test_enumerate_pairs_counts():
    assert sum(1 for _ in enumerate_pairs(4, 2, 2)) == 36
    assert sum(1 for _ in enumerate_pairs(6, 3, 3)) == 400
    assert comb(12, 6) ** 2 == sum(1 for _ in enumerate_pairs(12, 6, 6)) == 853776
    first = next(iter(enumerate_pairs(4, 2, 2)))
    assert first == ((0, 1), (0, 1))


def test_search_primes():
    assert search.search_primes(12, 300) == [13, 37, 61, 109, 157, 181, 229, 277]
    assert search.search_primes(4, 60) == [5, 13, 29, 37, 53]
    assert search.search_primes(6, 100) == [7, 19, 31, 43, 67, 79]
    assert 17 not in search.search_primes(8, 100)   # f = 2 even


def test_exhaustive_search_rejects_bad_inputs():
    with pytest.raises(ValueError):
        search.exhaustive_search(13, 5, False)
    with pytest.raises(ValueError):
        search.exhaustive_search(73, 12, False)     # f even


def unbalanced_hits(q, d):
    """(plain, with zero) counts of ordered pairs (I, J) with |I| + |J| = d,
    |I| != d/2, that reach the target parameters: the splits the sweep skips."""
    s = cyclotomy.build_classes(q, d)
    counts = []
    for include_zero in (False, True):
        target = dhm.theorem_parameters(q, include_zero)
        n = 0
        for a in range(d + 1):
            if 2 * a == d:
                continue
            for I in combinations(range(d), a):
                for J in combinations(range(d), d - a):
                    hist = cyclotomy.stratum_spectrum(s, I, J, include_zero)
                    spec = DifferenceSpectrum(n=2 * q, k=q - 1 + include_zero, histogram=hist)
                    n += classify(spec).parameters == target
        counts.append(n)
    return tuple(counts)


def unbalanced_hit_primes(d, bound):
    return {q: h for q in search.search_primes(d, bound) if any(h := unbalanced_hits(q, d))}


def test_unbalanced_splits_hit_only_at_f1():
    # the sweep covers |I| = |J| = d/2 by choice; at q = d + 1 it misses these
    assert unbalanced_hit_primes(4, 200) == {5: (16, 8)}
    assert unbalanced_hit_primes(6, 200) == {7: (120, 0)}


def _named(hits):
    out = set()
    for h in hits:
        I, J = frozenset(h.I), frozenset(h.J)
        if I in dhm.SET_NAMES and J in dhm.SET_NAMES:
            out.add((dhm.SET_NAMES[I], dhm.SET_NAMES[J]))
    return out


def test_exhaustive_search_q37_exactly_x1_family():
    hits = search.exhaustive_search(37, 12, False)
    assert len(hits) == 8
    assert _named(hits) == {("A", "C"), ("C", "A"), ("A", "D"), ("D", "A"),
                            ("B", "C"), ("C", "B"), ("B", "D"), ("D", "B")}
    z_hits = search.exhaustive_search(37, 12, True)
    assert len(z_hits) == 8
    assert _named(z_hits) == _named(hits)


def test_exhaustive_search_q13_families_plus_extras():
    hits = search.exhaustive_search(13, 12, False)
    assert len(hits) == 32
    named = _named(hits)
    # the calibrated y = -1 families, both orders
    assert {("A", "E"), ("E", "A"), ("B", "E"), ("E", "B"),
            ("C", "F"), ("F", "C"), ("D", "F"), ("F", "D")} <= named
    # and exactly 24 extra sporadic pairs at this degenerate prime (f = 1)
    assert len(named) == 8
    hit_params = {(h.n, h.k, h.lam, h.t) for h in hits}
    assert hit_params == {(26, 12, 5, 18)}


def test_exhaustive_search_q13_with_zero_slot_rule():
    hits = search.exhaustive_search(13, 12, True)
    assert len(hits) == 32
    assert _named(hits) == {("A", "E"), ("B", "E"), ("C", "F"), ("D", "F"),
                            ("E", "C"), ("E", "D"), ("F", "A"), ("F", "B")}


def test_vectorized_matches_direct_route():
    for q, d in ((13, 4), (29, 4), (7, 6)):
        for z in (False, True):
            fast = search.exhaustive_search(q, d, z)
            slow = exhaustive_search_direct(q, d, z)
            assert fast == slow, (q, d, z)


def test_vectorized_hits_reverified_at_orders_8_10():
    # full direct sweeps are slow at C(8,4)^2 / C(10,5)^2 pairs; instead every
    # vectorized hit and a seeded sample of non-hits go through the direct
    # spectrum.  q=11 carries the sporadic order-10 hits.
    import random

    rng = random.Random(41)
    for q, d in ((41, 8), (11, 10)):
        s = cyclotomy.build_classes(q, d)
        for z in (False, True):
            hits = search.exhaustive_search(q, d, z)
            hit_keys = {(h.I, h.J) for h in hits}
            target = dhm.theorem_parameters(q, z)

            def direct_params(I, J):
                cset = dhm.build(s, dhm.Recipe(d, I, J, z))
                return classify(distance_spectrum(cset)).parameters

            for h in hits:
                assert direct_params(h.I, h.J) == target, (q, d, z, h)
            all_pairs = list(enumerate_pairs(d, d // 2, d // 2))
            for I, J in rng.sample(all_pairs, 60):
                if (I, J) not in hit_keys:
                    assert direct_params(I, J) != target, (q, d, z, I, J)


def test_order4_triple_search_matches_lists():
    assert set(dhm.order4_hit_triples(cyclotomy.build_classes(37, 4), False)) == \
        set(dhm.COROLLARY1_TRIPLES["s1"])
    assert set(dhm.order4_hit_triples(cyclotomy.build_classes(37, 4), True)) == \
        set(dhm.COROLLARY2_TRIPLES["s1"])
    hits29 = set(dhm.order4_hit_triples(cyclotomy.build_classes(29, 4), False))
    assert hits29 in (set(dhm.COROLLARY1_TRIPLES["t1"]),
                      set(dhm.COROLLARY1_TRIPLES["tm1"]))


def test_triple_pair_correspondence():
    # the (I, J) hits at an order-4 prime are exactly the images of the
    # triple hits under (i, j, l) -> ({i,j}, {l,j})
    q = 29
    trip = {(tuple(sorted({i, j})), tuple(sorted({l, j})))
            for i, j, l in dhm.order4_hit_triples(cyclotomy.build_classes(q, 4), False)}
    pair_hits = {(h.I, h.J) for h in search.exhaustive_search(q, 4, False)}
    assert trip == pair_hits


def test_canonical_shape_rotation_invariance():
    I, J = (0, 1, 4, 5, 8, 9), (0, 2, 4, 6, 8, 10)
    base = search.canonical_shape(12, I, J)
    for h in range(12):
        Ih = tuple(sorted((i + h) % 12 for i in I))
        Jh = tuple(sorted((j + h) % 12 for j in J))
        assert search.canonical_shape(12, Ih, Jh) == base


def test_hit_json_round_trip():
    import json
    hits = search.exhaustive_search(37, 12, False)
    line = hits[0].to_json()
    obj = json.loads(line)
    assert obj["q"] == 37 and obj["d"] == 12 and obj["k"] == 36


def test_resolve_workers_caps_at_cpu_count(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert search.resolve_workers(1) == 1
    assert search.resolve_workers(2) == 2
    assert search.resolve_workers(10**9) == 2
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert search.resolve_workers(64) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            search.resolve_workers(bad)


def test_capped_worker_count_runs_serially(monkeypatch):
    # with one CPU any request resolves to the serial path; the stub makes
    # building a pool fail instead of spawning processes
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
    primes = search.search_primes(4, 60)
    assert search.search_each_prime(primes, 4, False, workers=8) == \
        search.search_each_prime(primes, 4, False, workers=1)


def test_parallel_search_determinism():
    primes = search.search_primes(4, 120)
    solo = search.search_each_prime(primes, 4, False, workers=1)
    multi = search.search_each_prime(primes, 4, False, workers=4)
    assert solo == multi
    assert [h.to_json() for hits, _ in solo for h in hits] == \
        [h.to_json() for hits, _ in multi for h in hits]


def test_family_report_d12():
    # with 229 present the y = -1 gate has two witnesses, so the q=13
    # sporadic shapes cannot masquerade as families
    primes = [13, 37, 61, 109, 157, 229]
    report = search.cross_prime_family_report(12, 0, False, primes=primes)
    conds = sorted(f["condition"] for f in report.families)
    assert conds == ["x1", "x1", "ym1", "ym1"]
    for fam in report.families:
        if fam["condition"] == "x1":
            assert fam["primes_passed"] == [37]
        else:
            assert fam["primes_passed"] == [13, 229]
    # the 24 extra q=13 pairs fall into sporadic rotation classes
    assert len(report.sporadic) == 2
    assert all(s["primes_passed"] == [13] for s in report.sporadic)
    csv = report.family_csv()
    assert csv.splitlines()[0] == "shape_id,condition,primes_tested,primes_passed"
    assert len(csv.splitlines()) == 1 + 4 + 2


def test_zero_slot_rule_at_plus_y_prime():
    # q=1093 is the smallest f-odd prime with calibrated y = +1 and |y| = 1:
    # the with-zero slot rule must mirror the y = -1 pattern, and the closed
    # forms must predict it
    from cyclodes import cyclotomy
    q = 1093
    s = cyclotomy.build_classes(q, 12)
    part = dhm.calibrate_order12(s)
    assert part.y_signed == 1
    predicted = {(frozenset(I), frozenset(J)) for I, J in dhm.zero_slot_pairs(part)}
    hits = {(frozenset(h.I), frozenset(h.J))
            for h in search.exhaustive_search(q, 12, True)}
    assert hits == predicted
    assert _named(search.exhaustive_search(q, 12, True)) == {
        ("A", "F"), ("B", "F"), ("C", "E"), ("D", "E"),
        ("E", "A"), ("E", "B"), ("F", "C"), ("F", "D")}
    nz = _named(search.exhaustive_search(q, 12, False))
    assert nz == {("A", "F"), ("F", "A"), ("B", "F"), ("F", "B"),
                  ("C", "E"), ("E", "C"), ("D", "E"), ("E", "D")}


def test_family_report_d6_empty():
    report = search.cross_prime_family_report(6, 100, False)
    assert report.primes == [7, 19, 31, 43, 67, 79]
    assert report.hits == []
    assert report.families == [] and report.sporadic == []


def test_family_report_d4():
    report = search.cross_prime_family_report(4, 60, False)
    # gates at 5, 13, 29, 37, 53: s1 holds at {5, 37}, tm1 at {5, 13, 29, 53}
    # (q=5 satisfies both); shapes must match those gate sets exactly
    assert report.primes == [5, 13, 29, 37, 53]
    tested = {f["condition"]: f["primes_passed"] for f in report.families}
    assert set(tested) <= {"s1", "t1", "tm1"}
    for cond, passed in tested.items():
        if cond == "s1":
            assert passed == [5, 37]
        else:
            assert 13 in passed
