"""Differential tests of the table-derived stratum spectrum against direct
pair counting, the narrowed sweep against its full-grid reference, the
order-12 sweep decisions, the closed forms against the table and the
paper's statement of them, the order-12 hits as lifts of order-4 hits, and
the y-sign calibration."""

import random
from functools import lru_cache
from itertools import chain, combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclodes import cyclotomy, dhm, ff, search
from cyclodes.adsets import CharacteristicSet, DifferenceSpectrum, classify, distance_spectrum
from oracles import cubic_residue_02_check, paper_distance

PRIMES = [q for q in range(3, 400) if ff.is_prime(q)]
SWEEP_PRIMES = (13, 37, 229)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def classes(q, d):
    return cyclotomy.build_classes(q, d)


@st.composite
def constructions(draw):
    q = draw(st.sampled_from(PRIMES))
    d = draw(st.sampled_from([d for d in range(1, q) if (q - 1) % d == 0]))
    index_sets = st.frozensets(st.integers(0, d - 1))
    return q, d, draw(index_sets), draw(index_sets), draw(st.booleans())


def counted_histogram(q, d, I, J, include_zero):
    sys = classes(q, d)
    part0 = sys.union(I) | ({0} if include_zero else set())
    return distance_spectrum(CharacteristicSet(q=q, part0=part0, part1=sys.union(J))).histogram


@PROPERTY
@given(constructions())
@example((29, 4, frozenset({0, 1}), frozenset({1, 3}), True))      # f = 7 odd
@example((17, 4, frozenset({0, 1}), frozenset({1, 3}), True))      # f = 4 even
@example((41, 8, frozenset({1, 2, 5}), frozenset(), True))         # f = 5, J empty
@example((13, 1, frozenset({0}), frozenset({0}), False))           # whole group
@example((13, 12, frozenset(), frozenset(), True))                 # only (0,0)
def test_stratum_spectrum_equals_counted(case):
    q, d, I, J, include_zero = case
    assert cyclotomy.stratum_spectrum(classes(q, d), I, J, include_zero) == \
        counted_histogram(q, d, I, J, include_zero)


@lru_cache(maxsize=None)
def sweep_hits(q, include_zero):
    return {(h.I, h.J) for h in search.exhaustive_search(q, 12, include_zero)}


six_sets = st.lists(st.integers(0, 11), min_size=6, max_size=6, unique=True).map(
    lambda s: tuple(sorted(s)))


@st.composite
def sweep_pairs(draw):
    q = draw(st.sampled_from(SWEEP_PRIMES))
    include_zero = draw(st.booleans())
    hits = sorted(sweep_hits(q, include_zero))
    if hits and draw(st.booleans()):
        I, J = draw(st.sampled_from(hits))
    else:
        I, J = draw(six_sets), draw(six_sets)
    return q, include_zero, I, J


@PROPERTY
@given(sweep_pairs())
def test_sweep_decision_equals_stratum_classification(case):
    q, include_zero, I, J = case
    hist = cyclotomy.stratum_spectrum(classes(q, 12), I, J, include_zero)
    spec = DifferenceSpectrum(n=2 * q, k=q - 1 + include_zero, histogram=hist)
    is_hit = classify(spec).parameters == dhm.theorem_parameters(q, include_zero)
    assert is_hit == ((I, J) in sweep_hits(q, include_zero))


def test_sweep_pairs_reach_hits():
    assert all(sweep_hits(q, z) for q in SWEEP_PRIMES for z in (False, True))


def subset_members(d):
    """The d/2-subsets of range(d) in lexicographic order and their 0/1 rows."""
    subsets = list(combinations(range(d), d // 2))
    member = np.zeros((len(subsets), d), dtype=np.int64)
    for i, s in enumerate(subsets):
        member[i, list(s)] = 1
    return subsets, member


def full_grid_hit_pairs(sys, include_zero, same_slice=None):
    """Reference sweep: every stratum on the full C(d, d/2)**2 grid, one dense
    integer matrix product per class h.  same_slice, if given, limits the
    range check on the same-slice strata to those h (they still count
    towards the lam count)."""
    d, q, f = sys.d, sys.q, sys.f
    subsets, member = subset_members(d)
    ns = len(subsets)
    _, _, lam, tcount = dhm.theorem_parameters(q, include_zero)
    ok = np.ones((ns, ns), dtype=bool)
    lam_count = np.zeros((ns, ns), dtype=np.int64)
    for h in range(d):
        idx = [(i + h) % d for i in range(d)]
        th = sys.table[np.ix_(idx, idx)]
        m = member @ th @ member.T   # m[a,b] = sum_{i in A, j in B} (i+h, j+h)
        diag = m.diagonal()
        if include_zero:
            delta = member[:, (-h) % d] + member[:, (sys.minus_one_class - h) % d]
        else:
            delta = np.zeros(ns, dtype=np.int64)
        v0 = diag[:, None] + diag[None, :] + delta[:, None]
        v1 = m + m.T + delta[None, :]
        for v in (v0, v1):
            if v is v1 or same_slice is None or h in same_slice:
                ok &= (v == lam) | (v == lam + 1)
            lam_count += (v == lam) * f
    z = 2 * f * (member @ member.T)
    ok &= (z == lam) | (z == lam + 1)
    lam_count += z == lam
    ok &= lam_count == tcount
    return [(subsets[a], subsets[b]) for a, b in zip(*np.nonzero(ok))]


def test_narrowed_sweep_equals_full_grid():
    """hit_pairs against the full-grid reference in both zero variants: at
    d in {4, 6, 8, 10} for every f-odd prime below 500, and at d = 12 for
    q in SWEEP_PRIMES, the y1 primes 71293 and 199813 (8 hits in each
    variant) and 1,046,557, near the top of the search range."""
    cases = [(q, d) for d in (4, 6, 8, 10) for q in search.search_primes(d, 499)]
    cases += [(q, 12) for q in SWEEP_PRIMES + (71293, 199813, 1046557)]
    hits = 0
    for q, d in cases:
        sys = classes(q, d)
        for include_zero in (False, True):
            got = dhm.hit_pairs(sys, include_zero)
            assert got == full_grid_hit_pairs(sys, include_zero), (q, d, include_zero)
            hits += len(got)
    assert hits > 0


@st.composite
def stratum_vectors(draw):
    """Two int64 matrices with the same number of columns, one per stratum,
    and few distinct rows, one per subset, so that their sums often sit in
    {0, 1}.  Strata repeat, as h and h + d/2 of a real table do, and often
    one distinct stratum is left.  Column h of u sits near -base[h] and of v
    near base[h], with base up to 2**29 - 4, the edge of the values a packed
    key holds."""
    distinct = draw(st.integers(1, 4))
    pick = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=6))
    base = np.array([draw(st.sampled_from([0, 1, 2 ** 19, 2 ** 29 - 4]))
                     for _ in range(distinct)])

    def matrix(low, sign):
        rows = draw(st.integers(1, 9))
        cells = st.lists(st.integers(low, low + 3), min_size=distinct, max_size=distinct)
        values = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)), dtype=np.int64)
        return (values + sign * base)[:, pick]

    return matrix(-1, -1), matrix(-2, 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stratum_vectors())
@example((np.array([[0], [1], [-1]]), np.array([[1], [0], [2], [1]])))    # one stratum
@example((np.array([[0, 0], [1, 1]]), np.array([[1, 1], [0, 0], [0, 0]])))  # one distinct
@example((np.array([[5, -3, 2]]), np.array([[-5, 3, -2], [-4, 4, -1]])))  # odd count
def test_grouped_pairs_equal_double_loop(case):
    """dhm._join_near on the distinct strata (dhm._distinct_strata), as the
    sweep calls it, against the plain double loop over every (a, b) and every
    stratum: the same pairs, once each."""
    u, v = case
    expected = [(a, b) for a in range(len(u)) for b in range(len(v))
                if all(u[a, h] + v[b, h] in (0, 1) for h in range(u.shape[1]))]
    strata = dhm._distinct_strata(u, v)
    a, b = dhm._join_near(u[:, strata], v[:, strata])
    assert sorted(zip(a.tolist(), b.tolist())) == expected


def f_odd_prime(d, n):
    """The first prime q = d*f + 1 with f odd from about n up, else the last
    one below; q < 2**20."""
    top = (ff.Q_LIMIT - 2) // d
    f = min(max(n // d, 1), top) | 1
    return next(d * g + 1 for g in chain(range(f, top + 1, 2), range(f - 2, 0, -2))
                if ff.is_prime(d * g + 1))


@pytest.mark.parametrize("d", [4, 8, 12])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(5, ff.Q_LIMIT - 1))
@example(ff.Q_LIMIT - 1)
def test_sweep_equals_full_grid_at_drawn_primes(d, n):
    """hit_pairs against the full-grid reference at f-odd primes drawn below
    2**20, in both zero variants."""
    sys = cyclotomy.build_classes(f_odd_prime(d, n), d)
    for include_zero in (False, True):
        assert dhm.hit_pairs(sys, include_zero) == full_grid_hit_pairs(sys, include_zero), \
            (sys.q, d, include_zero)


def test_real_tables_have_half_as_many_distinct_same_slice_strata():
    """On a cyclotomic table with f odd, the same-slice strata of h and
    h + d/2 are equal (d_I(w) = d_I(-w), and -1 lies in class d/2), and the
    d/2 strata below d/2 differ, in both zero variants.  This sets how much
    the sweep saves by deciding distinct strata only; its result does not
    rest on it (see the synthetic tables)."""
    for d in (4, 6, 8, 10, 12):
        for q in search.search_primes(d, 3000)[:8] + [f_odd_prime(d, ff.Q_LIMIT - 1)]:
            sys = classes(q, d)
            _, member = subset_members(d)
            for include_zero in (False, True):
                diag, u = [], []
                for h in range(d):
                    idx = [(i + h) % d for i in range(d)]
                    diag.append(np.einsum("ai,ij,aj->a", member,
                                          sys.table[np.ix_(idx, idx)], member))
                    delta = member[:, -h % d] + member[:, (sys.minus_one_class - h) % d]
                    u.append(diag[-1] + include_zero * delta)
                strata = dhm._distinct_strata(np.array(u).T, np.array(diag).T)
                assert strata == list(range(d // 2)), (q, d, include_zero)


def synthetic_table(rng, d, period):
    """A (d, d) table that is not cyclotomic: all ones with a few entries
    moved by one, drawn per (i mod period, j mod period).  With period < d,
    the subsets that meet each residue class mod period equally often share
    every stratum value, so the sweep's groups of equal vectors are large and
    uneven."""
    down, up = rng.random() / 2, rng.random() / 5
    block = [[1 - (rng.random() < down) + (rng.random() < up) for _ in range(period)]
             for _ in range(period)]
    return np.array([[block[i % period][j % period] for j in range(d)] for i in range(d)],
                    dtype=np.int64)


def test_narrowed_sweep_equals_full_grid_on_synthetic_tables():
    """The same equality on tables that are not cyclotomic, so that most
    strata sit at lam or lam + 1.  Real tables tie the checks together:
    d_I(w) = d_I(-w) makes the strata h and h + d/2 equal, and the
    differences sum to k(k-1), which fixes the lam count once every stratum
    is in {lam, lam+1}.  These tables do not, so a check that real tables
    make redundant, such as the lam count, can change the result here.  At
    d in {8, 10, 12} the tables repeat with a period dividing d, and f is
    drawn near d times the mean entry, where lam = (d*f - 2)/2 meets the
    typical same-slice stratum, so that whole groups of equal vectors reach
    the cross-slice checks together."""
    cases = [(seed, None) for seed in range(200)]
    cases += [(seed, d) for d in (8, 10) for seed in range(16)]
    cases += [(seed, 12) for seed in (4, 7, 12)]   # 46,656, 648 and 2 plain pairs reach v1
    hits = 0
    for seed, d in cases:
        rng = random.Random(seed)
        if d is None:               # no period at d in {4, 6}
            d, q = rng.choice([(4, 13), (4, 17), (6, 31), (6, 37)])
            table = synthetic_table(rng, d, d)
        else:
            table = synthetic_table(rng, d, rng.choice([p for p in range(2, d) if d % p == 0]))
            q = d * (round(d * table.mean()) + rng.randrange(-1, 2)) + 1
        sys = SimpleNamespace(d=d, q=q, f=(q - 1) // d, minus_one_class=d // 2, table=table)
        for include_zero in (False, True):
            got = dhm.hit_pairs(sys, include_zero)
            assert got == full_grid_hit_pairs(sys, include_zero), (seed, d, include_zero)
            hits += len(got)
    assert hits > 0


# Synthetic order-10 and order-12 tables with f = 1, as their nonzero
# entries, built so that the sorted join of dhm.hit_pairs is what decides
# them: a hit needs lam + 1 on a lead same-slice stratum (one of the two in
# the join's key), and a pair that is no hit passes the lead strata, the
# cross-slice strata, the (1, 0) shift and the lam count, and fails only on a
# later same-slice stratum.  On real tables every hit has its lead strata at
# lam, and the other checks reject what the later strata would.
LEAD_LAM_PLUS_ONE_TABLES = {
    10: {(0, 8): 1, (2, 3): 1, (4, 1): 1, (4, 9): 2, (5, 0): 1, (5, 3): 1, (6, 9): 1,
         (8, 7): 1},
    12: {(0, 8): 1, (0, 10): 1, (2, 6): 1, (3, 2): 1, (4, 4): 1, (5, 3): 1, (8, 9): 1,
         (9, 1): 1, (9, 10): 1, (11, 1): 1, (11, 5): 1},
}


@pytest.mark.parametrize("d", sorted(LEAD_LAM_PLUS_ONE_TABLES))
def test_narrowed_sweep_equals_full_grid_when_a_hit_needs_lam_plus_one_on_a_lead_stratum(d):
    table = np.zeros((d, d), dtype=np.int64)
    for (i, j), value in LEAD_LAM_PLUS_ONE_TABLES[d].items():
        table[i, j] = value
    sys = SimpleNamespace(d=d, q=d + 1, f=1, minus_one_class=d // 2, table=table)
    for include_zero in (False, True):
        assert dhm.hit_pairs(sys, include_zero) == full_grid_hit_pairs(sys, include_zero)
    # What makes the table a check of the join, in the plain variant.
    subsets, member = subset_members(d)
    lam = dhm.theorem_parameters(sys.q, False)[2]
    diag = np.array([np.einsum("ai,ij,aj->a", member, table[np.ix_(idx, idx)], member)
                     for idx in ([(i + h) % d for i in range(d)] for h in range(d))]).T
    lead = dhm._distinct_strata(diag - lam, diag)[:2]
    index = {s: a for a, s in enumerate(subsets)}
    hits = full_grid_hit_pairs(sys, False)
    assert any(lam + 1 in (diag[index[I], lead] + diag[index[J], lead]) for I, J in hits)
    assert set(full_grid_hit_pairs(sys, False, same_slice=lead)) > set(hits)


def test_predicted_spectrum_equals_stratum_spectrum():
    """The closed forms against the table at every order-12 f-odd prime below
    1000: stratum by stratum, d_{A,B} on every h for every named (A, B) with
    A == B or |A & B| = 3, since equal histograms can hide two swapped
    strata; and the histograms at every theorem pair, both zero variants."""
    primes = [q for q in range(13, 1000) if q % 24 == 13 and ff.is_prime(q)]
    pairs = {p for cond in dhm.ORDER12_CONDITIONS for p in dhm.theorem12_pairs(cond)}
    named = [(A, B) for A in dhm.NAMED_SETS.values() for B in dhm.NAMED_SETS.values()
             if A == B or len(A & B) == 3]
    assert len(named) == 30
    cases = 0
    for q in primes:
        part = dhm.calibrate_order12(classes(q, 12))
        rows = classes(q, 12).table.tolist()
        for A, B in named:
            for h in range(12):
                assert dhm.predicted_distance(part, A, B, h) == \
                    cyclotomy.stratum_distance(rows, A, B, h), (q, sorted(A), sorted(B), h)
        for I, J in pairs:
            for include_zero in (False, True):
                assert dhm.predicted_spectrum(part, I, J, include_zero) == \
                    cyclotomy.stratum_spectrum(classes(q, 12), I, J, include_zero), \
                    (q, sorted(I), sorted(J), include_zero)
                cases += 1
    assert cases == 1056


def test_paper_distance_equals_predicted_distance():
    """The paper's five piecewise forms against the order-4 derivation, for
    the 30 named (A, B) with A == B or |A & B| = 3 on every h, at every
    order-12 f-odd prime below 1000."""
    primes = [q for q in range(13, 1000, 24) if ff.is_prime(q)]
    named = [(A, B) for A in dhm.NAMED_SETS.values() for B in dhm.NAMED_SETS.values()
             if A == B or len(A & B) == 3]
    assert len(primes) == 22 and len(named) == 30
    for q in primes:
        part = dhm.calibrate_order12(classes(q, 12))
        for A, B in named:
            for h in range(12):
                assert paper_distance(part, A, B, h) == dhm.predicted_distance(part, A, B, h), \
                    (q, sorted(A), sorted(B), h)


def is_lift(S):
    return {(i + 4) % 12 for i in S} == set(S)


def test_order12_hits_past_f1_are_lifts_of_order4_hits():
    """Every d=12 sweep hit with f > 1 below 5000, in both variants, has I
    and J invariant under +4, and its projection (I mod 4, J mod 4) is a d=4
    sweep hit at the same q: the order-12 hits are DHM's order-4 sets.  Only
    at q = 13, where f = 1, do hits that are not lifts occur."""
    hits = 0
    for q in [q for q in range(37, 5000, 24) if ff.is_prime(q)]:
        for include_zero in (False, True):
            order4 = set(dhm.hit_pairs(classes(q, 4), include_zero))
            for I, J in dhm.hit_pairs(classes(q, 12), include_zero):
                assert is_lift(I) and is_lift(J), (q, I, J, include_zero)
                projection = (tuple(sorted({i % 4 for i in I})),
                              tuple(sorted({j % 4 for j in J})))
                assert projection in order4, (q, I, J, include_zero)
                hits += 1
    assert hits == 128
    assert not all(is_lift(I) and is_lift(J)
                   for z in (False, True) for I, J in dhm.hit_pairs(classes(13, 12), z))


def direct_y_sign(sys, y_abs):
    """Oracle: count the translate overlap of D_{0,1,4,5,8,9} at every
    even-class shift and fit (q - 2y - 3)/4."""
    q = sys.q
    members = sys.union({0, 1, 4, 5, 8, 9})
    overlaps = {sum(1 for a in members if (a + w) % q in members)
                for w in range(1, q) if sys.class_of[w] % 2 == 0}
    fits = [y for y in {y_abs, -y_abs}
            if (q - 2 * y - 3) % 4 == 0 and overlaps == {(q - 2 * y - 3) // 4}]
    assert len(fits) == 1, (q, overlaps)
    return fits[0]


def test_resolve_signs_matches_direct_overlap_count():
    primes = [q for q in range(13, 1000) if q % 24 == 13 and ff.is_prime(q)]
    assert len(primes) == 22
    for q in primes:
        sys = classes(q, 12)
        part = cyclotomy.resolve_signs(sys, cyclotomy.quadratic_partitions(q))
        assert part.y_signed == direct_y_sign(sys, part.y_abs), q


def test_order4_hits_match_direct_spectra():
    for q in (13, 29, 37, 53, 61, 101):
        sys = classes(q, 4)
        for include_zero in (False, True):
            target = dhm.theorem_parameters(q, include_zero)
            direct = [t for t in permutations(range(4), 3)
                      if classify(distance_spectrum(dhm.build(
                          sys, dhm.triple_recipe(t, include_zero)))).parameters == target]
            assert dhm.order4_hit_triples(sys, include_zero) == direct


def test_order4_sweep_equals_stratum_triples():
    """The d=4 sweep against the triple route, at every q = 5 (mod 8) below
    2000: each sweep hit (I, J) has |I & J| = 1 and maps to the triple
    (i, j, l) with I = {i, j}, J = {l, j}; the mapped hits, sorted, are
    exactly the triples whose stratum spectra reach the target."""
    primes = [q for q in range(5, 2000) if q % 8 == 5 and ff.is_prime(q)]
    for q in primes:
        sys = cyclotomy.build_classes(q, 4)
        for include_zero in (False, True):
            mapped = []
            for I, J in dhm.hit_pairs(sys, include_zero):
                (j,) = set(I) & set(J)
                (i,) = set(I) - {j}
                (l,) = set(J) - {j}
                mapped.append((i, j, l))
            assert sorted(mapped) == dhm.order4_hit_triples(sys, include_zero), \
                (q, include_zero)


def count_tables(monkeypatch):
    """Count cyclotomy.cyclotomic_numbers calls from here on."""
    calls = []
    original = cyclotomy.cyclotomic_numbers

    def counting(sys):
        calls.append((sys.q, sys.d))
        return original(sys)

    monkeypatch.setattr(cyclotomy, "cyclotomic_numbers", counting)
    return calls


def test_order4_match_counts_one_table(monkeypatch):
    calls = count_tables(monkeypatch)
    part = dhm.match_order4_conditions(cyclotomy.build_classes(29, 4))
    assert dhm.matching_conditions(4, part)
    assert calls == [(29, 4)]


def test_order12_readers_share_one_table(monkeypatch):
    calls = count_tables(monkeypatch)
    sys = cyclotomy.build_classes(229, 12)
    part = cyclotomy.resolve_signs(sys, cyclotomy.quadratic_partitions(229))
    assert cubic_residue_02_check(sys, part)
    assert sys.table.sum() == 229 - 2
    assert calls == [(229, 12)]
