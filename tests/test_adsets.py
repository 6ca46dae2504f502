import ast
import inspect
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclodes import adsets, cli, cyclotomy, dhm, ff, seqkit
from cyclodes.adsets import CharacteristicSet
from oracles import delta_term, difference_function_bincount, restricted_distance


def _theorem_set_q13():
    s = cyclotomy.build_classes(13, 12, 2)
    return CharacteristicSet(q=13, part0=s.union(dhm.SET_A), part1=s.union(dhm.SET_E))


def test_spectrum_empty_set():
    spec = adsets.distance_spectrum(CharacteristicSet(q=7, part0=frozenset(), part1=frozenset()))
    assert spec.histogram == {0: 13}


def test_spectrum_full_group():
    full = frozenset(range(7))
    spec = adsets.distance_spectrum(CharacteristicSet(q=7, part0=full, part1=full))
    assert spec.histogram == {14: 13}


def test_spectrum_theorem_set_q13():
    spec = adsets.distance_spectrum(_theorem_set_q13())
    assert spec.histogram == {5: 18, 6: 7}


def test_classify_examples():
    spec = adsets.distance_spectrum(_theorem_set_q13())
    cls = adsets.classify(spec)
    assert cls.parameters == (26, 12, 5, 18)

    ds = adsets.DifferenceSpectrum(n=16, k=6, histogram={2: 15})
    assert adsets.classify(ds).parameters == (16, 6, 2)

    neither = adsets.DifferenceSpectrum(n=26, k=10, histogram={3: 20, 6: 5})
    assert adsets.classify(neither).kind == "neither"


def test_classify_degenerate_sets():
    empty = adsets.distance_spectrum(CharacteristicSet(q=7, part0=frozenset(), part1=frozenset()))
    cls = adsets.classify(empty)
    assert cls.kind == "neither" and cls.note == adsets.DEGENERATE_NOTE


def test_spectrum_invariants_enforced():
    with pytest.raises(ValueError):
        adsets.DifferenceSpectrum(n=26, k=12, histogram={5: 18, 6: 6})  # 24 != 25
    with pytest.raises(ValueError):
        adsets.DifferenceSpectrum(n=26, k=12, histogram={5: 20, 6: 5})  # pair count off


def test_spectrum_double_count_random_sets():
    rng = random.Random(11)
    for _ in range(10):
        q = rng.choice([7, 13, 17])
        part0 = frozenset(a for a in range(q) if rng.random() < 0.4)
        part1 = frozenset(a for a in range(q) if rng.random() < 0.4)
        cset = CharacteristicSet(q=q, part0=part0, part1=part1)
        spec = adsets.distance_spectrum(cset)   # __post_init__ checks both identities
        assert sum(spec.histogram.values()) == 2 * q - 1


@st.composite
def slice_sets(draw, qs=st.integers(1, 30).map(lambda m: 2 * m + 1)):
    """Sets on Z2 x Zq, q odd in [3, 61] unless qs says otherwise: random,
    dense, empty or full slices, with or without (0,0), and a difference block
    size that forces one shift per block, a few per block, or one block."""
    q = draw(qs)
    nonzero = frozenset(range(1, q))
    sparse = st.frozensets(st.integers(1, q - 1)) if q > 1 else st.just(nonzero)
    residues = {"random": sparse, "dense": sparse.map(nonzero.difference),
                "empty": st.just(frozenset()), "full": st.just(nonzero)}
    part0 = draw(st.sampled_from(sorted(residues)).flatmap(residues.get))
    part1 = draw(st.sampled_from(sorted(residues)).flatmap(residues.get))
    zero0, zero1 = draw(st.booleans()), draw(st.booleans())
    cset = CharacteristicSet(q=q, part0=part0 | ({0} if zero0 else set()),
                             part1=part1 | ({0} if zero1 else set()))
    return cset, draw(st.sampled_from([1, 5, 1 << 10, adsets.DIFFERENCE_BLOCK]))


def looped_spectrum(cset):
    """The shift-by-shift histogram of distance_at, the reference loop."""
    histogram = {}
    for w1 in (0, 1):
        for w2 in range(cset.q):
            if (w1, w2) != (0, 0):
                d = adsets.distance_at(cset, w1, w2)
                histogram[d] = histogram.get(d, 0) + 1
    return histogram


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(slice_sets())
@example((CharacteristicSet(q=3, part0=frozenset(), part1=frozenset()), 1))
@example((CharacteristicSet(q=61, part0=frozenset(range(61)), part1=frozenset(range(61))), 5))
@example((CharacteristicSet(q=13, part0=frozenset({0}), part1=frozenset()), 1))
def test_difference_function_equals_distance_at(case):
    cset, block = case
    with mock.patch.object(adsets, "DIFFERENCE_BLOCK", block):
        same, cross = adsets.difference_function(cset)
        histogram = adsets.distance_spectrum(cset).histogram
    assert same.dtype == cross.dtype == np.int64 and same.shape == cross.shape == (cset.q,)
    assert same.tolist() == [adsets.distance_at(cset, 0, w) for w in range(cset.q)]
    assert cross.tolist() == [adsets.distance_at(cset, 1, w) for w in range(cset.q)]
    assert histogram == looped_spectrum(cset)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(slice_sets(st.integers(1, 200)))
@example((CharacteristicSet(q=1, part0=frozenset(), part1=frozenset({0})), 1))
@example((CharacteristicSet(q=2, part0=frozenset({0, 1}), part1=frozenset({1})), 1))
@example((CharacteristicSet(q=4, part0=frozenset({0, 2}), part1=frozenset({1, 2, 3})), 1))
@example((CharacteristicSet(q=200, part0=frozenset({0, 3, 7}), part1=frozenset(range(200))), 5))
def test_difference_function_equals_bincount_oracle(case):
    # q odd and even, one shift per block, a few shifts per block with a
    # ragged last block, or one block for every shift; at q = 2 and 4 the
    # shift w = q/2 is its own mirror
    cset, block = case
    with mock.patch.object(adsets, "DIFFERENCE_BLOCK", block):
        same, cross = adsets.difference_function(cset)
    want_same, want_cross = difference_function_bincount(cset)
    assert same.dtype == cross.dtype == np.int64
    assert same.tolist() == want_same.tolist()
    assert cross.tolist() == want_cross.tolist()


def test_restricted_distance_q13():
    s = cyclotomy.build_classes(13, 12, 2)
    DI = s.union(dhm.SET_A)
    assert DI == frozenset({1, 2, 3, 5, 6, 9})
    assert restricted_distance(DI, DI, 1, 13) == 3
    assert restricted_distance(DI, DI, 2, 13) == 2
    with pytest.raises(ValueError):
        restricted_distance(DI, DI, 0, 13)


def test_delta_term_examples():
    s = cyclotomy.build_classes(13, 12, 2)
    # pattern with one of {0, 6}: always 1
    for w in range(1, 13):
        assert delta_term(dhm.SET_A, s, w) == 1
    # pattern containing both 0 and 6 in some shift: 2 on even classes, 0 on odd
    for w in range(1, 13):
        expected = 2 if s.klass(w) % 2 == 0 else 0
        assert delta_term(dhm.SET_E, s, w) == expected


def test_delta_term_matches_direct_count():
    rng = random.Random(3)
    # f odd at (13, 12), (37, 12); f even at the rest, where -1 lies in D_0
    for q, d in ((13, 12), (37, 12), (73, 12), (17, 4), (13, 6), (97, 8)):
        s = cyclotomy.build_classes(q, d)
        for _ in range(20):
            I = frozenset(rng.sample(range(d), d // 2))
            DI = s.union(I)
            for w in rng.sample(range(1, q), 6):
                direct = len(DI & {w % q, (-w) % q})
                assert delta_term(I, s, w) == direct


def test_slice_decomposition_identity():
    # d_C(0,w2) = d_I + d_J; d_C(1,w2) = d_{I,J} + d_{J,I}; d_C(1,0) = 2|DI & DJ|
    for q, (I, J) in ((13, (dhm.SET_A, dhm.SET_E)), (37, (dhm.SET_A, dhm.SET_C))):
        s = cyclotomy.build_classes(q, 12)
        DI, DJ = s.union(I), s.union(J)
        cset = CharacteristicSet(q=q, part0=DI, part1=DJ)
        for w2 in range(1, q):
            assert adsets.distance_at(cset, 0, w2) == \
                restricted_distance(DI, DI, w2, q) + \
                restricted_distance(DJ, DJ, w2, q)
            assert adsets.distance_at(cset, 1, w2) == \
                restricted_distance(DI, DJ, w2, q) + \
                restricted_distance(DJ, DI, w2, q)
        assert adsets.distance_at(cset, 1, 0) == 2 * len(DI & DJ)


def test_zero_pair_correction_identity():
    # adjoining (0,0) adds |D_I & {w2,-w2}| on the (0,*) stratum and
    # |D_J & {w2,-w2}| on the (1,*) stratum, nothing at (1,0)
    q = 13
    s = cyclotomy.build_classes(q, 12, 2)
    for (I, J) in ((dhm.SET_A, dhm.SET_E), (dhm.SET_E, dhm.SET_A), (dhm.SET_A, dhm.SET_C)):
        DI, DJ = s.union(I), s.union(J)
        plain = CharacteristicSet(q=q, part0=DI, part1=DJ)
        extended = CharacteristicSet(q=q, part0=DI | {0}, part1=DJ)
        assert extended.includes_zero_pair and not plain.includes_zero_pair
        for w2 in range(1, q):
            assert adsets.distance_at(extended, 0, w2) - adsets.distance_at(plain, 0, w2) \
                == len(DI & {w2, (-w2) % q})
            assert adsets.distance_at(extended, 1, w2) - adsets.distance_at(plain, 1, w2) \
                == len(DJ & {w2, (-w2) % q})
        assert adsets.distance_at(extended, 1, 0) == adsets.distance_at(plain, 1, 0)


def test_membership_validation():
    for part0, part1 in (({7}, set()), (set(), {-1, 3}), (set(), {0, 7})):
        with pytest.raises(ValueError):
            CharacteristicSet(q=7, part0=frozenset(part0), part1=frozenset(part1))
    assert CharacteristicSet(q=7, part0=frozenset({0, 6}), part1=frozenset()).k == 2


def test_oracles_at_the_largest_prime_below_the_oracle_limit():
    # the counted shifts meet their mirrors at the top of the range that
    # verify and sequence accept: every shift of the full set meets 2q members
    q = 8191
    assert ff.is_prime(q) and not any(ff.is_prime(p) for p in range(q + 1, cli.ORACLE_Q_LIMIT))
    full = frozenset(range(q))
    same, cross = adsets.difference_function(CharacteristicSet(q=q, part0=full, part1=full))
    assert same.tolist() == cross.tolist() == [2 * q] * q
    values = seqkit.autocorrelation(seqkit.BinarySequence((1,) * (2 * q))).values
    assert values == (2 * q,) * (2 * q)


def imports_of(module) -> dict[str, set[str]]:
    """Last component of each module imported, mapped to the names taken from it."""
    imports = {}
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imports.setdefault((node.module or "").rpartition(".")[2], set()).update(
                alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imports.setdefault(alias.name.rpartition(".")[2], set()).add(
                    alias.asname or alias.name)
    return imports


def test_difference_oracle_shares_no_code_with_tables_or_sequences():
    # difference_function is the independent count that the table routes and
    # seqkit.verify_ac_identity are held to, so it may not lean on either
    imports = imports_of(adsets)
    assert not set(imports).union(*imports.values()) & {"cyclotomy", "dhm", "seqkit"}
    from_adsets = imports_of(seqkit).get("adsets", set()) | {"adsets"}
    used = {node.id for node in ast.walk(ast.parse(inspect.getsource(seqkit.autocorrelation)))
            if isinstance(node, ast.Name)}
    assert used.isdisjoint(from_adsets)
