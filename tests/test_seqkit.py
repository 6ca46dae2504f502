import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclodes import adsets, cyclotomy, dhm, seqkit
from cyclodes.adsets import CharacteristicSet
from oracles import autocorrelation_direct


def _theorem_set_q13(include_zero=False):
    s = cyclotomy.build_classes(13, 12, 2)
    return dhm.build(s, dhm.Recipe(12, dhm.SET_A, dhm.SET_E, include_zero))


def test_flatten_examples():
    assert seqkit.flatten_element(1, 0, 13) == 13
    assert seqkit.flatten_element(0, 1, 13) == 14
    assert seqkit.flatten_element(0, 0, 13) == 0


def test_flatten_is_group_isomorphism():
    for q in (13, 101):
        images = set()
        for w1 in (0, 1):
            for w2 in range(q):
                images.add(seqkit.flatten_element(w1, w2, q))
        assert images == set(range(2 * q))
        for (a1, a2) in ((0, 5), (1, 3), (1, q - 1)):
            for (b1, b2) in ((1, 7 % q), (0, q - 2), (1, 0)):
                lhs = seqkit.flatten_element((a1 + b1) % 2, (a2 + b2) % q, q)
                rhs = (seqkit.flatten_element(a1, a2, q)
                       + seqkit.flatten_element(b1, b2, q)) % (2 * q)
                assert lhs == rhs


def test_characteristic_sequence_examples():
    assert seqkit.characteristic_sequence(set(), 6).to_text() == "000000"
    assert seqkit.characteristic_sequence({0, 2, 4}, 6).to_text() == "101010"
    with pytest.raises(ValueError):
        seqkit.characteristic_sequence({6}, 6)


def test_autocorrelation_trivial_cases():
    assert seqkit.autocorrelation(seqkit.BinarySequence(())).values == ()
    for bits in ((0,), (1,)):
        values = seqkit.autocorrelation(seqkit.BinarySequence(bits)).values
        assert values == (1,) and type(values[0]) is int
    allz = seqkit.characteristic_sequence(set(), 8)
    assert seqkit.autocorrelation(allz).values == (8,) * 8
    alt = seqkit.characteristic_sequence({0, 2, 4}, 6)
    assert seqkit.autocorrelation(alt).values == (6, -6, 6, -6, 6, -6)


# lengths drawn first: a plain st.lists rarely grows past a few dozen bits
bit_tuples = st.integers(0, 300).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bit_tuples, st.integers(1, 2000))
def test_autocorrelation_matches_the_direct_sum(bits, block):
    # a small block splits the shifts mid-range and leaves a ragged last block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqkit, "AC_BLOCK", block)
        values = seqkit.autocorrelation(seqkit.BinarySequence(bits)).values
    assert values == autocorrelation_direct(bits)
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("q", [13, 37, 229])
def test_autocorrelation_matches_the_direct_sum_on_named_recipes(monkeypatch, q):
    # 5 shifts a block: 2q = 26, 74 and 458 all leave a ragged last block
    monkeypatch.setattr(seqkit, "AC_BLOCK", 10 * q + 1)
    s = cyclotomy.build_classes(q, 12)
    for I in dhm.NAMED_SETS.values():
        for J in dhm.NAMED_SETS.values():
            for include_zero in (False, True):
                seq = seqkit.set_sequence(dhm.build(s, dhm.Recipe(12, I, J, include_zero)))
                assert seqkit.autocorrelation(seq).values == autocorrelation_direct(seq.bits)


def test_theorem_sequence_q13():
    cset = _theorem_set_q13()
    seq = seqkit.set_sequence(cset)
    assert seq.n == 26 and seq.weight == 12
    profile = seqkit.autocorrelation(seq)
    assert profile.levels == {26: 1, 2: 7, -2: 18}
    assert seqkit.verify_ac_identity(cset, profile)


def test_ac_identity_various_sets():
    s29 = cyclotomy.build_classes(29, 4)
    for include_zero in (False, True):
        c4 = dhm.build(s29, dhm.triple_recipe((0, 2, 3), include_zero))
        assert seqkit.verify_ac_identity(c4)
    assert seqkit.verify_ac_identity(_theorem_set_q13(include_zero=True))
    lopsided = CharacteristicSet(q=13, part0=frozenset({0, 1, 5}),
                                 part1=frozenset({2, 7}))
    assert seqkit.verify_ac_identity(lopsided)


def test_ac_identity_rejects_a_wrong_profile():
    cset = _theorem_set_q13()
    values = list(seqkit.autocorrelation(seqkit.set_sequence(cset)).values)
    assert seqkit.verify_ac_identity(cset, seqkit.AutocorrelationProfile(tuple(values)))
    moved = values.copy()
    moved[5] += 4                      # one sidelobe off by one difference
    assert not seqkit.verify_ac_identity(cset, seqkit.AutocorrelationProfile(tuple(moved)))
    wrong_peak = values.copy()
    wrong_peak[0] = 26 - 4             # AC(0) != n, every sidelobe right
    assert not seqkit.verify_ac_identity(cset, seqkit.AutocorrelationProfile(tuple(wrong_peak)))


def test_ac_identity_counts_differences_once(monkeypatch):
    cset = _theorem_set_q13()
    profile = seqkit.autocorrelation(seqkit.set_sequence(cset))
    counts = {"difference_function": 0, "distance_at": 0, "distance_spectrum": 0,
              "set_sequence": 0}
    for name in counts:
        modules = [m for m in (adsets, seqkit) if hasattr(m, name)]
        original = getattr(modules[0], name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
    assert seqkit.verify_ac_identity(cset)
    assert counts == {"difference_function": 1, "distance_at": 0, "distance_spectrum": 0,
                      "set_sequence": 1}
    # a profile passed in needs no sequence
    assert seqkit.verify_ac_identity(cset, profile)
    assert counts == {"difference_function": 2, "distance_at": 0, "distance_spectrum": 0,
                      "set_sequence": 1}


@st.composite
def random_sets(draw):
    q = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    residues = st.frozensets(st.integers(0, q - 1))
    return CharacteristicSet(q=q, part0=draw(residues), part1=draw(residues))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_sets())
def test_ac_identity_on_random_sets(cset):
    assert seqkit.verify_ac_identity(cset)


def test_classify_sequence_three_level():
    cset = _theorem_set_q13()
    seq = seqkit.set_sequence(cset)
    verdict = seqkit.classify_sequence(seqkit.autocorrelation(seq), seq.weight)
    assert verdict.three_level
    assert verdict.balanced                      # |12 - 13| <= 1
    assert not verdict.optimal_parameter_tuple   # k = (n-2)/2, not (n-1)/2


def test_classify_sequence_constant():
    seq = seqkit.characteristic_sequence(set(), 8)
    verdict = seqkit.classify_sequence(seqkit.autocorrelation(seq), seq.weight)
    assert verdict.n_levels == 1
    assert not verdict.three_level
    assert not verdict.balanced


def test_classify_sequence_duplicate_level_edge():
    # 101010: sidelobes are +-6 and AC(0) = 6 coincides with a sidelobe value
    seq = seqkit.characteristic_sequence({0, 2, 4}, 6)
    verdict = seqkit.classify_sequence(seqkit.autocorrelation(seq), seq.weight)
    assert verdict.n_levels == 2
    assert not verdict.three_level


def test_optimal_parameter_tuple_quadratic_residues():
    # quadratic residues mod 13 form a (13, 6, 2, 3) almost difference set,
    # which is exactly the optimal parameter shape
    qr = {pow(a, 2, 13) for a in range(1, 13)}
    seq = seqkit.characteristic_sequence(qr, 13)
    verdict = seqkit.classify_sequence(seqkit.autocorrelation(seq), seq.weight)
    assert verdict.three_level
    assert verdict.optimal_parameter_tuple


def test_ac_values_congruent_to_n_mod_4():
    # AC(tau) = n - 4*(k - overlap) for any binary sequence
    import random
    rng = random.Random(17)
    for n in (6, 13, 26):
        bits = frozenset(t for t in range(n) if rng.random() < 0.5)
        prof = seqkit.autocorrelation(seqkit.characteristic_sequence(bits, n))
        assert all(v % 4 == n % 4 for v in prof.values)


def test_construction_sequence_level_multiplicities():
    # plain order-12 constructions always give levels {n: 1, 2: (q+1)/2,
    # -2: 3(q-1)/2} at the primes where the family applies (the three
    # multiplicities total n)
    for q, (I, J) in ((13, (dhm.SET_A, dhm.SET_E)), (37, (dhm.SET_A, dhm.SET_C))):
        s = cyclotomy.build_classes(q, 12)
        cset = dhm.build(s, dhm.Recipe(12, I, J))
        prof = seqkit.autocorrelation(seqkit.set_sequence(cset))
        assert prof.levels == {2 * q: 1, 2: (q + 1) // 2, -2: 3 * (q - 1) // 2}


def test_profile_csv():
    prof = seqkit.autocorrelation(seqkit.characteristic_sequence({0, 2, 4}, 6))
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "tau,ac"
    assert csv.splitlines()[1] == "0,6"
    assert csv.splitlines()[2] == "1,-6"
