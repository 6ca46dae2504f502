import pytest

from cyclodes import cyclotomy, ff
from oracles import discrete_logs, power_sequence


def test_is_prime_examples():
    assert ff.is_prime(13)
    assert not ff.is_prime(85)  # 5 * 17
    assert ff.is_prime(229)


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))
    for n in range(2000):
        assert ff.is_prime(n) == trial(n), n


def test_find_primitive_root_examples():
    assert ff.find_primitive_root(13) == 2
    assert ff.find_primitive_root(3) == 2
    assert ff.find_primitive_root(37) == 2


def test_find_primitive_root_rejects_composites():
    with pytest.raises(ValueError):
        ff.find_primitive_root(15)
    with pytest.raises(ValueError):
        ff.find_primitive_root(1 << 21)


def test_primitive_root_order_property():
    for q in (13, 29, 109, 997):
        g = ff.find_primitive_root(q)
        assert ff.multiplicative_order(g, q) == q - 1
        for p in set(ff._prime_factors(q - 1)):
            assert pow(g, (q - 1) // p, q) != 1


def test_index_table_examples():
    t = ff.build_index_table(13, 2)
    # width 3, and two rows hold the half g**0 .. g**5 that blocks() gives out
    assert (t.col.tolist(), t.row.tolist()) == ([1, 2, 4], [1, 8])
    assert [b.tolist() for _, b in t.blocks()] == [[1, 2, 4, 8, 3, 6]]
    assert power_sequence(t).tolist() == [1, 2, 4, 8, 3, 6, 12, 11, 9, 5, 10, 7]
    ind = discrete_logs(t)
    assert ind[3] == 4      # 2**4 = 16 = 3 (mod 13)
    assert ind[1] == 0
    assert ind[12] == 6     # 2**6 = 64 = 12 (mod 13)
    assert ind[2] == 1


def test_index_table_is_exact_log():
    for q in (13, 101, 9973):
        g = ff.find_primitive_root(q)
        ind = discrete_logs(ff.build_index_table(q, g)).tolist()
        seen = set()
        for a in range(1, q):
            assert pow(g, ind[a], q) == a
            seen.add(ind[a])
        assert seen == set(range(q - 1))


def test_index_table_rejects_non_generator():
    with pytest.raises(ValueError):
        ff.build_index_table(13, 4)   # order 6
    with pytest.raises(ValueError):
        ff.build_index_table(13, 1)
    with pytest.raises(ValueError):
        ff.build_index_table(13, 0)


def test_index_of_zero_is_undefined():
    # the package reads indices only through the classes: 0 has none
    s = cyclotomy.build_classes(13, 12, 2)
    with pytest.raises(ValueError):
        s.klass(0)
    with pytest.raises(ValueError):
        s.klass(13)
