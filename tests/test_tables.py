"""The O(q) table layer: the power sequence, the narrow class array and the
cyclotomic-number table, held against plain pure-Python loops and against
each other.

The loops below are the reference: one multiplication per power of g for the
index table, one residue per element for the classes, and one count per
element for the (m,n)_d table.  The class array is scattered from the half
g**0 .. g**(c-1), c = (q-1)/2, of the power sequence, block by block, without
a dense index table, so it is also held against that table, scattered by the
oracle discrete_logs from the joined blocks and their negatives, reduced mod
d, with blocks of one, two and many rows of the power matrix.  The table is
counted on half of GF(q)* and mirrored by -1, so it is also held against the
whole-range count, the oracle cyclotomic_numbers_bincount.  Every scalar the
public accessors hand out, and every value the CLI serialises, is a Python
int.
"""

import hashlib
import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclodes import cli, cyclotomy, ff
from oracles import cyclotomic_numbers_bincount, discrete_logs, power_sequence

SMALL_PRIMES = [q for q in range(3, 1 << 14) if ff.is_prime(q)]
TOP_PRIME = 1048573     # the largest prime below 2**20


def loop_index(q, g):
    ind = [0] * q
    x = 1
    for k in range(q - 1):
        ind[x] = k
        x = x * g % q
    return ind


def loop_classes(ind, d):
    class_of = [-1] * len(ind)
    for a in range(1, len(ind)):
        class_of[a] = ind[a] % d
    return class_of


def loop_counts(class_of, d):
    q = len(class_of)
    counts = [[0] * d for _ in range(d)]
    for a in range(1, q - 1):
        counts[class_of[a]][class_of[a + 1]] += 1
    return counts


def loop_union(class_of, indices, d):
    idx = {i % d for i in indices}
    return frozenset(a for a in range(1, len(class_of)) if class_of[a] in idx)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from(SMALL_PRIMES), data=st.data())
@example(q=3, data=None)     # B = 1
@example(q=5, data=None)     # B = 2
@example(q=7, data=None)     # B = 2
@example(q=11, data=None)    # B = 3 does not divide q - 1 = 10: ragged last row
@example(q=13, data=None)    # B = 3 divides q - 1 = 12
def test_array_tables_equal_loops(q, data):
    g = ff.find_primitive_root(q)
    t = ff.build_index_table(q, g)
    assert t.col.dtype == t.row.dtype == np.int64
    assert power_sequence(t).tolist() == [pow(g, k, q) for k in range(q - 1)]
    ind = loop_index(q, g)
    assert discrete_logs(t).tolist() == ind
    for d in (d for d in range(1, 13) if (q - 1) % d == 0):
        s = cyclotomy.build_classes(q, d, g)
        class_of = loop_classes(ind, d)
        assert s.class_of.dtype == np.int8
        assert s.class_of.tolist() == class_of
        for i in range(d):
            members = [a for a in range(1, q) if class_of[a] == i]
            assert s.members_by_class()[i] == members
        assert s.table.tolist() == loop_counts(class_of, d)
        # The last class, d - 1, is what class_of[0] = -1 would wrap to.
        drawn = set() if data is None else data.draw(
            st.sets(st.integers(-d, 2 * d - 1)), label=f"I at d={d}")
        for I in (drawn | {d - 1}, {i for i in drawn if i % d != d - 1},
                  {-1}, set(), set(range(d))):
            union = s.union(I)
            assert 0 not in union
            assert union == loop_union(class_of, I, d), (d, sorted(I))


def test_tables_exact_at_the_top_of_the_domain():
    g = ff.find_primitive_root(TOP_PRIME)
    t = ff.build_index_table(TOP_PRIME, g)
    ind = loop_index(TOP_PRIME, g)
    assert discrete_logs(t).tolist() == ind
    s = cyclotomy.build_classes(TOP_PRIME, 12, g)
    assert s.table.tolist() == loop_counts(loop_classes(ind, 12), 12)


@pytest.mark.parametrize("blocks", [1, 4])
def test_counts_exact_when_the_last_code_block_holds_one_pair(blocks, monkeypatch):
    # The count reads c - 1 = (q - 3)/2 codes, 32,777 = 4 * 8194 + 1 here, so
    # CODE_BLOCK = (c - 2) / blocks leaves the last block one pair.  No prime
    # below 2**20 puts one pair past a multiple of the real CODE_BLOCK.
    q = 65557
    c = (q - 1) // 2
    monkeypatch.setattr(cyclotomy, "CODE_BLOCK", (c - 2) // blocks)
    assert ff.is_prime(q) and (c - 1) % cyclotomy.CODE_BLOCK == 1
    g = ff.find_primitive_root(q)
    ind = loop_index(q, g)
    for d in (d for d in range(1, 13) if (q - 1) % d == 0):
        s = cyclotomy.build_classes(q, d, g)
        assert s.table.tolist() == loop_counts(loop_classes(ind, d), d), (q, d)


def next_prime(n):
    while not ff.is_prime(n):
        n += 1
    return n


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(q=st.integers(3, TOP_PRIME).map(next_prime))
def test_classes_equal_the_dense_index_table_mod_d(q):
    g = ff.find_primitive_root(q)
    ind = discrete_logs(ff.build_index_table(q, g))
    for d in (d for d in range(1, 13) if (q - 1) % d == 0):
        s = cyclotomy.build_classes(q, d, g)
        assert s.class_of[0] == -1
        assert np.array_equal(s.class_of[1:], ind[1:] % d), (q, d)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(q=st.integers(3, TOP_PRIME).map(next_prime), d=st.none())
@example(q=65537, d=65536)      # f = 1; the blocks divide the half evenly
@example(q=100003, d=100002)    # f = 1; ragged last row and last block
def test_classes_exact_at_every_block_size(q, d):
    g = ff.find_primitive_root(q)
    index = ff.build_index_table(q, g)
    powers = power_sequence(index)
    # Every block edge, at any block size, is a row edge of the power matrix
    # below c = (q-1)/2, or the cut at c, where the negatives take over.
    c, width = (q - 1) // 2, len(index.col)
    edges = sorted({k for r in range(0, c, width) for k in (r - 1, r) if k >= 0}
                   | {c - 1, c, q - 2})
    assert [int(powers[k]) for k in edges] == [pow(g, k, q) for k in edges]
    ind = discrete_logs(index)
    orders = [e for e in range(1, 13) if (q - 1) % e == 0] + [d] * (d is not None)
    for size in (1, 7, width - 1, width + 1, 2 * width + 1, ff.POWER_BLOCK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ff, "POWER_BLOCK", size)
            assert np.array_equal(power_sequence(ff.build_index_table(q, g)), powers)
            for e in orders:
                s = cyclotomy.build_classes(q, e, g)
                assert s.class_of[0] == -1
                assert np.array_equal(s.class_of[1:], ind[1:] % e), (q, e, size)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(q=st.integers(3, TOP_PRIME).map(next_prime), d=st.none())
@example(q=3, d=None)       # c = 1: the fixed point a = c is the only term
@example(q=5, d=None)       # c = 2
@example(q=7, d=None)       # c = 3
@example(q=11, d=None)      # c = 5 cuts the second row of width 3
@example(q=257, d=128)      # the widest order that int8 holds
@example(q=257, d=256)      # f = 1, in int16
@example(q=TOP_PRIME, d=None)
def test_half_count_equals_the_whole_range_count(q, d):
    g = ff.find_primitive_root(q)
    ind = discrete_logs(ff.build_index_table(q, g))
    c, width = (q - 1) // 2, math.isqrt(q - 1)
    # Orders up to 12, and the power of two 2**v || q - 1, at which f is odd
    # and the class of -1 is d/2, not 0.
    odd_f = (q - 1) & -(q - 1)
    orders = {e for e in (*range(1, 13), d, odd_f)
              if e is not None and e <= cyclotomy.TABLE_D_LIMIT and (q - 1) % e == 0}
    # Blocks of one row, so the half ends mid-row where c is not a multiple
    # of the width, and code blocks of c - 2, so the last holds one pair.
    for power_block, code_block in ((ff.POWER_BLOCK, cyclotomy.CODE_BLOCK),
                                    (width, max(1, c - 2))):
        minus_one = set()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ff, "POWER_BLOCK", power_block)
            patch.setattr(cyclotomy, "CODE_BLOCK", code_block)
            for order in sorted(orders):
                s = cyclotomy.build_classes(q, order, g)
                assert np.array_equal(s.class_of[1:], ind[1:] % order), (q, order, power_block)
                assert np.array_equal(s.table, cyclotomic_numbers_bincount(s)), (q, order, code_block)
                minus_one.add(s.minus_one_class == 0)
        if odd_f <= cyclotomy.TABLE_D_LIMIT:
            assert minus_one == {True, False}      # e = 0 and e = d/2 both seen


@pytest.mark.parametrize("q, d, dtype", [
    (257, 128, np.int8),         # the widest order that int8 holds
    (257, 256, np.int16),
    (65537, 65536, np.int32),    # f = 1
    (TOP_PRIME, 12, np.int8),
])
def test_class_dtype_is_the_narrowest_that_holds_minus_d(q, d, dtype):
    s = cyclotomy.build_classes(q, d)
    assert s.class_of.dtype == dtype
    assert s.class_of[0] == -1
    assert np.array_equal(s.class_of[1:], discrete_logs(s.index)[1:] % d)


def test_the_class_path_never_builds_the_dense_index_table():
    s = cyclotomy.build_classes(13, 12)
    assert "ind" not in vars(s.index)
    s.table
    cyclotomy.resolve_signs(s, cyclotomy.quadratic_partitions(13))
    assert "ind" not in vars(s.index)


def test_case_residues_equal_the_dense_index_mod_12():
    for q in range(13, 5000, 24):
        if not ff.is_prime(q):
            continue
        s = cyclotomy.build_classes(q, 12)
        case = cyclotomy.classify_case(s)
        assert "ind" not in vars(s.index)
        ind = discrete_logs(s.index)
        assert (case.M, case.M_prime) == (ind[2] % 12, ind[3] % 12), q


def test_tables_at_the_top_of_the_domain_peak_below_4_mb():
    # The peak, 1.7 MB, is the 1 MB int8 class array beside one block of
    # int16 pair codes (128 KB), the intp copy bincount reads (512 KB) and
    # its counts; the powers come in 64 KB blocks.
    # An int64 array of length q on the build path, such as the whole power
    # sequence (8.4 MB) or the dense index table, crosses the bound.
    tracemalloc.start()
    try:
        cyclotomy.build_classes(TOP_PRIME, 12).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_a_system_at_the_top_of_the_domain_holds_below_2_mb():
    # What a built system keeps is its 1 MB int8 class array, the (d, d)
    # table and the two ~sqrt(q) power-matrix factors; an int64 array of
    # length q - 1 held beside them crosses the bound.
    tracemalloc.start()
    try:
        s = cyclotomy.build_classes(TOP_PRIME, 12)
        s.table
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert s.class_of.nbytes == TOP_PRIME
    assert held < 2e6, held


def test_tables_are_read_only():
    s = cyclotomy.build_classes(37, 12)
    assert s.table.dtype == np.int64 and s.table.shape == (12, 12)
    for array in (s.class_of, s.index.col, s.index.row, s.table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[1] = 0
    with pytest.raises(FrozenInstanceError):
        s.class_of = s.class_of.copy()
    assert s.table is s.table     # counted once per system


def test_scalars_are_python_ints():
    s = cyclotomy.build_classes(13, 12)
    values = [s.klass(5), *s.members_by_class()[4], *s.union({0, 11})]
    for hist in (cyclotomy.stratum_spectrum(s, {0, 1, 4, 5, 8, 9}, {0, 2, 4, 6, 8, 10}, z)
                 for z in (False, True)):
        values += [*hist, *hist.values()]
    part4 = cyclotomy.resolve_signs(cyclotomy.build_classes(13, 4),
                                    cyclotomy.quadratic_partitions(13))
    for row in cyclotomy.order4_numbers(part4):
        values += row
    for m, n in ((1, 1), (3, 1), (5, 1)):
        values += cyclotomy.jacobi_sum(s, m, n)
    case = cyclotomy.classify_case(s)
    values += [case.M, case.M_prime, case.c_index, case.case_number]
    assert values and all(type(v) is int for v in values)


def python_only(obj):
    if isinstance(obj, dict):
        return all(type(k) is str and python_only(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(python_only(v) for v in obj)
    return type(obj) in (int, str, bool, type(None))


@pytest.mark.parametrize("argv", [
    ("classes", "--q", "13", "--d", "12"),
    ("cycnums", "--q", "13", "--d", "12", "--check-m1"),
    ("cycnums", "--q", "37", "--d", "4"),
    ("verify", "--q", "13", "--order", "12", "--condition", "auto"),
    ("verify", "--q", "29", "--order", "4", "--condition", "auto"),
])
def test_cli_json_carries_only_python_scalars(monkeypatch, capsys, argv):
    dumped = []
    dumps = cli._json_dumps
    monkeypatch.setattr(cli, "_json_dumps", lambda obj: dumped.append(obj) or dumps(obj))
    assert cli.main(list(argv)) in (0, 1)
    capsys.readouterr()
    assert dumped and all(python_only(obj) for obj in dumped)


# sha256 of the json, csv and text stdout, concatenated in that order, of
# `classes` and of `cycnums --check-m1`, recorded from the loop-built tables.
# `cycnums --format text` printed the CSV; it is refused now, and the CSV
# stands in its place, so the recorded cycnums digests hold unchanged.
TABLE_OUTPUT_REFERENCE = {
    ("classes", 13, 2): "a0c52a9525783e52a04bfe4989bd91fbc7d8d47776cbea8fbbaed968e471bd68",
    ("classes", 13, 4): "b4770d0d103a702cac4a7aa2baa3fa167aefd1612f824c9f3f2696d2c69e8ab9",
    ("classes", 13, 6): "2fc345acef1baf87319d26cc9fda087108f19353400331bc93aa73ddb8be6a5b",
    ("classes", 13, 12): "ed9cd5ba21f3b0f588ec727d774dae6a241c9349c33237b2d43c8f2be91cf954",
    ("classes", 37, 2): "4cb1b2cb79951545df745914fd492f6a1ea23dfbbf5d39d24616c61aceb79117",
    ("classes", 37, 4): "3704b269e9d5e62c139414a8567005c99dc5f4ca294be4f0e196a756d44d3820",
    ("classes", 37, 6): "8fa8ef42b5a73aa54d01957deacb52c5f3f448878d1f5efab318c562275fb1c5",
    ("classes", 37, 12): "2da8577b1e707501b5a193d22a968164970e33b90475bfdba73593214d4bd686",
    ("classes", 229, 2): "0b6f7d9c3ed58e5ae5dac981a1521b96b887d2098705350c12e8565c4d326424",
    ("classes", 229, 4): "c16a96ecc6b019571f0cad49a398336d33d5c8f425f0333b8c924181f9bab93d",
    ("classes", 229, 6): "2da02060b3d4d2bef25abce6a603c180c61b5c821c8cb9b26656178f94bee66a",
    ("classes", 229, 12): "3cfca39dcff5a7cc3a9fec5b61fb6c4e2afb3de6be8eab02d701bdf51fcbd3fc",
    ("cycnums", 13, 2): "f9278d2b96cc9fe4bd68ce1d655d67ca1b108750f1de3081925ca457a825b9ff",
    ("cycnums", 13, 4): "8fbea54d9c44ec6531f7d64f26d7f17ca48449b986a547afdd0e0a932ada93d5",
    ("cycnums", 13, 6): "8e78e4952cc2723ad99c82cd9253e503b95e06bb54eef211cc6a087a593b39cf",
    ("cycnums", 13, 12): "98b615bcd7375416335c7e47fdf94b704b4a06dc0ee555d981e6f43c5e1ee8e5",
    ("cycnums", 37, 2): "18c6032ab166f16cbd8df1af80a907f4090ca426462626413013981f91640255",
    ("cycnums", 37, 4): "cf38d2d77fabe0ee27a761575d96cf2773fcde0ff9561bd20bede5dcb2671954",
    ("cycnums", 37, 6): "e1fcda4eafe5592dd9aafe4c67bd6f0ad37a7cdac242897949d16a870c0f95ee",
    ("cycnums", 37, 12): "e2a910e346c9bdd1e2dff5deffe4567f873d636ef069f56bfd9e06caf6ed136d",
    ("cycnums", 229, 2): "df9dc01c3193d06f577634cf6557e337ba2fff3dc79dff1317ab967c181749d0",
    ("cycnums", 229, 4): "7a854606ed456bfc15398bf17eb71b9865256a58dac1c81a80a9fe5c67f60cca",
    ("cycnums", 229, 6): "9d0c3bef1215e5750cb854aa13e10b26e2e2c0f61c9b18524268a9a584dfd303",
    ("cycnums", 229, 12): "f0a7d8c938c9691e7cc5fbc9f461674d5af3b403cf8b9d9720a2557db4de1f35",
    # d = TABLE_D_LIMIT, and a case-1 prime near 2**20
    ("cycnums", 12289, 1024): "f200a7503d7babbcbdbc092e73345493085bddf135bfda184de8188625a77cee",
    ("cycnums", 1046557, 12): "b7eb7e590b5e6832826082954534b56c2afc5835bfc70fd69191e57a46e6d458",
}


@pytest.mark.parametrize("command, q, d", sorted(TABLE_OUTPUT_REFERENCE))
def test_table_outputs_match_reference(capsys, command, q, d):
    digest = hashlib.sha256()
    for fmt in ("json", "csv", "csv" if command == "cycnums" else "text"):
        argv = [command, "--q", str(q), "--d", str(d), "--format", fmt]
        if command == "cycnums":
            argv.append("--check-m1")
        assert cli.main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == TABLE_OUTPUT_REFERENCE[command, q, d]
