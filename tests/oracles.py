"""Reference counts that only the tests use.

restricted_distance counts d_{A,B}(w) pair by pair; delta_term is the
class-shift rule for |D_I & {w2, -w2}|, checked against the direct count in
test_adsets.py.  The closed forms and the difference-function identities
are held to both.  autocorrelation_direct is the shift-by-shift sum that
seqkit.autocorrelation computes in numpy blocks.  difference_function_bincount
tallies every member difference b - a, the count that
adsets.difference_function makes shift by shift over bool windows.
overlap_y_sign and m1_b_sign fit the order-12 signs of y and B to the
counted table, the way the package did before it pinned them by congruence
(cyclotomy.resolve_signs).  cubic_residue_02_check is one order-12 identity
with side conditions, a single row of the case-1 coefficient matrix.
power_sequence joins the half of the powers that an IndexTable gives out
into one array and extends it by q - g**k, and discrete_logs scatters the
dense index table Ind from it, for the tests that read a power or an index.
cyclotomic_numbers_bincount counts the (m,n)_d table over every a in
[1, q-2], the whole-range count that cyclotomy.cyclotomic_numbers halves by
the -1 symmetry.  paper_distance is the paper's statement of the order-12
closed forms, five piecewise branch functions matched to a pair by
rotation, against which dhm.predicted_distance is held.  EQUALITY_ROWS,
CANONICAL_PAIRS, ORDER4_ROWS and ORDER4_LAYOUT are the f-odd equality
layouts (Storer 1967; Whiteman 1960) as typed from the literature, against
which the layouts cyclotomy derives from orbit_representatives are held.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np

from cyclodes.adsets import CharacteristicSet
from cyclodes.cyclotomy import (CyclotomicSystem, QuadraticPartition, m1_predicted,
                                stratum_distance, zero_term)
from cyclodes.ff import IndexTable


def restricted_distance(set_a: frozenset[int], set_b: frozenset[int],
                        w: int, q: int) -> int:
    """d_{A,B}(w) = |(A + w) & B| inside GF(q); w must be nonzero."""
    if w % q == 0:
        raise ValueError("restricted distance requires w != 0")
    return sum(1 for a in set_a if (a + w) % q in set_b)


def delta_term(I, sys: CyclotomicSystem, w2: int) -> int:
    """|D_I & {w2, -w2}| via the class-shift rule, for any order d | q-1.

    With h the class of w2**-1, multiplying by w2**-1 turns the question into
    membership of 1 and -1 in D_{I+h}; with m = sys.minus_one_class (d/2 for
    f odd, 0 for f even) the count is [0 in I+h] + [m in I+h].
    """
    if w2 % sys.q == 0:
        raise ValueError("delta term requires w2 != 0")
    h = (-sys.klass(w2)) % sys.d  # class of w2**-1
    return zero_term(I, h, sys.d, sys.minus_one_class)


def autocorrelation_direct(bits: tuple[int, ...]) -> tuple[int, ...]:
    """AC(tau) = sum_t (-1)**(s_t + s_{t+tau}), indices mod n, term by term."""
    n = len(bits)
    vals = []
    for tau in range(n):
        agree = sum(1 for t in range(n) if bits[t] == bits[(t + tau) % n])
        vals.append(2 * agree - n)
    return tuple(vals)


def difference_function_bincount(cset: CharacteristicSet) -> tuple[np.ndarray, np.ndarray]:
    """(same, cross) as adsets.difference_function, by one int64 bincount of
    the member differences per pair of slices."""
    q = cset.q
    p0 = np.fromiter(cset.part0, dtype=np.int64)
    p1 = np.fromiter(cset.part1, dtype=np.int64)
    same = _differences(p0, p0, q) + _differences(p1, p1, q)
    forward = _differences(p0, p1, q)
    return same, forward + forward[-np.arange(q) % q]


def _differences(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """counts[w] = #{(x, y) in a x b : y - x = w (mod q)}."""
    return np.bincount(((b - a[:, None]) % q).ravel(), minlength=q)


def overlap_y_sign(sys: CyclotomicSystem, y_abs: int) -> int:
    """The one y in {y_abs, -y_abs} for which the translate overlap d_{I,I}(w)
    of I = {0,1,4,5,8,9} equals (q - 2y - 3)/4 on every even-class stratum,
    read off the order-12 table of sys."""
    q, cal = sys.q, frozenset({0, 1, 4, 5, 8, 9})
    rows = sys.table.tolist()
    overlaps = {stratum_distance(rows, cal, cal, h) for h in range(0, 12, 2)}
    fits = [y for y in (y_abs, -y_abs)
            if (q - 2 * y - 3) % 4 == 0 and overlaps == {(q - 2 * y - 3) // 4}]
    if len(fits) != 1:
        raise ArithmeticError(f"{len(fits)} y signs fit the overlaps {overlaps} at q={q}")
    return fits[0]


def m1_b_sign(sys: CyclotomicSystem, part: QuadraticPartition) -> int:
    """The one B in {B_abs, -B_abs} for which M1_MATRIX, at part.y_signed,
    reproduces the whole table of a case-1 system."""
    fits = []
    for b in (part.B_abs, -part.B_abs):
        try:
            if np.array_equal(m1_predicted(sys.q, replace(part, B_signed=b)), sys.table):
                fits.append(b)
        except ArithmeticError:
            pass
    if len(fits) != 1:
        raise ArithmeticError(f"{len(fits)} B signs reproduce the table at q={sys.q}")
    return fits[0]


def cubic_residue_02_check(sys: CyclotomicSystem, part: QuadraticPartition):
    """Side-condition identity 144*(0,2)_12 = q + 1 - 2A + 24B - 12x.

    Applies when 2 is a cubic residue, 3 is a biquadratic residue, and f is
    odd; B's sign is not pinned by the identity, so both are tried.  Returns
    None when the side conditions fail, else the set of B signs (+1/-1/0)
    satisfying the identity exactly.  Refuses a system of order other than 12.
    """
    if sys.d != 12:
        raise ValueError("the (0,2)_12 identity requires order 12")
    if sys.f % 2 == 0:
        return None
    ind = discrete_logs(sys.index)
    if ind[2] % 3 != 0 or ind[3] % 4 != 0:
        return None
    target = 144 * int(sys.table[0, 2])
    signs = set()
    cands = {part.B_abs, -part.B_abs}
    for b in cands:
        if part.q + 1 - 2 * part.A + 24 * b - 12 * part.x == target:
            signs.add(0 if part.B_abs == 0 else (1 if b > 0 else -1))
    return signs


def power_sequence(index: IndexTable) -> np.ndarray:
    """g**0 .. g**(q-2) as one int64 array: the half g**0 .. g**(c-1),
    c = (q-1)/2, joined from index.blocks(), then q - g**k for the other
    half, since g**(k+c) = -g**k.  Each block must start where the one
    before it stopped, and the last must stop at c."""
    blocks, stop = [], 0
    for k0, block in index.blocks():
        assert k0 == stop, (k0, stop)
        blocks.append(block)
        stop += len(block)
    assert stop == (index.q - 1) // 2, (stop, index.q)
    half = np.concatenate(blocks)
    return np.concatenate([half, index.q - half])


def cyclotomic_numbers_bincount(sys: CyclotomicSystem) -> np.ndarray:
    """The (d, d) int64 table, table[m, n] = (m,n)_d: each a in [1, q-2]
    adds one to the pair (class of a, class of a + 1), a bincount of the
    codes class_of[a]*d + class_of[a+1] over the whole range at once."""
    d, cls = sys.d, sys.class_of.astype(np.int64)
    codes = cls[1:-1] * d + cls[2:]
    return np.bincount(codes, minlength=d * d).reshape(d, d)


def discrete_logs(index: IndexTable) -> np.ndarray:
    """The int64 array ind[a] = Ind(a) for a in [1, q-1], ind[0] = 0
    (unused): the inverse permutation of the power sequence, one scatter."""
    ind = np.zeros(index.q, dtype=np.int64)
    ind[power_sequence(index)] = np.arange(index.q - 1, dtype=np.int64)
    return ind


# ---------------------------------------------------------------------------
# the paper's order-12 closed forms (f odd), branch by branch
# ---------------------------------------------------------------------------

_ODD1 = frozenset({1, 5, 9})
_ODD2 = frozenset({3, 7, 11})
_EVEN1 = frozenset({0, 4, 8})
_EVEN2 = frozenset({2, 6, 10})


def _dA(q, x, y, e):
    return (q - 2 * y - 3) // 4 if e % 2 == 0 else (q + 2 * y - 3) // 4


def _dE(q, x, y, e):
    return (q - 5) // 4 if e % 2 == 0 else (q - 1) // 4


def _l4(q, x, y, e):
    if e % 2 == 0:
        return (q + x - 2) // 4
    return (q - x - 4) // 4 if e in _ODD1 else (q - x) // 4


def _l5(q, x, y, e):
    if e in _EVEN1:
        return (q - x - 2 * y - 2) // 4
    if e in _EVEN2:
        return (q + x + 2 * y - 4) // 4
    return (q + x - 2 * y) // 4 if e in _ODD1 else (q - x + 2 * y - 2) // 4


def _l6(q, x, y, e):
    if e in _EVEN1:
        return (q - x + 2 * y - 2) // 4
    if e in _EVEN2:
        return (q + x - 2 * y - 4) // 4
    return (q + x + 2 * y) // 4 if e in _ODD2 else (q - x - 2 * y - 2) // 4


# Representative pairs: every named (A, B) with A == B or |A & B| = 3 is a
# rotation of one of them, or of one swapped.
_FORMULAS = (
    (({0, 1, 4, 5, 8, 9}, {0, 1, 4, 5, 8, 9}), _dA),
    (({0, 2, 4, 6, 8, 10}, {0, 2, 4, 6, 8, 10}), _dE),
    (({0, 1, 4, 5, 8, 9}, {0, 3, 4, 7, 8, 11}), _l4),
    (({0, 3, 4, 7, 8, 11}, {0, 2, 4, 6, 8, 10}), _l5),
    (({0, 1, 4, 5, 8, 9}, {0, 2, 4, 6, 8, 10}), _l6),
)


def _shift(S, t: int) -> frozenset[int]:
    return frozenset((i + t) % 12 for i in S)


@lru_cache(maxsize=None)
def _formula(I: frozenset[int], J: frozenset[int]):
    """(branch function, rotation t) of (I, J) via the representatives.

    A swapped pair reuses its representative's function six classes on:
    d_{J,I}(w) = d_{I,J}(-w), and -w lies in the class six past w's (f odd).
    """
    for (rI, rJ), func in _FORMULAS:
        for t in range(12):
            if I == _shift(rI, t) and J == _shift(rJ, t):
                return func, t
            if I == _shift(rJ, t) and J == _shift(rI, t):
                return func, (t + 6) % 12
    raise ValueError("pair outside the closed-form families")


def paper_distance(part: QuadraticPartition, A: frozenset[int], B: frozenset[int],
                   h: int) -> int:
    """The paper's d_{A,B}(w) on stratum h (w**-1 in D_h, order 12, f odd) for
    named patterns with A == B or |A & B| = 3: the branch h + t of the
    representative pair's form, t the rotation aligning (A, B) with it."""
    func, t = _formula(frozenset(A), frozenset(B))
    return func(part.q, part.x, part.y_signed, (h + t) % 12)


# ---------------------------------------------------------------------------
# the f-odd equality layouts, as transcribed
# ---------------------------------------------------------------------------

# Row h, column k of the order-12 labels; "hX" means (h,10), "hY" (h,11).
EQUALITY_ROWS = """
00 01 02 03 04 05 06 07 08 09 0X 0Y
10 11 12 13 14 15 07 05 15 19 1X 1Y
20 21 22 23 24 19 08 15 04 14 24 2Y
30 31 32 30 2Y 1X 09 19 14 03 13 23
22 32 42 31 20 1Y 0X 1X 24 13 02 12
11 21 31 32 21 10 0Y 1Y 2Y 23 12 01
00 10 20 30 22 11 00 10 20 30 22 11
10 0Y 1Y 2Y 23 12 01 11 21 31 32 21
20 1Y 0X 1X 24 13 02 12 22 32 42 31
30 2Y 1X 09 19 14 03 13 23 30 31 32
22 23 24 19 08 15 04 14 24 2Y 20 21
11 12 13 14 15 07 05 15 19 1X 1Y 10
""".split()

# The 31 canonical (h,k)_12 in (h,k) lexicographic order.
CANONICAL_PAIRS = ([(0, k) for k in range(12)]
                   + [(1, k) for k in (0, 1, 2, 3, 4, 5, 9, 10, 11)]
                   + [(2, k) for k in (0, 1, 2, 3, 4, 11)]
                   + [(3, 0), (3, 1), (3, 2), (4, 2)])

# The five order-4 rows, 16*(h,k)_4 = row . (q, s, t, 1), and the letter of
# (h,k)_4 at row h, column k.
ORDER4_ROWS = {
    "A": (1, 2, 0, -7),
    "B": (1, 2, -8, 1),
    "C": (1, -6, 0, 1),
    "D": (1, 2, 8, 1),
    "E": (1, -2, 0, -3),
}
ORDER4_LAYOUT = ("ABCD", "EEDB", "AEAE", "EDBE")
