"""Cyclotomic classes, exact cyclotomic numbers, Jacobi sums, and the
closed-form tables of the case-1 order-12 and the classical order-4
cyclotomic numbers.

Definitions, for q = d*f + 1 prime and g the fixed primitive root:

  * D_i = {g**(k*d + i) : 0 <= k < f} is the i-th cyclotomic class of order d,
    i.e. a lands in class Ind(a) mod d.  The classes partition GF(q)*.
    -1 = g**c with c = (q-1)/2, so -1 lies in class e = c mod d (d/2 for f
    odd, 0 for f even), and q - g**k = g**(k+c).  build_classes labels the
    classes through the half g**0 .. g**(c-1) of the power sequence, block
    by block as ff.IndexTable.blocks makes it: the block from g**k0
    scatters the labels (k0 + i) mod d onto its powers and (k0 + i + e)
    mod d onto their negatives, into the narrowest signed dtype that holds
    -d.  Neither the whole sequence nor the dense index table is built.
  * The cyclotomic number (m,n)_d = |(D_m + 1) & D_n| is always computed here
    by one exact count over GF(q)* (count a with a in D_m, a+1 in D_n), a
    bincount of the class pairs, block by block, kept as a read-only (d, d)
    int64 array, table[m, n] = (m,n)_d; the closed-form coefficient matrix
    below is a cross-check, never the source of truth.  a -> -1 - a maps
    the pair of a to that of -1 - a, which gives the classical
    (m,n)_d = (n+e, m+e)_d (Storer, Cyclotomy and Difference Sets, 1967),
    so only a in [1, c-1] is counted, and the fixed point a = c is added
    once.  That symmetry, and a total of q - 2, hold by construction; the
    row sums, the other symmetries, the case-1 matrix and the whole-range
    count of the tests stay independent checks.
  * For f odd, d is even and also (h,k)_d = (-h, k-h)_d (Whiteman 1960).
    orbit_representatives(d) maps each cell to the least member of its
    orbit under that and the mirror: 31 orbits at d = 12, 5 at d = 4.  The
    mirror holds by construction, so (-h, k-h) is the independent check.
  * The closed forms are coefficient rows keyed by those least cells:
    M1_MATRIX in order-12 case 1 (Whiteman 1960) and _ORDER4_ROWS (Storer
    1967).  closed_form_table evaluates both into a whole (d, d) table in
    the layout of sys.table, so resolve_signs compares all 144 cells.
  * assemble_strata is the one layout of a product set's 2d + 1 difference
    strata, filled from a table's class sums (stratum_distance):
    stratum_spectrum reads the counted table, dhm.predicted_spectrum the
    classical order-4 numbers (order4_numbers) of the lifted index sets.
  * Jacobi sums live in the ring Z[beta], beta = exp(2*pi*1j/12).  Each is
    the 4-tuple of integers (c0, c1, c2, c3) on the integral basis
    {1, beta, beta**2, beta**3}; the only product needed is by beta, which
    _times_beta carries out with beta**4 = beta**2 - 1.  No floating point
    anywhere.  Each J(m, n) is a Z[beta]-linear combination of the order-12
    cyclotomic numbers (Berndt, Evans and Williams, Gauss and Jacobi Sums,
    1998, ch. 2), so jacobi_sum reads it off the counted table; the c
    parameter and the case split behind every calibration need no second
    pass over GF(q).
  * For q = 12f + 1 the splitting parameters are the quadratic partitions
    q = x**2 + 4*y**2 = A**2 + 3*B**2 with x = 1 (mod 4), A = 1 (mod 6).  The
    order-4 parameters s, |t| of q = s**2 + 4*t**2 (q = 5 mod 8) solve the
    same equation, so they are x, |y|, and t is y.  The congruences fix x
    and A.  The signs of y and B depend on g, and resolve_signs pins each by
    one congruence in g: x = 2y*g**((q-1)/4) at orders 4 and 12, and
    A = B*(2g**((q-1)/3) + 1) at order 12 (mod q).  No sign is fitted to the
    counts that check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .ff import IndexTable, build_index_table, check_prime_modulus, find_primitive_root

# Largest order whose (m,n)_d table is counted: d*d int64 cells, 8 MB at the
# limit, where d = q - 1 near q = 2**20 would ask for 8 TiB.
TABLE_D_LIMIT = 1 << 10

# Pair codes are counted this many at a time: a 512 KB block of intp codes
# is reused from block to block, where one q-long array would be fresh
# memory, page-faulted in, at every prime near 2**20.
CODE_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# cyclotomic classes and numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CyclotomicSystem:
    """Order-d class structure of GF(q)* for a fixed primitive root g.

    class_of is a read-only array: class_of[a] = Ind(a) mod d for a in
    [1, q-1]; class_of[0] is -1 (unused).  Its dtype is the narrowest signed
    one that holds -d: int8 up to d = 128, int16 up to 32768, int32 above
    (only at small f).  Element reads return Python ints.  index holds the
    two ~sqrt(q) factors of the power matrix the classes were scattered
    from, not the q - 1 powers themselves.
    """

    q: int
    d: int
    f: int
    g: int
    index: IndexTable
    class_of: np.ndarray

    def klass(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ValueError("0 belongs to no cyclotomic class")
        return int(self.class_of[a])

    def members_by_class(self) -> list[list[int]]:
        """The members of D_i, ascending, for every i in [0, d), from one
        stable sort of class_of, so the cost does not grow with d."""
        order = np.argsort(self.class_of[1:], kind="stable") + 1
        return order.reshape(self.d, self.f).tolist()

    def union(self, indices) -> frozenset[int]:
        # A membership test, never a class mask indexed by class_of: there
        # class_of[0] = -1 would wrap to the last class and let 0 in.
        idx = sorted({i % self.d for i in indices})
        return frozenset(np.flatnonzero(np.isin(self.class_of, idx)).tolist())

    @property
    def minus_one_class(self) -> int:
        # -1 = g**((q-1)/2), so its class is (d*f/2) mod d
        return (self.d * self.f // 2) % self.d

    @cached_property
    def table(self) -> np.ndarray:
        """The exact (m,n)_d table as a read-only (d, d) int64 array,
        table[m, n] = (m,n)_d, counted once per system on first use."""
        return cyclotomic_numbers(self)


def build_classes(q: int, d: int, g: int | None = None) -> CyclotomicSystem:
    """Cyclotomic system of order d for GF(q); d must divide q-1.

    Only the half g**0 .. g**(c-1), c = (q-1)/2, of the powers is made, one
    block at a time, and each block's labels are scattered as it is made, so
    no q-long int64 array is built.  -1 = g**c, so q - g**k = g**(k+c), and
    each power labels its negative too, e classes on, e the class of -1.
    """
    check_prime_modulus(q)
    if d < 1 or (q - 1) % d != 0:
        raise ValueError(f"d={d} does not divide q-1={q - 1}")
    if g is None:
        g = find_primitive_root(q)
    index = build_index_table(q, g)
    c = (q - 1) // 2
    e = c % d                   # the class of -1
    # g**k lies in class k mod d, so the block of powers from g**k0 takes
    # the labels (k0 + i) mod d, and their negatives (k0 + i + e) mod d:
    # slices, from k0 mod d and from e further, of one tile of 0 .. d-1
    # repeated, long enough for any block at any offset (and never longer
    # than c + e, where f = 1 needs all of it).
    dtype = np.min_scalar_type(-d)
    need = min(d - 1 + index.block_size, c) + e
    labels = np.tile(np.arange(d, dtype=dtype), -(-need // d))
    class_of = np.empty(q, dtype)
    class_of[0] = -1
    for k0, powers in index.blocks():
        start = k0 % d
        stop = start + len(powers)
        class_of[powers] = labels[start:stop]
        class_of[q - powers] = labels[start + e:stop + e]
    class_of.flags.writeable = False
    return CyclotomicSystem(q=q, d=d, f=(q - 1) // d, g=g, index=index,
                            class_of=class_of)


@lru_cache(maxsize=32)
def _mirror_index(d: int, e: int) -> np.ndarray:
    """The flat index that takes a (d, d) count H, raveled, to its mirror:
    cell (m, n) reads H[n - e, m - e], indices mod d."""
    m, n = np.divmod(np.arange(d * d), d)
    index = (n - e) % d * d + (m - e) % d
    index.flags.writeable = False
    return index


@lru_cache(maxsize=32)
def orbit_representatives(d: int) -> np.ndarray:
    """rep[h, k] = h'*d + k', (h', k') the least member of the orbit of
    (h, k) under (h, k) -> (k + d/2, h + d/2), the mirror of the count, and
    (h, k) -> (-h, k - h), as a read-only (d, d) int array; d must be even.
    Each cell takes the least rep of its two images until none changes.
    """
    if d % 2:
        raise ValueError(f"the f-odd symmetries need an even order, not d={d}")
    h, k = np.divmod(np.arange(d * d), d)
    sigma = _mirror_index(d, d // 2)
    tau = (-h) % d * d + (k - h) % d
    rep, prev = np.arange(d * d), None
    while not np.array_equal(rep, prev):
        rep, prev = np.minimum(rep, np.minimum(rep[sigma], rep[tau])), rep
    rep.flags.writeable = False
    return rep.reshape(d, d)


def cyclotomic_numbers(sys: CyclotomicSystem) -> np.ndarray:
    """All (m,n)_d in one count: each a not in {0, -1} adds one to the pair
    (class of a, class of a + 1), returned as a read-only (d, d) int64 array.

    a -> -1 - a swaps the pair for (class of a + 1, class of a) moved e
    classes on, e the class of -1, so only a in [1, c-1], c = (q-1)/2, is
    counted, into H, a bincount of the codes cls[a]*d + cls[a+1],
    CODE_BLOCK codes at a time.  The table is H plus its mirror,
    (m,n)_d = H[m, n] + H[n - e, m - e], plus one at the fixed point a = c,
    whose pair is (class of c, class of c + 1).  So (m,n)_d = (n+e, m+e)_d
    and the cells sum to q - 2 by construction.
    """
    d, q, cls = sys.d, sys.q, sys.class_of
    if d > TABLE_D_LIMIT:
        raise ValueError(f"d={d} is too large for the (m,n)_d table: "
                         "d must be at most 2**10")
    c = (q - 1) // 2
    # Widened first: the codes run to d*d - 1, and a product in the narrow
    # class dtype would wrap.  int16 codes, widened by bincount as it reads
    # them, were measured a fifth to a third faster than intp codes on
    # blocks of CODE_BLOCK at d = 12; int32 holds d*d up to TABLE_D_LIMIT.
    wide = np.int16 if d * d < 1 << 15 else np.int32
    counts = np.zeros(d * d, dtype=np.int64)
    for start in range(1, c, CODE_BLOCK):
        stop = min(start + CODE_BLOCK, c)
        codes = cls[start:stop].astype(wide)
        codes *= d
        codes += cls[start + 1:stop + 1]
        counts += np.bincount(codes, minlength=d * d)
    table = counts + counts[_mirror_index(d, c % d)]
    table[int(cls[c]) * d + int(cls[c + 1])] += 1
    # read-only before the reshape, so the (d, d) view's base is read-only too
    table.flags.writeable = False
    return table.reshape(d, d)


def table_to_csv(table: np.ndarray) -> str:
    lines = ["m,n,count"]
    for m, row in enumerate(table.tolist()):
        lines += [f"{m},{n},{count}" for n, count in enumerate(row)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stratum spectrum: difference histograms, stratum by stratum
# ---------------------------------------------------------------------------

def stratum_distance(rows: list[list[int]], I, J, h: int) -> int:
    """d_{I,J}(w) = |(D_I + w) & D_J| for every w with w**-1 in D_h.

    Multiplying by w**-1 is a bijection sending D_i + w to D_{i+h} + 1, so
    the count is the class sum of (i+h, j+h)_d over i in I, j in J.  rows is
    the table as Python lists (sys.table.tolist()), read once by the caller.
    """
    d = len(rows)
    return sum(rows[(i + h) % d][(j + h) % d] for i in I for j in J)


def zero_term(I, h: int, d: int, minus_one_class: int) -> int:
    """|D_I & {w, -w}| for w**-1 in D_h: what adjoining (0,0) adds to d(w).

    w lies in D_{-h} and -w in D_{minus_one_class - h}, so the count is
    [-h in I] + [minus_one_class - h in I] (index sets taken mod d).
    """
    idx = {i % d for i in I}
    return ((-h) % d in idx) + ((minus_one_class - h) % d in idx)


def assemble_strata(rows: list[list[int]], d: int, f: int, minus_one_class: int, I, J,
                    include_zero: bool) -> dict[int, int]:
    """Difference histogram of {0} x D_I u {1} x D_J in Z2 x Zq, (0,0)
    adjoined when include_zero is set, from the order-d table rows
    (rows[m][n] = (m,n)_d) through stratum_distance.

    The difference function is constant on 2d + 1 strata: for each h the f
    shifts (0, w), worth d_{I,I} + d_{J,J}, and the f shifts (1, w), worth
    d_{I,J} + d_{J,I}, each plus its zero term; and the shift (1, 0), worth
    2f|I & J|.
    """
    I = frozenset({i % d for i in I})
    J = frozenset({j % d for j in J})
    hist: dict[int, int] = {}
    for h in range(d):
        v0 = stratum_distance(rows, I, I, h) + stratum_distance(rows, J, J, h)
        v1 = stratum_distance(rows, I, J, h) + stratum_distance(rows, J, I, h)
        if include_zero:
            v0 += zero_term(I, h, d, minus_one_class)
            v1 += zero_term(J, h, d, minus_one_class)
        hist[v0] = hist.get(v0, 0) + f
        hist[v1] = hist.get(v1, 0) + f
    v = 2 * f * len(I & J)
    hist[v] = hist.get(v, 0) + 1
    return hist


def stratum_spectrum(sys: CyclotomicSystem, I, J,
                     include_zero: bool) -> dict[int, int]:
    """assemble_strata of the counted (m,n)_d table, for any d | q-1 and any
    I, J: the scalar reference for dhm.hit_pairs and the closed forms.
    Equals adsets.distance_spectrum(...).histogram, the direct-count oracle.
    """
    return assemble_strata(sys.table.tolist(), sys.d, sys.f, sys.minus_one_class,
                           I, J, include_zero)


# ---------------------------------------------------------------------------
# quadratic partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticPartition:
    """Integer representations of q with congruence-normalized first members.

    q = x**2 + 4*y_abs**2   with x = 1 (mod 4)          (requires q = 1 mod 4)
    q = A**2 + 3*B_abs**2   with A = 1 (mod 6)          (requires q = 1 mod 3)

    The order-4 parameters s, t (q = s**2 + 4*t**2, s = 1 mod 4) are x and
    y by uniqueness, signs included.  y_signed and B_signed stay None until
    resolve_signs pins them: y_signed at every order-4 or order-12 prime with
    f odd, B_signed at order 12.
    """

    q: int
    x: int | None = None
    y_abs: int | None = None
    A: int | None = None
    B_abs: int | None = None
    y_signed: int | None = None
    B_signed: int | None = None


def _two_square_partition(q: int, weight: int, residue: int, modulus: int):
    """Solve q = u**2 + weight*v**2 with u = residue (mod modulus), v >= 0."""
    for u_abs in range(int(math.isqrt(q)) + 1):
        rem = q - u_abs * u_abs
        if rem % weight:
            continue
        v2 = rem // weight
        v = math.isqrt(v2)
        if v * v != v2:
            continue
        for u in (u_abs, -u_abs):
            if u % modulus == residue % modulus:
                return u, v
    return None


def quadratic_partitions(q: int) -> QuadraticPartition:
    """All applicable partitions of q; unique given the congruence constraints."""
    check_prime_modulus(q)
    part = QuadraticPartition(q=q)
    if q % 4 == 1:
        xy = _two_square_partition(q, 4, 1, 4)
        if xy is None:
            raise ArithmeticError(f"no x,y partition for q={q}")  # impossible for prime q = 1 mod 4
        part = replace(part, x=xy[0], y_abs=xy[1])
    if q % 3 == 1:
        ab = _two_square_partition(q, 3, 1, 6)
        if ab is None:
            raise ArithmeticError(f"no A,B partition for q={q}")
        part = replace(part, A=ab[0], B_abs=ab[1])
    return part


# ---------------------------------------------------------------------------
# Jacobi sums in Z[beta], beta a primitive 12th root of unity
# ---------------------------------------------------------------------------

def _times_beta(z: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """beta * (c0 + c1*beta + c2*beta**2 + c3*beta**3), by beta**4 = beta**2 - 1."""
    c0, c1, c2, c3 = z
    return (-c3, c0, c1 + c3, c2)


def jacobi_sum(sys: CyclotomicSystem, m: int, n: int) -> tuple[int, int, int, int]:
    """J(m, n): the sum of beta**(m*Ind(a) + n*Ind(b)) over a + b = 1, a, b in
    GF(q)*, read off the order-12 table in 144 terms:

        J(m, n) = sum over i, j of (i, j)_12 * beta**(m*(i - e) + n*j),

    e the class of -1.  a in D_{i-e} with 1 - a in D_j is exactly x = -a in
    D_i with x + 1 in D_j, and x runs over [1, q-2] as the table counts it, so
    the relation is exact for f odd and even (Berndt, Evans and Williams,
    Gauss and Jacobi Sums, 1998, ch. 2).  Returned as the integers
    (c0, c1, c2, c3) of c0 + c1*beta + c2*beta**2 + c3*beta**3, unique on
    this integral basis.  Requires d = 12.
    """
    if sys.d != 12:
        raise ValueError("Jacobi sums are implemented for order 12 only")
    e = sys.minus_one_class
    weight = [0] * 12          # weight[k]: how many terms equal beta**k
    for i, row in enumerate(sys.table.tolist()):
        for j, count in enumerate(row):
            weight[(m * (i - e) + n * j) % 12] += count
    total = (0, 0, 0, 0)       # Horner: sum of weight[k] * beta**k
    for w in reversed(weight):
        c0, c1, c2, c3 = _times_beta(total)
        total = (c0 + w, c1, c2, c3)
    return total


def c_parameter(sys: CyclotomicSystem) -> int:
    """Index k in [0,12) with phi(beta**3, beta) = beta**k * phi(beta**5, beta).

    Division is realized as a 12-candidate test, stepping phi(beta**5, beta)
    by beta and comparing coefficients, which is exact in Z[beta].  Exactly
    one candidate matches (both sums have norm q != 0); anything else signals
    a bug or a violated precondition.
    """
    if sys.d != 12:
        raise ValueError("c parameter requires order 12")
    if sys.f % 2 == 0:
        raise ValueError("c parameter classification requires f odd")
    num = jacobi_sum(sys, 3, 1)
    den = jacobi_sum(sys, 5, 1)
    matches = []
    for k in range(12):
        if den == num:
            matches.append(k)
        den = _times_beta(den)
    if len(matches) != 1:
        raise ArithmeticError(f"c-parameter test matched {matches} for q={sys.q}")
    return matches[0]


# ---------------------------------------------------------------------------
# six-way case classification (f odd)
# ---------------------------------------------------------------------------

OUTSIDE_TABLE = "outside table"

# (Ind(3) mod 4, Ind(2) mod 6, c exponent) -> case number
_CASE_TABLE = {
    (0, 1, 3): 1,
    (0, 3, 3): 2,
    (2, 1, 0): 3,
    (2, 1, 6): 4,
    (2, 3, 0): 5,
    (2, 3, 6): 6,
}


@dataclass(frozen=True)
class CaseClassification:
    """Residues M = Ind(2) mod 12 and M_prime = Ind(3) mod 12, plus the c
    root-of-unity exponent.  The case table reads only M mod 6 and M_prime
    mod 4, so the residues, read off the class array, are all it needs.

    case_number is 1..6 per the classical six-way split for f odd, or the
    string OUTSIDE_TABLE for combinations the split does not cover (with the
    smallest-primitive-root convention, c = beta**9 occurs and is not covered).
    """

    q: int
    M: int
    M_prime: int
    c_index: int
    case_number: int | str


def classify_case(sys: CyclotomicSystem) -> CaseClassification:
    """Case of an order-12 system with f odd; refuses f even."""
    if sys.d != 12:
        raise ValueError("case classification requires order 12")
    if sys.f % 2 == 0:
        raise ValueError("case classification requires f odd")
    M = sys.klass(2)
    Mp = sys.klass(3)
    k = c_parameter(sys)
    case = _CASE_TABLE.get((Mp % 4, M % 6, k), OUTSIDE_TABLE)
    return CaseClassification(q=sys.q, M=M, M_prime=Mp, c_index=k,
                              case_number=case)


# ---------------------------------------------------------------------------
# closed-form tables: (h,k)_d = row . vec / scale on the f-odd orbits
# ---------------------------------------------------------------------------

def closed_form_table(rows, d: int, vec, scale: int, q: int) -> np.ndarray:
    """The (d, d) table of a coefficient matrix for f odd: rows maps the
    least cell (h, k) of each f-odd orbit to its row, the orbit's value is
    row . vec / scale, and every cell takes the value of its orbit
    (orbit_representatives).  Returned as a read-only int64 array,
    table[h, k] = (h,k)_d, the layout of sys.table.

    Every value must be a nonnegative integer, else ArithmeticError: a
    non-integral result means a wrong partition, sign or case.
    """
    values = np.zeros(d * d, dtype=np.int64)
    for (h, k), row in rows.items():
        num = sum(c * v for c, v in zip(row, vec))
        if num % scale != 0 or num < 0:
            raise ArithmeticError(f"{scale}*({h},{k})_{d} = {num} not a nonnegative "
                                  f"multiple of {scale} at q={q}")
        values[h * d + k] = num // scale
    table = values[orbit_representatives(d)]
    table.flags.writeable = False
    return table


# Case-1 coefficient matrix, 144*(h,k)_12 = row . (q, A, B, x, y, 1) (Whiteman
# 1960), keyed by the 31 orbits' least members.  Validated end-to-end against
# exhaustive counts at every case-1 prime tested (the matrix satisfies
# sum-over-cells = 144q - 288 and the per-row-sum identities exactly; see
# tests).
M1_MATRIX: dict[tuple[int, int], tuple[int, int, int, int, int, int]] = {
    (0, 0): (1, -6, 0, 0, -16, -23),
    (0, 1): (1, 4, 24, -18, -24, 1),
    (0, 2): (1, -2, -24, -12, 0, 1),
    (0, 3): (1, 18, 0, 0, 32, 1),
    (0, 4): (1, -12, 0, 6, -16, 1),
    (0, 5): (1, -2, -24, -12, 0, 1),
    (0, 6): (1, -14, 24, 0, 48, 1),
    (0, 7): (1, 12, 0, 6, 8, 1),
    (0, 8): (1, 6, 0, 12, -16, 1),
    (0, 9): (1, -14, 0, 0, 0, 1),
    (0, 10): (1, 4, 0, 6, 0, 1),
    (0, 11): (1, 6, 0, 12, -16, 1),
    (1, 0): (1, 0, 12, 6, 8, -11),
    (1, 1): (1, 6, 0, 0, 8, -11),
    (1, 2): (1, -12, 0, 6, -16, 1),
    (1, 3): (1, 4, -12, 6, -24, 1),
    (1, 4): (1, 6, 36, -12, -16, 1),
    (1, 5): (1, 0, -12, -6, 8, 1),
    (1, 9): (1, -12, 12, 6, 8, 1),
    (1, 10): (1, -6, 0, 0, 8, 1),
    (1, 11): (1, 4, 0, 6, 0, 1),
    (2, 0): (1, 6, 0, 0, 8, -11),
    (2, 1): (1, 0, -12, -6, 8, 1),
    (2, 2): (1, -12, 0, -6, 8, -11),
    (2, 3): (1, -6, 0, 0, 8, 1),
    (2, 4): (1, 12, 0, 6, 8, 1),
    (2, 11): (1, 0, -24, -6, -16, 1),
    (3, 0): (1, 6, -12, 0, -16, -11),
    (3, 1): (1, 0, 0, -6, 32, 1),
    (3, 2): (1, -2, 12, 12, 0, 1),
    (4, 2): (1, 4, 24, -18, -24, 1),
}


def m1_predicted(q: int, part: QuadraticPartition) -> np.ndarray:
    """The case-1 order-12 table from M1_MATRIX, through closed_form_table.

    Needs y_signed and B_signed resolved.
    """
    if part.y_signed is None or part.B_signed is None:
        raise ValueError("m1_predicted needs resolved y and B signs")
    vec = (q, part.A, part.B_signed, part.x, part.y_signed, 1)
    return closed_form_table(M1_MATRIX, 12, vec, 144, q)


# The classical five order-4 values for q = 4f + 1, f odd, 16*(h,k)_4 =
# row . (q, s, t, 1) (Storer, Cyclotomy and Difference Sets, 1967), with
# s = x and t = y_signed as resolve_signs pins it, keyed by the five orbits'
# least members.
_ORDER4_ROWS = {
    (0, 0): (1, 2, 0, -7),
    (0, 1): (1, 2, -8, 1),
    (0, 2): (1, -6, 0, 1),
    (0, 3): (1, 2, 8, 1),
    (1, 0): (1, -2, 0, -3),
}


def order4_numbers(part: QuadraticPartition) -> list[list[int]]:
    """The 16 order-4 numbers at q = part.q = 5 (mod 8) from _ORDER4_ROWS,
    through closed_form_table, as rows[h][k] = (h,k)_4, the layout of
    sys.table.tolist().  Needs x and y_signed resolved.
    """
    q = part.q
    if part.x is None or part.y_signed is None:
        raise ValueError("the order-4 numbers need s = x and a resolved t = y sign")
    if q % 8 != 5:
        raise ValueError(f"the order-4 matrix needs q = 5 (mod 8), not q={q}")
    return closed_form_table(_ORDER4_ROWS, 4, (q, part.x, part.y_signed, 1), 16, q).tolist()


# ---------------------------------------------------------------------------
# sign resolution
# ---------------------------------------------------------------------------

def congruence_sign(value: int, v_abs: int, root: int, q: int) -> int:
    """The one v in {v_abs, -v_abs} with value = v*root (mod q)."""
    fits = [v for v in (v_abs, -v_abs) if (value - v * root) % q == 0]
    if len(fits) != 1:
        raise ArithmeticError(
            f"{len(fits)} signs of {v_abs} satisfy {value} = v*{root} (mod {q})")
    return fits[0]


def resolve_signs(sys: CyclotomicSystem, part: QuadraticPartition) -> QuadraticPartition:
    """Pin the sign of y (the order-4 t) by the primitive root g, and at
    order 12 that of B, one congruence each:

        x = 2y * g**((q-1)/4)  (mod q),   g**((q-1)/4) a fourth root of 1;
        A = B * (2g**((q-1)/3) + 1)  (mod q),   2g**((q-1)/3) + 1 a square root of -3

    (Berndt, Evans and Williams, Gauss and Jacobi Sums, 1998).  Neither sign
    is fitted to the counts that check it: at order 4 the hit triples do
    (dhm.match_order4_conditions).  In order-12 case 1 the coefficient matrix
    checks the pinned signs: m1_predicted must reproduce all 144 cells of the
    exhaustive table sys.table, else ArithmeticError.
    """
    if sys.d not in (4, 12) or sys.f % 2 == 0:
        raise ValueError("sign resolution requires order 4 or 12 with f odd")
    q, g = sys.q, sys.g
    out = replace(part, y_signed=congruence_sign(part.x, part.y_abs,
                                                 2 * pow(g, (q - 1) // 4, q), q))
    if sys.d == 4:
        return out
    out = replace(out, B_signed=congruence_sign(part.A, part.B_abs,
                                                2 * pow(g, (q - 1) // 3, q) + 1, q))
    if classify_case(sys).case_number == 1 \
            and not np.array_equal(m1_predicted(q, out), sys.table):
        raise ArithmeticError(f"M1_MATRIX does not reproduce the counts at case-1 prime q={q}")
    return out
