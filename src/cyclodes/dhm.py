"""Product-set constructions C = {0} x D_I u {1} x D_J over GF(2) x GF(q):
one Recipe(d, I, J, include_zero) and one build for every order d (f odd),
so every search hit is a recipe; condition lists at orders 4 and 12,
closed-form predicted spectra, and calibration of the sign conventions.

Order 4 (q = 5 mod 8, so f odd): the conditions name triples (i, j, l) of
distinct class indices, the recipe I = {i, j}, J = {l, j} (triple_recipe);
they are three fixed 8-triple lists gated on t = 1, t = -1, or s = 1
(q = s**2 + 4t**2, s = 1 mod 4).  That is the equation of the order-12
partition below, so the paper's s and t are x and y (part.x, part.y_signed).

Order 12 (q = 12f + 1, f odd): the conditions name pairs (I, J) of the six
named 6-element patterns; they are families gated on x = 1 or y = +-1
(q = x**2 + 4y**2, x = 1 mod 4).

Sign conventions: the congruences pin x and A but not y (the order-4 t) or
B.  cyclotomy.resolve_signs pins y by one congruence in the primitive root g
at orders 4 and 12, and B by another at order 12, f odd.  No sign is fitted
to the counts that check it, keeping every verification non-circular:
  * at order 12, in case 1, the coefficient matrix must reproduce the
    counted table,
  * at order 4, the gated Corollary 1 and 2 lists must be exactly the
    triples the exhaustive order-4 search hits, with and without (0,0)
    (match_order4_conditions).  The search reads the exhaustive table
    sys.table through cyclotomy.stratum_spectrum; no closed form enters it.
One gate table (gates) then says which conditions hold at q, for verify and
search alike, and verify_family classifies every recipe by direct pair
counting (adsets.distance_spectrum), the independent oracle.

Closed forms: the six named patterns are invariant under +4, each the
preimage of a 2-subset of Z4, so D_A of order 12 is D_{A mod 4} of order 4.
Every restricted distance d_{A,B}(w) is then the order-4 class sum of
(i+h, j+h)_4 over i in A mod 4, j in B mod 4, with h the class of w**-1
mod 4.  predicted_distance takes that sum with cyclotomy.stratum_distance
over the classical order-4 numbers in (q, s, t) (cyclotomy.order4_numbers),
and predicted_spectrum hands the same numbers to cyclotomy.assemble_strata at
d = 4: predicted and counted spectra run through one code path and differ
only in the table they read.  The w**-1 convention is stratum_distance's;
indexing by w's own class would transpose the odd order-12 classes
{1,5,9} <-> {3,7,11}.  An index set that is not +4-invariant raises
ValueError.  The paper's five piecewise forms stay in the tests as the
reference statement (tests/oracles.py, paper_distance).

With (0,0) adjoined, the slot order of (I, J) matters whenever one of the
index sets is a parity pattern ({0,2,...,10} or {1,3,...,11}): exactly one
order per unordered pair passes, and which one is decided by sign(y).  The
calibrated y family passes with the parity pattern second, so that is the
one order verify_family lists for a y family with (0,0), as the Corollary 2
lists do at order 4.  The x = 1 family passes in both orders.
predicted_classification reproduces the rule from the closed forms
(zero_slot_pairs), deciding through adsets.classify as verify_family does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import cyclotomy
from .adsets import CharacteristicSet, DifferenceSpectrum, classify, distance_spectrum
from .cyclotomy import CyclotomicSystem, QuadraticPartition
from .ff import check_prime_modulus

# ---------------------------------------------------------------------------
# named order-12 index-set patterns
# ---------------------------------------------------------------------------

SET_A = frozenset({0, 1, 4, 5, 8, 9})
SET_B = frozenset({2, 3, 6, 7, 10, 11})
SET_C = frozenset({0, 3, 4, 7, 8, 11})
SET_D = frozenset({1, 2, 5, 6, 9, 10})
SET_E = frozenset({0, 2, 4, 6, 8, 10})    # quadratic residues: even classes
SET_F = frozenset({1, 3, 5, 7, 9, 11})    # quadratic nonresidues: odd classes

NAMED_SETS = {"A": SET_A, "B": SET_B, "C": SET_C, "D": SET_D, "E": SET_E, "F": SET_F}
SET_NAMES = {v: k for k, v in NAMED_SETS.items()}

# ---------------------------------------------------------------------------
# condition lists (data)
# ---------------------------------------------------------------------------

COROLLARY1_TRIPLES: dict[str, tuple[tuple[int, int, int], ...]] = {
    "t1": ((0, 1, 3), (0, 2, 1), (1, 2, 0), (1, 3, 2),
           (2, 0, 3), (2, 3, 1), (3, 1, 0), (3, 0, 2)),
    "tm1": ((0, 2, 3), (0, 3, 1), (1, 0, 2), (1, 3, 0),
            (2, 0, 1), (2, 1, 3), (3, 1, 2), (3, 2, 0)),
    "s1": ((0, 1, 2), (0, 3, 2), (1, 0, 3), (1, 2, 3),
           (2, 1, 0), (2, 3, 0), (3, 0, 1), (3, 2, 1)),
}

COROLLARY2_TRIPLES: dict[str, tuple[tuple[int, int, int], ...]] = {
    "t1": ((0, 1, 3), (0, 2, 3), (1, 2, 0), (1, 3, 0),
           (2, 0, 1), (2, 3, 1), (3, 0, 2), (3, 1, 2)),
    "tm1": ((0, 2, 1), (0, 3, 1), (1, 0, 2), (1, 3, 2),
            (2, 0, 3), (2, 1, 3), (3, 1, 0), (3, 2, 0)),
    "s1": ((0, 1, 2), (0, 3, 2), (1, 0, 3), (1, 2, 3),
           (2, 1, 0), (2, 3, 0), (3, 0, 1), (3, 2, 1)),
}

THEOREM12_FAMILIES: dict[str, tuple[frozenset[int], ...]] = {
    "x1": (SET_A, SET_C, SET_D, SET_B),
    "y1a": (SET_A, SET_B, SET_F),
    "y1b": (SET_C, SET_D, SET_E),
    "ym1a": (SET_A, SET_B, SET_E),
    "ym1b": (SET_C, SET_D, SET_F),
}

ORDER12_CONDITIONS = ("x1", "y1a", "y1b", "ym1a", "ym1b")

# condition names by order, for verify and matching_conditions alike
CONDITIONS = {4: ("t1", "tm1", "s1"), 12: ORDER12_CONDITIONS}


def corollary_triples(condition: str, with_zero: bool) -> tuple[tuple[int, int, int], ...]:
    """Verbatim 8-triple list for an order-4 condition."""
    table = COROLLARY2_TRIPLES if with_zero else COROLLARY1_TRIPLES
    if condition not in table:
        raise ValueError(f"unknown order-4 condition {condition!r}")
    return table[condition]


def theorem12_pairs(condition: str) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """All ordered (I, J) from the condition's family with |I & J| = 3."""
    if condition not in THEOREM12_FAMILIES:
        raise ValueError(f"unknown order-12 condition {condition!r}")
    fam = THEOREM12_FAMILIES[condition]
    return tuple((I, J) for I in fam for J in fam
                 if I != J and len(I & J) == 3)


# ---------------------------------------------------------------------------
# recipes and builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recipe:
    """C = {0} x D_I u {1} x D_J at order d; I and J are stored as frozensets."""
    d: int
    I: frozenset[int]
    J: frozenset[int]
    include_zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "I", frozenset(self.I))
        object.__setattr__(self, "J", frozenset(self.J))
        if not (self.I | self.J) <= set(range(self.d)):
            raise ValueError(f"recipe indices must lie in [0, {self.d})")
        if len(self.I) + len(self.J) != self.d:
            raise ValueError(f"recipe needs |I| + |J| = d = {self.d}")


def triple_recipe(triple: tuple[int, int, int], include_zero: bool = False) -> Recipe:
    """The order-4 triple (i, j, l) as the recipe I = {i, j}, J = {l, j}."""
    i, j, l = triple
    if len({i, j, l}) != 3:
        raise ValueError("an order-4 triple needs three pairwise distinct indices")
    return Recipe(4, {i, j}, {l, j}, include_zero)


def build(sys: CyclotomicSystem, r: Recipe) -> CharacteristicSet:
    """The recipe's set on its order's class system; f must be odd."""
    if sys.d != r.d:
        raise ValueError(f"an order-{r.d} recipe needs an order-{r.d} system, not {sys.d}")
    if sys.f % 2 == 0:
        raise ValueError(f"the construction needs f odd: q={sys.q} = {sys.d}*{sys.f} + 1")
    part0 = sys.union(r.I)
    if r.include_zero:
        part0 = part0 | {0}
    return CharacteristicSet(q=sys.q, part0=part0, part1=sys.union(r.J))


def theorem_parameters(q: int, include_zero: bool) -> tuple[int, int, int, int]:
    """Target (n, k, lambda, t): (2q, q-1, (q-3)/2, 3(q-1)/2) without the zero
    pair, (2q, q, (q-1)/2, (3q-1)/2) with it."""
    if include_zero:
        return (2 * q, q, (q - 1) // 2, (3 * q - 1) // 2)
    return (2 * q, q - 1, (q - 3) // 2, 3 * (q - 1) // 2)


# ---------------------------------------------------------------------------
# the (I, J) sweep
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _subset_members(d: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray,
                                     np.ndarray]:
    """The d/2-subsets of range(d) in lexicographic order, and three read-only
    int64 arrays: member, with one 0/1 row per subset and one column per
    class; shifted, whose entry [a, h] is the bitmask (bit i for class i) of
    subset a shifted by h; and half_bits, the 0/1 rows of the 2**(d/2)
    bitmasks of d/2 classes."""
    subsets = tuple(combinations(range(d), d // 2))
    member = np.zeros((len(subsets), d), dtype=np.int64)
    for i, s in enumerate(subsets):
        member[i, list(s)] = 1
    hs = np.arange(d)
    shifted = member @ (1 << (hs[:, None] + hs) % d)
    half_bits = (np.arange(1 << d // 2)[:, None] >> hs[:d // 2]) & 1
    for arr in (member, shifted, half_bits):
        arr.flags.writeable = False
    return subsets, member, shifted, half_bits


def _mask_sums(table: np.ndarray, half_bits: np.ndarray) -> np.ndarray:
    """D[m] = sum_{i, j in m} (i, j)_d for every bitmask m of the d classes.

    A mask is hi * 2**(d/2) + lo, and D[m] is the sum over the low half, the
    sum over the high half and the pairs across, each a small int64 product
    over the 2**(d/2) half-masks."""
    k = half_bits.shape[1]
    low = ((half_bits @ table[:k, :k]) * half_bits).sum(axis=1)
    high = ((half_bits @ table[k:, k:]) * half_bits).sum(axis=1)
    across = half_bits @ (table[k:, :k] + table[:k, k:].T) @ half_bits.T
    return (high[:, None] + low + across).ravel()


# A key packs two stratum values x, y as x * _DIGIT + y.  For values below
# 2**29 in size (every stratum value is below q < 2**20) the packing is
# one-to-one, and so is the sum of two keys, which packs the sums of their
# values; every key stays below 2**61.
_DIGIT = 1 << 31


def _near_lam(v: np.ndarray, ones: int = 1) -> np.ndarray:
    """Elementwise: every value packed in v is 0 or 1, so the stratum value
    v + lam is lam or lam + 1.  ones is the key whose values are all 1: 1 for
    a plain value, _DIGIT + 1 for a key of two (then v & ~ones is 0 only at
    the four keys of 0s and 1s)."""
    return (v & ~ones) == 0


def _pack(x: np.ndarray) -> np.ndarray:
    """The columns of x two to a key, x[:, 2r] * _DIGIT + x[:, 2r + 1],
    transposed to one row per key; an odd last column is packed with 0."""
    if x.shape[1] % 2:
        x = np.hstack([x, np.zeros_like(x[:, :1])])
    return (x[:, 0::2] * _DIGIT + x[:, 1::2]).T


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + c) over paired starts and counts."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


# odd 64-bit powers: a row's hash is its dot product with these, wrapping
_HASH = np.array([pow(0x9E3779B97F4A7C15, i, 1 << 64) for i in range(1, 13)],
                 dtype=np.uint64).view(np.int64)


def _row_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal rows of the int64 matrix x (at most 12 columns):
    (first, order, starts), where run g is the rows order[starts[g]:starts[g+1]],
    all equal to first[g].  The rows are sorted by a wrapping int64 hash, so
    equal rows fall together; two unequal rows with one hash can only split a
    run, never join one, so no decision rests on the hash."""
    order = np.argsort(x @ _HASH[:x.shape[1]])
    s = x[order]
    new = (s[1:] != s[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new, [True])))
    return s[starts[:-1]], order, starts


def _expand(g: np.ndarray, k: np.ndarray, ou: np.ndarray, su: np.ndarray,
            ov: np.ndarray, sv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) behind the group pairs (g, k), a in run g of (ou, su) and
    b in run k of (ov, sv), in lexicographic order."""
    size_u, size_v = np.diff(su), np.diff(sv)
    a = ou[_ranges(su[g], size_u[g])]
    k = np.repeat(k, size_u[g])
    n = len(ov)
    ab = np.sort(np.repeat(a, size_v[k]) * n + ov[_ranges(sv[k], size_v[k])])
    return np.divmod(ab, n)


def _join_near(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) with u[a, h] + v[b, h] in {0, 1} in every column h, as
    two index arrays in no set order, for values below 2**29 in size.

    An exact sorted join on the first key of _pack, which holds the first two
    columns.  The keys of v are sorted once.  Row a matches the keys
    e - key(u[a]) with e in {0, 1, _DIGIT, _DIGIT + 1}: two runs of
    consecutive integers, found by searchsorted.  The runs expand to the
    candidate pairs, and the other keys filter them, two columns at a time."""
    ku, kv = _pack(u), _pack(v)
    order = np.argsort(kv[0])
    lead = kv[0, order]
    by_target = np.argsort(-ku[0])
    target = -ku[0, by_target]
    target = np.concatenate([target, target + _DIGIT])   # two sorted runs
    start = np.searchsorted(lead, target, "left")
    count = np.searchsorted(lead, target + 1, "right") - start
    a = np.repeat(np.tile(by_target, 2), count)
    b = order[_ranges(start, count)]
    for r in range(1, len(ku)):
        keep = _near_lam(ku[r, a] + kv[r, b], _DIGIT + 1)
        a, b = a[keep], b[keep]
    return a, b


def _distinct_strata(u: np.ndarray, v: np.ndarray) -> list[int]:
    """The first h of each distinct pair of columns (u[:, h], v[:, h])."""
    first = {}
    for h, column in enumerate(np.vstack([u, v]).T):
        first.setdefault(column.tobytes(), h)
    return list(first.values())


# Up to d = 8 (70 subsets) the whole subset grid is as cheap to test as to
# group and join, and at d = 4 much cheaper.
_WHOLE_GRID = 100


def hit_pairs(sys: CyclotomicSystem,
              include_zero: bool) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ordered (I, J) of d/2-subsets whose construction reaches
    theorem_parameters, in lexicographic order (f odd).

    The 2d+1 strata of cyclotomy.stratum_spectrum, decided stratum by
    stratum in exact int64 arithmetic.  With D[S] = sum_{i, j in S} (i, j)_d
    for every bitmask S of the classes (_mask_sums), the same-slice stratum
    v0_h = D[I+h] + delta_h(I) + D[J+h] is an outer sum of one value per
    subset and slot.  The cross-slice stratum, the class sum over i in I,
    j in J both ways round, is
    v1_h = D[X | Y] + D[X & Y] - D[X & ~Y] - D[Y & ~X] + delta_h(J) with
    X = I+h, Y = J+h.

    The same-slice strata are decided first, on what is distinct.  Strata
    with equal values are checked once: on cyclotomic tables stratum h + d/2
    repeats h, so 6 of 12 are left.  Up to d = 8 they are tested on the whole
    subset grid.  Above it, subsets with equal values are grouped
    (_row_groups; in the plain variant one grouping serves both slots, whose
    values differ by lam), and the group pairs that pass are found by an
    exact sorted join (_join_near).  Only the subset pairs behind them get
    the cross-slice strata, the (1,0) shift 2f|I & J| and the lambda count,
    on every h: at d = 12, 2,058 of the 853,776 pairs at q = 13, and at most
    442 at every prime from 37 to 5000.  Every value is below q < 2**20 in
    size.
    """
    d, q, f = sys.d, sys.q, sys.f
    subsets, member, shifted, half_bits = _subset_members(d)
    _, _, lam, tcount = theorem_parameters(q, include_zero)
    D = _mask_sums(np.asarray(sys.table, dtype=np.int64), half_bits)
    diag = D[shifted]               # diag[a, h] = D[A+h]
    if include_zero:
        hs = np.arange(d)
        delta = member[:, -hs % d] + member[:, (sys.minus_one_class - hs) % d]
    else:
        delta = np.zeros_like(diag)
    u = diag + delta - lam          # v0_h(a, b) - lam = u[a, h] + diag[b, h]
    strata = _distinct_strata(u, diag)
    if len(subsets) <= _WHOLE_GRID:
        a, b = np.nonzero(_near_lam(u[:, None, strata] + diag[None, :, strata]).all(axis=2))
    else:
        V, ov, sv = _row_groups(diag[:, strata])
        U, ou, su = _row_groups(u[:, strata]) if include_zero else (V - lam, ov, sv)
        a, b = _expand(*_join_near(U, V), ou, su, ov, sv)
    x, y = shifted[a], shifted[b]
    both = x & y                    # so X | Y = x + y - both, X & ~Y = x - both
    v0 = u[a] + diag[b]
    v1 = D[x + y - both] + D[both] - D[x - both] - D[y - both] + delta[b] - lam
    z = 2 * f * (member[a] & member[b]).sum(axis=1) - lam
    ok = _near_lam(v1).all(axis=1) & _near_lam(z)
    lam_count = f * ((v0 == 0).sum(axis=1) + (v1 == 0).sum(axis=1)) + (z == 0)
    ok &= lam_count == tcount
    return [(subsets[i], subsets[j]) for i, j in zip(a[ok], b[ok])]


# ---------------------------------------------------------------------------
# closed-form restricted distances (order 12, f odd)
# ---------------------------------------------------------------------------

def _order4_image(S) -> frozenset[int]:
    """S mod 4 for an order-12 index set S invariant under +4, the one kind
    of set that is the preimage of its image: D_S is then D_{S mod 4} of
    order 4.  Any other S raises ValueError, since the projection would price
    a different set."""
    S = frozenset(i % 12 for i in S)
    if S != frozenset((i + 4) % 12 for i in S):
        raise ValueError(f"{sorted(S)} is not invariant under +4, so it is no "
                         "order-4 set and the closed forms do not apply")
    return frozenset(i % 4 for i in S)


def predicted_distance(part: QuadraticPartition, A: frozenset[int],
                       B: frozenset[int], h: int) -> int:
    """Closed-form d_{A,B}(w) = |(D_A + w) & D_B| on stratum h, every w with
    w**-1 in D_h (order 12, f odd), for +4-invariant A and B: the order-4
    class sum cyclotomy.stratum_distance at h mod 4, over the classical
    numbers cyclotomy.order4_numbers.  Needs x and a calibrated y sign.
    """
    return cyclotomy.stratum_distance(cyclotomy.order4_numbers(part), _order4_image(A),
                                      _order4_image(B), h % 4)


def predicted_dIJ(sys: CyclotomicSystem, I: frozenset[int], J: frozenset[int],
                  w: int, part: QuadraticPartition) -> int:
    """Closed-form d_{I,J}(w): predicted_distance on the stratum of w, the
    class h of w**-1."""
    return predicted_distance(part, I, J, (-sys.klass(w)) % 12)


def predicted_dI(sys: CyclotomicSystem, I: frozenset[int], w: int,
                 part: QuadraticPartition) -> int:
    """Closed-form d_I(w) = d_{I,I}(w) for a +4-invariant I."""
    return predicted_dIJ(sys, I, I, w, part)


def predicted_spectrum(part: QuadraticPartition, I: frozenset[int],
                       J: frozenset[int], include_zero: bool) -> dict[int, int]:
    """Predicted difference histogram of the (I, J) construction at q = part.q
    from the closed forms alone (no counting): cyclotomy.assemble_strata of
    the order-4 numbers at I mod 4, J mod 4, for +4-invariant I and J.  The
    order-4 f = (q-1)/4 is odd, so -1 lies in class 2."""
    return cyclotomy.assemble_strata(cyclotomy.order4_numbers(part), 4, (part.q - 1) // 4, 2,
                                     _order4_image(I), _order4_image(J), include_zero)


def predicted_classification(part: QuadraticPartition, I: frozenset[int],
                             J: frozenset[int], include_zero: bool) -> bool:
    """Whether the closed forms predict the target ADS parameters for (I, J)
    at q = part.q: adsets.classify of the predicted spectrum."""
    q = part.q
    spec = DifferenceSpectrum(n=2 * q, k=(q - 1) // 12 * (len(I) + len(J)) + include_zero,
                              histogram=predicted_spectrum(part, I, J, include_zero))
    return classify(spec).parameters == theorem_parameters(q, include_zero)


def zero_slot_pairs(part: QuadraticPartition):
    """Ordered parity-pattern pairs whose with-zero construction is predicted
    to reach the target parameters; at |y| = 1 primes this is exactly one slot
    order for each of the eight unordered pairs drawn from both y families."""
    pairs = []
    for cond in ("y1a", "y1b", "ym1a", "ym1b"):
        for (I, J) in theorem12_pairs(cond):
            if (I, J) not in pairs and predicted_classification(part, I, J, True):
                pairs.append((I, J))
    return pairs


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def order4_hit_triples(sys: CyclotomicSystem, include_zero: bool) -> list[tuple[int, int, int]]:
    """All ordered distinct triples whose construction reaches the target
    parameters.  Triple (i, j, l) is the pair I = {i, j}, J = {l, j}; its
    spectrum is read off sys.table by cyclotomy.stratum_spectrum."""
    if sys.d != 4:
        raise ValueError("order-4 triples need an order-4 system")
    if sys.q % 8 != 5:
        raise ValueError(f"q={sys.q} is not 5 mod 8")
    q = sys.q
    target = theorem_parameters(q, include_zero)
    hits = []
    for (i, j, l) in permutations(range(4), 3):
        hist = cyclotomy.stratum_spectrum(sys, {i, j}, {l, j}, include_zero)
        spec = DifferenceSpectrum(n=2 * q, k=4 * sys.f + include_zero, histogram=hist)
        if classify(spec).parameters == target:
            hits.append((i, j, l))
    return hits


def match_order4_conditions(sys: CyclotomicSystem) -> QuadraticPartition:
    """The partition of sys.q with t = y_signed pinned by
    cyclotomy.resolve_signs, checked against counting: in both zero variants
    the Corollary 1 and 2 lists of the conditions it gates must be exactly the
    counted hit triples, none at a gateless prime; else ArithmeticError."""
    part = cyclotomy.resolve_signs(sys, cyclotomy.quadratic_partitions(sys.q))
    names = matching_conditions(4, part)
    for z in (False, True):
        if set(order4_hit_triples(sys, z)) != {trip for cond in names
                                               for trip in corollary_triples(cond, z)}:
            raise ArithmeticError(f"order-4 calibration at q={sys.q}: the lists gated by s="
                                  f"{part.x}, t={part.y_signed} are not the hits (zero={z})")
    return part


def calibrate_order12(sys: CyclotomicSystem) -> QuadraticPartition:
    """Resolved quadratic partition for an order-12 system (delegates)."""
    return cyclotomy.resolve_signs(sys, cyclotomy.quadratic_partitions(sys.q))


def calibrated_system(q: int, order: int) -> tuple[CyclotomicSystem, QuadraticPartition]:
    """The order-4 or order-12 class system at q and its calibrated partition,
    built once for every condition verified there:
    (sys, match_order4_conditions(sys)) or (sys, calibrate_order12(sys)).

    The one q check of verify, for auto and every named condition alike: q
    must be a supported prime, then q = 5 (mod 8) at order 4 and q = 12f + 1
    with f odd at order 12.  An order-4 prime must satisfy some condition
    (s = 1 or |t| = 1)."""
    if order not in (4, 12):
        raise ValueError("order must be 4 or 12")
    check_prime_modulus(q)
    if order == 4 and q % 8 != 5:
        raise ValueError(f"q={q} is not 5 mod 8")
    if order == 12 and q % 24 != 13:
        raise ValueError(f"q={q} is not 12f+1 with f odd")
    sys = cyclotomy.build_classes(q, order)
    if order == 12:
        return sys, calibrate_order12(sys)
    part = match_order4_conditions(sys)
    if not matching_conditions(4, part):
        raise ValueError(
            f"q={q} satisfies no order-4 condition (s={part.x}, |t|={part.y_abs})")
    return sys, part


# The gate names at each order for the same three tests on the calibrated
# partition: x = 1, y = 1, y = -1 (the order-4 s and t are x and y).
_GATE_NAMES = {12: ("x1", "y1", "ym1"), 4: ("s1", "t1", "tm1")}


def gates(order: int, part: QuadraticPartition) -> dict[str, bool]:
    """Which side conditions the calibrated partition satisfies, by gate name:
    x = 1 and y = +-1 at order 12, s = 1 and t = +-1 at order 4."""
    if order not in _GATE_NAMES:
        raise ValueError("conditions exist for orders 4 and 12 only")
    return dict(zip(_GATE_NAMES[order],
                    (part.x == 1, part.y_signed == 1, part.y_signed == -1)))


def matching_conditions(order: int, part: QuadraticPartition) -> list[str]:
    """Condition names whose gate the calibrated partition satisfies, sorted.
    An order-12 y-family condition is gated by its name less the family
    letter (y1a and y1b by y1)."""
    holds = gates(order, part)
    return sorted(c for c in CONDITIONS[order] if holds[c.rstrip("ab")])


# ---------------------------------------------------------------------------
# family verification
# ---------------------------------------------------------------------------

@dataclass
class FamilyReport:
    q: int
    order: int
    condition: str
    calibrated_sign: int
    recipes: list[dict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.recipes)

    def to_dict(self) -> dict:
        return {"q": self.q, "order": self.order, "condition": self.condition,
                "calibrated_sign": self.calibrated_sign, "recipes": self.recipes}


def _classification_dict(cls) -> dict:
    out = {"kind": cls.kind, "n": cls.n, "k": cls.k}
    if cls.lam is not None:
        out["lambda"] = cls.lam
    if cls.t is not None:
        out["t"] = cls.t
    return out


def verify_family(q: int, order: int, condition: str,
                  include_zero: bool | None = None,
                  calibrated: tuple | None = None) -> FamilyReport:
    """Build every recipe of a condition, classify it by exact counting, and
    report pass/fail against the target parameter tuple.

    include_zero=None checks both variants.  calibrated is the
    calibrated_system(q, order) pair when the caller already holds it; it is
    built here otherwise.  For order 12 the report also cross-checks the
    closed-form predicted histogram against the counted one.
    """
    if order not in CONDITIONS:
        raise ValueError("order must be 4 or 12")
    variants = (False, True) if include_zero is None else (include_zero,)
    sys, part = calibrated or calibrated_system(q, order)
    report = FamilyReport(q=q, order=order, condition=condition,
                          calibrated_sign=part.y_signed)
    for z in variants:
        target = theorem_parameters(q, z)
        if order == 4:
            recipes = [({"i": i, "j": j, "l": l}, triple_recipe((i, j, l), z))
                       for (i, j, l) in corollary_triples(condition, z)]
        else:   # with (0,0) a y-family pair puts its parity pattern second
            recipes = [({"I": sorted(I), "J": sorted(J)}, Recipe(12, I, J, z))
                       for (I, J) in theorem12_pairs(condition)
                       if not (z and I in (SET_E, SET_F))]
        for label, r in recipes:
            spec = distance_spectrum(build(sys, r))
            cls = classify(spec)
            rec = {**label, "include_zero": z,
                   "classification": _classification_dict(cls),
                   "pass": cls.parameters == target}
            if order == 12:
                rec["predicted_matches_counts"] = \
                    predicted_spectrum(part, r.I, r.J, z) == spec.histogram
            report.recipes.append(rec)
    return report
