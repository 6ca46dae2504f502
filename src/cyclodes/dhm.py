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
def _subset_members(d: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The d/2-subsets of range(d) in lexicographic order, and the read-only
    0/1 matrix with one row per subset and one column per class."""
    subsets = tuple(combinations(range(d), d // 2))
    member = np.zeros((len(subsets), d), dtype=np.int64)
    for i, s in enumerate(subsets):
        member[i, list(s)] = 1
    member.flags.writeable = False
    return subsets, member


def _near_lam(v: np.ndarray) -> np.ndarray:
    """Elementwise v in {0, 1}: the stratum value v + lam is lam or lam + 1."""
    return (v == 0) | (v == 1)


def _column_groups(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of the int64 matrix v, grouped by equality: (distinct,
    order, starts), where group g is the columns order[starts[g]:starts[g+1]],
    all equal to distinct[:, g]."""
    order = np.lexsort(v)
    s = v[:, order]
    new = (s[:, 1:] != s[:, :-1]).any(axis=0)
    starts = np.flatnonzero(np.concatenate(([True], new, [True])))
    return s[:, starts[:-1]], order, starts


def _near_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) with u[h, a] + v[h, b] in {0, 1} for every row h, in
    row-major order.

    The test reads a only through the column u[:, a] and b only through
    v[:, b], so it is decided on the grid of distinct columns: row 0 on the
    whole grid, the other rows on the group pairs left.  Each surviving group
    pair then expands to all its (a, b), and the few pairs are sorted."""
    du, ou, su = _column_groups(u)
    dv, ov, sv = _column_groups(v)
    g, k = np.nonzero(_near_lam(du[0][:, None] + dv[0][None, :]))
    for h in range(1, len(u)):
        keep = _near_lam(du[h, g] + dv[h, k])
        g, k = g[keep], k[keep]
    # group pair i fills n[i] consecutive slots; rank is the slot within it
    size_u, size_v = np.diff(su)[g], np.diff(sv)[k]
    n = size_u * size_v
    rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    width = np.repeat(size_v, n)
    a = ou[np.repeat(su[g], n) + rank // width]
    b = ov[np.repeat(sv[k], n) + rank % width]
    return np.divmod(np.sort(a * v.shape[1] + b), v.shape[1])


def hit_pairs(sys: CyclotomicSystem,
              include_zero: bool) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ordered (I, J) of d/2-subsets whose construction reaches
    theorem_parameters, in lexicographic order (f odd).

    The 2d+1 strata of cyclotomy.stratum_spectrum, decided stratum by
    stratum.  With P_h[A] the row sum_{i in A} (i+h, . +h)_d, the class sum
    over i in I, j in J is P_h[I] . [J], so the same-slice stratum
    v0_h = P_h[I].[I] + P_h[J].[J] + delta_h(I) is an outer sum of per-subset
    values.  Many subsets share their d values (74 distinct first-slot and
    second-slot vectors of the 924 at q = 13), so the same-slice strata are
    decided on the grid of distinct vectors (_near_pairs), and only the
    pairs left in {lam, lam+1} on every one, expanded back to subsets, get
    the cross-slice strata v1_h = P_h[I].[J] + P_h[J].[I] + delta_h(J), the
    (1,0) shift 2f|I & J| and the lambda count.  Order-preserving filters on
    the sorted survivors keep the output lexicographic.  Every value is an
    exact integer at most 2q + 2 < 2**21.
    """
    d, q, f = sys.d, sys.q, sys.f
    subsets, member = _subset_members(d)
    _, _, lam, tcount = theorem_parameters(q, include_zero)
    hs = np.arange(d)
    shift = (hs[:, None] + hs) % d  # shift[h, i] = i + h
    # P[h, a, j] = sum_{i in A} (i+h, j+h)_d
    P = member @ sys.table[shift[:, :, None], shift[:, None, :]]
    diag = np.einsum("haj,aj->ha", P, member)
    if include_zero:
        delta = (member[:, -hs % d] + member[:, (sys.minus_one_class - hs) % d]).T
    else:
        delta = np.zeros_like(diag)
    u = diag + delta - lam          # v0_h(a, b) - lam = u[h, a] + diag[h, b]
    a, b = _near_pairs(u, diag)
    v0 = u[:, a] + diag[:, b]
    v1 = (np.einsum("hkj,kj->hk", P[:, a], member[b])
          + np.einsum("hkj,kj->hk", P[:, b], member[a]) + delta[:, b] - lam)
    z = 2 * f * (member[a] * member[b]).sum(axis=1) - lam
    ok = _near_lam(v1).all(axis=0) & _near_lam(z)
    lam_count = f * ((v0 == 0).sum(axis=0) + (v1 == 0).sum(axis=0)) + (z == 0)
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
