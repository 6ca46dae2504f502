"""Subsets of the product group GF(2) x GF(q), their difference spectra, and
difference-set / almost-difference-set classification.

The ambient group is A = Z2 x Zq with componentwise addition, |A| = n = 2q.
For a k-subset D and nonzero e, the distance function is
d_D(e) = |(D + e) & D|.  D is an (n, k, lambda) difference set when d_D is the
constant lambda on all n-1 nonzero e, and an (n, k, lambda, t) almost
difference set when d_D takes exactly the two values lambda (t times) and
lambda + 1 (n - 1 - t times).

Sets are stored as one frozenset of residues per GF(2)-slice; the extra
element (0,0), when present, is simply residue 0 inside the 0-slice.

difference_function is the one direct count: it tallies every member
difference b - a exactly, in int64, and never reads a cyclotomic-number
table, so it is the independent oracle that the table routes are checked
against.  distance_spectrum is its histogram; distance_at counts one shift in
O(k) for callers that need only a few.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cyclotomy import CyclotomicSystem, zero_term

DEGENERATE_NOTE = "degenerate: empty or full set"

# Entries per block of member differences: bounds difference_function's int64
# temporary to 256 KB whatever q is.  Larger blocks run no faster at q = 8101.
DIFFERENCE_BLOCK = 1 << 15


@dataclass(frozen=True)
class CharacteristicSet:
    """Subset of Z2 x Zq: part0 is the {0}-slice, part1 the {1}-slice."""

    q: int
    part0: frozenset[int]
    part1: frozenset[int]

    def __post_init__(self):
        for part in (self.part0, self.part1):
            if any(not 0 <= a < self.q for a in part):
                raise ValueError("slice members must be residues mod q")

    @property
    def n(self) -> int:
        return 2 * self.q

    @property
    def k(self) -> int:
        return len(self.part0) + len(self.part1)

    @property
    def includes_zero_pair(self) -> bool:
        return 0 in self.part0

    def members(self) -> list[tuple[int, int]]:
        return [(0, a) for a in sorted(self.part0)] + [(1, a) for a in sorted(self.part1)]

    def to_json(self) -> str:
        return json.dumps({"q": self.q, "part0": sorted(self.part0),
                           "part1": sorted(self.part1)}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CharacteristicSet":
        obj = json.loads(text)
        return CharacteristicSet(q=obj["q"], part0=frozenset(obj["part0"]),
                                 part1=frozenset(obj["part1"]))


@dataclass(frozen=True)
class DifferenceSpectrum:
    """Histogram of d_D(e) over the n-1 nonzero group elements."""

    n: int
    k: int
    histogram: dict[int, int]

    def __post_init__(self):
        total = sum(self.histogram.values())
        if total != self.n - 1:
            raise ValueError(f"spectrum covers {total} != n-1 = {self.n - 1} shifts")
        pairs = sum(v * c for v, c in self.histogram.items())
        if pairs != self.k * (self.k - 1):
            raise ValueError(f"double-count check failed: {pairs} != k(k-1)")


@dataclass(frozen=True)
class SetClassification:
    kind: str                      # "difference_set" | "almost_difference_set" | "neither"
    n: int
    k: int
    lam: int | None = None
    t: int | None = None
    note: str | None = None

    @property
    def parameters(self) -> tuple | None:
        if self.kind == "difference_set":
            return (self.n, self.k, self.lam)
        if self.kind == "almost_difference_set":
            return (self.n, self.k, self.lam, self.t)
        return None


def difference_function(cset: CharacteristicSet) -> tuple[np.ndarray, np.ndarray]:
    """Exact d_C at every shift: (same, cross) with same[w] = d_C(0, w) and
    cross[w] = d_C(1, w), int64 arrays indexed by w in Z_q.

    d_C(w1, w2) counts the member pairs (a, b) with b - a = (w1, w2), so
    same tallies the differences within each slice and cross those from
    part0 to part1 and back; same[0] = k.
    """
    q = cset.q
    p0 = np.fromiter(cset.part0, dtype=np.int64)
    p1 = np.fromiter(cset.part1, dtype=np.int64)
    same = _differences(p0, p0, q) + _differences(p1, p1, q)
    forward = _differences(p0, p1, q)            # part1 - part0; part0 - part1 is its negation
    return same, forward + forward[-np.arange(q) % q]


def _differences(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """counts[w] = #{(x, y) in a x b : y - x = w (mod q)}, in row blocks."""
    counts = np.zeros(q, dtype=np.int64)
    rows = max(1, DIFFERENCE_BLOCK // max(1, len(b)))
    for i in range(0, len(a), rows):
        block = b - a[i:i + rows, None]
        block %= q                               # in place: one temporary, half the time
        counts += np.bincount(block.ravel(), minlength=q)
    return counts


def distance_spectrum(cset: CharacteristicSet) -> DifferenceSpectrum:
    """Exact spectrum: the histogram of difference_function off shift (0,0)."""
    same, cross = difference_function(cset)
    values, counts = np.unique(np.concatenate((same[1:], cross)), return_counts=True)
    return DifferenceSpectrum(n=cset.n, k=cset.k,
                              histogram=dict(zip(values.tolist(), counts.tolist())))


def distance_at(cset: CharacteristicSet, w1: int, w2: int) -> int:
    """d_C(w1, w2) for a single shift, in O(k)."""
    q = cset.q
    if w1 % 2 == 0:
        return sum(1 for a in cset.part0 if (a + w2) % q in cset.part0) + \
               sum(1 for a in cset.part1 if (a + w2) % q in cset.part1)
    return sum(1 for a in cset.part0 if (a + w2) % q in cset.part1) + \
           sum(1 for a in cset.part1 if (a + w2) % q in cset.part0)


def classify(spec: DifferenceSpectrum) -> SetClassification:
    """Two-value rule for ADS, one-value rule for DS, else neither."""
    if spec.k == 0 or spec.k == spec.n:
        return SetClassification(kind="neither", n=spec.n, k=spec.k, note=DEGENERATE_NOTE)
    values = sorted(spec.histogram)
    if len(values) == 1:
        return SetClassification(kind="difference_set", n=spec.n, k=spec.k, lam=values[0])
    if len(values) == 2 and values[1] == values[0] + 1:
        lam = values[0]
        return SetClassification(kind="almost_difference_set", n=spec.n, k=spec.k,
                                 lam=lam, t=spec.histogram[lam])
    return SetClassification(kind="neither", n=spec.n, k=spec.k)


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
