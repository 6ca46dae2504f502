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

difference_function is the one direct count: it writes each slice as a bool
indicator of length q and counts, shift by shift, the x with a[x] and
b[x + w], exactly, and never reads a cyclotomic-number table, so it is the
independent oracle that the table routes are checked against.
distance_spectrum is its histogram; distance_at counts one shift in O(k) for
callers that need only a few.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEGENERATE_NOTE = "degenerate: empty or full set"

# Indicator cells compared per block of shifts: bounds difference_function's
# bool temporary to 256 KB for every q up to 2**18.
DIFFERENCE_BLOCK = 1 << 18


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
    same counts the pairs within each slice and cross those from part0 to
    part1 and back; same[0] = k.
    """
    q = cset.q
    p0, p1 = _indicator(cset.part0, q), _indicator(cset.part1, q)
    same = _shift_counts(p0, p0) + _shift_counts(p1, p1)
    forward = _shift_counts(p0, p1)              # part1 - part0; part0 - part1 is its negation
    return same, forward + forward[-np.arange(q) % q]


def _indicator(part: frozenset[int], q: int) -> np.ndarray:
    bits = np.zeros(q, dtype=bool)
    bits[np.fromiter(part, dtype=np.int64, count=len(part))] = True
    return bits


def _shift_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """counts[w] = #{x : a[x] and b[x + w mod q]}, a block of shifts at a
    time: row w of the q length-q windows over b + b[:-1] is b shifted by w,
    and the windows are a view."""
    q = len(a)
    windows = sliding_window_view(np.concatenate((b, b[:-1])), q)
    rows = max(1, DIFFERENCE_BLOCK // q)
    counts = np.empty(q, dtype=np.int64)
    for i in range(0, q, rows):
        counts[i:i + rows] = np.count_nonzero(windows[i:i + rows] & a, axis=1)
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
