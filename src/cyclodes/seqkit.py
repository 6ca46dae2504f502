"""Characteristic binary sequences of subsets of cyclic groups, periodic
autocorrelation, and the three-level / balance verdicts.

The additive group GF(2) x GF(q) is cyclic of order 2q for odd prime q, so a
product-group subset flattens through the CRT to a support set in Z_{2q} and
from there to a binary sequence.

Autocorrelation convention: the +-1-valued periodic autocorrelation

    AC(tau) = sum_t (-1)**(s_t + s_{t+tau}),   indices mod n,

so AC(0) = n and, for a sequence with support D of size k,
AC(tau) = n - 4*(k - d_D(tau)) for every tau != 0.  That identity ties the
sequence layer exactly to the difference spectrum and is re-verified, not
assumed, wherever a sequence came from a set: autocorrelation sums the
flattened Z_{2q} bits directly, and verify_ac_identity holds it against the
set's difference function (adsets.difference_function), counted on Z2 x Zq.
The two sides share no code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adsets import CharacteristicSet, difference_function
# Re-exported only because perfbench/test_perfbench.py pins these binding sites.
from .adsets import distance_at, distance_spectrum  # noqa: F401


@dataclass(frozen=True)
class BinarySequence:
    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0/1")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def to_text(self) -> str:
        return "".join(map(str, self.bits))


@dataclass(frozen=True)
class AutocorrelationProfile:
    """AC(tau) for every shift, with the distinct-level census."""

    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def levels(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in self.values:
            out[v] = out.get(v, 0) + 1
        return out

    def to_csv(self) -> str:
        lines = ["tau,ac"]
        lines += [f"{tau},{v}" for tau, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SequenceVerdict:
    n: int
    weight: int
    n_levels: int
    three_level: bool
    balanced: bool
    optimal_parameter_tuple: bool


def crt_flatten(cset: CharacteristicSet) -> frozenset[int]:
    """Unique r mod 2q with r = w1 (mod 2), r = w2 (mod q), per member."""
    q = cset.q
    if q % 2 == 0:
        raise ValueError("flattening needs odd q")
    out = set()
    for w1, w2 in cset.members():
        out.add(flatten_element(w1, w2, q))
    return frozenset(out)


def flatten_element(w1: int, w2: int, q: int) -> int:
    """CRT image of a single (w1, w2) in Z_{2q}."""
    inv2 = (q + 1) // 2
    return (w1 * q + 2 * inv2 * w2) % (2 * q)


def characteristic_sequence(support, n: int) -> BinarySequence:
    """bit_t = 1 iff t in support."""
    support = set(support)
    if any(not 0 <= t < n for t in support):
        raise ValueError("support must lie in [0, n)")
    return BinarySequence(bits=tuple(1 if t in support else 0 for t in range(n)))


def autocorrelation(seq: BinarySequence) -> AutocorrelationProfile:
    """AC by direct summation over all shifts."""
    n = seq.n
    bits = seq.bits
    vals = []
    for tau in range(n):
        agree = sum(1 for t in range(n) if bits[t] == bits[(t + tau) % n])
        vals.append(2 * agree - n)
    return AutocorrelationProfile(values=tuple(vals))


def set_sequence(cset: CharacteristicSet) -> BinarySequence:
    """Characteristic sequence of a product-group subset via CRT flattening."""
    return characteristic_sequence(crt_flatten(cset), 2 * cset.q)


def verify_ac_identity(cset: CharacteristicSet,
                       profile: AutocorrelationProfile | None = None) -> bool:
    """AC(tau) == n - 4*(k - d_D(tau)) for every tau, exactly.

    The left side is direct summation over the flattened sequence; the right
    side is the set's difference function, so the check crosses the two
    independent computations.  At tau = 0 the right side is n, since
    d_D(0) = k, so equal profiles also have AC(0) == n and the same levels.
    """
    seq = set_sequence(cset)
    if profile is None:
        profile = autocorrelation(seq)
    q, n, k = cset.q, cset.n, cset.k
    same, cross = difference_function(cset)
    tau = np.arange(n)
    d = np.where(tau % 2 == 0, same[tau % q], cross[tau % q])  # tau <-> (tau % 2, tau % q)
    return profile.values == tuple((n - 4 * (k - d)).tolist())


def classify_sequence(profile: AutocorrelationProfile, weight: int) -> SequenceVerdict:
    """Three-level / balance / optimal-tuple verdicts.

    Distinct AC values are counted including AC(0); when AC(0) coincides with
    a sidelobe value the sequence reports fewer levels (documented duplicate-
    level edge).  Balance means |weight - n/2| <= 1.  The optimal parameter
    tuple is k = (n-1)/2, lambda = (n-5)/4; counting every nonzero shift
    (rather than folding e with -e) the lambda-multiplicity is then (n-1)/2,
    forced by the double-count identity.
    """
    n = profile.n
    levels = profile.levels
    k = weight
    opt = False
    if n >= 5 and (n - 5) % 4 == 0 and k == (n - 1) // 2:
        lam = (n - 5) // 4
        want = {n - 4 * (k - lam): (n - 1) // 2,
                n - 4 * (k - lam - 1): (n - 1) // 2}
        side = dict(levels)
        side[n] = side.get(n, 0) - 1
        if side.get(n, 0) == 0:
            side.pop(n, None)
        opt = side == want
    return SequenceVerdict(
        n=n,
        weight=weight,
        n_levels=len(levels),
        three_level=len(levels) == 3,
        balanced=abs(2 * weight - n) <= 2,
        optimal_parameter_tuple=opt,
    )
