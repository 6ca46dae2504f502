"""Exhaustive search over index-set pairs for product-set constructions at
cyclotomic orders 4, 6, 8, 10, 12, and cross-prime family aggregation.

Search space: ordered pairs (I, J) of class-index subsets with
|I| = |J| = d/2, optionally adjoining (0,0), over primes q = d*f + 1 with f
odd.  The balanced split is a choice, not a theorem: every split with
|I| + |J| = d gives k = q - 1 or q, and at f = 1 unbalanced splits do reach
the target parameters (ordered hits plain / with zero: 16/8 at q = 5, d = 4;
120/0 at q = 7, d = 6; 480/140 at q = 11, d = 10), which the sweep misses.
No other f-odd prime tried has an unbalanced hit (below 800 at d in {4, 6},
below 500 at d = 8; see tests/test_search.py and tests/test_extended.py).

Method: a construction's difference function is constant on 25 strata (2d+1
for general d: one per (slice, class) pair, plus the (1,0) shift), and each
stratum value is an exact sum of cyclotomic numbers:

    d_{I,J}(w) = sum over i in I, j in J of (i+h, j+h)_d,  w**-1 in D_h,

because multiplying by w**-1 is a bijection sending D_i + w to D_{i+h} + 1.
The whole C(d, d/2)**2 sweep therefore reduces to integer arithmetic on the
exact cyclotomic-number table (dhm.hit_pairs), decided stratum by stratum.
A same-slice stratum is an outer sum of one value per subset, so the d of
them read I only through a vector of d integers and J only through another.
They are decided on what is distinct: equal strata once (6 of 12 at d = 12,
since stratum h + d/2 repeats h), and subsets that share their vector as one
group (470 groups of the 924 subsets at d = 12, q = 1093).  The group pairs
that pass are found by an exact sorted join on two strata packed into one
int64 key, and the other strata filter them; up to d = 8 the whole subset
grid is tested instead.  Only the subset pairs behind the group pairs that
pass are expanded, and they alone get the cross-slice strata, the (1,0)
shift and the lambda count.  At d = 12 that is 2,058 of 853,776 pairs at
q = 13, and at most 114 at every prime from 229 to 5000.  The slow route
(adsets.distance_spectrum per pair) computes the same thing by direct
counting, every shift of one slice's indicator against the other's
(adsets.difference_function); the two are
cross-checked in the test suite and the theorem recipes are always
re-verified through the slow route.

Jobs: each prime is one job on one class system, built once, swept, and
read again for the prime's family gate (dhm.gates of dhm.calibrate_order12
at d = 12, of dhm.match_order4_conditions at d = 4); cross_prime_family_report
aggregates.

Determinism: hits are emitted sorted by (q, I, J); reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import cyclotomy, dhm
from .ff import Q_LIMIT, is_prime


@dataclass(frozen=True)
class SearchHit:
    q: int
    d: int
    I: tuple[int, ...]
    J: tuple[int, ...]
    include_zero: bool
    n: int
    k: int
    lam: int
    t: int

    def to_json(self) -> str:
        return json.dumps({
            "q": self.q, "d": self.d, "I": list(self.I), "J": list(self.J),
            "include_zero": self.include_zero,
            "n": self.n, "k": self.k, "lambda": self.lam, "t": self.t,
        }, sort_keys=True, separators=(",", ":"))


def search_primes(d: int, bound: int) -> list[int]:
    """Primes q = d*f + 1 with f odd, q <= bound, for d < bound < 2**20;
    raises when there is none."""
    if bound >= Q_LIMIT:
        raise ValueError(f"bound={bound} must be below 2**20")
    if bound <= d:
        raise ValueError(f"bound={bound} must be at least d + 1 = {d + 1}")
    primes = [q for q in range(d + 1, bound + 1)
              if (q - 1) % d == 0 and ((q - 1) // d) % 2 == 1 and is_prime(q)]
    if not primes:
        raise ValueError(f"no prime q = {d}*f + 1 with f odd lies at or below bound={bound}")
    return primes


def _search_system(q: int, d: int) -> cyclotomy.CyclotomicSystem:
    """The order-d class system of a search prime: q = d*f + 1 with f odd."""
    if (q - 1) % d != 0 or ((q - 1) // d) % 2 == 0:
        raise ValueError(f"search requires q = d*f + 1 with f odd (q={q}, d={d})")
    return cyclotomy.build_classes(q, d)


def _sweep(sys: cyclotomy.CyclotomicSystem, include_zero: bool) -> list[SearchHit]:
    n, k, lam, tcount = dhm.theorem_parameters(sys.q, include_zero)
    return [SearchHit(q=sys.q, d=sys.d, I=I, J=J, include_zero=include_zero,
                      n=n, k=k, lam=lam, t=tcount)
            for I, J in dhm.hit_pairs(sys, include_zero)]


def exhaustive_search(q: int, d: int, include_zero: bool) -> list[SearchHit]:
    """Every (I, J) whose construction is an ADS with the target shape.

    Complete over all C(d, d/2)**2 ordered pairs (dhm.hit_pairs); sorted.
    """
    return _sweep(_search_system(q, d), include_zero)


# ---------------------------------------------------------------------------
# parallel driver
# ---------------------------------------------------------------------------

def _search_prime(job) -> tuple[list[SearchHit], dict[str, bool]]:
    """One prime's hits and gate, both read off one class system."""
    q, d, include_zero = job
    sys = _search_system(q, d)
    return _sweep(sys, include_zero), _gate_conditions(sys)


def resolve_workers(workers: int) -> int:
    """Worker processes actually used: at least 1 is required, and requests
    beyond os.cpu_count() are capped there."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def search_each_prime(primes, d: int, include_zero: bool,
                      workers: int = 1) -> list[tuple[list[SearchHit], dict[str, bool]]]:
    """(hits, gate) of each prime in increasing order, one job per prime;
    identical results at any worker count."""
    workers = resolve_workers(workers)
    jobs = [(q, d, include_zero) for q in sorted(primes)]
    if workers == 1:
        return [_search_prime(j) for j in jobs]
    # imported here so that serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_search_prime, jobs))


# ---------------------------------------------------------------------------
# cross-prime family aggregation
# ---------------------------------------------------------------------------

def canonical_shape(d: int, I, J) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbit representative of (I, J) under simultaneous class rotation."""
    best = None
    for h in range(d):
        cand = (tuple(sorted((i + h) % d for i in I)),
                tuple(sorted((j + h) % d for j in J)))
        if best is None or cand < best:
            best = cand
    return best


def _gate_conditions(sys: cyclotomy.CyclotomicSystem) -> dict[str, bool]:
    """Side conditions on the small partition parameters, per order, read off
    the prime's own class system."""
    if sys.d == 12:
        return dhm.gates(12, dhm.calibrate_order12(sys))
    if sys.d == 4:
        return dhm.gates(4, dhm.match_order4_conditions(sys))
    return {"always": True}


@dataclass
class FamilySearchReport:
    d: int
    include_zero: bool
    primes: list[int]
    hits: list[SearchHit]
    families: list[dict]
    sporadic: list[dict]

    def to_dict(self) -> dict:
        return {
            "d": self.d, "include_zero": self.include_zero, "primes": self.primes,
            "n_hits": len(self.hits),
            "families": self.families, "sporadic": self.sporadic,
        }

    def family_csv(self) -> str:
        lines = ["shape_id,condition,primes_tested,primes_passed"]
        tested = " ".join(map(str, self.primes))
        for fam in self.families:
            lines.append(f"{fam['shape_id']},{fam['condition']},"
                         f"{tested},{' '.join(map(str, fam['primes_passed']))}")
        for spo in self.sporadic:
            lines.append(f"{spo['shape_id']},sporadic,"
                         f"{tested},{' '.join(map(str, spo['primes_passed']))}")
        return "\n".join(lines) + "\n"


def cross_prime_family_report(d: int, bound: int, include_zero: bool,
                              primes=None, workers: int = 1) -> FamilySearchReport:
    """Aggregate exhaustive searches into rotation-orbit 'shapes' and decide
    which shapes form families.

    A family is a shape that succeeds at exactly the tested primes satisfying
    one uniform side condition (x=1 / y=+-1 for order 12, t=+-1 / s=1 for
    order 4, 'every tested prime' otherwise).  Shapes succeeding at some but
    not a full condition-set of primes are reported as sporadic, never
    silenced: a sporadic hit is a potential result, not a bug.
    """
    if primes is None:
        primes = search_primes(d, bound)
    primes = sorted(set(primes))
    per_prime = search_each_prime(primes, d, include_zero, workers=workers)
    hits: list[SearchHit] = []
    shape_primes: dict[tuple, list[int]] = {}
    condition_sets: dict[str, list[int]] = {}
    for q, (prime_hits, gate) in zip(primes, per_prime):
        hits += prime_hits
        for shape in {canonical_shape(d, h.I, h.J) for h in prime_hits}:
            shape_primes.setdefault(shape, []).append(q)
        for name, holds in gate.items():
            condition_sets.setdefault(name, [])
            if holds:
                condition_sets[name].append(q)

    families, sporadic = [], []
    for shape in sorted(shape_primes):
        passed = shape_primes[shape]
        shape_id = "I" + "".join(f"{i:x}" for i in shape[0]) + \
                   "-J" + "".join(f"{j:x}" for j in shape[1])
        matched = sorted(name for name, qs in condition_sets.items()
                         if qs and passed == qs)
        entry = {"shape_id": shape_id, "I": list(shape[0]), "J": list(shape[1]),
                 "primes_passed": passed}
        if matched:
            families.append({**entry, "condition": "|".join(matched)})
        else:
            sporadic.append(entry)
    return FamilySearchReport(d=d, include_zero=include_zero, primes=primes,
                              hits=hits, families=families, sporadic=sporadic)
