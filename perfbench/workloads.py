"""Workload definitions for the cyclodes benchmark: seeded inputs and output checks.

A workload is a list of CLI operations, each an argv for ``cyclodes.cli.main``
plus what its output check needs.  The generator draws only the free inputs
from the seed (the ``sequence`` recipe and zero variant on verify-d12, the two
``cycnums`` primes on cycnums-large); everything else is fixed, so the search
workloads run the same commands at every seed and only their seeded spot
checks change.

Input generation uses no cyclodes code, so a defect in the program cannot
steer its own inputs.  The checks do use the package's direct-count oracle,
and run after timing with the tracer removed.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

WORKLOADS = ("search-d12", "search-d4", "verify-d12", "cycnums-large")

# (d, bound) of the two search workloads; tiny bounds keep q <= 37.
SEARCH = {"search-d12": (12, 400), "search-d4": (4, 300)}
TINY_SEARCH_BOUND = 37

# sha256 of the hit JSONL (stdout) and of the family CSV, recorded from the
# seed code.  Search output does not depend on the workload seed.
SEARCH_REFERENCE = {
    (12, 400, False): ("8eed9a132ca4b5493583d08ea4ab9ba51a87e1a0d6dab1842c33a019aab5d5d1",
                       "3fa5d60ddfc1125d74e026b9b499083379a95af9c8ecb92e9268025db517e26e"),
    (12, 400, True): ("49eb6ffbfc70644d30179ceddcc1652e97fd2f66be68cc3d2f09c041ad93310a",
                      "e442b9075d80fcdb2c89d8d7d99e1908679ec4af7a2b23a2f17e9aebe3c7fdee"),
    (4, 300, False): ("3894199541dd38916efc93075811e3ea2e89d9702ea3411f3f6f3306c63df208",
                      "3d62342b7911fd08510f0ed341b414119fef3a56925bedfa7ad41bc313ea4b28"),
    (4, 300, True): ("ffad5dd1a196889ef79806f642c8cb3a04e6db7059656bf49ef0e731493a5cc9",
                     "04ddb557ccc57ad0e224bec966f1cea1f8cf2d0c9fe14968b169863d9bc84a31"),
    (12, 37, False): ("a45034684a3f6e7b697f5025402c8d446ebe8421e7c96cb2be9d087bdc1a2971",
                      "1fa336bba7248a157bf487cbcaa419ccc682cedac84947c7fc2a6d457b7e25a8"),
    (12, 37, True): ("a2a60d065456f94e0ff2382d84a0e8062dcd2ad4e6f3dc27fd4933c9a710a4db",
                     "55f193d5ef3ac674a0f1937fa76e3afd379f0b8fec0f45a33faa6eb14700f89f"),
    (4, 37, False): ("8434576a95b698b63868e89bd82c2fd9113fe8c105e0ffc1a1cb273e3f1582ee",
                     "d41b78969dacdf01bdcdcf4f9f08f91d3f2850e8194552755dbcb186ead302e4"),
    (4, 37, True): ("ee23843da12c180fe7640e8848f993b485f82f00c67c4372934e548aec948e73",
                    "3a26504a5ee3cddf4a17cd03d8d081e829e2358bf1f4930e397b21add713cf9b"),
}

# The order-12 gated primes and the conditions `verify --condition auto`
# selects at each (x = 1 at 37, y = -1 at 13, 229, 733, y = +1 at 1093).
VERIFY_PRIMES = {13: ("ym1a", "ym1b"), 37: ("x1",), 229: ("ym1a", "ym1b"),
                 733: ("ym1a", "ym1b"), 1093: ("y1a", "y1b")}
TINY_VERIFY_PRIMES = (13, 37)

# Named sets of each order-12 family; a recipe pairs two distinct members
# that are not complements (|I & J| = 3).
FAMILIES = {"x1": "ACDB", "y1a": "ABF", "y1b": "CDE", "ym1a": "ABE", "ym1b": "CDF"}
COMPLEMENTS = ({"A", "B"}, {"C", "D"}, {"E", "F"})

# Case-1 primes q = 13 (mod 24) in [5000, 6000); the self-test re-derives
# this list with cyclotomy.classify_case.
CASE1_PRIMES = (5557, 5701, 5749)
LARGE_RANGE = ((1 << 20) - (1 << 15), 1 << 20)
TINY_CYCNUMS = (37, 13)  # (non-case-1 prime, case-1 prime)


# ---------------------------------------------------------------------------
# small number theory for input generation (independent of cyclodes)
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _index_mod(a: int, m: int, q: int, g: int) -> int:
    """Ind_g(a) mod m, for m dividing q - 1."""
    target, base, x = pow(a, (q - 1) // m, q), pow(g, (q - 1) // m, q), 1
    for k in range(m):
        if x == target:
            return k
        x = x * base % q
    raise ArithmeticError(f"{g} is not a primitive root of {q}")


def _smallest_primitive_root(q: int) -> int:
    parts = _prime_factors(q - 1)
    return next(g for g in range(2, q)
                if all(pow(g, (q - 1) // p, q) != 1 for p in parts))


def may_be_case1(q: int) -> bool:
    """Whether an order-12 prime passes the residue part of the case-1 test:
    Ind(3) = 0 (mod 4) and Ind(2) = 1 (mod 6), for the smallest primitive root."""
    g = _smallest_primitive_root(q)
    return _index_mod(3, 4, q, g) == 0 and _index_mod(2, 6, q, g) == 1


def large_primes() -> list[int]:
    """Primes q = 13 (mod 24) in LARGE_RANGE that cannot be case 1.

    `--check-m1` at a case-1 prime runs the O(q^2) sign calibration, which
    does not finish near 2^20, so such primes are left out; the case-1 path
    is measured at the CASE1_PRIMES instead.
    """
    return [q for q in range(*LARGE_RANGE)
            if q % 24 == 13 and is_prime(q) and not may_be_case1(q)]


def search_primes(d: int, bound: int) -> list[int]:
    """Primes q = d*f + 1 with f odd, q <= bound: the primes `search` sweeps."""
    return [q for q in range(d + 1, bound + 1)
            if (q - 1) % d == 0 and (q - 1) // d % 2 == 1 and is_prime(q)]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def recipes_for(conditions) -> list[str]:
    return sorted({f"{x},{y}" for c in conditions for x in FAMILIES[c]
                   for y in FAMILIES[c] if x != y and {x, y} not in COMPLEMENTS})


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The operations of one workload run; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in SEARCH:
        d, bound = SEARCH[workload]
        bound = TINY_SEARCH_BOUND if tiny else bound
        primes = search_primes(d, bound)
        return [{"kind": "search", "d": d, "bound": bound, "include_zero": zero,
                 "primes": primes, "check_seed": f"{seed}/{zero}",
                 "argv": ["search", "--d", str(d), "--bound", str(bound), "--workers", "1"]
                 + (["--include-zero"] if zero else [])}
                for zero in (False, True)]
    if workload == "verify-d12":
        ops = []
        for q in (TINY_VERIFY_PRIMES if tiny else VERIFY_PRIMES):
            conditions = VERIFY_PRIMES[q]
            recipe = rng.choice(recipes_for(conditions))
            zero = rng.random() < 0.5
            ops.append({"kind": "verify", "q": q, "conditions": list(conditions),
                        "argv": ["verify", "--q", str(q), "--order", "12",
                                 "--condition", "auto"]})
            ops.append({"kind": "sequence", "q": q,
                        "argv": ["sequence", "--q", str(q), "--order", "12",
                                 "--recipe", recipe] + (["--include-zero"] if zero else [])})
        return ops
    if workload == "cycnums-large":
        big, case1 = TINY_CYCNUMS if tiny else (rng.choice(large_primes()),
                                                 rng.choice(CASE1_PRIMES))
        return [{"kind": "cycnums", "q": q, "case1": q == case1,
                 "argv": ["cycnums", "--q", str(q), "--d", "12", "--check-m1"]}
                for q in (big, case1)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def search_spot_checks(op: dict, stdout: str) -> bool:
    """Per prime, a seeded hit and a seeded non-hit re-decided by the oracle."""
    from cyclodes import adsets, cyclotomy, dhm

    d, zero = op["d"], op["include_zero"]
    hits: dict[int, set] = {q: set() for q in op["primes"]}
    for line in stdout.splitlines():
        h = json.loads(line)
        hits[h["q"]].add((tuple(h["I"]), tuple(h["J"])))
    subsets = list(combinations(range(d), d // 2))
    rng = random.Random(op["check_seed"])
    for q in op["primes"]:
        pairs = []
        if hits[q]:
            pairs.append((rng.choice(sorted(hits[q])), True))
        while True:
            pair = (rng.choice(subsets), rng.choice(subsets))
            if pair not in hits[q]:
                pairs.append((pair, False))
                break
        system = cyclotomy.build_classes(q, d)
        target = dhm.theorem_parameters(q, zero)
        for (I, J), is_hit in pairs:
            cset = adsets.CharacteristicSet(
                q=q, part0=system.union(I) | ({0} if zero else set()),
                part1=system.union(J))
            got = adsets.classify(adsets.distance_spectrum(cset)).parameters
            if (got == target) != is_hit:
                return False
    return True


def check(op: dict, rc, stdout: str, csv: str | None) -> bool:
    """Whether one operation's exit code and output are correct.

    ``rc`` is the exit code, or a string when the operation raised; exit code
    2 (usage or precondition error) never passes.
    """
    kind = op["kind"]
    try:
        if kind == "search":
            ref = SEARCH_REFERENCE[(op["d"], op["bound"], op["include_zero"])]
            return (rc == 0 and (sha256(stdout), sha256(csv or "")) == ref
                    and search_spot_checks(op, stdout))
        out = json.loads(stdout)
        if kind == "verify":
            recipes = [r for rep in out for r in rep["recipes"]]
            return (rc in (0, 1)
                    and sorted(rep["condition"] for rep in out) == sorted(op["conditions"])
                    and all(r["predicted_matches_counts"] for r in recipes)
                    and (rc == 0) == all(r["pass"] for r in recipes))
        if kind == "sequence":
            return rc == 0 and out["ac_identity"] is True
        if kind == "cycnums":
            m1 = out.get("m1")
            return (rc == 0 and all(out["checks"].values())
                    and (m1 == "PASS" if op["case1"] else m1 is not None and m1 != "FAIL"))
    except (ValueError, KeyError, TypeError):
        return False
    raise ValueError(f"unknown operation kind {kind!r}")
