"""Exact arithmetic in the prime field GF(q) and the power sequence of a
primitive root.

Conventions used throughout the package:
  * q is an odd prime, q >= 3, q < 2**20.  Prime powers are not supported;
    every table is a dense, read-only numpy array.  No O(q) table is held
    here: half the power sequence, g**0 .. g**(c-1) with c = (q-1)/2, is
    given out block by block from two factor arrays of about sqrt(q)
    entries each, and the classes are scattered from each block as it is
    made, so neither the whole sequence nor an index table indexed by
    residue is built.  The other half needs no multiplication: -1 = g**c,
    so g**(k+c) = q - g**k.
  * The canonical primitive root of q is the *smallest* integer g >= 2 of
    multiplicative order q-1.  Fixing g makes every downstream object
    (cyclotomic classes, sign calibrations, search reports) deterministic.
  * Ind(a) is the index (discrete logarithm) of a to base g:
    g**Ind(a) = a (mod q), with Ind(g) = 1 and Ind(1) = 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

Q_LIMIT = 1 << 20

# Powers are made about this many at a time, in whole rows of the power
# matrix and at least one: a 64 KB int64 block stays in cache while its
# classes are scattered, where one q-long sequence (8.4 MB near 2**20) is
# fresh memory, and blocks of 64K powers or more were measured slower.
POWER_BLOCK = 1 << 13

# Witness set is deterministic for all n < 3.3 * 10**24, far beyond Q_LIMIT.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def check_prime_modulus(q: int) -> None:
    """Reject moduli outside the supported domain (odd prime, q < 2**20)."""
    if q < 3 or q >= Q_LIMIT:
        raise ValueError(f"q={q} outside supported range [3, 2**20)")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")


def multiplicative_order(a: int, q: int) -> int:
    """Order of a in GF(q)*; q must be prime."""
    if a % q == 0:
        raise ValueError("0 has no multiplicative order")
    order = q - 1
    for p in _prime_factors(q - 1):
        while order % p == 0 and pow(a, order // p, q) == 1:
            order //= p
    return order


def find_primitive_root(q: int) -> int:
    """Smallest g >= 2 generating GF(q)*.

    g is primitive iff g**((q-1)/p) != 1 for every prime p | q-1; the first
    candidate passing that test is returned.
    """
    check_prime_modulus(q)
    parts = _prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in parts):
            return g
    raise ArithmeticError(f"no primitive root found for q={q}")  # unreachable for prime q


@dataclass(frozen=True, eq=False)
class IndexTable:
    """The powers of a primitive root g of q, as the two factors of the power
    matrix: col = g**0 .. g**(width-1) and row[r] = g**(r*width), both
    read-only int64 arrays of about sqrt(q) entries, width = len(col).  Entry
    (r, j) of the matrix is row[r] * col[j] mod q = g**(r*width + j), so
    blocks() gives out the half g**0 .. g**(c-1), c = (q-1)/2, a block of
    rows at a time, and no q-long array is held; row has only the
    ceil(c / width) rows the half needs.  The rest of the sequence is
    g**(k+c) = q - g**k, since g**c = -1.  The classes are scattered from
    the blocks (cyclotomy.build_classes); no dense discrete-log table is
    kept.
    """

    q: int
    g: int
    col: np.ndarray
    row: np.ndarray

    @property
    def block_size(self) -> int:
        """Powers in every block but the last: POWER_BLOCK rounded down to
        whole rows, and at least one row."""
        width = len(self.col)
        return max(1, POWER_BLOCK // width) * width

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (k0, powers) in order of k0, powers[i] = g**(k0 + i) mod q
        as a fresh int64 array of block_size entries; the last block is cut
        at c = (q-1)/2 powers, the half that labels every class.  Each
        product is below q**2 < 2**40, exact in int64, and is reduced by the
        floor-divide form t = b // q; b -= t*q, in place, which equals b % q
        for b >= 0: numpy divides by a scalar on a fast path but takes a
        slower generic loop for %.
        """
        q, c, width = self.q, (self.q - 1) // 2, len(self.col)
        rows = self.block_size // width
        for r0 in range(0, len(self.row), rows):
            k0 = r0 * width
            block = np.multiply.outer(self.row[r0:r0 + rows], self.col).ravel()[:c - k0]
            t = block // q
            t *= q
            block -= t
            yield k0, block


def build_index_table(q: int, g: int) -> IndexTable:
    """The power-matrix factors of primitive root g of q; rejects
    non-generators.

    The matrix has width = isqrt(q - 1) columns and enough rows to hold the
    c = (q-1)/2 powers g**0 .. g**(c-1), so only the column
    g**0 .. g**(width-1) and the row of powers of g**width take Python
    steps, about sqrt(q) and sqrt(q)/2; the powers themselves are made in
    blocks by IndexTable.blocks.
    """
    check_prime_modulus(q)
    if not 2 <= g < q or multiplicative_order(g, q) != q - 1:
        raise ValueError(f"g={g} is not a primitive root of q={q}")
    width = math.isqrt(q - 1)
    c = (q - 1) // 2
    col = [1]
    for _ in range(width - 1):
        col.append(col[-1] * g % q)
    step = col[-1] * g % q  # g**width
    row = [1]
    for _ in range(-(-c // width) - 1):
        row.append(row[-1] * step % q)
    col, row = np.array(col, dtype=np.int64), np.array(row, dtype=np.int64)
    col.flags.writeable = row.flags.writeable = False
    return IndexTable(q=q, g=g, col=col, row=row)
