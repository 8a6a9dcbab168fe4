"""Exact Mobius function table with Mertens and squarefree summaries, and
mu over any range of indices (mobius_segment), sieved a segment at a time;
this module owns the segment size."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import InvalidParameterError
from .words import MAX_WINDOW_CELLS


@dataclass(frozen=True)
class MobiusTable:
    """mu(n) for 1 <= n <= limit, with prefix summaries."""

    limit: int
    values: np.ndarray  # int8, index n; values[0] is unused

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise InvalidParameterError(f"mu({n}) outside sieved range [1,{self.limit}]")
        return int(self.values[n])

    def mertens(self, n: int) -> int:
        """M(n) = sum of mu over 1..n."""
        if not 1 <= n <= self.limit:
            raise InvalidParameterError(f"M({n}) outside sieved range")
        return int(self.values[1:n + 1].sum(dtype=np.int64))

    def squarefree_count(self, n: int) -> int:
        """Q(n) = #{m <= n : mu(m) != 0}."""
        if not 1 <= n <= self.limit:
            raise InvalidParameterError(f"Q({n}) outside sieved range")
        return int(np.count_nonzero(self.values[1:n + 1]))


# Indices per segment in mobius_segment, and the most entries of its prime
# table, so no range reaches _SEGMENT**2 = 2**44.  One segment's int64
# cofactors (32 MB) are its largest temporary; the result takes one byte
# per index, in the caller's buffer if it gives one.
_SEGMENT = 1 << 22


def mobius_sieve(limit: int) -> MobiusTable:
    """mu(1..limit) from one mobius_segment, sieved into the table itself."""
    if limit < 1:
        raise InvalidParameterError("sieve limit must be >= 1")
    if limit > MAX_WINDOW_CELLS:
        raise InvalidParameterError(
            f"Mobius sieve up to {limit} exceeds the {MAX_WINDOW_CELLS}-entry limit"
        )
    mu = np.zeros(limit + 1, dtype=np.int8)
    mobius_segment(1, limit, mu[1:])
    return MobiusTable(limit, mu)


def mobius_segment(lo: int, hi: int, out=None) -> np.ndarray:
    """mu(lo..hi) as int8, index n - lo, with no table below lo, into
    ``out`` (int8, hi - lo + 1 entries) if given.

    A segmented sieve, _SEGMENT indices at a time: each prime p up to
    sqrt(hi) flips the sign of its multiples, divides them once by p and
    zeroes the multiples of p*p.  A squarefree n left with a cofactor above
    1 has exactly one more prime factor (two would exceed hi), so its sign
    flips once more.  The primes come from one table of sqrt(hi) + 1
    entries, refused past _SEGMENT.
    """
    if not 1 <= lo <= hi:
        raise InvalidParameterError(f"empty or non-positive Mobius range [{lo},{hi}]")
    root = isqrt(hi)
    if root >= _SEGMENT:
        raise InvalidParameterError(
            f"Mobius segment up to {hi} reaches the index bound {_SEGMENT**2}, "
            f"from which on its prime table would exceed {_SEGMENT} entries")
    prime = np.ones(root + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(root) + 1):
        if prime[p]:
            prime[p * p::p] = False
    primes = np.flatnonzero(prime).tolist()
    out = np.empty(hi - lo + 1, dtype=np.int8) if out is None else out
    out[:] = 1
    for a in range(lo, hi + 1, _SEGMENT):
        b = min(a + _SEGMENT - 1, hi)
        mu = out[a - lo:b - lo + 1]
        rest = np.arange(a, b + 1, dtype=np.int64)
        for p in primes:
            mu[-a % p::p] *= -1
            rest[-a % p::p] //= p
            mu[-a % (p * p)::p * p] = 0
        mu[rest > 1] *= -1
        del rest  # so the next segment's cofactors are not made beside these
    return out
