"""Exact Mobius function table with Mertens and squarefree summaries, and
mu grown segment by segment (grown_mu); this module owns the segment size."""

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


# Indices per segment in mobius_sieve, and the most entries of the prime table
# in mobius_segment, so no segment reaches _SEGMENT**2 = 2**44.  One segment's
# int64 cofactors (32 MB) are its largest temporary; the sieve's table takes
# one byte per index.
_SEGMENT = 1 << 22


def mobius_sieve(limit: int) -> MobiusTable:
    """mu(1..limit), one segment of _SEGMENT indices at a time."""
    if limit < 1:
        raise InvalidParameterError("sieve limit must be >= 1")
    if limit > MAX_WINDOW_CELLS:
        raise InvalidParameterError(
            f"Mobius sieve up to {limit} exceeds the {MAX_WINDOW_CELLS}-entry limit"
        )
    mu = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, limit)
        mu[lo:hi + 1] = mobius_segment(lo, hi)
    return MobiusTable(limit, mu)


def grown_mu():
    """mu(n) from the last segment, or from a new one starting at n when n
    falls outside it.  Each segment is twice the last, from 2**12 up to
    _SEGMENT indices (read at call time), so the work follows the number
    of indices asked for and no table grows with n.  A segment that
    starts below the index bound _SEGMENT**2 ends before it, so every n
    below the bound gets its mu."""
    state = {"lo": 1, "values": np.zeros(0, dtype=np.int8)}

    def mu(n: int) -> int:
        lo, values = state["lo"], state["values"]
        if not lo <= n < lo + values.size:
            size = min(max(2 * values.size, 1 << 12), _SEGMENT)
            hi = n + size - 1
            if n < _SEGMENT**2:
                hi = min(hi, _SEGMENT**2 - 1)
            lo, values = n, mobius_segment(n, hi)
            state["lo"], state["values"] = lo, values
        return int(values[n - lo])

    return mu


def mobius_segment(lo: int, hi: int) -> np.ndarray:
    """mu(lo..hi) as int8, index n - lo, with no table below lo.

    A segmented sieve: each prime p up to sqrt(hi) flips the sign of its
    multiples, divides them once by p and zeroes the multiples of p*p.  A
    squarefree n left with a cofactor above 1 has exactly one more prime
    factor (two would exceed hi), so its sign flips once more.  The primes
    come from a table of sqrt(hi) + 1 entries, refused past _SEGMENT.
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
    mu = np.ones(hi - lo + 1, dtype=np.int8)
    rest = np.arange(lo, hi + 1, dtype=np.int64)
    for p in np.flatnonzero(prime).tolist():
        mu[-lo % p::p] *= -1
        rest[-lo % p::p] //= p
        mu[-lo % (p * p)::p * p] = 0
    mu[rest > 1] *= -1
    return mu
