"""Exact Mobius function table with Mertens and squarefree summaries."""

from __future__ import annotations

from dataclasses import dataclass

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


def mobius_sieve(limit: int) -> MobiusTable:
    """Sieve mu(1..limit): one sign flip per prime divisor, zero on square factors."""
    if limit < 1:
        raise InvalidParameterError("sieve limit must be >= 1")
    if limit > MAX_WINDOW_CELLS:
        raise InvalidParameterError(
            f"Mobius sieve up to {limit} exceeds the {MAX_WINDOW_CELLS}-entry limit"
        )
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        mu[p::p] *= -1
        sq = p * p
        if sq <= limit:
            composite[sq::p] = True
            mu[sq::sq] = 0
    return MobiusTable(limit, mu)
