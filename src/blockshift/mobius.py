"""Exact Mobius function table with Mertens and squarefree summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError


@dataclass
class MobiusTable:
    """mu(n) for 1 <= n <= limit, plus prefix summaries."""

    limit: int
    values: np.ndarray  # int8, index n; values[0] is unused
    _mertens: np.ndarray | None = field(default=None, repr=False)
    _sqfree: np.ndarray | None = field(default=None, repr=False)

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise InvalidParameterError(f"mu({n}) outside sieved range [1,{self.limit}]")
        return int(self.values[n])

    def mertens(self, n: int | None = None) -> int:
        """M(n) = sum of mu over 1..n."""
        n = self.limit if n is None else n
        if self._mertens is None:
            self._mertens = np.cumsum(self.values, dtype=np.int64)
        if not 1 <= n <= self.limit:
            raise InvalidParameterError(f"M({n}) outside sieved range")
        return int(self._mertens[n])

    def squarefree_count(self, n: int | None = None) -> int:
        """Q(n) = #{m <= n : mu(m) != 0}."""
        n = self.limit if n is None else n
        if self._sqfree is None:
            self._sqfree = np.cumsum(self.values != 0, dtype=np.int64)
        if not 1 <= n <= self.limit:
            raise InvalidParameterError(f"Q({n}) outside sieved range")
        return int(self._sqfree[n])


def mobius_sieve(limit: int) -> MobiusTable:
    """Sieve mu(1..limit): one sign flip per prime divisor, zero on square factors."""
    if limit < 1:
        raise InvalidParameterError("sieve limit must be >= 1")
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
