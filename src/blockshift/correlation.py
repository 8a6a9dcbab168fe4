"""Weighted averages along sparse iterates, and the end-to-end
counterexample demo: schedule for the squares, realize the mu-derived
target, average mu(n) * x(n^2).

Averages are accumulated as integer numerator / denominator pairs and
reported as exact fractions; division to floats happens only in the
serializers.  When the realized target is a deterministic function of
the weight, the average collapses to a sieve count over n, and the
report checks that identity with integer arithmetic (no tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .analysis import minimality_witnesses, window_admissibility_report
from .errors import InvalidParameterError, WindowRangeError
from .mobius import MobiusTable, mobius_sieve
from .realization import TargetSequence, realize, verify_realization
from .schedule import Schedule, build_schedule
from .sparse import SparseSetSpec
from .words import STAR, Alphabet, PartialWindow, block_interval


@dataclass(frozen=True)
class WeightTable:
    """rho(n) plus the numeric valuation of each alphabet symbol."""

    description: str
    values: dict[str, int]
    weight: Callable[[int], int]

    @classmethod
    def mobius(cls, table: MobiusTable, values: dict[str, int]) -> "WeightTable":
        return cls("mobius", dict(values), table.mu)


@dataclass(frozen=True)
class CorrelationReport:
    weight: str
    iterates: str
    count: int
    rows: tuple[tuple[int, Fraction], ...]
    exact_identity: bool | None = None

    def final(self) -> Fraction:
        return self.rows[-1][1]

    def as_dict(self) -> dict:
        return {
            "weight": self.weight,
            "iterates": self.iterates,
            "N": self.count,
            "exact_identity": self.exact_identity,
            "averages": [
                {"N": n, "numerator": f.numerator, "denominator": f.denominator,
                 "value": float(f)}
                for n, f in self.rows
            ],
        }


def _ladder(n: int) -> list[int]:
    out = []
    p = 1
    while p < n:
        out.append(p)
        p *= 2
    out.append(n)
    return out


def correlation_average(x: PartialWindow, rho: WeightTable, p: SparseSetSpec,
                        count: int, alphabet: Alphabet,
                        u: TargetSequence | None = None) -> CorrelationReport:
    """A(N') = (1/N') sum of rho(n) * val(x(p(n))) over a power-of-two ladder.

    When the target u is supplied, also verifies the exact identity
    A(N') = (1/N') sum of rho(n) * val(u(n)) at every ladder point.
    """
    if count < 1:
        raise InvalidParameterError("N must be >= 1")
    if p.first_index > 1:
        raise InvalidParameterError("iterate rule must be defined from n = 1")
    val = np.empty(alphabet.size, dtype=np.int64)
    for i, ch in enumerate(alphabet.symbols):
        if ch not in rho.values:
            raise InvalidParameterError(f"weight table has no value for symbol {ch!r}")
        val[i] = rho.values[ch]

    ladder = set(_ladder(count))
    rows = []
    running = 0
    exact = None if u is None else True
    want = None if u is None else u.values(1, count)
    for n in range(1, count + 1):
        s = p.term(n)
        if not x.offset <= s <= x.end:
            raise WindowRangeError(
                f"p({n}) = {s} falls outside the window {x.interval()}"
            )
        cell = x[s]
        if cell == STAR:
            raise InvalidParameterError(f"x({s}) is undefined ('*')")
        if cell >= alphabet.size:
            raise InvalidParameterError(f"x({s}) = {cell} outside alphabet of size {alphabet.size}")
        w = rho.weight(n)
        term = w * int(val[cell])
        running += term
        if u is not None and term != w * int(val[want[n - 1]]):
            exact = False
        if n in ladder:
            rows.append((n, Fraction(running, n)))
    return CorrelationReport(rho.description, p.describe(), count, tuple(rows), exact)


@dataclass(frozen=True)
class SarnakDemo:
    report: CorrelationReport
    window: PartialWindow
    schedule: Schedule
    provenance: dict


def sarnak_demo(profile: str = "faithful", depth: int = 2, count: int = 832,
                seed: int = 0) -> SarnakDemo:
    """Full counterexample pipeline along p(n) = n^2 with rho = mu.

    Faithful profile uses the binary indicator target (averages tend to
    the density of mu = 1); the fast profile uses the three-symbol sign
    target, whose averages tend to the squarefree density 6/pi^2.
    """
    if count < 1:
        raise InvalidParameterError("N must be >= 1")
    if profile == "faithful":
        alphabet = Alphabet("01")
        u = TargetSequence.mu_indicator()
    else:
        alphabet = Alphabet("0+-")
        u = TargetSequence.mu_sign(alphabet)
    values = dict(zip(alphabet.symbols, [0, 1, -1]))
    squares = SparseSetSpec.squares()
    sched = build_schedule(alphabet, squares, depth, profile=profile, seed=seed)

    need = count * count
    central = block_interval(0, sched.m(depth))
    window = None if need <= central[1] else (1, need)

    x = realize(u, sched, depth, window=window)
    table = mobius_sieve(count)
    rho = WeightTable.mobius(table, values)
    report = correlation_average(x, rho, squares, count, alphabet, u=u)

    realization = verify_realization(x, u, squares)
    admissibility = window_admissibility_report(x, sched, depth)
    minimality = None
    if sched.faithful and admissibility.fully_defined:
        minimality = [
            f"{name}:{status}" for name, status, _ in
            minimality_witnesses(admissibility, sched).checks
        ]

    q_count = table.squarefree_count(count)
    mu_one = (q_count + table.mertens(count)) // 2
    provenance = {
        "profile": profile,
        "depth": depth,
        "seed": seed,
        "alphabet": alphabet.symbols,
        "m": [sched.m(k) for k in range(sched.depth + 1)],
        "cards": [sched.level(k).card.describe() for k in range(sched.depth + 1)],
        "verified_range": list(sched.verified_range),
        "window": [x.offset, x.end],
        "realization": realization.describe(),
        "admissibility": admissibility.summary(),
        "admissibility_ok": admissibility.ok,
        "minimality": minimality,
        "exact_identity": report.exact_identity,
        "sieve": {"N": count, "squarefree": q_count, "mertens": table.mertens(count),
                  "mu_one_count": mu_one},
        "final_average": [report.final().numerator, report.final().denominator],
    }
    return SarnakDemo(report, x, sched, provenance)
