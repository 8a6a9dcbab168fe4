"""Star-filling: from a target sequence written on the sparse set to a
fully defined central window, one level at a time.

Each level fills exactly the blocks that meet the sparse set.  Inside a
block, already-defined sub-blocks (fewer than a third, by the sparsity
condition) are kept, the first third of the undefined sub-blocks become
the pillar word, and the rest cycle through the level's word list
(faithful profile) or the seeded sample pool (fast profile), restarted
per block.  Cells written at an earlier level are never overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConstructionInvariantError,
    DensityViolation,
    EmptyCoreError,
    IncompleteDataError,
    InvalidParameterError,
)
from .mobius import mobius_sieve
from .schedule import Schedule
from .sparse import SparseSetSpec
from .words import (STAR, Alphabet, PartialWindow, block_interval, block_of, check_cell_count,
                    hull_of_blocks, on_block_grid)


@dataclass(frozen=True)
class TargetSequence:
    """u(1), u(2), ... as symbol indices, from an explicit list or a rule."""

    description: str
    values: tuple[int, ...] | None = None
    fn: Callable[[int], int] | None = None

    def symbol_index(self, n: int) -> int:
        if n < 1:
            raise InvalidParameterError(f"target index {n} must be >= 1")
        if self.values is not None:
            if n > len(self.values):
                raise IncompleteDataError(
                    f"target sequence {self.description!r} has {len(self.values)} "
                    f"terms, u({n}) requested"
                )
            return self.values[n - 1]
        return self.fn(n)

    @classmethod
    def from_indices(cls, values, description="explicit") -> "TargetSequence":
        return cls(description, values=tuple(int(v) for v in values))

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet, description="explicit") -> "TargetSequence":
        return cls(description, values=tuple(alphabet.index(ch) for ch in text))

    @classmethod
    def mu_indicator(cls, alphabet: Alphabet) -> "TargetSequence":
        """u(n) = second symbol when mu(n) = 1, zero symbol otherwise."""
        mu = _grown_mu()
        return cls("mu-indicator", fn=lambda n: 1 if mu(n) == 1 else 0)

    @classmethod
    def mu_sign(cls, alphabet: Alphabet) -> "TargetSequence":
        """u(n) = sgn(mu(n)) over a 3+ symbol alphabet: 0 -> zero symbol,
        +1 -> symbols[1], -1 -> symbols[2]."""
        if alphabet.size < 3:
            raise InvalidParameterError("mu-sign needs at least 3 symbols")
        mu = _grown_mu()
        table = {0: 0, 1: 1, -1: 2}
        return cls("mu-sign", fn=lambda n: table[mu(n)])


def _grown_mu():
    state = {"table": None}

    def mu(n: int) -> int:
        t = state["table"]
        if t is None or n > t.limit:
            state["table"] = t = mobius_sieve(max(1 << 12, 2 * n))
        return t.mu(n)

    return mu


def init_partial(u: TargetSequence, sparse: SparseSetSpec,
                 window: tuple[int, int],
                 alphabet: Alphabet | None = None) -> PartialWindow:
    """u written on the sparse set inside the window, stars elsewhere."""
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise InvalidParameterError(f"empty window [{lo},{hi}]")
    check_cell_count(hi - lo + 1)
    cells = np.full(hi - lo + 1, STAR, dtype=np.uint8)
    for n, s in sparse.elements_in((lo, hi)):
        v = u.symbol_index(n)
        if alphabet is not None and not 0 <= v < alphabet.size:
            raise InvalidParameterError(
                f"target value u({n}) = {v} outside alphabet of size {alphabet.size}"
            )
        cells[s - lo] = v
    return PartialWindow(lo, cells)


def fill_level(x: PartialWindow, level: int, schedule: Schedule,
               cycle_start: int = 0) -> PartialWindow:
    """One star-filling step: complete every level block that meets S.

    Validates the block grid, the all-or-nothing definedness of each
    sub-block, the star discipline (defined cells only inside blocks
    meeting S), and the per-block sparsity count.  Admissibility of the
    surviving sub-blocks is certified once, after the top level (see
    analysis.window_admissibility_report).
    """
    if not 1 <= level <= schedule.depth:
        raise InvalidParameterError(f"level {level} outside built depth {schedule.depth}")
    m_new = schedule.m(level)
    m_old = schedule.m(level - 1)
    r = m_new // m_old
    q = r // 3
    if not on_block_grid(x.start, len(x), m_new):
        raise ConstructionInvariantError(
            f"window {x.interval()} is not a union of level-{level} blocks"
        )
    out = x.cells.copy()
    off = x.offset
    if bool(((out != STAR) & (out >= schedule.alphabet.size)).any()):
        raise ConstructionInvariantError("window holds cell values outside the alphabet")

    meeting = sorted({block_of(s, m_new) for _, s in schedule.sparse.elements_in(x.interval())})
    fill_src = schedule.fill_matrix(level - 1)
    n_src = fill_src.shape[0]
    pillar = np.frombuffer(schedule.pillar(level - 1).cells, dtype=np.uint8)

    defined_total = int((out != STAR).sum())
    defined_in_meeting = 0
    for i in meeting:
        lo, hi = block_interval(i, m_new)
        seg = out[lo - off: hi + 1 - off].reshape(r, m_old)
        row_star = seg == STAR
        full_star = row_star.all(axis=1)
        any_star = row_star.any(axis=1)
        mixed = any_star & ~full_star
        if mixed.any():
            t = int(np.nonzero(mixed)[0][0])
            raise ConstructionInvariantError(
                f"level-{level} block {i}: sub-block {t} is partially defined"
            )
        defined_rows = r - int(any_star.sum())
        defined_in_meeting += defined_rows * m_old
        if defined_rows >= q:
            raise DensityViolation(
                level - 1, (lo, hi), defined_rows, q,
                message=(
                    f"level-{level} block {i} already holds {defined_rows} defined "
                    f"sub-blocks, sparsity promised < {q}"
                ),
            )
        star_rows = np.nonzero(full_star)[0]
        seg[star_rows[:q]] = pillar
        rest = star_rows[q:]
        if schedule.faithful and rest.size < n_src:
            raise ConstructionInvariantError(
                f"level-{level} block {i}: {rest.size} free sub-blocks cannot "
                f"use all {n_src} words"
            )
        if rest.size:
            idx = (cycle_start + np.arange(rest.size)) % n_src
            seg[rest] = fill_src[idx]

    if defined_total != defined_in_meeting:
        meeting_set = set(meeting)
        coords = np.nonzero(x.cells != STAR)[0]
        bad = next(
            (int(c) + off for c in coords
             if block_of(int(c) + off, m_new) not in meeting_set),
            x.start,
        )
        raise ConstructionInvariantError(
            f"defined cell at {bad} lies in a level-{level} block disjoint from S"
        )
    return x.with_cells(out)


def realize(u: TargetSequence, schedule: Schedule, depth: int,
            window: tuple[int, int] | None = None,
            cycle_start: int = 0) -> PartialWindow:
    """x^(depth) on the central depth-level block (or on the hull of the
    depth-level blocks meeting the given window).

    The central variant returns a fully defined admissible word.  The
    window variant may keep whole blocks starred when they miss S; its
    sparsity certificate is re-checked over the extended hull first.
    """
    if not 1 <= depth <= schedule.depth:
        raise InvalidParameterError(f"depth {depth} outside built depth {schedule.depth}")
    m_top = schedule.m(depth)
    if window is None:
        hull = block_interval(0, m_top)
        if not schedule.sparse.elements_in(hull):
            raise EmptyCoreError(
                f"central block {hull} misses S; build to a larger depth"
            )
    else:
        hull = hull_of_blocks(int(window[0]), int(window[1]), m_top)
        _extend_sparsity_certificate(schedule, depth, hull)

    x = init_partial(u, schedule.sparse, hull, schedule.alphabet)
    for level in range(1, depth + 1):
        x = fill_level(x, level, schedule, cycle_start=cycle_start)

    from .analysis import window_admissibility_report

    if window is None and not x.is_fully_defined():
        raise ConstructionInvariantError("central block still holds stars after the fill")
    report = window_admissibility_report(x, schedule, depth)
    if not report.ok:
        raise ConstructionInvariantError(f"realized window fails admissibility: {report.summary()}")
    return x


def _extend_sparsity_certificate(schedule: Schedule, depth: int, hull: tuple[int, int]):
    base = schedule.verified_range
    if base is not None and base[0] <= hull[0] and hull[1] <= base[1]:
        return
    rng = hull if base is None else (min(base[0], hull[0]), max(base[1], hull[1]))
    for k in range(depth):
        ok, count, threshold, witness = schedule.sparse.sparsity_report(
            schedule.m(k + 1), schedule.m(k), rng
        )
        if not ok:
            raise DensityViolation(k, witness, count, threshold)


@dataclass(frozen=True)
class RealizationReport:
    passed: bool
    constraints: int
    first_mismatch: tuple | None = None

    def describe(self) -> str:
        if self.passed:
            return f"pass ({self.constraints} constraints)"
        n, s, want, got = self.first_mismatch
        return (
            f"fail at n={n}: x({s}) = {got}, expected u({n}) = {want} "
            f"({self.constraints} constraints)"
        )


def verify_realization(x: PartialWindow, u: TargetSequence,
                       sparse: SparseSetSpec) -> RealizationReport:
    """Check x(s_n) = u(n) for every s_n inside the window, exactly."""
    cells = x.cells
    first = None
    checked = 0
    for n, s in sparse.elements_in(x.interval()):
        checked += 1
        got = int(cells[s - x.offset])
        want = u.symbol_index(n)
        if got != want and first is None:
            first = (n, s, want, "STAR" if got == STAR else got)
    return RealizationReport(first is None, checked, first)
