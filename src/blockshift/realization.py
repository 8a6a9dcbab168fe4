"""Star-filling: from a target sequence written on the sparse set to a
fully defined central window, one level at a time.

Each level fills exactly the blocks that meet the sparse set.  Inside a
block, already-defined sub-blocks (fewer than a third, by the sparsity
condition) are kept, the first third of the undefined sub-blocks become
the pillar word, and the rest cycle through the level's word list
(faithful profile) or the seeded sample pool (fast profile), restarted
per block.  Cells written at an earlier level are never overwritten.

A level is filled in row batches of the blocks that meet the set
(words.split_level_pass), a sub-block row at a time: row max and min tell
the defined rows from the starred ones, and a running count ranks the
starred rows.  A batch holds whole blocks, or consecutive rows of a
block longer than the batch budget, so no temporary grows with the
window or with a block.  ``realize`` walks S once and fills every
level in one cell buffer, each level taking its blocks from the offsets
of S that walk pinned; ``fill_level`` copies its input first.
A target is read over a range of indices: the indices n with s_n in a
window are one run, so the pins and verify_realization each read u once,
and the mu targets take mu over just that run (mobius.mobius_segment).
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
from .mobius import mobius_segment
from .schedule import Schedule, window_admissibility_report
from .sparse import SparseSetSpec
from .words import (STAR, Alphabet, PartialWindow, block_interval, block_of,
                    check_cell_count, count_rows, fold_rows, hull_of_blocks,
                    on_block_grid, split_level_pass)


@dataclass(frozen=True)
class TargetSequence:
    """u(1), u(2), ... as symbol indices, given by a rule: fn(lo, hi) is
    u(lo..hi) as an integer array, index n - lo."""

    description: str
    fn: Callable[[int, int], np.ndarray]

    def values(self, lo: int, hi: int) -> np.ndarray:
        """u(lo..hi), for 1 <= lo <= hi."""
        if lo < 1:
            raise InvalidParameterError(f"target index {lo} must be >= 1")
        return self.fn(lo, hi)

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet, description="explicit") -> "TargetSequence":
        """u(n) = the n-th symbol of the text; past its end u(n) is missing."""
        symbols = np.array([alphabet.index(ch) for ch in text], dtype=np.intp)
        symbols.flags.writeable = False

        def fn(lo: int, hi: int) -> np.ndarray:
            if hi > symbols.size:
                raise IncompleteDataError(
                    f"target sequence {description!r} has {symbols.size} "
                    f"terms, u({max(lo, symbols.size + 1)}) requested"
                )
            return symbols[lo - 1:hi]

        return cls(description, fn)

    @classmethod
    def mu_indicator(cls) -> "TargetSequence":
        """u(n) = second symbol when mu(n) = 1, zero symbol otherwise."""
        return cls("mu-indicator", lambda lo, hi: (mobius_segment(lo, hi) == 1).view(np.uint8))

    @classmethod
    def mu_sign(cls, alphabet: Alphabet) -> "TargetSequence":
        """u(n) = sgn(mu(n)) over a 3+ symbol alphabet: 0 -> zero symbol,
        +1 -> symbols[1], -1 -> symbols[2]."""
        if alphabet.size < 3:
            raise InvalidParameterError("mu-sign needs at least 3 symbols")
        table = np.array([0, 1, 2], dtype=np.uint8)  # mu = -1 reads the last entry
        return cls("mu-sign", lambda lo, hi: table[mobius_segment(lo, hi)])


def init_partial(u: TargetSequence, sparse: SparseSetSpec,
                 window: tuple[int, int], alphabet: Alphabet) -> PartialWindow:
    """u written on the sparse set inside the window, stars elsewhere."""
    lo, hi = int(window[0]), int(window[1])
    return PartialWindow(lo, _pinned_cells(u, sparse, lo, hi, alphabet)[0])


def _pinned_cells(u: TargetSequence, sparse: SparseSetSpec, lo: int, hi: int,
                  alphabet: Alphabet) -> tuple[np.ndarray, np.ndarray]:
    """The cells of [lo, hi], u on S and stars elsewhere, and the offsets of S
    in them, in order (window-local, so int64 even where coordinates are not)."""
    if lo > hi:
        raise InvalidParameterError(f"empty window [{lo},{hi}]")
    check_cell_count(hi - lo + 1)
    cells = np.full(hi - lo + 1, STAR, dtype=np.uint8)
    elements = sparse.elements_in((lo, hi))
    offsets = np.fromiter((s - lo for _, s in elements), np.int64, len(elements))
    if elements:
        v = u.values(elements[0][0], elements[-1][0])
        bad = (v < 0) | (v >= alphabet.size)
        if bad.any():
            i = int(bad.argmax())
            raise InvalidParameterError(
                f"target value u({elements[i][0]}) = {v[i]} outside alphabet of size "
                f"{alphabet.size}"
            )
        cells[offsets] = v
    return cells, offsets


def fill_level(x: PartialWindow, level: int, schedule: Schedule,
               cycle_start: int = 0) -> PartialWindow:
    """One star-filling step: complete every level block that meets S.

    Validates the block grid, the all-or-nothing definedness of each
    sub-block, the star discipline (defined cells only inside blocks
    meeting S), and the per-block sparsity count.  Admissibility of the
    surviving sub-blocks is certified once, after the top level (see
    schedule.window_admissibility_report).
    """
    if not 1 <= level <= schedule.depth:
        raise InvalidParameterError(f"level {level} outside built depth {schedule.depth}")
    pinned = np.fromiter((s - x.offset for _, s in schedule.sparse.elements_in(x.interval())),
                         np.int64)
    cells = x.cells.copy()
    _fill_in_place(cells, x.offset, level, schedule, cycle_start, pinned)
    return PartialWindow(x.offset, cells)


def _fill_in_place(cells: np.ndarray, start: int, level: int, schedule: Schedule,
                   cycle_start: int, pinned: np.ndarray) -> None:
    """fill_level on a writable cell buffer whose first cell is ``start``
    and whose offsets of S are ``pinned`` (_pinned_cells): it reads no S.

    The alphabet check and the defined-cell count run first, one buffer
    a range of level blocks.  The blocks that meet S are then filled in
    row batches of sub-blocks: whole blocks, a slice view when they are
    consecutive and a gathered copy otherwise, or consecutive rows of a
    block longer than the budget, whose defined and starred row counts
    carry from batch to batch.  Each pass runs on ranges of whole blocks
    (words.split_level_pass), so the pillar, the fill source and the
    blocks that meet S are taken before it.  Errors name the first
    offending block in window order, and the same sub-block, as a
    block-by-block loop would.
    """
    m_new = schedule.m(level)
    m_old = schedule.m(level - 1)
    r = m_new // m_old
    q = r // 3
    size = cells.size
    if not on_block_grid(start, size, m_new):
        raise ConstructionInvariantError(
            f"window {(start, start + size - 1)} is not a union of level-{level} blocks"
        )
    a = schedule.alphabet.size
    n_blocks = size // m_new

    def count_defined(_, batches) -> int:
        buf = None
        defined = 0
        for c0, c1 in batches:
            if buf is None:
                buf = np.empty(c1 - c0, dtype=np.uint8)  # the first batch is the longest
            # STAR wraps to 0 and symbol c to c + 1, so a cell outside the
            # alphabet is one above a, and the defined cells are the nonzero ones
            shifted = np.add(cells[c0:c1], np.uint8(1), out=buf[:c1 - c0])
            if int(shifted.max()) > a:
                raise ConstructionInvariantError("window holds cell values outside the alphabet")
            defined += int(np.count_nonzero(shifted))
        return defined

    defined_total = sum(split_level_pass(count_defined, n_blocks, m_new, 1))

    meeting = np.unique(pinned // m_new)  # window-local block indices
    first_block = block_of(start, m_new)
    n_src = schedule.fill_size(level - 1)
    cycle_start %= n_src  # the fill index is taken mod n_src; past int64 it would overflow
    pillar = schedule.pillar(level - 1)
    fill_rows = schedule.fill_source(level - 1)
    grid = cells.reshape(n_blocks, m_new)

    def fill(_, batches) -> int:
        """Fill the meeting blocks of one range; returns their defined cells."""
        defined_in_meeting = 0
        held_defined = held_star = 0  # rows of a block that earlier batches read
        for s0, s1 in batches:
            j0 = s0 // r
            idx = meeting[j0:-(-s1 // r)]
            run = idx[-1] - idx[0] + 1 == idx.size
            blocks = grid[idx[0]:idx[-1] + 1] if run else grid[idx]
            lead = s0 - j0 * r  # the batch's first row within its first block
            rows = blocks.reshape(-1, m_old)[lead:lead + s1 - s0]
            row_top, row_low = fold_rows(np.maximum, rows), fold_rows(np.minimum, rows)
            per = min(r, s1 - s0)
            star = (row_low == STAR).reshape(-1, per)      # wholly undefined sub-blocks
            touched = (row_top == STAR).reshape(-1, per)   # sub-blocks holding a STAR
            n_star = count_rows(touched).astype(np.intp)
            defined_rows = per - n_star
            defined_in_meeting += int(defined_rows.sum()) * m_old
            defined_rows[0] += held_defined
            mixed = touched & ~star
            bad = mixed.any(axis=1)
            if s1 % r == 0:  # the batch ends its last block
                bad |= defined_rows >= q
                if schedule.faithful:
                    bad |= r - defined_rows - q < n_src
            if bad.any():
                j = int(bad.argmax())
                _raise_block_error(level, first_block + int(idx[j]), m_new, r, q, n_src,
                                   int(defined_rows[j]),
                                   lead + int(mixed[j].argmax()) if mixed[j].any() else None)

            # rank each undefined sub-block within its block: the first q take
            # the pillar, the rest cycle through the fill source
            free = np.flatnonzero(star)
            rank = np.arange(held_star, held_star + free.size) - np.repeat(
                np.cumsum(n_star) - n_star, n_star)
            rows[free[rank < q]] = pillar
            tail = rank >= q
            rows[free[tail]] = fill_rows((cycle_start + rank[tail] - q) % n_src)
            if not run:
                grid[idx] = blocks
            if s1 % r:
                held_defined, held_star = int(defined_rows[0]), held_star + int(n_star[0])
            else:
                held_defined = held_star = 0
        return defined_in_meeting

    # a row costs its cells and about 64 bytes of int64 indices: free,
    # rank and its offsets, the fill ids
    defined_in_meeting = sum(split_level_pass(fill, meeting.size, r, m_old + 64))

    if defined_total != defined_in_meeting:
        outside = np.ones(n_blocks, dtype=bool)
        outside[meeting] = False

        def find_outside(_, batches) -> None:
            for c0, c1 in batches:
                hits = (cells[c0:c1] != STAR).reshape(-1, min(m_new, c1 - c0))
                hits &= outside[c0 // m_new:c0 // m_new + hits.shape[0], None]
                if hits.any():
                    raise ConstructionInvariantError(
                        f"defined cell at {start + c0 + int(hits.argmax())} lies in a "
                        f"level-{level} block disjoint from S"
                    )

        split_level_pass(find_outside, n_blocks, m_new, 1)


def _raise_block_error(level: int, i: int, m_new: int, r: int, q: int, n_src: int,
                       defined_rows: int, mixed_at: int | None):
    """The first failed test of level-``level`` block i, in the order fill_level runs them."""
    if mixed_at is not None:
        raise ConstructionInvariantError(
            f"level-{level} block {i}: sub-block {mixed_at} is partially defined"
        )
    if defined_rows >= q:
        raise DensityViolation(
            level - 1, block_interval(i, m_new), defined_rows, q,
            message=(
                f"level-{level} block {i} already holds {defined_rows} defined "
                f"sub-blocks, sparsity promised < {q}"
            ),
        )
    raise ConstructionInvariantError(
        f"level-{level} block {i}: {r - defined_rows - q} free sub-blocks cannot "
        f"use all {n_src} words"
    )


def realize(u: TargetSequence, schedule: Schedule, depth: int,
            window: tuple[int, int] | None = None,
            cycle_start: int = 0) -> PartialWindow:
    """x^(depth) on the central depth-level block (or on the hull of the
    depth-level blocks meeting the given window).

    The central variant returns a fully defined admissible word.  The
    window variant may keep whole blocks starred when they miss S; any
    window may be asked for, since the schedule certified sparsity over
    all of N (a list with a horizon: through the horizon, beyond which
    the set raises IncompleteDataError).  One cell buffer is allocated
    and every level is filled in place.
    """
    if not 1 <= depth <= schedule.depth:
        raise InvalidParameterError(f"depth {depth} outside built depth {schedule.depth}")
    m_top = schedule.m(depth)
    if window is None:
        hull = block_interval(0, m_top)
        if schedule.sparse.count_in(hull) == 0:
            raise EmptyCoreError(
                f"central block {hull} misses S; build to a larger depth"
            )
    else:
        hull = hull_of_blocks(int(window[0]), int(window[1]), m_top)

    cells, pinned = _pinned_cells(u, schedule.sparse, hull[0], hull[1], schedule.alphabet)
    for level in range(1, depth + 1):
        _fill_in_place(cells, hull[0], level, schedule, cycle_start, pinned)
    x = PartialWindow(hull[0], cells)
    report = window_admissibility_report(x, schedule, depth)
    if window is None and not report.fully_defined:
        raise ConstructionInvariantError("central block still holds stars after the fill")
    if not report.ok:
        raise ConstructionInvariantError(f"realized window fails admissibility: {report.summary()}")
    return x


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
    elements = sparse.elements_in(x.interval())
    if not elements:
        return RealizationReport(True, 0)
    got = x.cells[np.fromiter((s - x.offset for _, s in elements), np.int64, len(elements))]
    want = u.values(elements[0][0], elements[-1][0])
    wrong = got != want
    if not wrong.any():
        return RealizationReport(True, len(elements))
    i = int(wrong.argmax())
    (n, s), g = elements[i], int(got[i])
    return RealizationReport(False, len(elements), (n, s, int(want[i]), "STAR" if g == STAR else g))
