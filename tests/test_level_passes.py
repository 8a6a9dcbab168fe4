"""The batched level passes against the dense references in tests/oracles.py.

``schedule._check_level`` and ``realization.fill_level`` read a window in
block-aligned batches of sub-block rows.  On random partial windows they
must give the same LevelCheck, the same cells, and the same exception
class and message (so the same first offending block and sub-block) as
``check_level_dense`` and ``fill_level_by_blocks``.  The batch budget is
patched down to a few blocks so that batch edges fall inside the windows,
and the worker count to one, two or three, so that a pass also runs on
ranges of blocks in threads (words.split_level_pass).
The packed-code word lookup is also checked against a binary search on
whole rows (``word_ids_by_void_search``), and on cells that would alias
a word; the enumerator of A_1 refuses a word too wide for one 64-bit code.
"""

import concurrent.futures
import itertools
import re
import sys
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from blockshift import (STAR, Alphabet, BlockshiftError, ConstructionInvariantError,
                        PartialWindow, SparseSetSpec, TargetSequence, build_schedule, cli,
                        fill_level, init_partial, realize, sarnak_demo, schedule, words)
from blockshift.words import block_of
from tests.oracles import check_level_dense, fill_level_by_blocks, word_ids_by_void_search

# name -> (alphabet, profile, depth, realize window or None for the central block)
CONFIGS = {
    "faithful-01-d2": ("01", "faithful", 2, None),
    "faithful-0+--d1": ("0+-", "faithful", 1, (-400, 2500)),
    "fast-01-d2": ("01", "fast", 2, (-3000, 9000)),
    # level-2 blocks far out miss S, so they stay starred
    "fast-0+--d2-far": ("0+-", "fast", 2, (10_000_000, 10_020_000)),
}
SMALL = sorted(set(CONFIGS) - {"faithful-01-d2"})

OPS = ("star-block", "star-sub", "star-cell", "symbol", "alien", "pillar", "word", "flat",
       "flat-block", "crowd")


@pytest.fixture(scope="module")
def built(sched2, x2):
    """name -> (schedule, target, realized window)."""
    out = {}
    for name, (symbols, profile, depth, window) in CONFIGS.items():
        ab = Alphabet(symbols)
        u = TargetSequence.mu_indicator() if ab.size == 2 else TargetSequence.mu_sign(ab)
        if name == "faithful-01-d2":
            out[name] = (sched2, u, x2)
            continue
        sched = build_schedule(ab, SparseSetSpec.squares(), depth, profile=profile)
        out[name] = (sched, u, realize(u, sched, depth, window=window, cycle_start=2))
    return out


@contextmanager
def batch_of(m, blocks, extra, workers=1):
    """The level passes batched at ``blocks`` blocks of length m plus
    ``extra`` % m cells (None: unpatched), on ``workers`` threads sharing
    that budget.  With blocks = 0 the budget is m / 2^(1 + extra % 12)
    cells, but at least 8: below one block when m exceeds 8, so a block
    splits over row batches."""
    with mock.patch.object(words, "_WORKERS", workers):
        if blocks is None:
            yield
            return
        budget = blocks * m + extra % m if blocks else max(8, m >> (1 + extra % 12))
        with mock.patch.object(words, "_BATCH_CELLS", budget):
            yield


def mutate(cells, sched, level, rng, ops, focus=None):
    """Random edits of a level-aligned cell buffer, in place.  Each edit
    lands in a random level block, nine times in ten one of ``focus`` if given."""
    a = sched.alphabet.size
    m, m_prev = sched.m(level), sched.m(level - 1)
    r = m // m_prev
    subs = cells.reshape(-1, r, m_prev)
    pillar = sched.pillar(level - 1)
    for op, count in ops:
        for _ in range(count):
            hot = focus is not None and focus.size and rng.random() < 0.9
            b = rng.choice(focus) if hot else rng.integers(subs.shape[0])
            block = subs[b]
            t, c = rng.integers(r), rng.integers(m_prev)
            if op == "star-block":
                block[:] = STAR
            elif op == "star-sub":
                block[t] = STAR
            elif op == "star-cell":
                block[t, c] = STAR
            elif op == "symbol":
                block[t, c] = rng.integers(a)
            elif op == "alien":
                block[t, c] = rng.integers(a, STAR)
            elif op == "pillar":
                block[t] = pillar
            elif op == "word":
                block[t] = rng.integers(a, size=m_prev)
            elif op == "flat":  # no pillar share, so not a word of A_{level-1}
                block[t] = a - 1
            elif op == "flat-block":  # a block missing every symbol but one
                block[:] = rng.integers(a)
            elif op == "crowd":  # define a third of the block's sub-blocks
                block[rng.choice(r, size=r // 3, replace=False)] = pillar


def outcome(fn):
    try:
        return fn()
    except BlockshiftError as exc:
        return (type(exc).__name__, str(exc))


edits = st.lists(st.tuples(st.sampled_from(OPS), st.integers(1, 3)), max_size=4)
batch_blocks = st.sampled_from([0, 1, 2, 3, 5, None])
batch_extra = st.integers(0, 1 << 16)
worker_counts = st.sampled_from([1, 2, 3])


def check_case(built, name, data):
    sched, _, x = built[name]
    level = data.draw(st.integers(1, sched.depth), label="level")
    m = sched.m(level)
    total = len(x) // m
    b0 = data.draw(st.integers(0, total - 1), label="first block")
    nb = data.draw(st.integers(1, min(total - b0, 400)), label="blocks")
    cells = x.cells[b0 * m:(b0 + nb) * m].copy()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    defined = np.flatnonzero(cells.reshape(nb, m).max(axis=1) != STAR)
    mutate(cells, sched, level, rng, data.draw(edits, label="edits"), focus=defined)
    w = PartialWindow(x.offset + b0 * m, cells)
    with batch_of(m, data.draw(batch_blocks, label="batch"), data.draw(batch_extra),
                  data.draw(worker_counts, label="workers")):
        got = outcome(lambda: schedule._check_level(w, sched, level))
    want = outcome(lambda: check_level_dense(w, sched, level))
    event(f"level {level}: " + (want.detail or f"membership {want.membership}"))
    assert got == want


def fill_case(built, name, data):
    sched, u, x = built[name]
    level = data.draw(st.integers(1, sched.depth), label="level")
    m = sched.m(level)
    start = init_partial(u, sched.sparse, x.interval(), sched.alphabet)
    for k in range(1, level):
        start = fill_level(start, k, sched, cycle_start=2)
    cells = start.cells.copy()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    meeting = np.unique([(s - x.offset) // m for _, s in sched.sparse.elements_in(x.interval())])
    mutate(cells, sched, level, rng, data.draw(edits, label="edits"), focus=meeting)
    w = PartialWindow(start.offset, cells)
    cycle = data.draw(st.integers(-3, 40), label="cycle start")
    with batch_of(m, data.draw(batch_blocks, label="batch"), data.draw(batch_extra),
                  data.draw(worker_counts, label="workers")):
        got = outcome(lambda: fill_level(w, level, sched, cycle_start=cycle))
    want = outcome(lambda: fill_level_by_blocks(w, level, sched, cycle_start=cycle))
    event(f"level {level}: " + (re.sub(r"-?\d+", "#", want[1]) if isinstance(want, tuple)
                                else "filled"))
    if isinstance(want, PartialWindow):
        assert isinstance(got, PartialWindow) and got.offset == want.offset
        assert got.cells.tobytes() == want.cells.tobytes()
    else:
        assert got == want


@pytest.mark.parametrize("name", SMALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_check_level_matches_dense(built, name, data):
    check_case(built, name, data)


@pytest.mark.parametrize("name", SMALL)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fill_level_matches_block_loop(built, name, data):
    fill_case(built, name, data)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_faithful_d2_passes_match(built, data):
    check_case(built, "faithful-01-d2", data)
    fill_case(built, "faithful-01-d2", data)


def test_faithful_word_lookup_matches(built):
    """Sub-blocks looked up in the sorted A_1 matrix: strangers, extra
    pillars, and a two-block window whose first block misses words that
    the second one holds, one block per batch."""
    sched, _, x = built["faithful-01-d2"]
    cells = x.cells.copy()
    mutate(cells, sched, 2, np.random.default_rng(5), [("word", 2), ("pillar", 1)])
    mutated = PartialWindow(x.offset, cells)
    pair = PartialWindow(x.offset - len(x), np.concatenate([cells, x.cells]))
    for window in (x, mutated, pair):
        for blocks_per_batch in (1, 0):
            with batch_of(sched.m(2), blocks_per_batch, 5000):
                got = schedule._check_level(window, sched, 2)
            assert got == check_level_dense(window, sched, 2)
    # the two blocks together hold every word of A_1, yet the first alone does not
    assert len({row.tobytes() for row in pair.cells.reshape(-1, sched.m(1))}
               & {row.tobytes() for row in sched.words(1)}) == 30826
    assert schedule._check_level(pair, sched, 2).every_word == "fail"


# budgets in cells, each below one level-2 block of fast-01-d2 (2 115 cells)
SPLIT_BUDGETS = (8, 97, 700, 2114)


def assert_split_matches(fn, oracle, sub_block_budgets=SPLIT_BUDGETS):
    """fn matches the oracle at each budget, on one to three workers."""
    want = outcome(oracle)
    for budget in sub_block_budgets:
        for workers in (1, 2, 3):
            with mock.patch.object(words, "_BATCH_CELLS", budget), \
                    mock.patch.object(words, "_WORKERS", workers):
                got = outcome(fn)
            if isinstance(want, PartialWindow):
                assert got.cells.tobytes() == want.cells.tobytes()
            else:
                assert got == want, (budget, workers)
    return want


def test_fill_failures_inside_a_split_block(built):
    """Each failure of the fill in a level-2 block read over row batches:
    the error the block loop raises first, naming the same block and
    sub-block, also when the sparsity count fails in the first row
    batch and a partly defined sub-block sits in the last one."""
    sched, u, x = built["fast-01-d2"]
    m, m_old = sched.m(2), sched.m(1)
    r = m // m_old
    q = r // 3
    start = fill_level(init_partial(u, sched.sparse, x.interval(), sched.alphabet), 1, sched,
                       cycle_start=2)
    grid = start.cells.reshape(-1, r, m_old)
    b = int(np.flatnonzero((grid != STAR).any(axis=(1, 2)))[0])
    free = np.flatnonzero((grid[b] == STAR).all(axis=1))
    missing = int(np.flatnonzero((grid == STAR).all(axis=(1, 2)))[0])

    def edited(*edits):
        cells = start.cells.copy()
        subs = cells.reshape(-1, r, m_old)
        for edit in edits:
            if edit == "crowd":  # a third of the sub-blocks defined, in the first rows
                subs[b, free[:q]] = sched.pillar(1)
            elif edit == "mixed last":
                subs[b, free[-1], 3] = 0
            elif edit == "mixed first":
                subs[b, free[0], 3] = 0
            elif edit == "alien":
                subs[b, 0, 0] = sched.alphabet.size
            elif edit == "outside S":
                subs[missing, -1, -1] = 1
        return PartialWindow(start.offset, cells)

    i = block_of(start.offset, m) + b
    cases = [
        ((), None),
        (("crowd",), ("DensityViolation", f"level-2 block {i} already holds "
                      f"{r - free.size + q} defined sub-blocks, sparsity promised < {q}")),
        (("crowd", "mixed last"), ("ConstructionInvariantError",
                                   f"level-2 block {i}: sub-block {free[-1]} is partially defined")),
        (("mixed first",), ("ConstructionInvariantError",
                            f"level-2 block {i}: sub-block {free[0]} is partially defined")),
        (("alien",), ("ConstructionInvariantError", "window holds cell values outside the alphabet")),
        (("outside S",), ("ConstructionInvariantError",
                          f"defined cell at {start.offset + (missing + 1) * m - 1} lies in a "
                          f"level-2 block disjoint from S")),
    ]
    for edits, error in cases:
        w = edited(*edits)
        want = assert_split_matches(lambda: fill_level(w, 2, sched, cycle_start=5),
                                    lambda: fill_level_by_blocks(w, 2, sched, cycle_start=5))
        assert (isinstance(want, PartialWindow) if error is None else want == error), edits


def test_too_few_free_rows_in_a_split_block(built):
    """A faithful fill source of more words than a level-1 block has free
    sub-blocks past the pillar, with the block read a row at a time."""
    sched, u, x = built["faithful-0+--d1"]
    start = init_partial(u, sched.sparse, x.interval(), sched.alphabet)
    many = np.repeat(sched.codes(0), 4)  # 12 words; a block has 9 free or fewer
    with mock.patch.object(sched, "codes", lambda k: many):
        want = assert_split_matches(lambda: fill_level(start, 1, sched),
                                    lambda: fill_level_by_blocks(start, 1, sched), (8, 9, 15))
    assert want[0] == "ConstructionInvariantError"
    assert re.fullmatch(r"level-1 block -?\d+: \d free sub-blocks cannot use all 12 words",
                        want[1])


@contextmanager
def walks_over_S():
    """Counts the calls of SparseSetSpec.elements_in made inside the block."""
    with mock.patch.object(SparseSetSpec, "elements_in", autospec=True,
                           side_effect=SparseSetSpec.elements_in) as walk:
        yield walk


def test_a_build_walks_S_once(built, sched2, mu_target):
    """realize pins S once and every level takes its blocks from those
    offsets; fill_level walks S once; the demo walks it to pin and to verify."""
    sched, u, x = built["fast-0+--d2-far"]
    for run in (lambda: realize(u, sched, 2, window=CONFIGS["fast-0+--d2-far"][3]),
                lambda: realize(mu_target, sched2, 2)):
        with walks_over_S() as walk:
            run()
        assert walk.call_count == 1
    start = init_partial(u, sched.sparse, x.interval(), sched.alphabet)
    with walks_over_S() as walk:
        fill_level(start, 1, sched)
    assert walk.call_count == 1
    with walks_over_S() as walk:
        sarnak_demo("fast", 2, 50)
    assert walk.call_count == 2


def test_fill_walks_S_before_checking_the_window():
    """Over a list enumerated through a horizon, a window past it that is
    also off the block grid, or holds a cell outside the alphabet, raises
    IncompleteDataError first, in fill_level and in the block loop alike."""
    sparse = SparseSetSpec.explicit([n * n for n in range(1, 71)], horizon=5000)
    sched = build_schedule(Alphabet("01"), sparse, 1, profile="fast")
    m = sched.m(1)
    lo = words.hull_of_blocks(4990, 4990, m)[0]
    off_grid = PartialWindow(lo + 1, np.full(3 * m, STAR, dtype=np.uint8))
    alien = PartialWindow(lo, np.full(3 * m, 5, dtype=np.uint8))
    for w in (off_grid, alien):
        want = outcome(lambda: fill_level_by_blocks(w, 1, sched))
        assert outcome(lambda: fill_level(w, 1, sched)) == want
        assert want[0] == "IncompleteDataError" and "enumerated through 5000" in want[1]


def test_check_failures_inside_a_split_block(built):
    """Each outcome of the check on a level block read over row batches:
    partly defined (defined rows then a STAR, or undefined rows then
    defined ones), a pillar share short in the first batch only, and a
    cell outside the alphabet in the first batch only."""
    sched, _, x = built["fast-01-d2"]
    m, m_old = sched.m(2), sched.m(1)
    r = m // m_old
    b = int(np.flatnonzero(x.cells.reshape(-1, m).max(axis=1) != STAR)[0])
    pillars = np.flatnonzero(words.rows_equal(x.cells.reshape(-1, r, m_old)[b], sched.pillar(1)))
    for edit in ("then a STAR", "undefined, then defined", "short share", "alien"):
        cells = x.cells.copy()
        rows = cells.reshape(-1, r, m_old)[b]
        if edit == "then a STAR":
            rows[-1, -1] = STAR
        elif edit == "undefined, then defined":
            rows[:100] = STAR
        elif edit == "short share":  # the pillars in the first 30 rows replaced
            rows[pillars[pillars < 30]] = sched.alphabet.size - 1
        else:
            rows[0, 0] = sched.alphabet.size
        w = PartialWindow(x.offset, cells)
        for level in (1, 2):
            want = assert_split_matches(lambda: schedule._check_level(w, sched, level),
                                        lambda: check_level_dense(w, sched, level))
            if level == 2 and edit in ("then a STAR", "undefined, then defined"):
                assert want.detail == f"block {b} partially defined"
            if level == 2 and edit == "short share":
                assert want.min_pillar_share < want.required_share and not want.detail
            if level == 1 and edit == "alien":
                assert want.membership == "fail"


def test_every_symbol_over_a_split_level_1_block(built):
    """A faithful level-1 block whose symbols sit one in its first cell
    and one in its last, read in row batches of 8 and 7 cells, uses every
    symbol; without its first cell it does not."""
    sched, _, x = built["faithful-0+--d1"]
    cells = x.cells.copy()
    block = cells.reshape(-1, 15)[np.flatnonzero(cells.reshape(-1, 15).max(axis=1) != STAR)[0]]
    block[:] = 0
    block[0], block[-1] = 2, 1
    for first, every_word in ((2, "ok"), (0, "fail")):
        block[0] = first
        w = PartialWindow(x.offset, cells)
        want = assert_split_matches(lambda: schedule._check_level(w, sched, 1),
                                    lambda: check_level_dense(w, sched, 1), (8, 14))
        assert want.every_word == every_word


def test_realized_windows_pass_unchanged(built):
    for sched, u, x in built.values():
        for level in range(1, sched.depth + 1):
            got = schedule._check_level(x, sched, level)
            assert got == check_level_dense(x, sched, level)


def test_failures_in_an_early_batch_persist(built):
    """A failure found in one batch stands when the later batches pass."""
    sched, _, x = built["fast-0+--d2-far"]
    cells = x.cells.copy()
    blocks = cells.reshape(-1, sched.m(1))
    first = int(np.flatnonzero(blocks.max(axis=1) != STAR)[0])
    blocks[first, 3] = sched.alphabet.size  # outside the alphabet, in a starred window
    w = PartialWindow(x.offset, cells)
    with batch_of(sched.m(1), 1, 0):
        got = schedule._check_level(w, sched, 1)
    assert got.membership == "fail" and got == check_level_dense(w, sched, 1)

    sched, _, x = built["faithful-01-d2"]
    flat = np.zeros(len(x), dtype=np.uint8)  # not a word of A_1, and uses no 1
    w = PartialWindow(x.offset, np.concatenate([flat, x.cells]))
    for blocks_per_batch in (1, 0):
        with batch_of(sched.m(2), blocks_per_batch, 5000):
            got = schedule._check_level(w, sched, 2)
        assert (got.membership, got.every_word) == ("fail", "fail")
        assert got == check_level_dense(w, sched, 2)


def test_earliest_range_failure_wins(built):
    """A failing block in the first and one in the last range of blocks:
    the first names the fill's error and the check's detail, as in a
    block-by-block loop, on one to three workers; alone, the last one does."""
    sched, u, x = built["fast-01-d2"]
    m, m_old = sched.m(2), sched.m(1)
    r = m // m_old
    start = fill_level(init_partial(u, sched.sparse, x.interval(), sched.alphabet), 1, sched,
                       cycle_start=2)
    meeting = np.flatnonzero(start.cells.reshape(-1, m).min(axis=1) != STAR)
    defined = np.flatnonzero(x.cells.reshape(-1, m).max(axis=1) != STAR)
    # two workers put the first and the last block in different ranges
    assert meeting.size >= 2 and defined[0] < len(x) // m // 2 <= defined[-1]
    for ends in ((0, -1), (-1,)):
        cells = start.cells.copy()
        subs = cells.reshape(-1, r, m_old)
        for b in meeting[list(ends)]:
            subs[b, int(np.flatnonzero((subs[b] == STAR).all(axis=1))[0]), 3] = 0
        w = PartialWindow(start.offset, cells)
        want = assert_split_matches(lambda: fill_level(w, 2, sched, cycle_start=5),
                                    lambda: fill_level_by_blocks(w, 2, sched, cycle_start=5))
        i = block_of(start.offset, m) + meeting[ends[0]]
        assert want[1].startswith(f"level-2 block {i}: sub-block"), want

        cells = x.cells.copy()
        cells.reshape(-1, m)[defined[list(ends)], -1] = STAR
        w = PartialWindow(x.offset, cells)
        want = assert_split_matches(lambda: schedule._check_level(w, sched, 2),
                                    lambda: check_level_dense(w, sched, 2))
        assert want.detail == f"block {defined[ends[0]]} partially defined"


def test_partial_block_outranks_an_earlier_failing_range(built):
    """A partly defined block in the last range of blocks outranks a
    membership and an every-word failure in the first range, on one to
    three workers; with a partly defined block in each, the first range's
    is the detail."""
    sched, _, x = built["faithful-0+--d1"]
    n = len(x) // 15
    cells = x.cells.copy()
    blocks = cells.reshape(-1, 15)
    defined = np.flatnonzero(blocks.max(axis=1) != STAR)
    # two or three workers put defined[:3] in the first range, defined[-1] in the last
    assert defined[2] < n // 3 and defined[-1] >= n - n // 3
    blocks[defined[0], 0] = sched.alphabet.size  # not a symbol
    blocks[defined[1]] = 0                       # one symbol only
    w = PartialWindow(x.offset, cells)
    want = assert_split_matches(lambda: schedule._check_level(w, sched, 1),
                                lambda: check_level_dense(w, sched, 1))
    assert (want.membership, want.every_word, want.detail) == ("fail", "fail", "")
    for b in (defined[-1], defined[2]):
        blocks[b, -1] = STAR
        w = PartialWindow(x.offset, cells)
        want = assert_split_matches(lambda: schedule._check_level(w, sched, 1),
                                    lambda: check_level_dense(w, sched, 1))
        assert want.detail == f"block {b} partially defined"


def test_a_range_without_defined_blocks_merges(built):
    """A range of wholly undefined blocks, which has no least share,
    merges with the ranges that hold defined blocks, before or after it."""
    sched, _, x = built["fast-01-d2"]
    m = sched.m(2)
    n = len(x) // m
    for undefined in (slice(0, n // 2), slice(n // 2, n)):
        cells = x.cells.copy()
        cells.reshape(-1, m)[undefined] = STAR
        w = PartialWindow(x.offset, cells)
        for level in (1, 2):
            want = assert_split_matches(lambda: schedule._check_level(w, sched, level),
                                        lambda: check_level_dense(w, sched, level))
            assert want.defined_blocks and want.min_pillar_share >= want.required_share


def test_more_workers_than_cores(built):
    """Eight workers on short batches, with a short thread switch interval:
    each range writes its own blocks, so realize and the checks give what
    one worker gives."""
    sched, u, x = built["fast-01-d2"]
    window = CONFIGS["fast-01-d2"][3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with batch_of(1, 700, 0, workers=8):
            got = realize(u, sched, 2, window=window, cycle_start=2)
            checks = [schedule._check_level(got, sched, level) for level in (1, 2)]
    finally:
        sys.setswitchinterval(interval)
    assert got == x
    assert checks == [check_level_dense(x, sched, level) for level in (1, 2)]


class ThreadStarted(Exception):
    pass


def test_small_passes_start_no_thread(built, tmp_path):
    """Each pass of the faithful depth-2 commands fits in one batch or
    holds one block, so none starts a thread, even on two workers; a pass
    over several ranges does."""
    def refuse(*args, **kwargs):
        raise ThreadStarted

    path = tmp_path / "f2.bsw"
    with mock.patch.object(words, "_WORKERS", 2), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor", refuse):
        assert cli.main(["realize", "--alphabet", "01", "--sparse", "squares", "--depth", "2",
                         "--u", "mu-indicator", "--out", str(path)]) == 0
        assert cli.main(["verify", str(path)]) == 0
        assert cli.main(["demo-sarnak", "--profile", "faithful", "--depth", "2",
                         "--N", "832"]) == 0
        sched, _, x = built["fast-01-d2"]
        with batch_of(sched.m(2), 1, 0, workers=2), pytest.raises(ThreadStarted):
            schedule._check_level(x, sched, 2)


def test_no_temporary_grows_with_the_window(ternary):
    """With a batch budget far below the window, each pass allocates little
    beyond its output (the dense passes allocated two to four windows),
    also when the workers share the budget."""
    hull = (1, 3_000_000)
    sched = build_schedule(ternary, SparseSetSpec.squares(), 2, profile="fast")
    u = TargetSequence.mu_sign(ternary)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    x = realize(u, sched, 2, window=hull)
    n = len(x)
    start = init_partial(u, sched.sparse, x.interval(), sched.alphabet)
    # 2^16 cells, and 2 000 cells: below one level-2 block (2 115 cells)
    for budget, workers in itertools.product((1 << 16, 2000), (1, 2)):
        with batch_of(1, budget, 0, workers):
            assert peak(lambda: realize(u, sched, 2, window=hull)) < n * 5 // 4
            for level in (1, 2):
                assert peak(lambda: schedule._check_level(x, sched, level)) < n // 4
            assert peak(lambda: fill_level(start, 1, sched)) < n * 5 // 4


# --- the packed-code word lookup ----------------------------------------


class WordMatrixSchedule:
    """What the level check and its dense oracle read of a faithful
    two-level Schedule, with a given sorted word matrix as A_1 (row 0 its
    pillar) and r sub-blocks to a level-2 block."""

    faithful = True

    def __init__(self, symbols, words, r):
        self.alphabet = Alphabet(symbols)
        self._words = words
        self._m = (1, words.shape[1], words.shape[1] * r)

    def m(self, k):
        return self._m[k]

    def words(self, k):
        assert k == 1
        return self._words

    def codes(self, k):
        return words.row_codes(self.words(k), (self.alphabet.size - 1).bit_length())

    def pillar(self, k):
        return self.words(k)[0]


def sorted_words(rng, a, width, n):
    """n distinct rows over a symbols in lexicographic order, many of them
    sharing long prefixes (so that later codes decide)."""
    base = rng.integers(0, a, size=(max(1, n // 8), width), dtype=np.uint8)
    rows = base[rng.integers(0, len(base), size=4 * n)]
    cut = rng.integers(width // 2, width, size=len(rows))
    tail = rng.integers(0, a, size=rows.shape, dtype=np.uint8)
    rows = np.where(np.arange(width) >= cut[:, None], tail, rows)
    words = np.unique(rows, axis=0)[:n]
    words.setflags(write=False)
    return words


def probe_rows(rng, words, a, count):
    """Members, members with one cell changed, random rows, and rows with
    a cell in [a, 2^bits)."""
    n, width = words.shape
    bits = (a - 1).bit_length()
    picks = words[rng.integers(n, size=4 * count)].copy()
    near, rand, high = picks[count:2 * count], picks[2 * count:3 * count], picks[3 * count:]
    at = (np.arange(count), rng.integers(width, size=count))
    near[at] = rng.integers(a, size=count)
    rand[:] = rng.integers(a, size=rand.shape)
    if a < 1 << bits:
        high[at] = rng.integers(a, 1 << bits, size=count)
    return picks


def alias_of(word, bits, j):
    """A row that packs like the word: cell j - 1 moved into the bits
    above cell j (``...1,0`` becomes ``...0,2`` in binary)."""
    row = word.copy()
    row[j] |= row[j - 1] << bits
    row[j - 1] = 0
    return row


WIDE = [("01", 15, 300), ("0+-", 15, 300), ("01", 64, 200), ("01", 65, 200),
        ("01234", 40, 300), ("01234", 40, 4), ("0123456", 30, 500)]


def too_wide(symbols, width):
    return width * (len(symbols) - 1).bit_length() > 64


def assert_too_wide(symbols, width):
    """Words whose rows do not pack into 64 bits have no codes: the
    enumerator of A_1 refuses them with ConstructionInvariantError before
    it enumerates (no enumerable A_1 is that wide)."""
    for every_word in (False, True):
        with pytest.raises(ConstructionInvariantError, match="over the 64 of a code"):
            schedule._admissible_codes(len(symbols), width, every_word)


def word_flags(rows, r, codes, bits, alien_at):
    """schedule._word_flags on fresh seen bits: every row a word, and
    every block of r rows holding every word."""
    seen = np.zeros(len(rows) // r * codes.size, dtype=bool)
    return schedule._word_flags(rows, r, codes, bits, alien_at, seen), bool(seen.all())


def flags_by_void_search(rows, words_, r):
    """schedule._word_flags by word_ids_by_void_search: every row found,
    and every block of r rows holding every word."""
    ids, found = word_ids_by_void_search(rows, words_)
    held = [np.unique(i[f]).size for i, f in zip(ids.reshape(-1, r), found.reshape(-1, r))]
    return bool(found.all()), all(h == len(words_) for h in held)


@pytest.mark.parametrize("symbols,width,n", WIDE)
@pytest.mark.parametrize("chunk", [None, 7])
def test_word_ids_match_void_search(symbols, width, n, chunk):
    """Blocks of 12 rows over four words of the matrix, each block holding
    all four or missing one, with near misses, random rows and cells in
    [a, 2^bits) mixed in; row chunks of 7 rows straddle the blocks."""
    a = len(symbols)
    bits = (a - 1).bit_length()
    r, nb = 12, 5
    rng = np.random.default_rng(width * n + a)
    words_ = sorted_words(rng, a, width, n)
    if too_wide(symbols, width):
        assert_too_wide(symbols, width)
        return
    seen = set()
    with batch_of(1, None if chunk is None else chunk * 64, 0):
        for trial in range(24):
            few = words_[np.sort(rng.choice(n, size=min(n, 4), replace=False))]
            k = len(few)
            blocks = few[rng.integers(k, size=(nb, r))]
            blocks[:, :k] = few[rng.permuted(np.tile(np.arange(k), (nb, 1)), axis=1)]
            if trial % 3:  # a block missing one word
                blocks[rng.integers(nb)] = np.delete(few, rng.integers(k), axis=0)[
                    rng.integers(k - 1, size=r)]
            if trial % 2:  # a row that is probably not a word
                blocks[rng.integers(nb), rng.integers(r)] = probe_rows(rng, few, a, 1)[
                    rng.integers(1, 4)]
            rows = blocks.reshape(-1, width)
            want = flags_by_void_search(rows, few, r)
            assert word_flags(rows, r, words.row_codes(few, bits), bits, a) == want
            seen.add(want)
        codes = words.row_codes(words_, bits)
        rows = probe_rows(rng, words_, a, 3 * r)
        for group in (rows, rows[:3 * r], words_[:len(words_) // r * r]):
            assert word_flags(group, r, codes, bits, a) == flags_by_void_search(group, words_, r)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def aliases(words, bits):
    """alias_of each of the first 50 words at every cell where one fits in a cell."""
    return np.array([alias_of(w, bits, j) for w in words[:50] for j in range(1, len(w))
                     if w[j - 1] and (int(w[j - 1]) << bits | int(w[j])) < STAR])


@pytest.mark.parametrize("symbols,width,n", WIDE)
def test_check_level_matches_dense_on_word_matrices(symbols, width, n):
    """Blocks of pillars, members, near misses, aliases, cells outside the
    alphabet and undefined blocks, one to three blocks a batch."""
    a = len(symbols)
    bits = (a - 1).bit_length()
    r, nb = 12, 9
    rng = np.random.default_rng(n + width)
    words_ = sorted_words(rng, a, width, n)
    if too_wide(symbols, width):
        assert_too_wide(symbols, width)
        return
    sched = WordMatrixSchedule(symbols, words_, r)
    m = sched.m(2)
    fake = aliases(words_, bits)
    # each alias packs like a word, so only the check for cells >= a rejects it
    assert np.isin(words.row_codes(fake, bits), words.row_codes(words_, bits)).all()
    seen = set()
    for trial in range(12):
        blocks = words_[rng.integers(n, size=(nb, r))].copy()
        blocks[:, :r // 3] = words_[0]
        subs = blocks.reshape(-1, width)
        edit = trial % 4
        if edit == 1:  # near misses and cells in [a, 2^bits)
            hit = rng.random(len(subs)) < 0.1
            k = int(hit.sum())
            subs[hit] = rng.permutation(probe_rows(rng, words_, a, k))[:k]
        elif edit == 2:
            subs[rng.integers(len(subs))] = fake[rng.integers(len(fake))]
        elif edit == 3:  # a cell far outside the alphabet
            subs[rng.integers(len(subs)), rng.integers(width)] = rng.integers(1 << bits, STAR)
        if trial % 3 == 0:  # undefined blocks, so the starred branch runs
            blocks[rng.random(nb) < 0.4] = STAR
        w = PartialWindow(-((m - 1) // 2), blocks.reshape(-1))
        want = check_level_dense(w, sched, 2)
        seen.add(want.membership)
        for blocks_per_batch in (0, 1, 3, None):
            with batch_of(m, blocks_per_batch, trial * 101):
                assert schedule._check_level(w, sched, 2) == want
    assert seen == {"ok", "fail"}


def test_alias_in_a_faithful_window_reads_not_found(built):
    """A level-1 sub-block of the faithful d2 window with ``1,0`` edited to
    ``0,2`` packs like the word it came from, yet is not a word of A_1,
    in the defined window and behind an undefined block."""
    sched, _, x = built["faithful-01-d2"]
    m, m_prev = sched.m(2), sched.m(1)
    cells = x.cells.copy()
    subs = cells.reshape(-1, m_prev)
    hit = (subs[:, :-1] == 1) & (subs[:, 1:] == 0)
    t, j = np.argwhere(hit)[len(np.argwhere(hit)) // 2]
    subs[t] = alias_of(subs[t], 1, j + 1)
    assert np.isin(words.row_codes(subs[t:t + 1], 1), words.row_codes(sched.words(1), 1))[0]
    assert not word_ids_by_void_search(subs[t:t + 1], sched.words(1))[1][0]
    stray = PartialWindow(x.offset, cells)
    behind = PartialWindow(x.offset - m, np.concatenate([np.full(m, STAR, np.uint8), cells]))
    for w in (stray, behind):
        for blocks_per_batch in (0, 1, None):
            with batch_of(m, blocks_per_batch, 5000):
                got = schedule._check_level(w, sched, 2)
            assert got.membership == "fail" and got == check_level_dense(w, sched, 2)
