"""The batched level passes against the dense references in tests/oracles.py.

``schedule._check_level`` and ``realization.fill_level`` read a window in
block-aligned batches of sub-block rows.  On random partial windows they
must give the same LevelCheck, the same cells, and the same exception
class and message (so the same first offending block and sub-block) as
``check_level_dense`` and ``fill_level_by_blocks``.  The batch budget is
patched down to a few blocks so that batch edges fall inside the windows.
"""

import re
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from blockshift import (STAR, Alphabet, BlockshiftError, PartialWindow, SparseSetSpec,
                        TargetSequence, build_schedule, fill_level, init_partial, realize,
                        schedule, words)
from tests.oracles import check_level_dense, fill_level_by_blocks

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
def batch_of(m, blocks, extra):
    """The level passes batched at ``blocks`` blocks of length m (None: unpatched)."""
    if blocks is None:
        yield
        return
    with mock.patch.object(words, "_BATCH_CELLS", blocks * m + extra % m):
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
batch_blocks = st.sampled_from([1, 2, 3, 5, None])


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
    with batch_of(m, data.draw(batch_blocks, label="batch"), data.draw(st.integers(0, 99))):
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
    with batch_of(m, data.draw(batch_blocks, label="batch"), data.draw(st.integers(0, 99))):
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
        with batch_of(sched.m(2), 1, 0):
            got = schedule._check_level(window, sched, 2)
        assert got == check_level_dense(window, sched, 2)
    # the two blocks together hold every word of A_1, yet the first alone does not
    assert len({row.tobytes() for row in pair.cells.reshape(-1, sched.m(1))}
               & {row.tobytes() for row in sched.words(1)}) == 30826
    assert schedule._check_level(pair, sched, 2).every_word == "fail"


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
    with batch_of(sched.m(2), 1, 0):
        got = schedule._check_level(w, sched, 2)
    assert (got.membership, got.every_word) == ("fail", "fail")
    assert got == check_level_dense(w, sched, 2)


def test_no_temporary_grows_with_the_window(ternary):
    """With a batch budget far below the window, each pass allocates little
    beyond its output (the dense passes allocated two to four windows)."""
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

    with batch_of(1, 1 << 16, 0):
        x = realize(u, sched, 2, window=hull)
        n = len(x)
        assert peak(lambda: realize(u, sched, 2, window=hull)) < n * 5 // 4
        for level in (1, 2):
            assert peak(lambda: schedule._check_level(x, sched, level)) < n // 4
        start = init_partial(u, sched.sparse, x.interval(), sched.alphabet)
        assert peak(lambda: fill_level(start, 1, sched)) < n * 5 // 4
