import numpy as np
import pytest

from blockshift import (
    Alphabet,
    ConstructionInvariantError,
    DensityViolation,
    DensityViolation,
    EmptyCoreError,
    IncompleteDataError,
    InvalidParameterError,
    PartialWindow,
    STAR,
    SparseSetSpec,
    TargetSequence,
    build_schedule,
    fill_level,
    init_partial,
    realize,
    verify_realization,
    window_admissibility_report,
)
from blockshift import realization
from blockshift.schedule import POOL_SIZE
from blockshift.words import MAX_WINDOW_CELLS
from tests.conftest import mu_by_trial_division


def test_init_partial_checks_size_before_allocating(monkeypatch, mu_target, squares, binary):
    full = np.full

    def capped_full(shape, *args, **kwargs):
        assert np.prod(shape) <= MAX_WINDOW_CELLS, f"np.full asked for {shape} cells"
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(realization.np, "full", capped_full)
    with pytest.raises(InvalidParameterError, match="exceeds the 2147483648-cell limit"):
        init_partial(mu_target, squares, (1, 2**31 + 1), binary)


def test_init_partial_examples(binary, squares):
    u = TargetSequence.from_text("10", binary)
    x = init_partial(u, squares, (-7, 7), binary)
    assert binary.text_of_cells(x.cells) == "********1**0***"
    x2 = init_partial(u, squares, (-3, 0), binary)
    assert binary.text_of_cells(x2.cells) == "****"


def test_init_partial_mu(binary, squares, mu_target):
    # mu(1..4) = 1, -1, -1, 0 -> cells 1,4,9,16 read 1,0,0,0
    x = init_partial(mu_target, squares, (1, 16), binary)
    assert x[1] == 1 and x[4] == 0 and x[9] == 0 and x[16] == 0
    assert x.star_count() == 12
    for n in range(1, 5):
        assert (mu_by_trial_division(n) == 1) == (x[n * n] == 1)


def test_init_partial_incomplete(binary, squares):
    u = TargetSequence.from_text("1", binary)  # defined only at n=1
    with pytest.raises(IncompleteDataError,
                       match=r"^target sequence 'explicit' has 1 terms, u\(2\) requested$"):
        init_partial(u, squares, (1, 9), binary)


def test_fill_level_hand_example(binary, squares, sched2, mu_target):
    x0 = init_partial(mu_target, squares, (-7, 7), binary)
    x1 = fill_level(x0, 1, sched2)
    assert binary.text_of_cells(x1.cells) == "000000101100101"


def test_fill_leaves_unmet_blocks_starred(binary):
    s = SparseSetSpec.explicit([1])
    sched = build_schedule(binary, s, 1)
    assert sched.m(1) == 15
    u = TargetSequence.from_text("1", binary)
    x0 = init_partial(u, s, (-22, 22), binary)
    x1 = fill_level(x0, 1, sched)
    assert x1.sub(-22, -8).star_count() == 15
    assert x1.sub(8, 22).star_count() == 15
    assert x1.sub(-7, 7).is_fully_defined()


def test_fill_rejects_overfull_block(binary, sched2):
    # five pre-filled cells in one 15-block meets the r/3 = 5 bound
    cells = np.full(15, STAR, dtype=np.uint8)
    cells[[1, 3, 5, 7, 9]] = 0
    x = PartialWindow(-7, cells)
    with pytest.raises(DensityViolation):
        fill_level(x, 1, sched2)


def test_fill_rejects_defined_cell_off_support(binary, sched2):
    # a defined cell in a block disjoint from the squares
    cells = np.full(45, STAR, dtype=np.uint8)
    cells[0] = 1  # coordinate -22, block i=-1, no squares there
    x = PartialWindow(-22, cells)
    with pytest.raises(ConstructionInvariantError):
        fill_level(x, 1, sched2)


def test_fill_rejects_misaligned_window(binary, sched2):
    x = PartialWindow(-6, binary.cells_of_text("*" * 15))
    with pytest.raises(ConstructionInvariantError):
        fill_level(x, 1, sched2)


def test_fill_rejects_mixed_subblock(binary, sched2, mu_target, squares):
    x = init_partial(mu_target, squares, (-693607, 693607), binary)
    x = fill_level(x, 1, sched2)
    cells = x.cells.copy()
    # knock one cell out of a filled level-1 block: mixed at level 2
    assert cells[0 - x.offset] != STAR  # the central block got filled
    cells[0 - x.offset] = STAR
    with pytest.raises(ConstructionInvariantError):
        fill_level(PartialWindow(x.offset, cells), 2, sched2)


def test_realize_depth1(binary, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    assert x.interval() == (-7, 7)
    assert binary.text_of_cells(x.cells) == "000000101100101"


def test_realize_depth2_properties(x2, sched2, mu_target, squares):
    assert x2.interval() == (-693607, 693607)
    assert x2.is_fully_defined()
    rep = verify_realization(x2, mu_target, squares)
    assert rep.passed and rep.constraints == 832
    report = window_admissibility_report(x2, sched2, 2)
    assert report.ok


def test_depth_monotonicity(x2, sched2, mu_target, binary):
    x1 = realize(mu_target, sched2, 1)
    assert binary.text_of_cells(x2.sub(-7, 7).cells) == binary.text_of_cells(x1.cells)


def test_realize_empty_core(binary):
    s = SparseSetSpec.explicit([10**9])
    sched = build_schedule(binary, s, 1)
    u = TargetSequence.from_text("1", binary)
    with pytest.raises(EmptyCoreError):
        realize(u, sched, 1)


def test_realize_reads_stars_from_its_report(monkeypatch, x2, sched2, mu_target):
    """A central block the top level leaves starred is refused as such,
    and realize reads "fully defined" from its admissibility report alone."""
    fill = realization._fill_in_place

    def skip_top(cells, start, level, schedule, cycle_start, pinned):
        if level < 2:
            fill(cells, start, level, schedule, cycle_start, pinned)

    with monkeypatch.context() as patched:
        patched.setattr(realization, "_fill_in_place", skip_top)
        with pytest.raises(ConstructionInvariantError) as caught:
            realize(mu_target, sched2, 2)
    assert type(caught.value) is ConstructionInvariantError
    assert str(caught.value) == "central block still holds stars after the fill"

    def unread(self):
        raise AssertionError("is_fully_defined called")

    monkeypatch.setattr(PartialWindow, "is_fully_defined", unread)
    x = realize(mu_target, sched2, 2)
    assert x.interval() == x2.interval() and x.cells.tobytes() == x2.cells.tobytes()


def test_realize_window_variant(binary, sched2, mu_target, squares):
    x = realize(mu_target, sched2, 1, window=(1, 100))
    assert x.offset == -7 and x.end >= 100
    rep = verify_realization(x, mu_target, squares)
    assert rep.passed and rep.constraints == 10  # squares up to 105


def test_determinism(binary, squares, mu_target):
    sched_a = build_schedule(binary, squares, 1)
    sched_b = build_schedule(binary, squares, 1)
    xa = realize(mu_target, sched_a, 1)
    xb = realize(mu_target, sched_b, 1)
    assert xa == xb
    assert xa.cells.tobytes() == xb.cells.tobytes()


def test_cycle_start_keeps_target_cells(binary, squares, sched2, mu_target):
    xa = realize(mu_target, sched2, 1, cycle_start=0)
    xb = realize(mu_target, sched2, 1, cycle_start=7)
    assert xa != xb  # fill order genuinely changed
    for n, s in squares.elements_in(xa.interval()):
        assert xa[s] == xb[s]


@pytest.mark.parametrize("big", [10**20 + 5, -(10**20) - 3])
def test_cycle_start_past_int64(sched2, mu_target, ternary, squares, big):
    """A cycle start beyond int64 fills as its residue mod the fill source:
    the two symbols of A_0 (faithful binary), the pool rows (fast)."""
    fast = build_schedule(ternary, squares, 2, profile="fast")
    u = TargetSequence.mu_sign(ternary)
    for sched, target, depth, n_src in ((sched2, mu_target, 1, 2), (fast, u, 2, POOL_SIZE)):
        got = realize(target, sched, depth, cycle_start=big)
        want = realize(target, sched, depth, cycle_start=big % n_src)
        assert got.cells.tobytes() == want.cells.tobytes()


def test_monotonicity_of_fill(binary, squares, sched2, mu_target):
    # fill never rewrites a defined cell
    x0 = init_partial(mu_target, squares, (-693607, 693607), binary)
    x1 = fill_level(x0, 1, sched2)
    defined0 = x0.cells != STAR
    assert (x1.cells[defined0] == x0.cells[defined0]).all()
    x2_ = fill_level(x1, 2, sched2)
    defined1 = x1.cells != STAR
    assert (x2_.cells[defined1] == x1.cells[defined1]).all()


def test_star_discipline_after_level1(binary, squares, sched2, mu_target):
    x0 = init_partial(mu_target, squares, (-693607, 693607), binary)
    x1 = fill_level(x0, 1, sched2)
    rows = x1.cells.reshape(-1, 15)
    starred = (rows == STAR).all(axis=1)
    partially = (rows == STAR).any(axis=1) & ~starred
    assert not partially.any()
    # a block is starred exactly when it misses the squares
    import blockshift.words as words

    for t in (0, 1, 5, 77, 4000, 92480):
        i = t - 92481 // 2
        lo, hi = words.block_interval(i, 15)
        has_sq = bool(squares.elements_in((lo, hi)))
        assert bool(starred[t]) == (not has_sq)


def test_mu_sign_target(ternary):
    u = TargetSequence.mu_sign(ternary)
    # mu(1)=1 -> '+', mu(2)=-1 -> '-', mu(4)=0 -> '0'
    assert u.values(1, 4).tolist() == [1, 2, 2, 0]


def test_verify_catches_flip(binary, squares, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    cells = x.cells.copy()
    cells[1 - x.offset] ^= 1  # flip the cell at s_1 = 1
    bad = PartialWindow(x.offset, cells)
    rep = verify_realization(bad, mu_target, squares)
    assert not rep.passed
    assert rep.first_mismatch[0] == 1


def test_verify_vacuous(binary, squares, mu_target):
    x = PartialWindow(-20, binary.cells_of_text("*" * 10))  # left of min S
    rep = verify_realization(x, mu_target, squares)
    assert rep.passed and rep.constraints == 0


@pytest.mark.parametrize("spec_text", ["nlogn", "power:3/2", "monomial:3"])
def test_realize_on_rule_sets(binary, spec_text):
    s = SparseSetSpec.parse(spec_text)
    sched = build_schedule(binary, s, 1)
    m1 = sched.m(1)
    assert s.sparsity_report(m1, 1)[0]
    u = TargetSequence("parity", fn=lambda lo, hi: np.arange(lo, hi + 1) % 2)
    x = realize(u, sched, 1, window=(1, 3 * m1))
    rep = verify_realization(x, u, s)
    assert rep.passed and rep.constraints == len(s.elements_in(x.interval()))
    assert window_admissibility_report(x, sched, 1).ok


from hypothesis import assume, given, settings, strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=10),
       st.integers(min_value=0, max_value=5))
def test_property_realize_explicit_sets(values, cycle):
    ab = Alphabet("01")
    s = SparseSetSpec.explicit(sorted(values))
    try:
        sched = build_schedule(ab, s, 1)
    except DensityViolation:
        assume(False)
    u = TargetSequence("parity", fn=lambda lo, hi: np.arange(lo, hi + 1) % 2)
    x = realize(u, sched, 1, window=(1, max(values)), cycle_start=cycle)
    rep = verify_realization(x, u, s)
    assert rep.passed
    assert window_admissibility_report(x, sched, 1).ok
    # star discipline: a block is fully defined iff it meets S
    m1 = sched.m(1)
    rows = x.cells.reshape(-1, m1)
    starred = (rows == STAR).all(axis=1)
    from blockshift import block_interval, block_of

    i0 = block_of(x.offset, m1)
    for t in range(rows.shape[0]):
        lo, hi = block_interval(i0 + t, m1)
        assert bool(starred[t]) == (not s.elements_in((lo, hi)))
