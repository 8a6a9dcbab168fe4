"""minimality_witnesses, which reads its rows off the admissibility report,
against the occurrence-scanning reference in tests/oracles.py.

On realized windows the two give the same rows.  On random windows and
on mutated realized windows every row that minimality_witnesses marks
"ok" is "ok" in the reference too: an aligned copy is an occurrence.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from blockshift import (
    ConstructionInvariantError,
    InvalidParameterError,
    PartialWindow,
    TargetSequence,
    build_schedule,
    minimality_witnesses,
    realize,
    window_admissibility_report,
)
from blockshift import schedule
from tests.oracles import minimality_by_occurrences


@pytest.fixture(scope="module")
def fast2(ternary, squares):
    return build_schedule(ternary, squares, 2, profile="fast")


@pytest.fixture(scope="module")
def sign_target(ternary):
    return TargetSequence.mu_sign(ternary)


@pytest.fixture(scope="module")
def sources(sched2, x2, mu_target, fast2, sign_target):
    """Realized, fully defined windows as (schedule, depth, window)."""
    return {
        "faithful-d1": (sched2, 1, realize(mu_target, sched2, 1)),
        "faithful-d2": (sched2, 2, x2),
        "fast-d2": (fast2, 2, realize(sign_target, fast2, 2, cycle_start=3)),
        "fast-d2-hull": (fast2, 2, realize(sign_target, fast2, 2, window=(1, 90000))),
    }


def both(schedule, depth, x):
    """(rows of minimality_witnesses, rows of the reference), as (name, status)."""
    new = minimality_witnesses(window_admissibility_report(x, schedule, depth), schedule)
    ref = minimality_by_occurrences(x, schedule, depth)
    return ([(n, s) for n, s, _ in new.checks], [(n, s) for n, s, _ in ref])


def assert_never_looser(new, ref):
    assert [n for n, _ in new] == [n for n, _ in ref]
    for (name, status), (_, ref_status) in zip(new, ref):
        if status == "ok":
            assert ref_status == "ok", name


@pytest.mark.parametrize("name", ["faithful-d1", "faithful-d2", "fast-d2", "fast-d2-hull"])
def test_rows_equal_reference_on_realized_windows(sources, name):
    new, ref = both(*sources[name])
    assert new == ref
    assert all(status in ("ok", "waived") for _, status in new)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lo=st.integers(min_value=-50000, max_value=200000),
       length=st.integers(min_value=1, max_value=20000),
       cycle_start=st.integers(min_value=0, max_value=20))
def test_rows_equal_reference_on_shifted_fast_windows(fast2, sign_target, lo, length,
                                                     cycle_start):
    x = realize(sign_target, fast2, 2, window=(lo, lo + length - 1),
                cycle_start=cycle_start)
    assume(x.is_fully_defined())
    new, ref = both(fast2, 2, x)
    assert new == ref


def mutate(x, schedule, depth, edits):
    """Criterion-5 style edits: ("flip", pos, delta) shifts one cell by delta
    mod the alphabet size; ("block", level, index, symbol) sets one aligned
    block of that level to a constant symbol."""
    a = schedule.alphabet.size
    cells = x.cells.copy()
    for edit in edits:
        if edit[0] == "flip":
            _, pos, delta = edit
            pos %= len(cells)
            cells[pos] = (int(cells[pos]) + delta % (a - 1) + 1) % a
        else:
            _, level, index, symbol = edit
            m = schedule.m(1 + level % depth)
            i = index % (len(cells) // m)
            cells[i * m:(i + 1) * m] = symbol % a
    return PartialWindow(x.offset, cells)


edits = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("block"), st.integers(0, 3), st.integers(min_value=0),
              st.integers(0, 8)),
), min_size=1, max_size=3)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["faithful-d1", "fast-d2", "fast-d2-hull"]), edit_list=edits)
def test_never_looser_on_mutated_windows(sources, name, edit_list):
    schedule, depth, x = sources[name]
    assert_never_looser(*both(schedule, depth, mutate(x, schedule, depth, edit_list)))


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit_list=edits)
def test_never_looser_on_mutated_faithful_d2(sources, edit_list):
    schedule, depth, x = sources["faithful-d2"]
    assert_never_looser(*both(schedule, depth, mutate(x, schedule, depth, edit_list)))


@st.composite
def random_windows(draw, schedules):
    """A window of 1-3 top-level blocks built from level-1 blocks that are
    copies of w_1, random words, or random words without the symbol of w_0,
    then rotated so that the copies may fall off the block grid."""
    schedule, depth = draw(st.sampled_from(schedules))
    a, m1, m_top = schedule.alphabet.size, schedule.m(1), schedule.m(depth)
    n_top = draw(st.integers(min_value=1, max_value=3))
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=3, max_size=3)
                            .filter(any)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n1 = n_top * m_top // m1
    kinds = rng.choice(3, size=n1, p=weights / weights.sum())
    pillar = schedule.pillar(1)
    rows = rng.integers(0, a, size=(n1, m1), dtype=np.uint8)
    rows[kinds == 0] = pillar
    rows[kinds == 2] = rng.integers(1, a, size=(int((kinds == 2).sum()), m1), dtype=np.uint8)
    cells = np.roll(rows.reshape(-1), draw(st.sampled_from([0, 0, 1, m1 // 2, m1 - 1])))
    i0 = draw(st.integers(min_value=-3, max_value=3))
    return schedule, depth, PartialWindow(i0 * m_top - (m_top - 1) // 2, cells)


@pytest.fixture(scope="module")
def random_schedules(sched2, fast2):
    return [(sched2, 1), (fast2, 1), (fast2, 2)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_never_looser_on_random_windows(random_schedules, data):
    schedule, depth, x = data.draw(random_windows(random_schedules))
    assert_never_looser(*both(schedule, depth, x))


def test_rejects_partially_defined_window(sched2, binary):
    x = PartialWindow(-7, binary.cells_of_text("0" * 14 + "*"))
    with pytest.raises(InvalidParameterError):
        minimality_witnesses(window_admissibility_report(x, sched2, 1), sched2)


def test_coverage_is_checked_when_the_pillar_is_built(binary, squares, sources,
                                                     monkeypatch):
    # a built schedule passed the every-word check of each pillar, so its
    # coverage rows read off the profile
    for name, want in (("faithful-d2", "ok"), ("fast-d2", "waived")):
        sched, depth, x = sources[name]
        report = window_admissibility_report(x, sched, depth)
        rows = {row: status for row, status, _ in minimality_witnesses(report, sched).checks}
        assert [rows[f"pillar-coverage k={k}"] for k in (0, 1)] == [want, want], name

    # a w_1 without the last word of A_0 stops the build
    build_pillar = schedule._build_pillar

    def short_pillar(sched, k, m_k):
        pillar = build_pillar(sched, k, m_k).copy()
        pillar[-sched.m(k - 1):] = sched.pillar(k - 1)
        return pillar

    monkeypatch.setattr(schedule, "_build_pillar", short_pillar)
    with pytest.raises(ConstructionInvariantError,
                       match=r"^pillar w_1 not admissible: level-0 words never used$"):
        build_schedule(binary, squares, 1)
