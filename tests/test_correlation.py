import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from blockshift import (
    STAR,
    IncompleteDataError,
    InvalidParameterError,
    PartialWindow,
    TargetSequence,
    WeightTable,
    WindowRangeError,
    correlation_average,
    mobius_sieve,
    sarnak_demo,
)
from blockshift import correlation, mobius
from blockshift.mobius import mobius_segment
from blockshift.realization import realize
from blockshift.words import MAX_WINDOW_CELLS
from tests.conftest import mu_by_trial_division


def test_mobius_values(mob):
    assert mob.mu(1) == 1
    assert mob.mu(6) == 1
    assert mob.mu(30) == -1
    assert mob.mu(12) == 0
    with pytest.raises(InvalidParameterError):
        mob.mu(0)


def test_sieve_matches_trial_division(mob):
    for n in range(1, 10**4 + 1):
        assert mob.mu(n) == mu_by_trial_division(n), n


def test_mertens_and_squarefree(mob):
    assert mob.mertens(100) == sum(mu_by_trial_division(n) for n in range(1, 101))
    assert mob.mertens(100) == 1
    assert mob.squarefree_count(10**6) == 607926
    assert mob.squarefree_count(100) == sum(
        1 for n in range(1, 101) if mu_by_trial_division(n) != 0
    )


def test_sieve_limit_refused_before_allocating():
    with pytest.raises(InvalidParameterError, match=r"Mobius sieve up to 2147483649 exceeds"):
        mobius_sieve(MAX_WINDOW_CELLS + 1)


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 5000), (2, 3), (4, 4), (9, 9), (12345, 67890),
                                   (999_000, 10**6)])
def test_mobius_segment_matches_the_sieve(mob, lo, hi):
    assert mobius_segment(lo, hi).tolist() == mob.values[lo:hi + 1].tolist()
    assert mobius_segment(lo, hi).tolist() == [mu_by_trial_division(n)
                                               for n in range(lo, hi + 1)]


def test_sieve_in_several_segments_matches_trial_division(monkeypatch):
    monkeypatch.setattr(mobius, "_SEGMENT", 1000)
    assert mobius_sieve(10**4 + 7).values[1:].tolist() == [
        mu_by_trial_division(n) for n in range(1, 10**4 + 8)]


def test_sieve_fills_its_table_in_place(monkeypatch):
    """mobius_sieve sieves into its own zero-led table, and mobius_segment
    lets go of one segment's int64 cofactors before it makes the next: with
    2**16-index segments (512 KB of cofactors) the traced peak of a 4
    M-index sieve is the table and about 1.3 segments (its masks
    included), not two tables or two segments."""
    monkeypatch.setattr(mobius, "_SEGMENT", 1 << 16)
    limit = 4_000_000
    tracemalloc.start()
    try:
        table = mobius_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values[0] == 0 and table.mertens(limit) == mobius_segment(1, limit).sum()
    assert table.squarefree_count(10**6) == 607926
    assert peak < limit + 1.5 * 8 * mobius._SEGMENT


def test_mobius_segment_up_to_the_index_bound():
    # the primes up to sqrt(hi) fill a table of at most _SEGMENT = 2**22 entries
    bound = 2**44
    assert mobius_segment(bound - 21, bound - 1).tolist() == [
        mu_by_trial_division(n) for n in range(bound - 21, bound)]
    with pytest.raises(InvalidParameterError, match=r"Mobius segment up to 17592186044416 "
                       r"reaches the index bound 17592186044416, from which on its prime "
                       r"table would exceed 4194304 entries"):
        mobius_segment(bound, bound)


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 4000), (1000, 1100), (1023, 1025),
                                   (2047, 3073), (999_000, 10**6)])
def test_target_ranges_match_per_index_oracles(mob, ternary, monkeypatch, lo, hi):
    # segments of 1024 indices, so the ranges cross segment edges and the
    # primes up to 1000 stay below the table bound
    monkeypatch.setattr(mobius, "_SEGMENT", 1024)
    mu = [mob.mu(n) for n in range(lo, hi + 1)]
    assert TargetSequence.mu_indicator().values(lo, hi).tolist() == [int(v == 1) for v in mu]
    assert TargetSequence.mu_sign(ternary).values(lo, hi).tolist() == [
        {0: 0, 1: 1, -1: 2}[v] for v in mu]
    text = "0+-+" * 250_001
    u = TargetSequence.from_text(text, ternary)
    assert u.values(lo, hi).tolist() == [ternary.index(text[n - 1]) for n in range(lo, hi + 1)]


def test_mu_target_ranges_near_10_12(ternary):
    lo, hi = 10**12 - 6, 10**12 + 6
    mu = [mu_by_trial_division(n) for n in range(lo, hi + 1)]
    assert TargetSequence.mu_indicator().values(lo, hi).tolist() == [int(v == 1) for v in mu]
    assert TargetSequence.mu_sign(ternary).values(lo, hi).tolist() == [
        {0: 0, 1: 1, -1: 2}[v] for v in mu]


def test_target_range_refusals(ternary):
    u = TargetSequence.from_text("0+-", ternary, description="t")
    assert u.values(3, 3).tolist() == [2]
    for lo, hi, first in ((2, 4, 4), (5, 9, 5)):
        with pytest.raises(IncompleteDataError,
                           match=rf"^target sequence 't' has 3 terms, u\({first}\) requested$"):
            u.values(lo, hi)
    for target in (u, TargetSequence.mu_indicator(), TargetSequence.mu_sign(ternary)):
        with pytest.raises(InvalidParameterError, match=r"^target index 0 must be >= 1$"):
            target.values(0, 3)


def test_squarefree_ratio_bracket(mob):
    for n in (10**5, 2 * 10**5, 5 * 10**5, 10**6):
        assert 0.60 <= mob.squarefree_count(n) / n <= 0.62


def test_correlation_identity_depth2(x2, sched2, mu_target, squares, mob, binary):
    rho = WeightTable.mobius(mob, {"0": 0, "1": 1})
    rep = correlation_average(x2, rho, squares, 832, binary, u=mu_target)
    assert rep.exact_identity is True
    want = sum(1 for n in range(1, 833) if mob.mu(n) == 1)
    assert rep.final() == Fraction(want, 832)
    assert want == 253
    # ladder values are exact prefixes
    by_n = dict(rep.rows)
    assert by_n[1] == Fraction(mob.mu(1) * 1, 1)
    assert by_n[832] == rep.final()
    # a target the window does not realize breaks the identity
    ones = TargetSequence.from_text("1" * 832, binary)
    assert correlation_average(x2, rho, squares, 832, binary, u=ones).exact_identity is False


def test_correlation_bounded_by_weight(x2, squares, mob, binary):
    rho = WeightTable.mobius(mob, {"0": 0, "1": 1})
    rep = correlation_average(x2, rho, squares, 500, binary)
    for _, f in rep.rows:
        assert abs(f) <= 1


def test_zero_weights(x2, squares, binary):
    rho = WeightTable("zero", {"0": 0, "1": 1}, lambda n: 0)
    rep = correlation_average(x2, rho, squares, 100, binary)
    assert all(f == 0 for _, f in rep.rows)


def test_out_of_window(binary, sched2, mu_target, squares, mob):
    x = realize(mu_target, sched2, 1)
    rho = WeightTable.mobius(mob, {"0": 0, "1": 1})
    with pytest.raises(WindowRangeError) as exc:
        correlation_average(x, rho, squares, 3, binary)
    assert "p(3) = 9" in str(exc.value)


@pytest.mark.parametrize("cell,message", [
    (STAR, r"x\(1\) is undefined \('\*'\)"),
    (7, r"x\(1\) = 7 outside alphabet of size 2"),
])
def test_cell_outside_the_alphabet_is_named(binary, squares, mob, cell, message):
    x = PartialWindow(1, np.array([cell, 0, 0, 0], dtype=np.uint8))
    rho = WeightTable.mobius(mob, {"0": 0, "1": 1})
    with pytest.raises(InvalidParameterError, match=message):
        correlation_average(x, rho, squares, 2, binary)


def test_demo_checks_n_before_it_builds(monkeypatch):
    def build_schedule(*args, **kwargs):
        raise AssertionError("build_schedule called")

    monkeypatch.setattr(correlation, "build_schedule", build_schedule)
    for count in (0, -3):
        with pytest.raises(InvalidParameterError, match=r"^N must be >= 1$"):
            sarnak_demo("fast", 3, count)


def test_demo_depth1(binary):
    demo = sarnak_demo("faithful", 1, 2)
    # A(2) = (mu(1) x(1) + mu(2) x(4)) / 2 = (1 - 0) / 2
    assert demo.report.final() == Fraction(1, 2)
    assert demo.report.exact_identity is True
    assert demo.provenance["admissibility_ok"] is True
    assert demo.provenance["minimality"] is not None


def test_demo_depth2_cached_values():
    demo = sarnak_demo("faithful", 2, 832)
    assert demo.report.final() == Fraction(253, 832)
    assert 0.28 <= float(demo.report.final()) <= 0.33
    assert demo.provenance["m"] == [1, 15, 1387215]


def test_fill_cycle_invariance_of_averages(binary, sched2, mu_target, squares, mob):
    rho = WeightTable.mobius(mob, {"0": 0, "1": 1})
    xa = realize(mu_target, sched2, 2, cycle_start=0)
    xb = realize(mu_target, sched2, 2, cycle_start=11)
    ra = correlation_average(xa, rho, squares, 832, binary)
    rb = correlation_average(xb, rho, squares, 832, binary)
    assert ra.rows == rb.rows
