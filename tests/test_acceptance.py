"""Acceptance criteria, one test per criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values marked as derived were computed with the independent
oracles in this file (brute-force enumeration, trial-division Mobius,
anchored sliding counts) and frozen.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np

from blockshift import (
    DensityViolation,
    SparseSetSpec,
    TargetSequence,
    WeightTable,
    aligned_block_census,
    build_schedule,
    correlation_average,
    entropy_bound_series,
    minimality_witnesses,
    positive_density_bound,
    realization_forced_count,
    realize,
    sarnak_demo,
    save_window,
    load_window,
    verify_realization,
    window_admissibility_report,
)
from blockshift.windowfile import checksum64
from tests.conftest import mu_by_trial_division

W1 = bytes(b"\x00" * 14 + b"\x01")


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_schedule_exactness(binary, squares):
    t0 = time.perf_counter()
    s1 = build_schedule(binary, squares, 1)
    t_level1 = time.perf_counter() - t0
    brute = sum(
        1
        for tup in product((0, 1), repeat=15)
        if tup.count(0) >= 5 and tup.count(1) >= 1
    )
    t0 = time.perf_counter()
    s2 = build_schedule(binary, squares, 2)
    t_level2 = time.perf_counter() - t0
    ok = (
        s1.m(1) == 15
        and s2.level(1).card.exact == 30826
        and brute == 30826
        and s2.m(2) == 1387215 == 45 * 30827
        and s2.m(2) > 3 * 15 * 30826 == 1387170
        and t_level1 < 1.0
        and t_level2 < 30.0
    )
    report(1, ok,
           f"m_1=15, |A_1|=30826 (brute force {brute}), m_2=1387215=45*30827; "
           f"level-1 {t_level1:.2f}s, level-2 {t_level2:.2f}s")


# The child reports its own peak, VmHWM, which exec resets.  Its
# ru_maxrss would start at the high-water mark of the process that
# launched it (here pytest), so it bounds the launcher, not realize.
REALIZE_IN_CHILD = (
    "import json\n"
    "from blockshift import *\n"
    "ab = Alphabet('01'); sq = SparseSetSpec.squares()\n"
    "sched = build_schedule(ab, sq, 2)\n"
    "u = TargetSequence.mu_indicator()\n"
    "x = realize(u, sched, 2)\n"
    "rep = verify_realization(x, u, sq)\n"
    "status = open('/proc/self/status').read()\n"
    "peak = int(status.split('VmHWM:')[1].split()[0])\n"
    "print(json.dumps({'passed': rep.passed, 'n': rep.constraints, 'kb': peak}))\n"
)


def realize_in_child() -> dict:
    """Faithful d2 realize and verify in a fresh interpreter: its verdict,
    constraint count and peak RSS in KB."""
    proc = subprocess.run([sys.executable, "-c", REALIZE_IN_CHILD], capture_output=True,
                          text=True, timeout=60)
    return json.loads(proc.stdout)


def test_criterion_2_realization_exactness(sched2, mu_target, squares, binary):
    t0 = time.perf_counter()
    x2 = realize(mu_target, sched2, 2)
    elapsed = time.perf_counter() - t0
    rep = verify_realization(x2, mu_target, squares)
    x1 = realize(mu_target, sched2, 1)
    central_match = x2.sub(-7, 7) == x1

    meas = realize_in_child()
    ok = (
        rep.passed
        and rep.constraints == 832
        and central_match
        and elapsed < 60.0
        and meas["passed"]
        and meas["n"] == 832
        and meas["kb"] < 200 * 1024
    )
    report(2, ok,
           f"x_u(n^2)=u(n) for all 832 squares <= 693607; depth-1/depth-2 "
           f"central cells agree; {elapsed:.2f}s, peak {meas['kb'] / 1024:.0f} MB")


def test_criterion_2_peak_is_the_childs_own():
    """The criterion-2 child measures itself: with 256 MB held here, it
    still peaks under the 200 MB bound."""
    held = np.ones(256 << 20, dtype=np.uint8)
    meas = realize_in_child()
    assert meas["passed"] and meas["kb"] < 200 * 1024, meas


def test_criterion_3_admissibility(x2, sched2):
    census = aligned_block_census(x2, 15)
    blocks = sum(census.values())
    a1 = {row.tobytes() for row in sched2.words(1)}
    all_in = set(census) <= a1
    coverage = len(set(census)) == 30826 and set(census) == a1
    w1_count = census[W1]
    ok = blocks == 92481 and all_in and w1_count >= 30827 and coverage
    report(3, ok,
           f"92481 level-1 blocks, all in A_1, {w1_count} >= 30827 equal w_1, "
           f"{len(set(census))}/30826 words occur")


def test_criterion_4_entropy_chain(sched2):
    b1 = sched2.level(1).card.log_upper / 15
    rhs = math.log(2) / 15 + (2 / 3) * b1
    lhs = sched2.level(2).card.log_upper / sched2.m(2)
    series = dict(entropy_bound_series(sched2, 21))
    decreasing = all(series[k + 1] < series[k] for k in range(2, 21))
    ok = (
        0.6890 <= b1 <= 0.6892
        and b1 <= 0.75
        and lhs <= rhs + 1e-12
        and 0.5055 <= rhs <= 0.5057
        and rhs <= 0.5625
        and series[20] < 0.01
        and decreasing
    )
    report(4, ok,
           f"b_1={b1:.5f} in [0.6890,0.6892]; recurrence bound {rhs:.5f} in "
           f"[0.5055,0.5057]; bound_20={series[20]:.6f} < 0.01, strictly decreasing")


def test_criterion_5_minimality_and_mutation(x2, sched2, mu_target, squares):
    mini = minimality_witnesses(window_admissibility_report(x2, sched2, 2), sched2)
    statuses = {name: status for name, status, _ in mini.checks}
    witnesses_ok = (
        statuses["pillar-containment k=0"] == "ok"
        and statuses["pillar-containment k=1"] == "ok"
        and statuses["gap-bound k=0"] == "ok"
        and statuses["gap-bound k=1"] == "ok"
        and statuses["pillar-coverage k=1"] == "ok"
    )
    # positional coverage of w_2: pillar run, then A_1 \ {w_1} ascending
    w2 = sched2.pillar(2).tobytes()
    words = [row.tobytes() for row in sched2.words(1)]
    copies = 92481 - 30826 + 1
    positional = (
        w2[: 15 * copies] == words[0] * copies
        and all(
            w2[15 * (copies + t): 15 * (copies + t + 1)] == words[t + 1]
            for t in range(30825)
        )
    )

    base_payload = sched2.alphabet.text_of_cells(x2.cells)
    base_sum = checksum64(base_payload.encode())
    rng = random.Random(0xB10C5)
    caught = 0
    for _ in range(100):
        pos = rng.randrange(len(x2))
        cells = x2.cells.copy()
        cells[pos] ^= 1
        from blockshift import PartialWindow

        mutated = PartialWindow(x2.offset, cells)
        by_checksum = checksum64(sched2.alphabet.text_of_cells(mutated.cells).encode()) != base_sum
        by_realization = not verify_realization(mutated, mu_target, squares).passed
        if by_checksum or by_realization:
            caught += 1
            continue
        if not window_admissibility_report(mutated, sched2, 2).ok:
            caught += 1
    ok = witnesses_ok and positional and caught == 100
    report(5, ok,
           f"pillar containment + 2*m_k+1 gap bound pass; w_2 coverage "
           f"positional; mutations caught {caught}/100")


def test_criterion_6_correlation(x2, sched2, mu_target, squares, mob, binary):
    rho = WeightTable.mobius(mob, {"0": 0, "1": 1})
    rep = correlation_average(x2, rho, squares, 832, binary, u=mu_target)
    mu_one = sum(1 for n in range(1, 833) if mob.mu(n) == 1)
    exact = rep.exact_identity and rep.final() == Fraction(mu_one, 832)
    in_bracket = 0.28 <= mu_one / 832 <= 0.33

    demo = sarnak_demo("fast", 3, 5000)
    target = 6 / math.pi**2
    fast_ok = (
        demo.report.exact_identity
        and abs(float(demo.report.final()) - target) < 0.02
    )
    ok = exact and in_bracket and fast_ok
    report(6, ok,
           f"A(832) = {mu_one}/832 exactly (integer identity), in [0.28,0.33]; "
           f"fast ternary A(5000) = {float(demo.report.final()):.4f} within 0.02 "
           f"of 6/pi^2 = {target:.4f}")


def test_criterion_7_converse_path(binary):
    try:
        build_schedule(binary, SparseSetSpec.evens(), 1)
        violated = False
    except DensityViolation:
        violated = True
    bound = positive_density_bound("1/2", 2)
    bound_ok = abs(bound - 0.17329) <= 1e-5
    evens = SparseSetSpec.evens()
    s_count, witness = evens.max_window_count(15, (1, 1000))
    forced = realization_forced_count(15, s_count)
    forced_ok = forced == 2**s_count and forced > 2 ** (15 * 0.5 / 2)
    ok = violated and bound_ok and forced_ok
    report(7, ok,
           f"evens build raises DensityViolation; alpha ln|A|/2 = {bound:.5f}; "
           f"forced count 2^{s_count} = {forced} on witness {witness}")


def test_criterion_8_sieve_calibration(mob):
    agree = all(mob.mu(n) == mu_by_trial_division(n) for n in range(1, 10**4 + 1))
    q_ratio = mob.squarefree_count(10**6) / 10**6
    q_ok = abs(q_ratio - 0.607926) <= 1e-6
    m100 = mob.mertens(100)
    m_oracle = sum(mu_by_trial_division(n) for n in range(1, 101))
    ok = agree and q_ok and m100 == m_oracle == 1
    report(8, ok,
           f"mu == trial division for n <= 10^4; Q(10^6)/10^6 = {q_ratio:.6f}; "
           f"M(100) = {m100} == oracle")


def test_criterion_9_determinism_persistence(tmp_path, binary, squares):
    def pipeline(tag):
        sched = build_schedule(binary, squares, 2)
        u = TargetSequence.mu_indicator()
        x = realize(u, sched, 2)
        path = tmp_path / f"{tag}.bsw"
        wf = save_window(path, x, alphabet=binary, profile=sched.profile, depth=2,
                         m_list=[sched.m(k) for k in range(3)],
                         sparse=squares.describe(), u="mu-indicator",
                         fill="pillar-first-ltr,cycle-lex-restart@0", seed=0)
        demo = sarnak_demo("faithful", 1, 2)
        report_bytes = json.dumps(
            {"report": demo.report.as_dict(), "provenance": demo.provenance},
            sort_keys=True,
        ).encode()
        return path.read_bytes(), report_bytes

    bytes_a, rep_a = pipeline("a")
    bytes_b, rep_b = pipeline("b")
    identical = bytes_a == bytes_b and rep_a == rep_b

    wf = load_window(tmp_path / "a.bsw")
    roundtrip = wf.render().encode() == bytes_a
    ok = identical and roundtrip
    report(9, ok,
           f"two pipeline runs byte-identical ({len(bytes_a)} bytes); "
           f"save/load round-trip byte-exact")
