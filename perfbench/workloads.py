"""The four benchmark workloads: CLI argument lists, per-iteration output
checks, and the frozen values those checks compare against.

Every workload drives ``blockshift.cli.main(argv)`` in process.  All four
are deterministic at the seed commit, so the seed passed to the benchmark
does not change their inputs; it is recorded with the results.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# sha256 of the whole faithful depth-2 window file written by `realize`.
FAITHFUL_D2_FILE_SHA256 = "9b84f64b957270266c5627363082b1ee43b4a717a5cd3ffb5ceb9074ba37e0f5"
FAITHFUL_D2_CELLS = 1_387_215
FAITHFUL_D2_LEVEL1_BLOCKS = 92_481
FAITHFUL_D2_PINNED = 832
FAST_D3_CELLS = 80_543_430

REALIZE_D2 = ["realize", "--alphabet", "01", "--sparse", "squares", "--depth", "2",
              "--u", "mu-indicator"]

DENSITY_CALLS = (
    (["density", "--sparse", "nlogn", "--L", "3000", "--range", "1:10000000"], 0,
     "max=484 quotient=0.1613 satisfies 1/(3·1)"),
    (["density", "--sparse", "power:3/2", "--L", "3000", "--range", "1:100000000"], 0,
     "max=208 quotient=0.0693 satisfies 1/(3·1)"),
    (["density", "--sparse", "squares", "--L", "4000", "--range", "1:10000000000"], 0,
     "max=63 quotient=0.0158 satisfies 1/(3·1)"),
    (["density", "--sparse", "evens", "--L", "15", "--range", "1:2000000"], 3,
     "max=8 quotient=0.5333 violates 1/(3·1)"),
)


class CheckFailed(Exception):
    """An exit code or output of the program differs from the expected one."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_faithful_d2_file(path: Path) -> None:
    expect(path.is_file(), f"{path} was not written")
    digest = file_sha256(path)
    expect(digest == FAITHFUL_D2_FILE_SHA256,
           f"window file sha256 {digest} != frozen {FAITHFUL_D2_FILE_SHA256}")


# Run(argv) -> (exit code, captured stdout), supplied by run.py.
Run = Callable[[list], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    # prepare(workdir, run) makes the inputs; its cost is part of setup_s.
    # Its run calls the CLI in a child process, so set-up leaves the
    # measuring process's peak-RSS mark alone.
    prepare: Callable[[Path, Run], None]
    # iterate(workdir, run) runs one timed iteration and raises CheckFailed.
    iterate: Callable[[Path, Run], None]


def _no_inputs(workdir: Path, run: Run) -> None:
    workdir.mkdir(parents=True, exist_ok=True)


def _faithful_d2(workdir: Path, run: Run) -> None:
    # All three calls run before any check, so a failed iteration still
    # costs a full iteration's time.
    path = workdir / "faithful-d2.bsw"
    path.unlink(missing_ok=True)
    realized = run(REALIZE_D2 + ["--out", str(path)])
    verified = run(["verify", str(path)])
    demo = run(["demo-sarnak", "--profile", "faithful", "--depth", "2", "--N", "832"])

    code, out = realized
    expect(code == 0, f"realize exit {code}")
    expect(out == f"wrote {path}: offset=-693607 length={FAITHFUL_D2_CELLS}\n",
           f"realize printed {out!r}")
    check_faithful_d2_file(path)

    code, out = verified
    expect(code == 0, f"verify exit {code}")
    rows = out.splitlines()
    names = [r[:14].strip() for r in rows]
    expect(names == ["checksum", "m-list", "realization", "admissibility", "minimality"],
           f"verify rows {names}")
    expect(all(r[14:20].strip() == "PASS" for r in rows), f"verify rows not all PASS: {out!r}")

    code, out = demo
    expect(code == 0, f"demo-sarnak exit {code}")
    prov = json.loads(out)["provenance"]
    expect(prov["final_average"] == [253, 832], f"final_average {prov['final_average']}")
    expect(prov["exact_identity"] is True, "exact_identity is not true")


def _fast_d3_demo(workdir: Path, run: Run) -> None:
    code, out = run(["demo-sarnak", "--profile", "fast", "--depth", "3", "--N", "5000"])
    expect(code == 0, f"demo-sarnak exit {code}")
    doc = json.loads(out)
    prov = doc["provenance"]
    expect(prov["exact_identity"] is True, "exact_identity is not true")
    expect(prov["admissibility_ok"] is True, "admissibility_ok is not true")
    num, den = prov["final_average"]
    expect(doc["report"]["N"] == 5000, f"report N {doc['report']['N']}")
    expect(abs(num / den - 6 / math.pi**2) < 0.02, f"A(5000) = {num}/{den} too far from 6/pi^2")


def _complexity_inputs(workdir: Path, run: Run) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "complexity-d2.bsw"
    path.unlink(missing_ok=True)
    code, _ = run(REALIZE_D2 + ["--out", str(path)])
    expect(code == 0, f"realize exit {code}")
    check_faithful_d2_file(path)


def _complexity_d2(workdir: Path, run: Run) -> None:
    code, out = run(["complexity", str(workdir / "complexity-d2.bsw"), "--nmax", "24"])
    expect(code == 0, f"complexity exit {code}")
    lines = set(out.splitlines())
    expect("24,323993" in lines, "complexity output lacks 24,323993")
    expect("aligned-15,30826" in lines, "complexity output lacks aligned-15,30826")


def _density_scan(workdir: Path, run: Run) -> None:
    codes, outs = [], []
    for argv, _, _ in DENSITY_CALLS:
        code, out = run(argv)
        codes.append(code)
        outs.append(out.strip())
    expect(codes == [c for _, c, _ in DENSITY_CALLS], f"density exit codes {codes}")
    expect(outs == [o for _, _, o in DENSITY_CALLS], f"density outputs {outs}")


# Counts a traced iteration must reproduce exactly, per workload.
TRACE_INVARIANTS = {
    "faithful-d2": {
        "realization.window_cells": FAITHFUL_D2_CELLS,
        "realization.window_blocks.L1": FAITHFUL_D2_LEVEL1_BLOCKS,
        "realization.pinned_cells": FAITHFUL_D2_PINNED,
        "schedule.build_schedule.calls": 3,
    },
    "fast-d3-demo": {
        "realization.window_cells": FAST_D3_CELLS,
        "analysis.window_admissibility_report.calls": 2,
    },
}


def check_counts(workload: str, tracer) -> None:
    """Compare a traced iteration's counts and span calls with the invariants."""
    for name, want in TRACE_INVARIANTS.get(workload, {}).items():
        span, _, stat = name.rpartition(".")
        got = tracer.calls[span] if stat == "calls" else tracer.counts[name]
        expect(got == want, f"traced {name} = {got}, expected {want}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("faithful-d2", _no_inputs, _faithful_d2),
        Workload("fast-d3-demo", _no_inputs, _fast_d3_demo),
        Workload("complexity-d2", _complexity_inputs, _complexity_d2),
        Workload("density-scan", _no_inputs, _density_scan),
    )
}
