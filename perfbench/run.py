"""Run one blockshift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload faithful-d2 --seed 1 --seconds 25 --trace 0

Run it from the root of a blockshift checkout: the program is imported
from ``./src``.  One process runs one workload, so the peak-RSS mark
belongs to that workload alone.  Each iteration calls
``blockshift.cli.main(argv)`` in process with stdout captured, and checks
the exit codes and output.  Iterations repeat until ``--seconds`` is
spent.  A workload's set-up (making its input files) runs the CLI in a
child process, one call at a time, so that its memory stays out of the
peak-RSS mark; its time counts in setup_s.

``--trace 0`` reports the end-to-end metrics (wall_s, peak_rss_mb,
setup_s).  ``--trace 1`` alternates traced and untraced iterations and
reports the per-layer metrics of spans.py plus trace.overhead_s.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import time

_T0 = time.perf_counter()
# CPU time the interpreter spent starting up before this line ran.
_INTERPRETER_S = time.process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SETUP_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
WORK_DIR = ".perfbench_work"
SETUP_CALL_TIMEOUT_S = 120


def _import_program(root: Path):
    src = root / "src"
    if not (src / "blockshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no blockshift sources under {src}; "
                         "run from the root of a blockshift checkout")
    sys.path.insert(0, str(src))
    import blockshift
    from blockshift import cli

    if Path(blockshift.__file__).resolve().parent != (src / "blockshift").resolve():
        raise SystemExit(f"error: imported blockshift from {blockshift.__file__}, not {src}")
    return cli


def run_in_child(root: Path):
    """A Run for set-up: one CLI call in a child process, awaited."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(argv: list) -> tuple:
        proc = subprocess.run([sys.executable, "-m", "blockshift", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=SETUP_CALL_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout

    return run


class CliRunner:
    """Runs CLI calls in process and keeps the time spent inside them."""

    def __init__(self, cli):
        self.cli = cli
        self.busy_s = 0.0

    def run(self, argv: list) -> tuple:
        """(exit code, stdout) of one call; the exit code is None if it raised."""
        out = io.StringIO()
        crash = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)  # looked up per call so a tracer can rebind it
            except Exception as exc:  # a crash fails the iteration, not the run
                code, crash = None, exc
        self.busy_s += time.perf_counter() - t0
        if crash is not None:
            traceback.print_exception(crash)
        return code, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = _import_program(root)
    import spans  # needs the program on sys.path

    workload = workloads.WORKLOADS[args.workload]
    imports_s = _INTERPRETER_S + time.perf_counter() - _T0

    workdir = root / WORK_DIR / str(os.getpid())
    runner = CliRunner(cli)
    setup_run = run_in_child(root)
    try:
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            try:
                workload.prepare(workdir, setup_run)
            except workloads.CheckFailed as exc:
                raise SystemExit(f"error: set-up produced wrong output: {exc}") from None
            prepare_s.append(time.perf_counter() - t0)
        setup_s = imports_s + statistics.median(prepare_s)
        samples = _measure(workload, workdir, runner, args.seconds,
                           spans.Tracer if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()

    failed = sum(1 for s in samples if not s["ok"])
    if args.trace:
        metrics = _per_layer(samples, spans)
    else:
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "peak_rss_mb": spans.peak_rss_mb(),
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"iterations={len(samples)} failed={failed} fail_ratio={failed / len(samples):.4f}")
    print("iteration wall_s: " + " ".join(f"{s['wall_s']:.4f}" for s in samples))
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def _measure(workload, workdir, runner, seconds, make_tracer) -> list:
    """Iterate until the next iteration would overrun the time budget.

    With a tracer factory, even-numbered iterations are traced and odd ones
    are not, so the two medians give the tracing overhead.
    """
    samples = []
    durations = []
    t_start = time.perf_counter()
    min_iterations = 1 if make_tracer is None else 2
    while True:
        traced = make_tracer is not None and len(samples) % 2 == 0
        tracer = make_tracer() if traced else None
        runner.busy_s = 0.0
        t0 = time.perf_counter()
        ok = True
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                workload.iterate(workdir, runner.run)
            if tracer:
                workloads.check_counts(workload.name, tracer)
        except workloads.CheckFailed as exc:
            ok = False
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # malformed output fails the iteration, not the run
            ok = False
            traceback.print_exc()
        durations.append(time.perf_counter() - t0)
        samples.append({"ok": ok, "wall_s": runner.busy_s, "tracer": tracer})
        elapsed = time.perf_counter() - t_start
        if len(samples) >= min_iterations and elapsed + statistics.median(durations) > seconds:
            return samples


def _per_layer(samples, spans) -> dict:
    traced = [s for s in samples if s["tracer"] is not None]
    plain = [s for s in samples if s["tracer"] is None]
    tracers = [s["tracer"] for s in traced]
    values = {}
    for span in spans.span_names():
        values[f"{span}.self_s"] = statistics.median(t.self_s[span] for t in tracers)
        values[f"{span}.calls"] = statistics.median(t.calls[span] for t in tracers)
        # The peak-RSS mark only rises, so growth is summed over the run.
        values[f"{span}.rss_growth_mb"] = sum(t.rss_growth_mb[span] for t in tracers)
    for name in spans.COUNTS:
        values[name] = spans.combine_iterations(name, [t.counts[name] for t in tracers])
    values["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                  - statistics.median(s["wall_s"] for s in plain))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in spans.metric_units().items()}


if __name__ == "__main__":
    sys.exit(main())
