"""Command-line surface.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error or
unreadable path, 3 density violation, infeasible depth or out of memory,
4 internal invariant failure; each error class states its own
(errors.py).  Outputs are deterministic: identical argv and input files
produce identical bytes.

main(argv) may be called repeatedly in one process.  The parser is built
once, on the first call, and each subcommand runs _cmd_<name>, looked up
when it is called.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import analysis
from .correlation import sarnak_demo
from .errors import BlockshiftError, IncompleteDataError, InvalidParameterError, WindowFormatError
from .realization import TargetSequence, realize, verify_realization
from .schedule import PROFILES, build_schedule
from .sparse import SparseSetSpec
from .windowfile import load_window, save_window
from .words import Alphabet


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise InvalidParameterError(f"bad range {text!r}, expected LO:HI") from None


def _parse_target(text: str, alphabet: Alphabet) -> TargetSequence:
    if text == "mu-indicator":
        return TargetSequence.mu_indicator()
    if text == "mu-sign":
        return TargetSequence.mu_sign(alphabet)
    if text.startswith("file:"):
        body = Path(text.split(":", 1)[1]).read_text(errors="replace").split()
        return TargetSequence.from_text("".join(body), alphabet, description=text)
    if text.startswith("text:"):
        return TargetSequence.from_text(text.split(":", 1)[1], alphabet, description=text)
    raise InvalidParameterError(f"cannot parse target sequence {text!r}")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# --- subcommands -------------------------------------------------------


def _cmd_schedule(args) -> int:
    sched = build_schedule(Alphabet(args.alphabet), SparseSetSpec.parse(args.sparse),
                           args.depth, profile=args.profile, seed=args.seed)
    print(f"profile: {sched.profile}")
    print(f"verified-range: {sched.verified_range[0]}:{sched.verified_range[1]}")
    print(f"{'k':<3} {'m_k':<12} {'|A_k|':<32} w_k")
    for k, m, card, digest in sched.describe_rows():
        print(f"{k:<3} {m:<12} {card:<32} {digest}")
    return 0


def _cmd_realize(args) -> int:
    alphabet = Alphabet(args.alphabet)
    sparse = SparseSetSpec.parse(args.sparse)
    sched = build_schedule(alphabet, sparse, args.depth, profile=args.profile,
                           seed=args.seed)
    u = _parse_target(args.u, alphabet)
    window = _parse_range(args.window) if args.window else None
    x = realize(u, sched, args.depth, window=window, cycle_start=args.cycle_start)
    save_window(args.out, x, alphabet=alphabet, profile=sched.profile,
                depth=args.depth, m_list=[sched.m(k) for k in range(args.depth + 1)],
                sparse=sparse.describe(), u=args.u,
                fill=sched.fill_convention(args.cycle_start),
                seed=args.seed)
    print(f"wrote {args.out}: offset={x.offset} length={len(x)}")
    return 0


def _cmd_verify(args) -> int:
    rows: list[tuple[str, str, str]] = []
    try:
        wf = load_window(args.path)
        sparse = SparseSetSpec.parse(wf.sparse)
        sched = build_schedule(wf.alphabet, sparse, wf.depth, profile=wf.profile,
                               seed=wf.seed)
    except (WindowFormatError, InvalidParameterError) as exc:
        print(f"load      FAIL  {exc}")
        return 1
    rows.append(("checksum", "PASS", "payload matches recorded sha256-64"))
    built = tuple(sched.m(k) for k in range(wf.depth + 1))
    if built == wf.m_list:
        rows.append(("m-list", "PASS", ",".join(str(m) for m in built)))
    else:
        rows.append(("m-list", "FAIL", f"rebuilt {built}, header {wf.m_list}"))

    try:
        u = _parse_target(wf.u, wf.alphabet)
    except (InvalidParameterError, OSError):
        u = None
    if u is None:
        rows.append(("realization", "SKIP", f"target {wf.u!r} unavailable"))
    else:
        try:  # a target too short for the window is a fault of the file
            rep = verify_realization(wf.window, u, sparse)
            rows.append(("realization", "PASS" if rep.passed else "FAIL", rep.describe()))
        except IncompleteDataError as exc:
            rows.append(("realization", "FAIL", str(exc)))

    if built != wf.m_list:
        why = "m-list differs from the rebuilt schedule"
        rows += [("admissibility", "SKIP", why), ("minimality", "SKIP", why)]
    else:
        adm = analysis.window_admissibility_report(wf.window, sched, wf.depth)
        rows.append(("admissibility", "PASS" if adm.ok else "FAIL", adm.summary()))
        if adm.fully_defined:
            mini = analysis.minimality_witnesses(adm, sched)
            rows.append(("minimality", "PASS" if mini.ok else "FAIL",
                         "; ".join(f"{n}:{s}" for n, s, _ in mini.checks)))
        else:
            rows.append(("minimality", "SKIP", "window not fully defined"))

    for name, status, detail in rows:
        print(f"{name:<14}{status:<6}{detail}")
    return 0 if all(s != "FAIL" for _, s, _ in rows) else 1


def _cmd_complexity(args) -> int:
    wf = load_window(args.path)
    block_lengths = [m for m in wf.m_list if 1 < m <= args.nmax]
    report = analysis.complexity_profile(wf.window, args.nmax,
                                         aligned_lengths=block_lengths)
    if args.format == "json":
        _emit_json({
            "window_length": report.window_length,
            "source": report.source,
            "counts": {str(n): c for n, c in sorted(report.counts.items())},
            "aligned": {str(n): c for n, c in sorted(report.aligned.items())},
        })
    else:
        print("n,distinct")
        for n in sorted(report.counts):
            print(f"{n},{report.counts[n]}")
        for n in sorted(report.aligned):
            print(f"aligned-{n},{report.aligned[n]}")
    return 0


def _cmd_demo_sarnak(args) -> int:
    demo = sarnak_demo(profile=args.profile, depth=args.depth, count=args.N,
                       seed=args.seed)
    if args.format == "json":
        _emit_json({"report": demo.report.as_dict(), "provenance": demo.provenance})
    else:
        print("N,numerator,denominator,value")
        for n, f in demo.report.rows:
            print(f"{n},{f.numerator},{f.denominator},{float(f)}")
    return 0


def _cmd_density(args) -> int:
    if args.mk < 1:
        raise InvalidParameterError(f"--mk must be >= 1, got {args.mk}")
    sparse = SparseSetSpec.parse(args.sparse)
    rng = _parse_range(args.range)
    count, _ = sparse.max_window_count(args.L, rng)
    quotient = count / args.L
    threshold = args.L / (3 * args.mk)
    ok = count < threshold
    verdict = "satisfies" if ok else "violates"
    print(f"max={count} quotient={quotient:.4f} {verdict} 1/(3·{args.mk})")
    return 0 if ok else 3


# --- parser ------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockshift",
        description="Finite windows of a minimal zero-entropy subshift with "
                    "prescribed values along a sparse set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print the level table (m_k, |A_k|, w_k)")
    p.add_argument("--alphabet", default="01")
    p.add_argument("--sparse", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--profile", choices=PROFILES, default="faithful")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("realize", help="build a window file realizing a target")
    p.add_argument("--alphabet", default="01")
    p.add_argument("--sparse", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--u", required=True,
                   help="mu-indicator | mu-sign | text:SYMBOLS | file:PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", choices=PROFILES, default="faithful")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycle-start", type=int, default=0)
    p.add_argument("--window", default=None, help="LO:HI hull instead of the central block")

    p = sub.add_parser("verify", help="recheck a window file end to end")
    p.add_argument("path")

    p = sub.add_parser("complexity", help="distinct-subword profile of a window file")
    p.add_argument("path")
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("demo-sarnak", help="end-to-end correlation counterexample demo")
    p.add_argument("--profile", choices=PROFILES, default="faithful")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--N", type=int, default=832)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("density", help="max window count and quotient for a sparse set")
    p.add_argument("--sparse", required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--range", required=True, help="LO:HI")
    p.add_argument("--mk", type=int, default=1)
    return parser


# Options whose LO:HI value may start with a minus sign.  argparse reads
# "-5:40" as an option of its own, but "--range=-5:40" as one argument.
_RANGE_OPTIONS = ("--range", "--window")


def _attach_range_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RANGE_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_range_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except BlockshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
