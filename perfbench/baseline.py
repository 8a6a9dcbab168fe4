"""Record a baseline: every workload once untraced and once traced, with
the facts of the machine it ran on.

    python3 perfbench/baseline.py --checkout . --commit e6e2e42 --seed 1 \
        --out perfbench/baselines/e6e2e42.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from compare import invoke, load_spec


def machine_facts(python: str) -> dict:
    numpy_version = subprocess.run(
        [python, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path("."))
    parser.add_argument("--commit", required=True, help="commit of the measured program")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = load_spec()
    record = {
        "commit": args.commit,
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_facts(sys.executable),
        "results": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        record["results"][name] = {
            f"trace{trace}": invoke(args.checkout.resolve(), name, args.seed,
                                    spec["run_seconds"], trace)
            for trace in (0, 1)
        }
        print(f"recorded {name}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
