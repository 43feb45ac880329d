#!/usr/bin/env python3
"""Benchmark of the PULSE reproduction: batch simulation and serving.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-10k --seed 1 --seconds 20 --trace 0

``--workload`` is ``fleet-10k``, ``paper-12`` or ``serve-online`` (see
``perfbench/README.md`` for what each runs and why). ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the traced
measurement and prints the per-layer metrics instead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report. The exit code is 1 when a correctness check failed,
2 when the program under test cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-10k", "paper-12", "serve-online")


def stamp() -> dict:
    """The machine and source the numbers belong to."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from catalogue import END_TO_END, PER_LAYER

    if args.workload == "serve-online":
        import serve_load

        run = serve_load.run_traced if args.trace else serve_load.run
        out = run(args.seed, args.seconds, ROOT)
    else:
        import batch

        w = batch.FLEET_10K if args.workload == "fleet-10k" else batch.PAPER_12
        run = batch.run_traced if args.trace else batch.run
        out = run(w, args.seed, args.seconds)

    catalogue = PER_LAYER if args.trace else END_TO_END
    for name in catalogue:
        out.metrics.setdefault(name, 0.0)
    extra = sorted(set(out.metrics) - set(catalogue))
    if extra:
        raise KeyError(f"metrics outside the catalogue: {extra}")

    print("stamp " + json.dumps(stamp(), sort_keys=True))
    for line in out.report:
        print(line)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in catalogue.items():
        print(f"{name} {out.metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit}
            for name, unit in catalogue.items()
        },
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
