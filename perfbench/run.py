#!/usr/bin/env python3
"""Build and run one workload of the UnSNAP benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repository's unsnap_core plus the binary in
perfbench/src) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the binary's report -- metric lines, then one JSON result
object as the last line -- is all that reaches stdout. Workloads, metrics
and the correctness gate are described in perfbench/BENCHMARK.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["sweep_inverse", "diffusive_gmres", "keff_criticality",
             "serve_mixed"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def workdir(path):
    """The binary's scratch directory, relative to the root when inside it:
    the serve workload's Unix socket path must stay under 108 bytes."""
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def build(out_dir):
    """Configure (once) and build the binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target",
                  "unsnap_perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return out_dir / "unsnap_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--reference", default="perfbench/reference.json",
                        help="gate references (default: the recorded ones)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--reference", args.reference,
               "--workdir", workdir(out_dir / "run")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
