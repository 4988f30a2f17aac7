#!/usr/bin/env python3
"""Run every registered scenario at a smoke size.

usage: scenario_smoke.py <path-to-unsnap>

Walks `unsnap --list` and runs each scenario with its arguments from
SIZES, in a scratch working directory and on one OpenMP thread (so the
smoke stays light when ctest runs tests in parallel). Any scenario that
exits non-zero fails the test, and so does a listed scenario without a
SIZES entry: a new scenario has to come with a smoke size.
"""

import os
import subprocess
import sys
import tempfile
import time

# Tiny meshes and budgets: all twelve finish in a few seconds, and in
# about a minute and a half under a Debug ASan+UBSan build. VTK output is
# off ('' disables it) so nothing is written outside the scratch
# directory.
SIZES = {
    "convergence_order": ["--max-order", "2", "--levels", "2"],
    "criticality": ["--nx", "2"],
    "diffusive": ["--nx", "2", "--nz", "9", "--c", "0.9", "--iitm", "300"],
    "domain_decomposition": ["--nx", "4"],
    "duct_streaming": ["--n", "8", "--nang", "4", "--vtk", ""],
    "mini": ["--nx", "4"],
    "pulse_decay": ["--nx", "4", "--steps", "4"],
    "quickstart": ["--nx", "4", "--nang", "4"],
    "scale_study": ["--max_ranks", "64", "--verify_nx", "4"],
    "shielding": ["--nx", "2", "--nz", "12", "--nang", "4", "--vtk", ""],
    "sweep_explorer": ["--nx", "6", "--vtk", ""],
    "twisted": ["--nx", "6", "--nz", "3"],
}


def listed_scenarios(unsnap):
    """Scenario names from `unsnap --list`: the indented lines under the
    'registered scenarios (N):' header, checked against N."""
    out = subprocess.run([unsnap, "--list"], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    header = out[0]
    expected = int(header[header.index("(") + 1:header.index(")")])
    names = []
    for line in out[1:]:
        if not line.startswith("  "):
            break
        names.append(line.split()[0])
    if len(names) != expected:
        sys.exit(f"--list announced {expected} scenarios but listed "
                 f"{len(names)}")
    return names


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    unsnap = os.path.abspath(sys.argv[1])
    names = listed_scenarios(unsnap)
    missing = [name for name in names if name not in SIZES]
    if missing:
        sys.exit("no smoke size for scenario(s): " + ", ".join(missing) +
                 " (add them to SIZES in " + os.path.basename(__file__) + ")")

    env = dict(os.environ, OMP_NUM_THREADS="1")
    failed = []
    with tempfile.TemporaryDirectory(prefix="unsnap_scenarios_") as scratch:
        for name in names:
            command = [unsnap, "--scenario", name] + SIZES[name]
            start = time.monotonic()
            result = subprocess.run(command, cwd=scratch, env=env,
                                    capture_output=True, text=True,
                                    timeout=300)
            seconds = time.monotonic() - start
            print(f"{name:22s} exit {result.returncode}  {seconds:5.2f} s")
            if result.returncode != 0:
                failed.append(name)
                print(result.stdout[-2000:] + result.stderr[-2000:])
    if failed:
        sys.exit("failed scenario(s): " + ", ".join(failed))
    print(f"all {len(names)} scenarios ran")


if __name__ == "__main__":
    main()
