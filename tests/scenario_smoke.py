#!/usr/bin/env python3
"""Run every registered scenario over a small deck.

usage: scenario_smoke.py <path-to-unsnap>

Walks `unsnap --list` and runs each scenario with `--deck` pointing at
the deck SMOKE gives it, in a scratch working directory and on one
OpenMP thread (so the smoke stays light when ctest runs tests in
parallel). Any scenario that exits non-zero fails the test, and so does
a listed scenario without a SMOKE entry or without its twin deck
decks/<name>.inp: a new scenario has to come with both.
"""

import os
import subprocess
import sys
import tempfile
import time

DECKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "decks")

# Per scenario: the deck its study runs (relative to decks/) and any
# study flags. The twin decks/<name>.inp where it is fast, its golden
# twin in decks/golden/ where the full one is slow (diffusive takes about
# 30 s at defaults). scale_study takes no deck; its own flags size it.
# VTK output is off ('' disables it). All of them finish in about six
# seconds, and in about four and a half minutes under a Debug ASan+UBSan
# build (shielding's four solves about two of them).
SMOKE = {
    "convergence_order": ("convergence_order.inp",
                          ["--max-order", "2", "--levels", "2"]),
    "criticality": ("criticality.inp", []),
    "diffusive": ("golden/diffusive_c90.inp", ["--c", "0.9"]),
    "domain_decomposition": ("golden/domain_decomposition.inp", []),
    "duct_streaming": ("golden/duct_streaming.inp", ["--vtk", ""]),
    "scale_study": (None, ["--max_ranks", "64", "--verify_nx", "4"]),
    "shielding": ("golden/shielding.inp", ["--vtk", ""]),
    "sweep_explorer": ("sweep_explorer.inp", ["--vtk", ""]),
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
    missing = [name for name in names if name not in SMOKE]
    if missing:
        sys.exit("no smoke entry for scenario(s): " + ", ".join(missing) +
                 " (add them to SMOKE in " + os.path.basename(__file__) + ")")
    no_twin = [name for name in names
               if not os.path.isfile(os.path.join(DECKS, name + ".inp"))]
    if no_twin:
        sys.exit("no twin deck decks/<name>.inp for scenario(s): " +
                 ", ".join(no_twin))

    env = dict(os.environ, OMP_NUM_THREADS="1")
    failed = []
    with tempfile.TemporaryDirectory(prefix="unsnap_scenarios_") as scratch:
        for name in names:
            deck, flags = SMOKE[name]
            command = [unsnap, "--scenario", name] + flags
            if deck is not None:
                command += ["--deck", os.path.join(DECKS, deck)]
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
