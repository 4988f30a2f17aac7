#!/usr/bin/env python3
"""Schema check for `unsnap --deck ... --json out.json` run records.

Usage: check_run_json.py out.json [out2.json ...]

Validates the structural contract of api::to_json(RunRecord) — required
blocks, field types, and cross-field consistency (history lengths vs
counts, balance closure identity) — so CI catches a silently malformed or
truncated record, not just invalid JSON. Exits non-zero on the first
violation, printing what and where.

Also accepts unsnapd result envelopes (`unsnap-client await ... --json`):
a file whose top level carries "id"/"state" is checked as an envelope —
service fields first, then the embedded "record" against the full record
schema.

Benchmark artifacts (BENCH_*.json: a top-level "bench" description with
a "runs" array of embedded records) are checked record by record, plus a
provenance gate: a committed benchmark file must come from a clean
build, so any "-dirty" git describe anywhere in the file is a failure.
"""

import json
import numbers
import sys

FAILURES = []


def fail(path, message):
    FAILURES.append(f"{path}: {message}")


def expect(cond, path, message):
    if not cond:
        fail(path, message)
    return cond


def is_num(v):
    # bool is an int subclass in Python; a number field holding true/false
    # is a serialisation bug. null encodes NaN/Inf (JSON has no literal).
    return (isinstance(v, numbers.Number) and not isinstance(v, bool)) or v is None


def check_fields(obj, spec, path):
    if not expect(isinstance(obj, dict), path, f"expected object, got {type(obj).__name__}"):
        return False
    ok = True
    for key, kind in spec.items():
        if not expect(key in obj, path, f"missing required field '{key}'"):
            ok = False
            continue
        v = obj[key]
        if kind == "str":
            ok &= expect(isinstance(v, str), f"{path}.{key}", "expected a string")
        elif kind == "num":
            ok &= expect(is_num(v), f"{path}.{key}", "expected a number")
        elif kind == "int":
            ok &= expect(isinstance(v, int) and not isinstance(v, bool),
                         f"{path}.{key}", "expected an integer")
        elif kind == "bool":
            ok &= expect(isinstance(v, bool), f"{path}.{key}", "expected a boolean")
        elif kind == "numlist":
            ok &= expect(isinstance(v, list) and all(is_num(x) for x in v),
                         f"{path}.{key}", "expected an array of numbers")
        else:
            raise AssertionError(kind)
    return ok


def check_record(record, path):
    check_fields(record, {"title": "str", "mode": "str", "deck": "str"}, path)
    mode = record.get("mode")
    expect(mode in ("solve", "schedule", "mms", "time", "keff"), f"{path}.mode",
           f"unknown mode {mode!r}")
    expect("[mesh]" in record.get("deck", ""), f"{path}.deck",
           "config echo does not look like a deck")

    check_fields(record.get("unsnap", {}), {
        "version": "str", "git_describe": "str",
        "build_type": "str", "compiler": "str",
    }, f"{path}.unsnap")

    configuration = record.get("configuration", {})
    check_fields(configuration, {
        "dims": "numlist", "order": "int", "nodes_per_element": "int",
        "elements": "int", "nang": "int", "ng": "int", "nmom": "int",
        "twist": "num", "layout": "str", "scheme": "str", "solver": "str",
        "inners": "str", "preassembly": "str", "preassembly_bytes": "int",
        "unique_schedules": "int", "directions": "int",
    }, f"{path}.configuration")
    preassembly = configuration.get("preassembly")
    expect(preassembly in ("none", "explicit-inverse", None),
           f"{path}.configuration.preassembly",
           f"unknown preassembly mode {preassembly!r}")
    if preassembly == "none":
        expect(configuration.get("preassembly_bytes") == 0,
               f"{path}.configuration.preassembly_bytes",
               "mode none must not report stored operators")
    elif preassembly is not None:
        expect(configuration.get("preassembly_bytes", 0) > 0,
               f"{path}.configuration.preassembly_bytes",
               f"mode {preassembly} requires a non-zero footprint")

    if "schedule" in record:
        check_fields(record["schedule"], {
            "strategy": "str", "unique": "int", "directions": "int",
            "min_buckets": "int", "max_buckets": "int", "mean_bucket": "num",
            "max_bucket": "int", "total_lagged": "int",
            "parallel_efficiency": "num", "threads": "int",
        }, f"{path}.schedule")

    solving = mode in ("solve", "mms", "time", "keff")
    if solving:
        expect("iteration" in record, path, f"mode {mode} requires an iteration block")
        expect("flux" in record, path, f"mode {mode} requires a flux block")
    if mode == "schedule":
        expect("schedule" in record, path, "mode schedule requires a schedule block")
        expect("iteration" not in record, path, "mode schedule must not solve")

    if "iteration" in record:
        it = record["iteration"]
        if check_fields(it, {
            "converged": "bool", "outers": "int", "inners": "int",
            "sweeps": "int", "krylov_iters": "int",
            "final_inner_change": "num", "final_outer_change": "num",
            "sweeps_per_digit": "num", "inner_history": "numlist",
            "residual_history": "numlist",
        }, f"{path}.iteration"):
            timers = it.get("timers", {})
            if check_fields(timers, {
                "total_seconds": "num", "assemble_solve_seconds": "num",
                "solve_seconds": "num",
            }, f"{path}.iteration.timers") and it["sweeps"] > 0:
                # Every solving mode times its sweeps (keff sums its
                # groupset solvers, a distributed run reports its slowest
                # rank), so swept records carry a positive sweep time.
                sweep_time = timers["assemble_solve_seconds"]
                expect(sweep_time is not None and sweep_time > 0,
                       f"{path}.iteration.timers.assemble_solve_seconds",
                       f"{it['sweeps']} sweeps but no sweep time")
            expect(it["krylov_iters"] == 0 or len(it["residual_history"]) > 0,
                   f"{path}.iteration", "krylov iterations without a residual history")
        # The DSA fields arrived after the committed BENCH_*.json records,
        # so they are checked when present.
        if "preconditioner" in it:
            expect(it["preconditioner"] in ("diffusion", "none"),
                   f"{path}.iteration.preconditioner",
                   f"unknown preconditioner {it['preconditioner']!r}")
        if "dsa_pcg_iters" in it:
            pcg = it["dsa_pcg_iters"]
            if expect(isinstance(pcg, int) and not isinstance(pcg, bool) and pcg >= 0,
                      f"{path}.iteration.dsa_pcg_iters",
                      "expected a non-negative integer"):
                expect(pcg == 0 or it.get("preconditioner") == "diffusion",
                       f"{path}.iteration.dsa_pcg_iters",
                       "diffusion solves without the diffusion preconditioner")

    if "balance" in record:
        b = record["balance"]
        if check_fields(b, {
            "source": "num", "inflow": "num", "absorption": "num",
            "leakage": "num", "residual": "num", "relative": "num",
        }, f"{path}.balance") and all(is_num(b[k]) and b[k] is not None for k in
                                      ("source", "inflow", "absorption", "leakage", "residual")):
            # The fission term only exists in keff records (older records
            # omit it entirely, keeping their bytes frozen).
            fission = b.get("fission", 0.0)
            expect(is_num(fission) and fission is not None,
                   f"{path}.balance.fission", "expected a number")
            closure = (b["source"] + b["inflow"] + fission
                       - b["absorption"] - b["leakage"])
            expect(abs(closure - b["residual"]) <= 1e-12 * max(1.0, abs(b["source"]), abs(fission)),
                   f"{path}.balance",
                   "residual does not match source+inflow+fission-absorption-leakage")
        if mode == "keff":
            ng = record.get("configuration", {}).get("ng")
            expect("fission" in b, f"{path}.balance",
                   "keff records carry the fission ledger")
            for key, total in (("group_source", "source"),
                               ("group_inflow", "inflow"),
                               ("group_fission", "fission"),
                               ("group_absorption", "absorption"),
                               ("group_leakage", "leakage")):
                groups = b.get(key)
                if not expect(isinstance(groups, list) and all(is_num(x) for x in groups),
                              f"{path}.balance.{key}", "expected an array of numbers"):
                    continue
                expect(len(groups) == ng, f"{path}.balance.{key}",
                       f"expected {ng} per-group entries, got {len(groups)}")
                if all(x is not None for x in groups) and is_num(b.get(total)) \
                        and b.get(total) is not None:
                    expect(abs(sum(groups) - b[total]) <= 1e-9 * max(1.0, abs(b[total])),
                           f"{path}.balance.{key}",
                           f"per-group entries do not sum to {total}")

    if "flux" in record:
        f = record["flux"]
        if check_fields(f, {"group_averages": "numlist", "min": "num",
                            "max": "num", "total": "num"}, f"{path}.flux"):
            ng = record.get("configuration", {}).get("ng")
            expect(len(f["group_averages"]) == ng, f"{path}.flux.group_averages",
                   f"expected {ng} group averages, got {len(f['group_averages'])}")

    if "decomposition" in record:
        d = record["decomposition"]
        if check_fields(d, {
            "px": "int", "py": "int", "pz": "int", "exchange": "str",
            "pipeline_stages": "int", "lagged_rank_edges": "int",
            "modelled_pipeline_efficiency": "num",
            "mean_idle_fraction": "num", "max_idle_fraction": "num",
            "rank_idle_seconds": "numlist", "rank_sweep_seconds": "numlist",
        }, f"{path}.decomposition"):
            ranks = d["px"] * d["py"] * d["pz"]
            expect(len(d["rank_idle_seconds"]) == ranks,
                   f"{path}.decomposition.rank_idle_seconds",
                   f"expected {ranks} entries")
            expect(0.0 <= d["mean_idle_fraction"] <= d["max_idle_fraction"]
                   <= 1.0,
                   f"{path}.decomposition",
                   "expected 0 <= mean_idle_fraction <= max_idle_fraction "
                   "<= 1")

    if "scale" in record:
        s = record["scale"]
        if check_fields(s, {
            "px": "int", "py": "int", "pz": "int", "ranks": "int",
            "rank_work": "num", "hop_latency": "num",
        }, f"{path}.scale"):
            expect(s["ranks"] == s["px"] * s["py"] * s["pz"],
                   f"{path}.scale.ranks", "ranks != px*py*pz")
            orderings = s.get("orderings", [])
            if expect(isinstance(orderings, list) and len(orderings) > 0,
                      f"{path}.scale.orderings",
                      "expected a non-empty ordering array"):
                for i, o in enumerate(orderings):
                    if not check_fields(o, {
                        "ordering": "str", "pipeline_stages": "int",
                        "makespan": "num", "fill_time": "num",
                        "drain_time": "num", "efficiency": "num",
                        "mean_occupancy": "num", "peak_occupancy": "num",
                        "mean_idle_fraction": "num",
                        "max_idle_fraction": "num",
                    }, f"{path}.scale.orderings[{i}]"):
                        continue
                    expect(o["ordering"] in ("sequential", "interleaved"),
                           f"{path}.scale.orderings[{i}].ordering",
                           f"unknown ordering {o['ordering']!r}")
                    expect(0.0 < o["efficiency"] <= 1.0,
                           f"{path}.scale.orderings[{i}].efficiency",
                           "efficiency outside (0, 1]")

    if mode == "time":
        if expect("time" in record, path, "mode time requires a time block"):
            t = record["time"]
            check_fields(t, {"initial_density": "num"}, f"{path}.time")
            steps = t.get("steps", [])
            expect(isinstance(steps, list) and len(steps) > 0,
                   f"{path}.time.steps", "expected a non-empty step array")
            for i, step in enumerate(steps):
                check_fields(step, {"time": "num", "total_density": "num",
                                    "inners": "int"}, f"{path}.time.steps[{i}]")

    if mode == "mms":
        if expect("mms" in record, path, "mode mms requires an mms block"):
            check_fields(record["mms"], {"l2_error": "num"}, f"{path}.mms")

    if mode == "keff":
        expect("keff" in record, path, "mode keff requires a keff block")
    if "keff" in record:
        k = record["keff"]
        if check_fields(k, {
            "k": "num", "converged": "bool", "outers": "int",
            "dominance_ratio": "num", "final_k_change": "num",
            "final_fission_change": "num", "extrapolated": "bool",
            "k_history": "numlist",
        }, f"{path}.keff"):
            expect(mode == "keff", f"{path}.keff",
                   f"keff block in a mode {mode!r} record")
            expect(k["k"] is not None and k["k"] > 0, f"{path}.keff.k",
                   "non-positive eigenvalue")
            history = k["k_history"]
            expect(len(history) == k["outers"], f"{path}.keff.k_history",
                   f"{len(history)} entries for {k['outers']} outers")
            # The iteration block is the power iteration's: one
            # fission-source change per outer.
            inner = record.get("iteration", {}).get("inner_history")
            expect(isinstance(inner, list) and len(inner) == k["outers"],
                   f"{path}.iteration.inner_history",
                   f"{len(inner) if isinstance(inner, list) else 'no'} "
                   f"entries for {k['outers']} outers")
            expect(len(history) > 0 and history[-1] == k["k"],
                   f"{path}.keff.k_history",
                   "history does not end at the reported k")
            # Monotone-tail sanity: the power iteration contracts, so the
            # largest k step must not sit in the back half of the history.
            changes = [abs(b - a) for a, b in zip(history, history[1:])
                       if a is not None and b is not None]
            if len(changes) >= 4:
                half = len(changes) // 2
                expect(max(changes[half:]) <= max(changes[:half]) + 1e-30,
                       f"{path}.keff.k_history",
                       "k steps grow in the tail (diverging power iteration?)")
        groupsets = k.get("groupsets")
        if expect(isinstance(groupsets, list) and len(groupsets) > 0,
                  f"{path}.keff.groupsets",
                  "expected a non-empty groupset array"):
            ng = record.get("configuration", {}).get("ng")
            next_lo = 0
            for i, s in enumerate(groupsets):
                if not check_fields(s, {"lo": "int", "hi": "int",
                                        "sweeps": "int"},
                                    f"{path}.keff.groupsets[{i}]"):
                    continue
                expect(s["lo"] == next_lo, f"{path}.keff.groupsets[{i}].lo",
                       f"sets must tile the groups (expected lo {next_lo})")
                expect(s["hi"] >= s["lo"], f"{path}.keff.groupsets[{i}].hi",
                       "hi below lo")
                next_lo = s["hi"] + 1
            expect(next_lo == ng, f"{path}.keff.groupsets",
                   f"sets end at group {next_lo - 1}, configuration says "
                   f"ng = {ng}")

    # Traced runs (`unsnap --trace`) embed a summary of the span trace.
    # The block is optional — an untraced record must simply not have it.
    if "observability" in record:
        o = record["observability"]
        if check_fields(o, {"events": "int", "dropped": "int",
                            "threads": "int"}, f"{path}.observability"):
            expect(o["events"] >= 0 and o["dropped"] >= 0,
                   f"{path}.observability", "negative event/drop counts")
            expect((o["threads"] > 0) == (o["events"] > 0),
                   f"{path}.observability",
                   "thread count inconsistent with event count")
        phases = o.get("phases", [])
        expect(isinstance(phases, list), f"{path}.observability.phases",
               "expected an array of phase summaries")
        total_events = 0
        for i, phase in enumerate(phases):
            ppath = f"{path}.observability.phases[{i}]"
            if not check_fields(phase, {
                "name": "str", "count": "int", "total_seconds": "num",
                "min_seconds": "num", "max_seconds": "num",
                "p50_seconds": "num", "p95_seconds": "num",
                "p99_seconds": "num",
            }, ppath):
                continue
            total_events += phase["count"]
            expect(phase["count"] >= 1, ppath, "empty phase in the summary")
            quantiles = [phase["min_seconds"], phase["p50_seconds"],
                         phase["p95_seconds"], phase["p99_seconds"],
                         phase["max_seconds"]]
            expect(all(a <= b for a, b in zip(quantiles, quantiles[1:])),
                   ppath, "quantiles are not monotone (min<=p50<=p95<=p99<=max)")
            expect(phase["total_seconds"] >= phase["max_seconds"] - 1e-12,
                   ppath, "total below the maximum sample")
        if isinstance(o.get("events"), int):
            expect(total_events == o["events"], f"{path}.observability",
                   f"phase counts sum to {total_events}, "
                   f"events says {o['events']}")


def check_serve_envelope(envelope, path):
    """An unsnapd result envelope: service metadata wrapping the record."""
    check_fields(envelope, {
        "ok": "bool", "id": "str", "state": "str", "cache_hit": "bool",
        "digest": "str", "queued_seconds": "num", "run_seconds": "num",
    }, path)
    state = envelope.get("state")
    expect(state in ("done", "failed", "cancelled"), f"{path}.state",
           f"result envelopes are terminal, got {state!r}")
    digest = envelope.get("digest", "")
    expect(isinstance(digest, str) and len(digest) == 16 and
           all(c in "0123456789abcdef" for c in digest),
           f"{path}.digest", "expected 16 lowercase hex digits")
    if state == "done":
        if expect("record" in envelope, path,
                  "state done requires an embedded record"):
            check_record(envelope["record"], f"{path}.record")
    else:
        expect("error" in envelope, path,
               f"state {state} requires an error field")


def check_bench_file(bench, path):
    """A BENCH_*.json artifact: provenance + a runs array of records."""
    check_fields(bench, {"bench": "str", "unsnap": "str"}, path)
    runs = bench.get("runs", [])
    if expect(isinstance(runs, list) and len(runs) > 0, f"{path}.runs",
              "expected a non-empty array of embedded records"):
        for i, record in enumerate(runs):
            check_record(record, f"{path}.runs[{i}]")
    # bench_sweep records its traced-vs-untraced throughput probe; when
    # the block is there, the numbers must be internally consistent.
    if "obs_overhead" in bench:
        o = bench["obs_overhead"]
        if check_fields(o, {
            "scheme": "str", "threads": "int", "sweeps": "int",
            "untraced_elements_per_second": "num",
            "traced_elements_per_second": "num",
            "overhead_percent": "num",
        }, f"{path}.obs_overhead"):
            expect(o["untraced_elements_per_second"] > 0 and
                   o["traced_elements_per_second"] > 0,
                   f"{path}.obs_overhead", "non-positive throughput")
            ratio = 1.0 - (o["traced_elements_per_second"] /
                           o["untraced_elements_per_second"])
            expect(abs(ratio * 100.0 - o["overhead_percent"]) < 1e-6,
                   f"{path}.obs_overhead",
                   "overhead_percent does not match the throughputs")

    # bench_serve embeds the daemon's own latency ledger.
    if "daemon_latency_s" in bench:
        for which in ("queue_wait", "run_seconds"):
            check_fields(bench["daemon_latency_s"].get(which, {}), {
                "count": "int", "sum_seconds": "num", "p50_seconds": "num",
                "p95_seconds": "num", "p99_seconds": "num",
            }, f"{path}.daemon_latency_s.{which}")

    # Committed benchmark numbers must be reproducible from the named
    # commit: a "-dirty" describe means the tree that produced them was
    # never committed at all.
    expect("-dirty" not in bench.get("unsnap", ""), f"{path}.unsnap",
           "benchmark produced by a dirty tree (rebuild from a clean "
           "checkout and regenerate)")
    for i, record in enumerate(runs):
        if isinstance(record, dict):
            describe = record.get("unsnap", {}).get("git_describe", "")
            expect("-dirty" not in describe,
                   f"{path}.runs[{i}].unsnap.git_describe",
                   "record produced by a dirty tree")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    for filename in argv[1:]:
        try:
            with open(filename, encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            print(f"check_run_json: {filename}: {err}")
            return 1
        if isinstance(record, dict) and "id" in record and "state" in record:
            check_serve_envelope(record, filename)
        elif isinstance(record, dict) and "bench" in record:
            check_bench_file(record, filename)
        else:
            check_record(record, filename)
    if FAILURES:
        for failure in FAILURES:
            print(f"check_run_json: {failure}")
        print(f"check_run_json: {len(FAILURES)} violation(s)")
        return 1
    print(f"check_run_json: {len(argv) - 1} record(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
