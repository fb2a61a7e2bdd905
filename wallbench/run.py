"""wallcross benchmark: one workload, one seed, untraced or traced.

    python3 wallbench/run.py --workload chamber_walk --seed 1 --seconds 28 --trace 0

Run from any directory; the checkout is the parent of this file's directory
and wallcross is imported from its src/.  Every set-up and run happens in a
fresh interpreter (worker.py).  With --trace 0 the result holds the
end-to-end metrics of BENCHMARK.json, measured with no tracing installed;
with --trace 1 it holds the per-layer metrics of a traced run over a fixed
corpus, plus the tracing overhead against an untraced pass over the same
corpus.  Human-readable lines come first; the last line of standard output
is one JSON object.  The full record of the run, with the machine, core
count and Python version, goes to .wallbench-out/ in the checkout.

    python3 wallbench/run.py --write-digests

recomputes wallbench/digests.json, the canonical-output digests of every
workload's fixed corpus for the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS
from worker import REF_NOMINAL_S, host_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".wallbench-out"
WORKLOADS = ("chamber_walk", "flat_stability", "subdivision", "cli_batch")
DEFAULT_SEED = 1
#: Fresh-interpreter set-ups per untimed run; setup_s is their median.
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150


def spawn(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return its result object."""
    ref = host_reference()
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--started", repr(started), "--started-ref", repr(ref), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        raise SystemExit("worker %s %s failed with exit code %d" % (mode, workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "system": "%s %s" % (platform.system(), platform.release()),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
    }


def untraced(args) -> tuple[dict, dict, list[str]]:
    extra = ["--seconds", str(args.seconds)]
    if args.max_ops:
        extra += ["--ops", str(args.max_ops)]
    setups = [spawn("setup", args.workload, args.seed, *extra) for _ in range(SETUP_RUNS - 1)]
    run = spawn("measure", args.workload, args.seed, *extra)
    setups.append(run)
    run["setup_runs"] = [{k: s[k] for k in ("setup_s", "setup_raw_s")} for s in setups]
    metrics = {k: run[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms",
                                   "cpu_ms_per_op", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    refs = run["references"]
    notes = [
        "%d ops in %.2f s of measured time, closed loop, 1 client: %d inputs in %.2f rounds;"
        " times scaled to the reference host speed, then averaged per input" % (
            run["ops"], run["measured_s"], run["inputs"], run["rounds"]),
        "reference computation (%.3f ms nominal): %d runs, min %.3f ms, median %.3f ms,"
        " max %.3f ms" % (1000 * REF_NOMINAL_S, refs["count"], refs["min_ms"],
                          refs["median_ms"], refs["max_ms"]),
        "latency_p90_ms has %d inputs beyond it%s" % (
            run["beyond_p90"], "" if run["beyond_p90"] >= 10 else " (fewer than ten)"),
        "unscaled, over all ops: ops_per_s %.4g, latency_p50_ms %.4g, latency_p90_ms %.4g" % (
            run["all_ops"]["ops_per_s"], run["all_ops"]["latency_p50_ms"],
            run["all_ops"]["latency_p90_ms"]),
        "failed_ratio %.4f (%d failed of %d attempted)" % (
            run["failed"] / run["ops"], run["failed"], run["ops"]),
        "setup_s is the median of %d scaled set-ups: %s (unscaled %s)" % (
            len(setups), ", ".join("%.3f" % s["setup_s"] for s in setups),
            ", ".join("%.3f" % s["setup_raw_s"] for s in setups)),
    ]
    for probe in run["probes"]:
        notes.append("untimed probe, %s -> %s%s" % (
            probe["name"], probe["outcome"], "" if probe["ok"] else "  [KNOWN DEFECT]"))
    return run, metrics, notes


def traced(args) -> tuple[dict, dict, list[str]]:
    extra = ["--ops", str(args.max_ops)] if args.max_ops else []
    base = spawn("corpus", args.workload, args.seed, *extra)
    run = spawn("corpus", args.workload, args.seed, "--traced", *extra)
    layers = run["layers"]
    ops = base["ops"]
    metrics = dict(layers)
    metrics["trace.overhead_ratio"] = run["cpu_ms_per_op"] / base["cpu_ms_per_op"]
    metrics["trace.ops"] = ops
    metrics["trace.op_s"] = run["measured_s"]
    run["failed"] += base["failed"]
    run["ops"] += base["ops"]
    run["digests_checked"] = base["digests_checked"]
    run["digest_mismatches"] = base["digest_mismatches"] + run["digest_mismatches"]
    run["errors"] = base["errors"] + run["errors"]
    notes = [
        "fixed corpus of %d ops, traced twice; %d wrappers installed; work counts %s" % (
            ops, run["wrapped"], "repeat" if run["counts_repeat"] else "DIFFER between passes"),
        "untraced %.3f ms CPU per op, traced %.3f" % (base["cpu_ms_per_op"], run["cpu_ms_per_op"]),
    ]
    for layer in LAYERS:
        self_s = layers["%s.self_s" % layer]
        notes.append("self time %-11s %8.4f s  %5.1f%% of traced op time" % (
            layer, self_s, 100 * self_s / metrics["trace.op_s"]))
    counts = run["work_counts"]
    notes.append("epsfield.den1_share %.4f (%d of %d binary Q(e) operations)" % (
        layers["epsfield.den1_share"], counts.get("epsfield.den1_ops", 0),
        counts.get("epsfield.binary_ops", 0)))
    notes.append("mixedsub.fine_share %.4f (%d of %d subdivisions)" % (
        layers["mixedsub.fine_share"], counts.get("mixedsub.fine_subdivisions", 0),
        layers["mixedsub.subdivision_calls"]))
    return run, metrics, notes


def write_digests() -> int:
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        run = spawn("corpus", workload, DEFAULT_SEED)
        if run["failed"]:
            raise SystemExit("%s: %d operations failed; digests not written" % (workload, run["failed"]))
        doc["workloads"][workload] = run["digests"]
    (HERE / "digests.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="cap the operations of a run (smoke tests)")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wallcross" / "__init__.py").is_file():
        raise SystemExit("no wallcross source under %s" % (ROOT / "src"))
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run, metrics, notes = (traced if args.trace else untraced)(args)
    info = machine()
    props = ["share %s %.4f (%d of %d inputs)" % (name, hits / base if base else 0.0, hits, base)
             for name, (hits, base) in run["properties"].items()]
    digest_note = (
        "digests: %d ops checked against the committed digests for seed %d, %d differ %s" % (
            run["digests_checked"], DEFAULT_SEED, len(run["digest_mismatches"]),
            run["digest_mismatches"][:10])
        if args.seed == DEFAULT_SEED else
        "digests: committed for seed %d only, not checked" % DEFAULT_SEED)
    correct = (run["failed"] == 0 and not run["digest_mismatches"]
               and run.get("counts_repeat", True))

    print("wallbench %s seed=%d trace=%d  %s, %s, %s cores, Python %s" % (
        args.workload, args.seed, args.trace, info["processor"], info["system"],
        info["cores"], info["python"]))
    for m in wanted:
        print("  %-34s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    for line in notes + props + [digest_note] + run["errors"]:
        print("  " + line)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info, "metrics": metrics,
              "correct": correct, "notes": notes, "run": run}
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
