"""One benchmark process: set-up, then a timed loop or a fixed corpus.

run.py starts this file in a fresh interpreter for every set-up and every
run, and reads the JSON object it prints as its last line.  Modes:

  setup    import, input generation and warm-up, then report setup_s,
           scaled like the timed run by reference runs in the parent just
           before the start and in this process just after the set-up
  measure  set-up, then a closed loop with one client that runs the
           workload's fixed set of inputs in rounds, one after another,
           until --seconds of measured operation time
  corpus   set-up, then exactly --ops operations (the traced run's fixed
           corpus); with --traced, wrappers are installed and the corpus
           runs twice, and the two passes must repeat every work count

Every operation is timed alone, with wall and process CPU clocks, and its
answer is checked after the clocks stop: the first time an input runs,
against the workload's independent check; when it runs again, against the
digest of that first, checked answer.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: Error messages kept per run; the count of failures is always complete.
KEEP_ERRORS = 5
#: The reference computation's time on one unloaded core of a 2-vCPU x86_64
#: host under Python 3.11; timed runs report their times scaled to it.
REF_NOMINAL_S = 0.001
#: The timed run times the reference again after an operation once this
#: much time has passed since the last time, and once more at its end.
REF_EVERY_S = 0.05


def reference() -> tuple[float, float]:
    """Time a fixed computation, with the collector off: (wall, CPU) seconds.

    It is small-integer Fraction arithmetic, as most of wallcross is, and it
    calls nothing of wallcross, so its time tracks only the speed the shared
    host gives this process at the moment.
    """
    gc.disable()
    try:
        cpu0 = time.process_time()
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 470):
            total += Fraction(i % 97, i)
        return time.perf_counter() - start, time.process_time() - cpu0
    finally:
        gc.enable()


def host_reference() -> float:
    """Median wall time of five reference runs, after three untimed ones."""
    for _ in range(3):
        reference()
    return statistics.median(reference()[0] for _ in range(5))


def load_program():
    """Import wallcross from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import wallcross

    if Path(wallcross.__file__).resolve().parent != ROOT / "src" / "wallcross":
        raise SystemExit("wallcross was imported from %s, not from src/" % wallcross.__file__)
    return wallcross


def committed_digests(workload: str, seed: int) -> list[str]:
    if not DIGESTS.exists():
        return []
    doc = json.loads(DIGESTS.read_text())
    return doc["workloads"].get(workload, []) if doc["seed"] == seed else []


class Loop:
    """Runs operations one at a time and keeps what the run reports."""

    def __init__(self, workload, expected_digests, period, tracer=None, scaled=False):
        self.workload = workload
        self.expected = expected_digests
        #: Number of distinct inputs; operation i runs input i % period.
        self.period = period
        self.tracer = tracer
        #: Whether to time the reference between operations (timed run only).
        self.scaled = scaled
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        #: Reference timings (wall, CPU), when they were taken, and for each
        #: operation the index of the last reference before it.
        self.refs: list[tuple[float, float]] = []
        self.ref_at = 0.0
        self.ref_before: list[int] = []
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.mismatches: list[int] = []

    def reference(self) -> None:
        """Time the reference three times back to back and keep the means;
        a single 1 ms sample follows the host's millisecond swings."""
        runs = [reference() for _ in range(3)]
        self.refs.append((statistics.fmean(r[0] for r in runs),
                          statistics.fmean(r[1] for r in runs)))
        self.ref_at = time.perf_counter()

    def step(self, index: int, item) -> float:
        wl = self.workload
        if self.scaled:
            if not self.refs or time.perf_counter() - self.ref_at >= REF_EVERY_S:
                self.reference()
            self.ref_before.append(len(self.refs) - 1)
        wl.before(item)
        if self.tracer is not None:
            self.tracer.op = index
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = wl.run(item)
            error = None
        except Exception as exc:  # an escaping exception is a failed operation
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        self.cpu.append(time.process_time() - cpu0)
        self.latencies.append(elapsed)
        if self.tracer is None:
            self.judge(index, item, result, error)
        else:
            self.tracer.spans.append((index, "op", start, elapsed))
            self.tracer.active[0] = False
            try:
                passed, result = self.judge(index, item, result, error)
                if passed:
                    for name, value in wl.layer_counts(item, result).items():
                        self.tracer.add(name, value)
            finally:
                self.tracer.active[0] = True
        return elapsed

    def judge(self, index: int, item, result, error):
        """Untimed: check the answer and its digest; return (passed, result).

        An input's first answer goes through the workload's check; a repeat
        must reproduce the digest of the input's first, checked answer.
        """
        wl = self.workload
        slot = index % self.period
        digest = None
        if error is None:
            result = wl.collect(item, result)
            if slot < len(self.digests):
                digest = wl.digest(item, result)
                problems = [] if digest == self.digests[slot] else [
                    "answer differs from this input's first, checked answer"]
            else:
                try:
                    problems = wl.check(item, result)
                except Exception as exc:  # an answer too malformed to check is wrong
                    problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
        else:
            problems = [error]
        if problems:
            self.failed += 1
            if len(self.errors) < KEEP_ERRORS:
                self.errors.append("op %d: %s" % (index, "; ".join(problems)))
            return False, result
        if slot == len(self.digests):
            self.digests.append(digest or wl.digest(item, result))
            if slot < len(self.expected) and self.digests[slot] != self.expected[slot]:
                self.mismatches.append(slot)
        return True, result

    def summary(self) -> dict:
        """Metrics over each input's mean time.

        Every input runs once per round, and the rounds follow one another
        through the run.  In the timed run each operation's wall and CPU
        times are first scaled by REF_NOMINAL_S over the mean time of the
        references just before and after it.  That takes out the speed the
        shared host gave the process at that moment: on a 2-vCPU host,
        identical work ran up to 1.8 times slower between runs minutes
        apart, and the scaled times of the same runs spread by a fifth as
        much.  Latencies, throughput and CPU time are then taken over each
        input's mean scaled time, so every run of a seed weighs the same
        inputs once, however many rounds it completed.  The unscaled
        figures over every operation are kept under "all_ops".
        """
        latencies, cpu = self.latencies, self.cpu
        if self.scaled:
            local = [((self.refs[k][0] + self.refs[k + 1][0]) / 2,
                      (self.refs[k][1] + self.refs[k + 1][1]) / 2) for k in self.ref_before]
            latencies = [x * REF_NOMINAL_S / r for x, (r, _) in zip(latencies, local)]
            cpu = [x * REF_NOMINAL_S / r for x, (_, r) in zip(cpu, local)]
        inputs = min(self.period, len(latencies))
        per_input = [statistics.fmean(latencies[i::self.period]) for i in range(inputs)]
        per_input_cpu = [statistics.fmean(cpu[i::self.period]) for i in range(inputs)]
        out = {
            "ops": len(self.latencies),
            "failed": self.failed,
            "errors": self.errors,
            "measured_s": sum(self.latencies),
            "inputs": inputs,
            "rounds": len(self.latencies) / self.period,
            "cpu_ms_per_op": 1000 * sum(per_input_cpu) / inputs,
            "all_ops": _latency_stats(self.latencies),
            "digests": self.digests[: max(len(self.expected), self.workload.trace_ops)],
            "digests_checked": min(len(self.digests), len(self.expected)),
            "digest_mismatches": self.mismatches,
        }
        if self.scaled:
            walls = sorted(r for r, _ in self.refs)
            out["references"] = {"count": len(walls), "min_ms": 1000 * walls[0],
                                 "median_ms": 1000 * statistics.median(walls),
                                 "max_ms": 1000 * walls[-1]}
        out.update(_latency_stats(per_input))
        return out


def _latency_stats(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * p90,
        "beyond_p90": sum(1 for x in lat if x > p90),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "corpus"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None, help="operation count (corpus) or cap (measure)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--started-ref", type=float, required=True,
                        help="host_reference() in the parent just before it started this process")
    args = parser.parse_args(argv)

    wallcross = load_program()
    import workloads

    tracer = None
    if args.traced:
        import layertrace

        tracer = layertrace.Tracer()
    workdir = tempfile.mkdtemp(prefix=".wallbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload]()
        wl.setup(args.seed, workdir)
        if args.mode == "corpus":
            corpus = wl.corpus(args.ops or wl.trace_ops)
        else:
            corpus = wl.corpus(wl.corpus_size)
        for item in wl.warmup_items():
            wl.before(item)
            wl.collect(item, wl.run(item))
        setup_raw_s = time.monotonic() - args.started
        ref = (args.started_ref + host_reference()) / 2
        out = {"setup_s": setup_raw_s * REF_NOMINAL_S / ref, "setup_raw_s": setup_raw_s}
        if args.mode == "measure":
            out.update(measure(wl, corpus, args))
        elif args.mode == "corpus":
            if tracer is not None:
                out["wrapped"] = tracer.install(wallcross)
            out.update(corpus_passes(wl, corpus, args, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(wl, corpus, args) -> dict:
    """Rounds over the corpus until --seconds of operation time, and at
    least one whole round, so every input of the seed is measured."""
    if "layertrace" in sys.modules:
        raise SystemExit("the timed run must not run with tracing loaded")
    loop = Loop(wl, committed_digests(wl.name, args.seed), len(corpus), scaled=True)
    for _ in range(20):
        reference()
    measured = 0.0
    index = 0
    while ((measured < args.seconds or index < len(corpus))
           and (args.ops is None or index < args.ops)):
        measured += loop.step(index, corpus[index % len(corpus)])
        index += 1
    loop.reference()
    out = loop.summary()
    out["properties"] = wl.properties(corpus[: min(index, len(corpus))])
    out["probes"] = wl.probes()
    return out


def corpus_passes(wl, corpus, args, tracer) -> dict:
    expected = committed_digests(wl.name, args.seed)
    passes = []
    for _ in range(2 if tracer is not None else 1):
        if tracer is not None:
            tracer.reset()
        loop = Loop(wl, expected, len(corpus), tracer)
        for index, item in enumerate(corpus):
            loop.step(index, item)
        summary = loop.summary()
        if tracer is not None:
            summary["layers"] = tracer.metrics(len(corpus))
            summary["work_counts"] = tracer.work_counts()
            summary["spans"] = list(tracer.spans)
        passes.append(summary)
    out = passes[0]
    out["properties"] = wl.properties(corpus)
    if tracer is not None:
        second = passes[1]
        out["counts_repeat"] = out["work_counts"] == second["work_counts"]
        out["failed"] += second["failed"]
        out["ops"] += second["ops"]
        for key in ("cpu_ms_per_op", "measured_s"):
            out[key] = (out[key] + second[key]) / 2
        out["layers"] = {k: (v + second["layers"][k]) / 2 for k, v in out["layers"].items()}
    return out


if __name__ == "__main__":
    sys.exit(main())
