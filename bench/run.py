"""The repository benchmark: delivered units per wall-second on the
simulator's workloads, with a per-layer wall-time ledger.

Usage (from the repository root)::

    python3 bench/run.py --workload rack32_incast --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` repeats untraced runs of the workload for ``--seconds``
and prints the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics of the traced ones (``ledger.py``).  Every run's
outputs are checked; a failed check counts the run's units as failed
and makes the command exit 1.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

A stamped result file (git sha, configuration hash, seed, core count,
Python version, per-run values, check results, ledger) goes to
``.bench_out/``; a traced run also writes its spans there.
``bench/compare.py`` compares two sets of result files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ledger  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")

#: End-to-end metrics (``--trace 0``): name -> unit.  Host time unless
#: the unit says ``sim``.
END_TO_END = {
    "frames_per_s": "frames/s",
    "sim_us_per_s": "sim-us/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_us": "sim-us",
    "latency_p99_us": "sim-us",
    "class_p99_us": "sim-us",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "kernel.events": "count",
    "kernel.events_per_frame": "ratio",
    "shard.rounds": "count",
    "shard.busy_max_s": "s",
    "shard.barrier_wait_s": "s",
    "shard.busy_imbalance": "ratio",
    "noc.sends": "count",
    "noc.express_flights": "count",
    "noc.express_fallback_ratio": "ratio",
    "noc.credit_stalls": "count",
    "rmt.traversals": "count",
    "rmt.memo_hit_ratio": "ratio",
    "rmt.memo_invalidations": "count",
    "engines.services": "count",
    "engines.queue_wait_p99_ns": "sim-ns",
    "sched.pifo_ops": "count",
    "sched.pifo_max_depth": "count",
    "packet.parses": "count",
    "packet.builds": "count",
    "host.deliveries": "count",
    "host.interrupts": "count",
    "wire.frames": "count",
    "wire.drops": "count",
    "reliability.retransmits": "count",
    "reliability.rtos": "count",
    "reliability.ll_repairs": "count",
    "reliability.goodput_ratio": "ratio",
    "lb.steered": "count",
    "lb.affinity_hit_ratio": "ratio",
    "lb.heartbeats": "count",
    **{f"{layer}.self_s": "s" for layer in ledger.LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
}

#: Work counts taken from wrapper call counts: metric -> functions.
CALL_COUNTS = {
    "noc.sends": ("repro.noc.mesh.NocPort.send",
                  "repro.noc.mesh.NocPort.send_message"),
    "noc.express_flights": ("repro.noc.express.ExpressFlight.__init__",),
    "rmt.traversals": ("repro.rmt.pipeline.RmtPipeline.process",),
    "sched.pifo_ops": ("repro.sched.pifo.PifoQueue.push",
                       "repro.sched.pifo.PifoQueue.pop",
                       "repro.sched.pifo.PifoQueue.transit",
                       "repro.sched.pifo.PifoQueue.pop_batch"),
    "packet.parses": ("repro.packet.builder.parse_frame",),
}
#: A flight that falls back to the per-hop path rebuilds exactly one
#: in-progress hop.
EXPRESS_FALLBACK = "repro.noc.channel.Channel._materialize_transfer"
FRAME_BUILDERS = "repro.packet.builder.build_"

#: The ROADMAP aim-1 gate: layers must account for the traced wall
#: within this share.
LEDGER_GAP_MAX = 0.05


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


class Run:
    """One execution of a workload and what the benchmark read off it."""

    def __init__(self, workload, seed: int, size: dict,
                 clock: workloads.RunClock, tracer: ledger.Tracer = None):
        gc.collect()
        if tracer is None:
            with clock:
                start = time.perf_counter()
                raw = workload.execute(seed, size)
                self.wall_s = time.perf_counter() - start
            self.setup_s = clock.first_entry - start
            self.loop_s = clock.last_exit - clock.first_entry
            self.ledger = None
        else:
            tracer.reset()
            tracer.install()
            try:
                root = tracer.open_root()
                raw = workload.execute(seed, size)
                self.wall_s = tracer.close_root(root)
            finally:
                tracer.uninstall()
            logs = tracer.collect()
            self.ledger = ledger.ledger(tracer, logs)
            self.logs = logs
        self.outcome = workload.outcome(raw, seed, size)
        self.shard_rounds = getattr(raw, "rounds", 0)
        who = (resource.RUSAGE_CHILDREN if workload.sharded
               else resource.RUSAGE_SELF)
        self.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    @property
    def failed(self) -> int:
        out = self.outcome
        return out.attempted if out.violations else \
            out.attempted - out.delivered

    def end_to_end(self) -> dict:
        out = self.outcome
        return {
            "frames_per_s": out.delivered / self.loop_s,
            "sim_us_per_s": out.final_ps / 1e6 / self.loop_s,
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "latency_p50_us": workloads.percentile(out.latencies_us, 50),
            "latency_p99_us": workloads.percentile(out.latencies_us, 99),
            "class_p99_us": workloads.percentile(out.class_latencies_us, 99),
        }

    def per_layer(self) -> dict:
        """Per-layer metrics of a traced run, except the overhead."""
        book = self.ledger
        calls = book["calls"]
        out = self.outcome

        def count(names):
            return sum(calls.get(name, 0) for name in names)

        metrics = {name: count(names) for name, names in CALL_COUNTS.items()}
        flights = metrics["noc.express_flights"]
        metrics["noc.express_fallback_ratio"] = (
            calls.get(EXPRESS_FALLBACK, 0) / flights if flights else 0.0)
        metrics["packet.builds"] = sum(
            n for name, n in calls.items() if name.startswith(FRAME_BUILDERS))
        metrics["kernel.events"] = out.events
        metrics["kernel.events_per_frame"] = (
            out.events / out.delivered if out.delivered else 0.0)
        metrics.update(out.counters)
        busy = book["busy_s"] if self.shard_rounds else []
        metrics["shard.rounds"] = self.shard_rounds
        metrics["shard.busy_max_s"] = max(busy, default=0.0)
        metrics["shard.barrier_wait_s"] = (
            self.wall_s - max(busy) if busy else 0.0)
        metrics["shard.busy_imbalance"] = (
            max(busy) / statistics.mean(busy) if busy else 0.0)
        for layer, seconds in book["self_s"].items():
            if layer != "unattributed":
                metrics[f"{layer}.self_s"] = seconds
        metrics["trace.unattributed_s"] = book["self_s"]["unattributed"]
        metrics["trace.wall_s"] = book["wall_s"]
        return metrics

    def ledger_violations(self) -> list:
        """Conservation: layer self times plus the unattributed time sum
        to the traced wall; layers cover all but ``LEDGER_GAP_MAX``."""
        book = self.ledger
        total = sum(book["self_s"].values())
        wall = book["wall_s"]
        found = []
        if not math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-9):
            found.append(f"ledger: self times sum to {total:.6f} s, "
                         f"traced wall is {wall:.6f} s")
        if book["self_s"]["unattributed"] > LEDGER_GAP_MAX * wall:
            found.append(
                f"ledger: {book['self_s']['unattributed']:.4f} s of "
                f"{wall:.4f} s attributed to no layer")
        return found


# ----------------------------------------------------------------------
# Repeating runs for --seconds
# ----------------------------------------------------------------------


def _repeat(seconds: float, step) -> None:
    """Call ``step()`` until the next call would overrun ``seconds``
    (at least once)."""
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: dict = None, spans_path: str = None) -> dict:
    """Run ``name`` for ``seconds`` and return the result record."""
    workload = workloads.WORKLOADS[name]
    size = dict(workloads.SIZES[name] if size is None else size)
    reference = []          # the first untraced run's comparable outputs
    violations = []
    totals = {"attempted": 0, "failed": 0}
    plain, traced, books = [], [], []     # rows of metrics, ledgers
    walls = {False: [], True: []}
    clock = workloads.RunClock()

    def settle(run: Run, is_traced: bool) -> None:
        """Check one run and keep only its numbers, so retained outputs
        neither grow the heap nor move ``peak_rss_mb``."""
        out = run.outcome
        violations.extend(out.violations)
        totals["attempted"] += out.attempted
        totals["failed"] += run.failed
        if not reference:
            reference.append(out.comparable)
        elif out.comparable != reference[0]:
            violations.append(
                "traced run's outputs differ from the untraced run's"
                if is_traced else "repeated runs of one seed differ")
        walls[is_traced].append(run.wall_s)
        if is_traced:
            violations.extend(run.ledger_violations())
            traced.append(run.per_layer())
            books.append(run.ledger)
        else:
            plain.append(run.end_to_end())

    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spool = os.path.join(OUT_DIR, f"spool-{os.getpid()}")
        os.makedirs(spool, exist_ok=True)
        tracer = ledger.Tracer(spool)

        def pair():
            settle(Run(workload, seed, size, clock), False)
            run = Run(workload, seed, size, clock, tracer)
            if spans_path is not None and not traced:
                ledger.write_spans(spans_path, tracer, run.logs)
            del run.logs
            settle(run, True)

        try:
            _repeat(seconds, pair)
        finally:
            shutil.rmtree(spool, ignore_errors=True)
    else:
        _repeat(seconds,
                lambda: settle(Run(workload, seed, size, clock), False))

    if workload.sharded:
        mono = workload.outcome(
            workload.execute(seed, {**size, "workers": 1}), seed, size)
        if mono.comparable != reference[0]:
            violations.append("sharded outputs differ from the "
                              "monolithic run's")

    rows = traced if trace else plain
    median = statistics.median
    metrics = {key: median([row[key] for row in rows]) for key in rows[0]}
    if trace:
        metrics["trace.overhead_frac"] = (
            median(walls[True]) / median(walls[False]) - 1)
    units = PER_LAYER if trace else END_TO_END
    attempted = totals["attempted"]
    return {
        "workload": name,
        "trace": int(trace),
        "size": size,
        "correct": not violations,
        "attempted": attempted,
        "failed": attempted if violations else totals["failed"],
        "violations": violations,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
        "runs": rows,
        "ledger": books,
    }


# ----------------------------------------------------------------------
# Stamping and output
# ----------------------------------------------------------------------


def git_sha(root: str = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (so nothing outside the checkout is consulted); "unknown" without
    a ``.git`` directory."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(record: dict, seed: int, seconds: float) -> dict:
    config = json.dumps({"workload": record["workload"],
                         "size": record["size"], "seconds": seconds},
                        sort_keys=True)
    return {
        "git_sha": git_sha(),
        "config_hash": hashlib.sha256(config.encode()).hexdigest()[:16],
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(
        OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    spans = base + ".spans.pkl.gz" if args.trace else None
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), spans_path=spans)
    record["stamp"] = stamp(record, args.seed, args.seconds)
    with open(base + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for violation in record["violations"]:
        print(f"CHECK FAILED: {violation}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(record['runs'])} cpus={os.cpu_count()}")
    for key, metric in record["metrics"].items():
        print(f"  {key:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':28s} "
          f"{record['failed'] / record['attempted']:>16.6g} ratio")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
