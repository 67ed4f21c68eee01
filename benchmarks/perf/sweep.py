"""Multi-seed, multi-config perf sweep on all cores.

Fans every (workload, seed, batch) combination out with
:func:`repro.sim.shard.parallel_map` -- the same pipe-fed worker pool
the sharded rack runner uses -- each combination being an independent
deterministic simulation, and writes one aggregated JSON with
per-combination wall times plus per-workload summaries, across seeds,
of the batched lane's speedup over the scalar run.

Usage::

    PYTHONPATH=src python benchmarks/perf/sweep.py \
        --seeds 1,2,3 [--workloads a,b] [--frames N] [--jobs 8] \
        [--out BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import WORKLOADS

from repro.sim.shard import parallel_map


def _run_combo(combo):
    """Worker: one (workload, seed, batch, frames) simulation."""
    name, seed, batch, frames = combo
    kwargs = {"seed": seed, "batch": batch}
    if frames is not None:
        kwargs["frames"] = frames
    result = WORKLOADS[name](**kwargs)
    return {"workload": name, "seed": seed, "batch": batch, **result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_sweep.json")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=os.cpu_count())
    args = parser.parse_args(argv)

    names = (list(WORKLOADS) if args.workloads == "all"
             else [n.strip() for n in args.workloads.split(",") if n.strip()])
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {unknown}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    combos = [
        (name, seed, batch, args.frames)
        for name in names
        for seed in seeds
        for batch in (False, True)
    ]
    runs = parallel_map(_run_combo, combos, jobs=args.jobs)

    summary = {}
    for name in names:
        speedups = []
        for seed in seeds:
            by_batch = {
                r["batch"]: r for r in runs
                if r["workload"] == name and r["seed"] == seed
            }
            speedups.append(
                by_batch[False]["wall_seconds"]
                / by_batch[True]["wall_seconds"]
            )
        summary[name] = {
            "seeds": seeds,
            "speedup_wall_batched_min": round(min(speedups), 3),
            "speedup_wall_batched_mean": round(
                sum(speedups) / len(speedups), 3),
            "speedup_wall_batched_max": round(max(speedups), 3),
        }
        print(f"{name}: batched speedup across seeds {seeds}: "
              f"min {summary[name]['speedup_wall_batched_min']}x / "
              f"mean {summary[name]['speedup_wall_batched_mean']}x / "
              f"max {summary[name]['speedup_wall_batched_max']}x")

    with open(args.out, "w") as fh:
        json.dump({"bench": "kernel_sweep", "jobs": args.jobs,
                   "runs": runs, "summary": summary},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
