"""Compare two sets of benchmark result files.

Usage::

    python3 bench/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are directories holding ``bench/run.py`` result
files (``<workload>-s<seed>-t<trace>.json``, as written to
``.bench_out/``), typically one per seed.  For each workload and each
end-to-end metric, the report gives each side's median and quartiles
over its files and the change of the median.  For the per-layer metrics
of traced files it gives each side's median and the difference, so a
change can show in which layer its saving appears.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load(directory: str) -> dict:
    """``{(workload, trace): [record, ...]}`` for every result file."""
    records = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*-t[01].json"))):
        with open(path) as fh:
            record = json.load(fh)
        records[(record["workload"], record["trace"])].append(record)
    return records


def quartiles(values):
    """``(q1, median, q3)``; with one value all three are that value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(before: dict, after: dict, out=sys.stdout) -> None:
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        a, b = before[key], after[key]
        metrics = list(a[0]["metrics"])
        if trace == 0:
            print(f"\n{workload}: end-to-end ({len(a)} vs {len(b)} runs)",
                  file=out)
            print(f"  {'metric':24s} {'unit':9s} {'before q1/med/q3':34s} "
                  f"{'after q1/med/q3':34s} change", file=out)
            for metric in metrics:
                va, vb = _values(a, metric), _values(b, metric)
                if not va or not vb:
                    continue
                qa, qb = quartiles(va), quartiles(vb)
                change = (qb[1] / qa[1] - 1) if qa[1] else float("nan")
                unit = a[0]["metrics"][metric]["unit"]
                print(f"  {metric:24s} {unit:9s} "
                      f"{' / '.join(map(_fmt, qa)):34s} "
                      f"{' / '.join(map(_fmt, qb)):34s} {change:+.1%}",
                      file=out)
        else:
            print(f"\n{workload}: per layer ({len(a)} vs {len(b)} traced "
                  "runs; medians)", file=out)
            print(f"  {'metric':30s} {'before':>14s} {'after':>14s} "
                  f"{'delta':>14s}", file=out)
            for metric in metrics:
                va, vb = _values(a, metric), _values(b, metric)
                if not va or not vb:
                    continue
                ma, mb = statistics.median(va), statistics.median(vb)
                print(f"  {metric:30s} {_fmt(ma):>14s} {_fmt(mb):>14s} "
                      f"{_fmt(mb - ma):>14s}", file=out)
    for key in sorted(set(before) ^ set(after)):
        side = "before" if key in before else "after"
        print(f"\n{key[0]} (trace {key[1]}): only in {side}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    if not before or not after:
        print("no result files found", file=sys.stderr)
        return 2
    report(before, after)
    return 0


if __name__ == "__main__":
    sys.exit(main())
