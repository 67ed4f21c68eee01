"""Self-tests of the benchmark's own code, at tiny sizes.

Run from the repository root::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "rack32_incast": {"nics": 4, "frames": 2, "gap_ns": 1000,
                      "prop_ns": 8000, "workers": 1},
    "rack32_incast_w2": {"nics": 4, "frames": 2, "gap_ns": 1000,
                         "prop_ns": 8000, "workers": 2},
    "kvs_offload": {"requests": 30, "hot_keys": 8},
    "lb_drain32": {"nics": 7, "backends": 3, "frames": 5, "slots": 256,
                   "drain_backend": 2, "drain_us": 20, "drop_p": 0.05},
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SIM = ("latency_p50_us", "latency_p99_us", "class_p99_us")


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced tiny record per workload (seed 1)."""
    return {
        (name, trace): run.measure(name, 1, 0.01, trace, size=TINY[name])
        for name in workloads.WORKLOADS for trace in (False, True)
    }


def _value(record, metric):
    return record["metrics"][metric]["value"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    for listed in doc["workloads"]:
        assert listed["why"] == workloads.WORKLOADS[listed["name"]].why
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    names = [m["name"] for section in ("workloads", "end_to_end",
                                       "per_layer") for m in doc[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in doc["end_to_end"] if m["name"] == "setup_s").items()


def test_every_metric_is_emitted_with_its_unit(records):
    for (name, trace), record in records.items():
        assert record["correct"], (name, record["violations"])
        assert record["failed"] == 0 and record["attempted"] > 0
        table = run.PER_LAYER if trace else run.END_TO_END
        assert {k: m["unit"] for k, m in record["metrics"].items()} == table
        for key, metric in record["metrics"].items():
            assert math.isfinite(metric["value"]), (name, key)
            if not trace:
                assert metric["value"] > 0, (name, key)


def test_sim_metrics_repeat_for_a_seed_and_follow_it(records):
    for name in workloads.WORKLOADS:
        again = run.measure(name, 1, 0.01, False, size=TINY[name])
        other = run.measure(name, 2, 0.01, False, size=TINY[name])
        first = records[(name, False)]
        assert [_value(again, k) for k in SIM] == \
            [_value(first, k) for k in SIM], name
        assert [_value(other, k) for k in SIM] != \
            [_value(first, k) for k in SIM], name


#: Per-layer counts that must be non-zero (and zero) on each workload.
USED = {
    "rack32_incast": ("noc.sends", "noc.express_flights", "rmt.traversals",
                      "engines.services", "sched.pifo_ops", "packet.builds",
                      "host.deliveries", "wire.frames"),
    "rack32_incast_w2": ("shard.rounds", "shard.busy_max_s", "noc.sends",
                         "rmt.traversals", "wire.frames"),
    "kvs_offload": ("packet.parses", "packet.builds", "rmt.traversals",
                    "engines.services", "host.deliveries",
                    "host.interrupts", "noc.sends"),
    "lb_drain32": ("rmt.memo_invalidations", "reliability.retransmits",
                   "reliability.ll_repairs", "wire.drops", "lb.steered",
                   "lb.heartbeats", "reliability.goodput_ratio"),
}
UNUSED = {
    "rack32_incast": ("rmt.memo_invalidations", "reliability.retransmits",
                      "lb.steered", "shard.rounds"),
    "rack32_incast_w2": ("reliability.retransmits", "lb.steered"),
    "kvs_offload": ("wire.frames", "reliability.retransmits", "lb.steered",
                    "shard.rounds"),
    "lb_drain32": ("shard.rounds",),
}
#: Layers whose self time must be positive on each workload.
LAYERS_USED = {
    "rack32_incast": ("kernel", "noc", "rmt", "engines", "sched", "packet",
                      "host", "wire", "workload"),
    "rack32_incast_w2": ("kernel", "shard", "noc", "rmt", "engines", "wire"),
    "kvs_offload": ("kernel", "noc", "rmt", "engines", "sched", "packet",
                    "host", "workload"),
    "lb_drain32": ("kernel", "noc", "rmt", "engines", "wire", "reliability",
                   "lb"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_counts_show_where_work_happens(records, name):
    record = records[(name, True)]
    for metric in USED[name]:
        assert _value(record, metric) > 0, metric
    for metric in UNUSED[name]:
        assert _value(record, metric) == 0, metric
    for layer in LAYERS_USED[name]:
        assert _value(record, f"{layer}.self_s") > 0, layer


def test_ledger_sums_to_the_traced_wall(records):
    for (name, trace), record in records.items():
        for book in record["ledger"]:
            assert math.isclose(sum(book["self_s"].values()), book["wall_s"],
                                rel_tol=1e-9)
            assert book["self_s"]["unattributed"] <= \
                run.LEDGER_GAP_MAX * book["wall_s"]
        if trace:
            assert _value(record, "trace.overhead_frac") > -1


def test_rack_check_counts_a_lost_and_a_doubled_frame():
    size = TINY["rack32_incast"]
    result = workloads.execute_rack(1, size)
    assert not workloads.outcome_rack(result, 1, size).violations
    broken = copy.deepcopy(result)
    deliveries = broken.reports["nic1"]["deliveries"]
    deliveries.append(deliveries[0])
    del broken.reports["nic2"]["deliveries"][0]
    outcome = workloads.outcome_rack(broken, 1, size)
    assert outcome.violations
    assert outcome.attempted - outcome.delivered == 2


def test_kvs_check_counts_an_unanswered_request():
    size = TINY["kvs_offload"]
    raw = workloads.execute_kvs(1, size)
    assert not workloads.outcome_kvs(raw, 1, size).violations
    raw.egress = raw.egress[1:]
    outcome = workloads.outcome_kvs(raw, 1, size)
    assert outcome.violations and outcome.delivered < outcome.attempted


def test_lb_check_runs_the_chaos_invariants():
    size = TINY["lb_drain32"]
    result = workloads.execute_lb(1, size)
    assert not workloads.outcome_lb(result, 1, size).violations
    result.reports["nic0"]["steering"]["stats"]["bypass"] = 1
    assert any("affinity" in v
               for v in workloads.outcome_lb(result, 1, size).violations)


def test_compare_prints_both_sides(records, tmp_path):
    for side in ("before", "after"):
        os.makedirs(tmp_path / side)
        for (name, trace), record in records.items():
            with open(tmp_path / side / f"{name}-s1-t{int(trace)}.json",
                      "w") as fh:
                json.dump(record, fh)
    out = io.StringIO()
    compare.report(compare.load(tmp_path / "before"),
                   compare.load(tmp_path / "after"), out=out)
    text = out.getvalue()
    for name in workloads.WORKLOADS:
        assert f"{name}: end-to-end" in text
        assert f"{name}: per layer" in text
    assert "frames_per_s" in text and "noc.self_s" in text


def test_git_sha_without_a_repository(tmp_path):
    assert run.git_sha(str(tmp_path)) == "unknown"
