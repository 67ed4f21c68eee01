"""Golden digests of the per-hop NoC path.

The NoC is store-and-forward with one router cycle per hop (DESIGN.md
section 7).  Its per-hop path fires one channel-completion event per
hop; every optimisation of that path must keep the same events in the
same order.  Each scenario below was recorded once on the reference
per-hop implementation, and the test asserts the current code
reproduces it exactly:

* ``events`` -- kernel events fired (pins the event schedule itself);
* ``now`` -- the final simulated instant in picoseconds;
* ``sha256`` -- a digest over every delivery with its picosecond
  timestamp, the full stats tree (``PanicNic.stats()`` or, for bare
  meshes, every channel and router counter), and each router's
  round-robin service order.

A mismatch means simulated behaviour changed.  If the change is
intended, re-record with ``PYTHONPATH=src python -m tests.test_noc_golden``
and explain the new numbers in the commit.
"""

import hashlib

import pytest

from repro.core import PanicConfig, PanicNic
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.packet import Packet, build_udp_frame
from repro.packet.packet import MessageKind
from repro.sim import Simulator
from repro.sim.clock import NS, US
from repro.sim.shard import run_monolithic
from repro.telemetry import TelemetryConfig
from repro.workloads.rack import rack_topology
from tests.test_noc_express_edges import (
    run_committed_hop_fault,
    run_zero_credit_window,
)

#: scenario -> (events fired, final now in ps, sha256 of the observables).
GOLDEN = {
    "chaining": (
        4670, 52626028,
        "93cd5b433977bc11a5391556d8fab0829195adfdb155a40e522eca897d4692f4"),
    "committed_hop_corruption": (
        14, 114000,
        "4d469c414fb75fbac0fdf5d5d33e4bf9710e9e0e7e42d4323a1a5a07ed47fa56"),
    "committed_hop_drop": (
        13, 108000,
        "13fefdd844bd8b3ebbd4f5d21d9662b7b6184257e03d6b3efdd6a91433d1187e"),
    "fault_recovery": (
        6574, 150088000,
        "e77ebdcd97e58e455785ed22fc7c0a789745e292a7845784ce881f99cc618abd"),
    "rack8_tag": (
        4856, 22978347,
        "083310e46d994bb61f967ca03a51728a9d1e2ae58385a4af4b23e75fe85ffbeb"),
    "traced_chain": (
        584, 22132178,
        "cb33f345082e2ef6378f55b0dfbcf8fede1757e94933d2dce77203abf115c67c"),
    "traced_chain_contended": (
        1165, 24364439,
        "fb7dc51b48e7dc585eb4dd7ddb2882f1c904a89d43384ddd439c87588c0a2d9d"),
    "zero_credit_window": (
        9, 138000,
        "c8f36fc9986037f3eb9389ed8701d42a1cc0cc907f3e6932adc6cf42a7f296fc"),
}


# ----------------------------------------------------------------------
# Canonical digest
# ----------------------------------------------------------------------


def _canon(obj):
    """A repr-stable form: dicts sorted by key repr, floats by repr."""
    if isinstance(obj, dict):
        return sorted((repr(k), _canon(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_canon(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(item) for item in obj)
    if isinstance(obj, float):
        return repr(obj)
    return obj


def digest(observables) -> str:
    return hashlib.sha256(repr(_canon(observables)).encode()).hexdigest()


def mesh_state(mesh):
    """Every channel and router counter of a mesh, plus each router's
    round-robin order (the arbitration state idle-path shortcuts must
    replay exactly)."""
    channels = {
        ch.name: (ch.sent.value, ch.bits_sent.value, ch.stall_events.value,
                  ch.corrupted.value, ch.dropped_flits.value,
                  ch.leaked_credits.value, ch.credit_deficit,
                  ch._busy_accum_ps, ch._busy_until)
        for ch in mesh.channels
    }
    routers = {
        router.name: (router.forwarded.value, router.delivered.value,
                      [ch.name for ch in router._rr_order])
        for router in mesh.routers
    }
    return channels, routers


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _udp_packet(payload, seq, dscp, src_port=7777):
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01",
        dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1",
        dst_ip="10.0.0.2",
        src_port=src_port,
        dst_port=8888,
        payload=payload,
        dscp=dscp,
        identification=seq & 0xFFFF,
    )
    packet = Packet(frame)
    packet.meta.annotations["seq"] = seq
    return packet


def _watch_deliveries(sim, nic):
    """Record (sequence number, delivery timestamp) in delivery order."""
    deliveries = []

    def handler(packet, _queue):
        deliveries.append((packet.meta.annotations.get("seq"), sim.now))

    nic.host.software_handler = handler
    return deliveries


def _nic_observables(sim, nic, deliveries):
    return {
        "deliveries": deliveries,
        "stats": nic.stats(),
        "mesh": mesh_state(nic.mesh),
    }, sim.events_fired, sim.now


def run_chaining():
    """Three-offload chain at a tight gap: uncontended hops, queueing,
    and packets catching up with each other on the mesh."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("regex", "checksum", "checksum1"),
        offload_params={"regex": {"patterns": [b"x"],
                                  "cycles_per_byte": 0.5}},
    ))
    nic.control.route_dscp(1, ["checksum", "regex", "checksum1"])
    deliveries = _watch_deliveries(sim, nic)
    for i in range(150):
        sim.schedule_at(i * 200_000, nic.inject,
                        _udp_packet(b"y" * 200, seq=i, dscp=1))
    sim.run()
    nic.mesh.assert_drained()
    return _nic_observables(sim, nic, deliveries)


def run_fault_recovery():
    """Engine crash mid-run, heartbeat detection and failover."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "ipsec1", "compression", "kvcache"),
        seed=3,
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    nic.control.route_dscp(12, ["ipsec1"])
    monitor = attach_health_monitor(nic, period_ps=2 * US, timeout_ps=4 * US)
    monitor.start()
    plan = FaultPlan(seed=3).crash_engine(30 * US, "ipsec")
    FaultInjector(nic, plan).arm()
    deliveries = _watch_deliveries(sim, nic)

    def inject(i=0):
        if i >= 200:
            return
        nic.inject(_udp_packet(bytes(120), seq=i, src_port=1000 + i,
                               dscp=10 if i % 2 == 0 else 12))
        sim.schedule(150 * NS, inject, i + 1)

    inject()
    sim.run(until_ps=150 * US)
    monitor.stop()
    sim.run()
    return _nic_observables(sim, nic, deliveries)


def run_traced_chain(frames, gap_ps):
    """Every frame traced through a three-offload chain: the span report
    carries one hop span per channel crossing."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ipsec", "compression", "checksum"), seed=0,
        telemetry=TelemetryConfig(sample_every=1),
    ))
    nic.control.route_dscp(1, ["ipsec", "compression", "checksum"])
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=1000, dst_port=9, dscp=1, payload=bytes(200),
    )
    for i in range(frames):
        sim.schedule_at(i * gap_ps, nic.inject,
                        Packet(frame, MessageKind.ETHERNET))
    sim.run()
    observables, events, now = _nic_observables(sim, nic, [])
    observables["trace"] = nic.telemetry.trace_report()
    return observables, events, now


def run_rack8():
    """8-NIC all-pairs rack with payload-tag flow identity."""
    result = run_monolithic(rack_topology(
        nics=8, frames=2, gap_ps=1 * US, propagation_ps=8 * US,
        flow_id="tag",
    ))
    return {
        "reports": result.reports,
        "final_ps": result.final_ps,
        "wire_stats": result.wire_stats,
    }, result.events_fired, max(result.final_ps.values())


def _mesh_run(runner, *args):
    sim, mesh, sinks = runner(*args)
    deliveries = {
        x: [(m.packet.data, m.hops, t) for m, t in sink.got]
        for x, sink in sinks.items()
    }
    refusals = {x: getattr(sink, "refusals", 0) for x, sink in sinks.items()}
    return {
        "deliveries": deliveries,
        "refusals": refusals,
        "mesh": mesh_state(mesh),
    }, sim.events_fired, sim.now


SCENARIOS = {
    "rack8_tag": run_rack8,
    "chaining": run_chaining,
    "fault_recovery": run_fault_recovery,
    "traced_chain": lambda: run_traced_chain(20, 700),
    "traced_chain_contended": lambda: run_traced_chain(40, 150),
    "committed_hop_corruption":
        lambda: _mesh_run(run_committed_hop_fault, "corruption"),
    "committed_hop_drop": lambda: _mesh_run(run_committed_hop_fault, "drop"),
    "zero_credit_window": lambda: _mesh_run(run_zero_credit_window),
}


def record(scenario):
    observables, events, now = SCENARIOS[scenario]()
    return events, now, digest(observables)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_per_hop_golden(scenario):
    events, now, sha = record(scenario)
    want_events, want_now, want_sha = GOLDEN[scenario]
    assert (events, now) == (want_events, want_now)
    assert sha == want_sha


def test_digest_is_repeatable():
    """Nothing process-global (ids, counters) leaks into the digest."""
    assert record("zero_credit_window") == record("zero_credit_window")
    assert record("chaining") == record("chaining")


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        events, now, sha = record(name)
        print(f'    "{name}": (\n        {events}, {now},\n        "{sha}"),')
