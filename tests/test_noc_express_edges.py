"""Edge cases of the per-hop NoC path on a straight mesh row.

Two interactions between faults, foreign traffic and credits:

* a fault (corruption or flit drop) armed on a hop a long-haul message
  has already crossed, while foreign traffic enters a router on its
  route, must hit the **next** message over that wire -- never the
  long-haul message itself;
* a message whose final-hop credit pool hits zero in the very window it
  delivers (bounded lossless endpoint refusing the message) stalls
  follow-up traffic until the endpoint frees space.

The scenario runners are shared with ``tests/test_noc_golden.py``,
which pins every observable of both runs -- delivery payloads, hop
counts, picosecond timestamps, channel counters, credit deficits and
the kernel's event count -- to digests recorded on the per-hop path.
"""

import random

import pytest

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet
from repro.sim import Simulator

#: Serialization of a 64-byte message on a 64-bit 500 MHz channel:
#: 512 / 64 = 8 cycles + 1 router cycle = 9 * 2000 ps per hop.
SER = 18_000


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, message):
        self.got.append((message, self.sim.now))


class StingySink(Sink):
    """Bounded lossless input: refuses everything until opened."""

    def __init__(self, sim):
        super().__init__(sim)
        self.accepting = False
        self.refusals = 0

    def try_receive(self, message):
        if not self.accepting:
            self.refusals += 1
            return False
        self.receive(message)
        return True

    def open(self):
        self.accepting = True
        if self.notify_space is not None:
            self.notify_space()


def build_row(sim, length, credits=8, stingy_at=None):
    """A 1-high mesh row: long straight routes, deterministic timing."""
    mesh = Mesh(sim, MeshConfig(width=length, height=1, credits=credits))
    sinks, ports = {}, {}
    for x in range(length):
        sink = StingySink(sim) if x == stingy_at else Sink(sim)
        ports[x] = mesh.bind(sink, x, 0)
        sinks[x] = sink
    return mesh, sinks, ports


def _packet(tag):
    return Packet(bytes([tag]) * 64)


def _observables(mesh, sinks):
    deliveries = {
        x: [(m.packet.data, m.hops, t) for m, t in sink.got]
        for x, sink in sinks.items()
    }
    counters = {
        ch.name: (ch.sent.value, ch.corrupted.value, ch.dropped_flits.value,
                  ch.leaked_credits.value, ch.credit_deficit)
        for ch in mesh.channels
    }
    return deliveries, counters


# ----------------------------------------------------------------------
# Fault armed on a hop a long-haul message already crossed
# ----------------------------------------------------------------------


def run_committed_hop_fault(fault):
    """Message A crosses a 6-tile row (0 -> 5).  A local delivery into
    router 1 at t=40us lands after A left that router (36us).  A fault
    then armed on the crossed hop ``ch_0_0_east`` must catch message C
    (0 -> 2), not A.  Returns ``(sim, mesh, sinks)`` after the run."""
    sim = Simulator()
    mesh, sinks, ports = build_row(sim, 6)
    sim.schedule_at(0, ports[0].send, _packet(0xAA), 5)
    # Foreign traffic into an already-crossed router (22us submit + one
    # inject hop = 40us delivery).
    sim.schedule_at(22_000, ports[1].send, _packet(0xBB), 1)
    wire = mesh.channel("mesh.ch_0_0_east")
    if fault == "corruption":
        sim.schedule_at(50_000, wire.inject_corruption, random.Random(7), 4)
    else:
        sim.schedule_at(50_000, wire.inject_drop)
    sim.schedule_at(60_000, ports[0].send, _packet(0xCC), 2)
    sim.run()
    mesh.assert_drained()
    return sim, mesh, sinks


@pytest.mark.parametrize("fault", ["corruption", "drop"])
def test_committed_hop_fault_hits_the_next_message(fault):
    _, mesh, sinks = run_committed_hop_fault(fault)
    deliveries, counters = _observables(mesh, sinks)
    # A arrives pristine at the analytic store-and-forward time: 6 hops.
    assert deliveries[5] == [(bytes([0xAA]) * 64, 6, 6 * SER)]
    # B's local delivery (the interferer) is untouched.
    assert deliveries[1] == [(bytes([0xBB]) * 64, 1, 40_000)]
    sent, corrupted, dropped, leaked, deficit = counters["mesh.ch_0_0_east"]
    if fault == "corruption":
        # C still arrives, 3 hops later, with flipped payload bits.
        assert len(deliveries[2]) == 1
        data, hops, when = deliveries[2][0]
        assert when == 60_000 + 3 * SER
        assert hops == 3
        assert data != bytes([0xCC]) * 64
        assert (corrupted, dropped) == (1, 0)
    else:
        # C vanished on the wire and its credit leaked.
        assert deliveries[2] == []
        assert (corrupted, dropped) == (0, 1)
        assert leaked == 1
        assert deficit == 1


# ----------------------------------------------------------------------
# Final credit hits zero in the delivery window
# ----------------------------------------------------------------------


def run_zero_credit_window():
    """With one credit per channel, A's delivery into the refusing
    endpoint at tile 3 consumes the final hop's last credit in the same
    window it arrives; follow-up C (2 -> 3) must wait for the endpoint
    to free space before the credit loop moves again.  Returns
    ``(sim, mesh, sinks)`` after the run."""
    sim = Simulator()
    mesh, sinks, ports = build_row(sim, 4, credits=1, stingy_at=3)
    sim.schedule_at(0, ports[0].send, _packet(0xAA), 3)
    sim.schedule_at(80_000, ports[2].send, _packet(0xCC), 3)
    sim.schedule_at(120_000, sinks[3].open)
    sim.run()
    mesh.assert_drained()
    return sim, mesh, sinks


def test_zero_credit_delivery_window_timing():
    _, mesh, sinks = run_zero_credit_window()
    deliveries, counters = _observables(mesh, sinks)
    # A parked at the router until the endpoint opened at 120us.
    assert deliveries[3][0] == (bytes([0xAA]) * 64, 4, 120_000)
    # C could not even start its final hop while A held the only credit:
    # it serializes right after the release and lands one hop later.
    assert deliveries[3][1] == (bytes([0xCC]) * 64, 2, 120_000 + SER)
    assert sinks[3].refusals >= 1
    # Quiesced credit pools are whole again.
    sent, corrupted, dropped, leaked, deficit = counters["mesh.ch_2_0_east"]
    assert (corrupted, dropped, leaked, deficit) == (0, 0, 0, 0)
    assert sent == 2
