"""Rack-scale multi-NIC workloads for the sharded execution layer.

Builds :class:`~repro.core.topology.RackTopology` descriptions whose NICs
are full PANIC instances driving traffic at each other over per-pair
cables -- the multi-node regimes SuperNIC and PsPIN evaluate, scaled to
N NICs on N cores by :mod:`repro.sim.shard`.

Patterns:

* ``"symmetric"`` -- every NIC streams to every other NIC, so each node
  is simultaneously an (N-1)-way incast receiver and an (N-1)-flow
  sender.  Load is perfectly balanced across shards, which is what the
  speedup benchmark wants.
* ``"fanin"`` -- classic incast: NICs 1..N-1 all stream at NIC 0.  The
  receiver shard dominates, demonstrating the protocol under imbalance.

Each directed flow ``src -> dst`` gets its own flow-identity class the
sender keys its TX route on to pick the egress cable, and the receiver
keys a per-source slack on so the on-NIC scheduler sees distinct
tenants.  Two encodings exist:

* ``flow_id="dscp"`` -- the historical 6-bit DSCP encoding
  (``route_dscp_tx``/``set_dscp_slack``), capped at 7 NICs.
* ``flow_id="tag"`` -- a VXLAN-style 16-bit tag leading the UDP payload
  of :data:`~repro.packet.headers.RACK_TAG_UDP_PORT` traffic, extracted
  by the parser's ``rack_tag`` state and steered by the ``tag_route`` /
  ``tag_slack`` tables (``route_tag_tx``/``set_tag_slack``).  Scales
  rack rows to :data:`MAX_TAG_RACK_NICS` NICs; the NIC's NoC mesh is
  automatically sized up to seat one MAC per peer.

``flow_id="auto"`` (the default) picks DSCP through 7 NICs for exact
backward compatibility and the tag beyond.

Frames carry an 8-byte sequence number plus the 2-byte source index in
the UDP payload (after the tag shim, in tag mode), so receivers can
attribute every delivery exactly -- the shard equivalence tests compare
these ``(src, seq, t, queue)`` tuples bit-for-bit between execution
modes.

``build_rack_nic`` is module-level and picklable by reference, as the
shard workers require.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.core.topology import LinkSpec, NicSpec, RackTopology
from repro.packet.builder import build_udp_frame
from repro.packet.headers import RACK_TAG_BYTES, RACK_TAG_UDP_PORT
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.workloads.wire import DEFAULT_PROPAGATION_PS

#: First DSCP class used for rack flows; flow (src, dst) on an N-NIC rack
#: uses ``RACK_DSCP_BASE + src * N + dst``.  DSCP is a 6-bit field, which
#: caps the all-pairs encoding at 7 NICs; larger racks carry the flow id
#: in the 16-bit payload tag instead (``flow_id="tag"``).
RACK_DSCP_BASE = 8
MAX_RACK_NICS = 7

#: First tag value used for rack flows (0 stays reserved/untagged); flow
#: (src, dst) uses ``RACK_TAG_BASE + src * N + dst``.  The 16-bit field
#: bounds all-pairs encodings at 255 NICs -- far past the mesh sizes a
#: single-host simulation can seat.
RACK_TAG_BASE = 8
MAX_TAG_RACK_NICS = 255

#: Accepted ``flow_id`` vocabulary.
FLOW_IDS = ("auto", "dscp", "tag")

#: UDP payload starts after Ethernet (14) + IPv4 (20) + UDP (8) headers.
_PAYLOAD_OFFSET = 42


def rack_port(local: int, peer: int) -> int:
    """The local Ethernet port cabled to ``peer`` in an all-pairs rack
    (each NIC has N-1 ports, one per other NIC, in peer-index order)."""
    return peer if peer < local else peer - 1


def flow_dscp(src: int, dst: int, n_nics: int) -> int:
    return RACK_DSCP_BASE + src * n_nics + dst


def flow_tag(src: int, dst: int, n_nics: int) -> int:
    return RACK_TAG_BASE + src * n_nics + dst


def resolve_flow_id(flow_id: str, nics: int) -> str:
    """Resolve ``"auto"`` to a concrete encoding and validate the cap."""
    if flow_id not in FLOW_IDS:
        raise ValueError(f"unknown flow_id {flow_id!r}; expected {FLOW_IDS}")
    if flow_id == "auto":
        flow_id = "dscp" if nics <= MAX_RACK_NICS else "tag"
    cap = MAX_RACK_NICS if flow_id == "dscp" else MAX_TAG_RACK_NICS
    if not 2 <= nics <= cap:
        raise ValueError(
            f"rack supports 2..{cap} NICs with {flow_id!r} flow identity, "
            f"got {nics}"
        )
    return flow_id


def rack_mesh_size(ports: int, offloads: int = 1, rmt_tiles: int = 1) -> int:
    """Smallest square NoC mesh seating ``ports`` MACs plus DMA, PCIe,
    the RMT tiles, and the offload lanes (never below the stock 4x4)."""
    needed = ports + 2 + rmt_tiles + offloads
    side = 4
    while side * side < needed:
        side += 1
    return side


def build_rack_nic(
    sim: Simulator,
    name: str,
    *,
    index: int,
    n_nics: int,
    frames: int,
    gap_ps: int = 2 * US,
    payload_bytes: int = 256,
    pattern: str = "symmetric",
    seed: int = 0,
    telemetry=None,
    batch: bool = False,
    flow_id: str = "auto",
    int_=None,
) -> Tuple[PanicNic, Callable[[], dict]]:
    """Build rack node ``index`` of ``n_nics``: a PANIC NIC with one port
    per peer, TX routes steering each flow's identity class (DSCP or
    payload tag) onto its cable, per-source RX slack classes, scheduled
    senders, and a delivery recorder.

    Returns ``(nic, report)`` where ``report()`` yields a picklable dict:
    ``stats`` (the NIC's stats tree), ``deliveries`` (sorted
    ``(src, seq, arrival_ps, queue)`` tuples) and ``sent``; with
    ``telemetry`` set, also ``trace`` (the NIC's canonical span list)
    and ``trace_summary`` (ring-buffer accounting incl. dropped spans);
    with ``int_`` (an :class:`~repro.telemetry.config.IntConfig`) set,
    also ``int`` (the sink's sorted postcard list -- feed it to an
    :class:`~repro.telemetry.int_.IntCollector`).
    """
    if pattern not in ("symmetric", "fanin"):
        raise ValueError(f"unknown rack pattern {pattern!r}")
    flow_id = resolve_flow_id(flow_id, n_nics)
    tagged = flow_id == "tag"
    mesh_side = rack_mesh_size(n_nics - 1)
    config = PanicConfig(
        ports=n_nics - 1,
        offloads=("checksum",),
        seed=seed + index,
        telemetry=telemetry,
        batch_execution=batch,
        mesh_width=mesh_side,
        mesh_height=mesh_side,
        int_=int_,
    )
    nic = PanicNic(sim, config, name=name)

    peers = [peer for peer in range(n_nics) if peer != index]
    for peer in peers:
        # Outbound: this flow's identity class leaves on the cable to
        # `peer`, via the checksum lane so TX exercises an offload hop
        # too.  Inbound: per-source slack, so the on-NIC scheduler treats
        # each remote sender as a distinct tenant class.
        if tagged:
            nic.control.route_tag_tx(
                flow_tag(index, peer, n_nics),
                chain=["checksum"],
                egress_port=rack_port(index, peer),
            )
            nic.control.set_tag_slack(
                flow_tag(peer, index, n_nics), (1 + peer) * 200 * US
            )
        else:
            nic.control.route_dscp_tx(
                flow_dscp(index, peer, n_nics),
                chain=["checksum"],
                egress_port=rack_port(index, peer),
            )
            nic.control.set_dscp_slack(
                flow_dscp(peer, index, n_nics), (1 + peer) * 200 * US
            )

    deliveries = []
    shim = RACK_TAG_BYTES if tagged else 0

    def on_rx(packet, queue: int) -> None:
        payload = packet.data[_PAYLOAD_OFFSET + shim:]
        seq = int.from_bytes(payload[:8], "big")
        src = int.from_bytes(payload[8:10], "big")
        deliveries.append((src, seq, sim.now, queue))

    nic.host.software_handler = on_rx

    if pattern == "symmetric":
        targets = peers
    else:  # fanin: everyone streams at NIC 0
        targets = [0] if index != 0 else []

    pad = max(0, payload_bytes - 10 - shim)
    sent = 0
    for dst in targets:
        dscp = 0 if tagged else flow_dscp(index, dst, n_nics)
        prefix = (
            flow_tag(index, dst, n_nics).to_bytes(2, "big") if tagged
            else b""
        )
        for seq in range(frames):
            payload = (
                prefix + seq.to_bytes(8, "big")
                + index.to_bytes(2, "big") + bytes(pad)
            )
            frame = build_udp_frame(
                src_mac="02:00:00:00:00:%02x" % (index + 1),
                dst_mac="02:00:00:00:00:%02x" % (dst + 1),
                src_ip=f"10.0.{index}.1",
                dst_ip=f"10.0.{dst}.1",
                src_port=40000 + index,
                dst_port=RACK_TAG_UDP_PORT if tagged else 9000,
                payload=payload,
                dscp=dscp,
                identification=seq & 0xFFFF,
            )
            # Senders are aligned across the rack on purpose: every node
            # releases frame k at the same instant, producing the incast.
            sim.schedule_at(seq * gap_ps, nic.host.enqueue_tx, frame)
            sent += 1

    total_sent = sent

    def report() -> dict:
        rep = {
            "stats": nic.stats(),
            "deliveries": sorted(deliveries),
            "sent": total_sent,
        }
        if nic.telemetry is not None:
            rep["trace"] = nic.telemetry.trace_report()
            # seen/sampled/spans/dropped_spans are simulated-state
            # counters, so the ring-buffer overflow accounting is part
            # of the mono==sharded bit-identity contract.
            rep["trace_summary"] = nic.telemetry.summary()
        if nic.int_agent is not None:
            rep["int"] = nic.int_agent.postcards()
        return rep

    return nic, report


def rack_topology(
    nics: int = 4,
    pattern: str = "symmetric",
    frames: int = 40,
    gap_ps: int = 2 * US,
    payload_bytes: int = 256,
    propagation_ps: int = DEFAULT_PROPAGATION_PS,
    seed: int = 0,
    telemetry=None,
    batch: bool = False,
    flow_id: str = "auto",
    int_=None,
) -> RackTopology:
    """An all-pairs-cabled rack of ``nics`` PANIC NICs running the given
    traffic pattern.  Every unordered pair gets one full-duplex cable;
    the port numbering is :func:`rack_port` on both ends.  ``flow_id``
    picks the flow-identity encoding (module docstring): ``"dscp"`` caps
    the rack at 7 NICs, ``"tag"`` at 255, ``"auto"`` switches at 8."""
    flow_id = resolve_flow_id(flow_id, nics)
    specs = [
        NicSpec(
            f"nic{i}",
            build_rack_nic,
            {
                "index": i,
                "n_nics": nics,
                "frames": frames,
                "gap_ps": gap_ps,
                "payload_bytes": payload_bytes,
                "pattern": pattern,
                "seed": seed,
                "telemetry": telemetry,
                "batch": batch,
                "flow_id": flow_id,
                "int_": int_,
            },
        )
        for i in range(nics)
    ]
    links = [
        LinkSpec(
            f"nic{i}", f"nic{j}",
            port_a=rack_port(i, j),
            port_b=rack_port(j, i),
            propagation_ps=propagation_ps,
        )
        for i in range(nics)
        for j in range(i + 1, nics)
    ]
    return RackTopology(specs, links)
