"""The rack workload rebuilt on reliable delivery.

Same cabling, DSCP flow encoding, and traffic patterns as
:mod:`repro.workloads.rack`, but every flow runs through a
:class:`~repro.reliability.transport.ReliableTransport`, and every NIC
verifies checksums so a wire-corrupted frame dies at RMT classification
(making corruption indistinguishable from loss, which the transport
already heals).  This is the workload the chaos harness breaks.

``build_reliable_rack_nic`` is module-level and picklable by reference,
as the shard workers require.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.core.topology import LinkSpec, NicSpec, RackTopology
from repro.faults.monitor import attach_health_monitor
from repro.packet.builder import build_udp_frame
from repro.reliability.selective import (
    SR_HEADER_BYTES,
    SelectiveRepeatTransport,
)
from repro.reliability.transport import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_WINDOW,
    HEADER_BYTES,
    ReliableTransport,
    default_rto_ps,
)
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.workloads.rack import MAX_RACK_NICS, flow_dscp, rack_port
from repro.workloads.wire import DEFAULT_PROPAGATION_PS

#: Transport selection vocabulary for ``build_reliable_rack_nic``.
TRANSPORTS = ("gbn", "sr")

#: When failover is armed, stop the health monitor at this instant so
#: the event heap drains (the periodic tick would otherwise keep
#: ``sim.run()`` alive forever).  Comfortably past the chaos horizon
#: (100 us) plus worst-case detection latency (timeout + period).
DEFAULT_MONITOR_STOP_PS = 150 * US


def build_reliable_rack_nic(
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
    propagation_ps: int = DEFAULT_PROPAGATION_PS,
    window: int = DEFAULT_WINDOW,
    max_retries: int = DEFAULT_MAX_RETRIES,
    transport: str = "gbn",
    failover: bool = False,
    monitor_stop_ps: int = DEFAULT_MONITOR_STOP_PS,
) -> Tuple[PanicNic, Callable[[], dict]]:
    """Build rack node ``index`` of ``n_nics`` with a reliable transport.

    ``transport`` selects the host protocol: ``"gbn"`` (go-back-N,
    fixed RTO) or ``"sr"`` (selective repeat with SACK and adaptive
    RTO).  With ``failover`` the NIC carries a spare checksum lane
    (``checksum1``), declares it the backup, and runs a
    :class:`~repro.faults.monitor.HealthMonitor` over the primary --
    so a chaos-crashed checksum engine costs a few microseconds of
    detection instead of the whole flow.  The monitor is stopped at
    ``monitor_stop_ps`` so the event heap drains.

    Returns ``(nic, report)``; ``report()`` extends the plain rack form
    (``stats``/``deliveries``/``sent``) with ``tx_flows`` (per-flow
    ``sent``/``acked``/``failed`` accounting), ``fct`` (per-flow
    completion instants), and ``failures``
    (:class:`~repro.reliability.transport.DeliveryFailed` tuples).
    """
    if pattern not in ("symmetric", "fanin"):
        raise ValueError(f"unknown rack pattern {pattern!r}")
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; have {TRANSPORTS}")
    config = PanicConfig(
        ports=n_nics - 1,
        offloads=("checksum", "checksum1") if failover else ("checksum",),
        seed=seed + index,
        telemetry=telemetry,
        verify_checksums=True,
    )
    nic = PanicNic(sim, config, name=name)
    if failover:
        nic.set_backup("checksum", "checksum1")
        monitor = attach_health_monitor(nic, engines=("checksum",))
        monitor.start()
        sim.schedule_at(monitor_stop_ps, monitor.stop)

    peers = [peer for peer in range(n_nics) if peer != index]
    for peer in peers:
        # Routes and slack for ALL peers regardless of pattern: ACKs
        # flow against the data direction, so even a pure fanin receiver
        # transmits to every sender.
        nic.control.route_dscp_tx(
            flow_dscp(index, peer, n_nics),
            chain=["checksum"],
            egress_port=rack_port(index, peer),
        )
        nic.control.set_dscp_slack(
            flow_dscp(peer, index, n_nics), (1 + peer) * 200 * US
        )

    def frame_builder(dst: int, segment: bytes) -> bytes:
        return build_udp_frame(
            src_mac="02:00:00:00:00:%02x" % (index + 1),
            dst_mac="02:00:00:00:00:%02x" % (dst + 1),
            src_ip=f"10.0.{index}.1",
            dst_ip=f"10.0.{dst}.1",
            src_port=40000 + index,
            dst_port=9000,
            payload=segment,
            dscp=flow_dscp(index, dst, n_nics),
        )

    deliveries = []

    def on_deliver(src: int, seq: int, payload: bytes, queue: int) -> None:
        deliveries.append((src, seq, sim.now, queue))

    transport_cls = (SelectiveRepeatTransport if transport == "sr"
                     else ReliableTransport)
    proto = transport_cls(
        nic, index,
        frame_builder=frame_builder,
        rng=SeededRng(seed + index).fork("reliability"),
        rto_initial_ps=default_rto_ps(propagation_ps),
        window=window,
        max_retries=max_retries,
        on_deliver=on_deliver,
    )

    if pattern == "symmetric":
        targets = peers
    else:  # fanin: everyone streams at NIC 0
        targets = [0] if index != 0 else []

    header_bytes = SR_HEADER_BYTES if transport == "sr" else HEADER_BYTES
    pad = bytes(max(0, payload_bytes - header_bytes))
    sent = 0
    for dst in targets:
        for seq in range(frames):
            sim.schedule_at(seq * gap_ps, proto.send, dst, pad)
            sent += 1

    total_sent = sent

    def report() -> dict:
        rep = {
            "stats": nic.stats(),
            "deliveries": sorted(deliveries),
            "sent": total_sent,
            "tx_flows": proto.flow_report(),
            "fct": proto.fct_report(),
            "failures": proto.failure_report(),
        }
        if hasattr(proto, "rtt_report"):
            rep["rtt"] = proto.rtt_report()
        if nic.telemetry is not None:
            rep["trace"] = nic.telemetry.trace_report()
        return rep

    return nic, report


def reliable_rack_topology(
    nics: int = 4,
    pattern: str = "symmetric",
    frames: int = 40,
    gap_ps: int = 2 * US,
    payload_bytes: int = 256,
    propagation_ps: int = DEFAULT_PROPAGATION_PS,
    seed: int = 0,
    telemetry=None,
    window: int = DEFAULT_WINDOW,
    max_retries: int = DEFAULT_MAX_RETRIES,
    transport: str = "gbn",
    failover: bool = False,
) -> RackTopology:
    """An all-pairs-cabled rack whose flows run ``transport`` end to
    end (go-back-N by default, selective repeat with ``"sr"``)."""
    if not 2 <= nics <= MAX_RACK_NICS:
        raise ValueError(
            f"rack supports 2..{MAX_RACK_NICS} NICs (DSCP flow encoding), "
            f"got {nics}"
        )
    specs = [
        NicSpec(
            f"nic{i}",
            build_reliable_rack_nic,
            {
                "index": i,
                "n_nics": nics,
                "frames": frames,
                "gap_ps": gap_ps,
                "payload_bytes": payload_bytes,
                "pattern": pattern,
                "seed": seed,
                "telemetry": telemetry,
                "propagation_ps": propagation_ps,
                "window": window,
                "max_retries": max_retries,
                "transport": transport,
                "failover": failover,
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
