"""The load-balanced rack workload: clients, a VIP, backends.

Topology (all-pairs cabling, same as every other rack workload)::

    index 0                 -- the load balancer (owns the VIP)
    indices 1..n_backends   -- backends (serve the VIP, direct return)
    the rest                -- clients (one reliable flow each -> VIP)

A client addresses the *virtual* IP; the LB's ``vip_steer``/``lb_egress``
stages forward the frame -- unmodified, never touching the LB host --
out the cable to the backend its flow key owns.  The backend's reliable
transport accepts segments addressed to the virtual index
(``accept_dst``) and stamps ACKs with it (``reply_as``), replying
straight to the client over their direct cable: textbook direct server
return, so the LB carries only client->VIP traffic even at full incast.

Each client runs exactly one flow (one affinity entry) and starts at a
staggered offset, so a mid-run ``drain`` splits the clients into
affinity-pinned old flows (completing on the draining backend) and new
flows (hashed into the post-drain ring) -- the make-before-break epoch
protocol exercised end to end.

``build_lb_rack_nic`` is module-level and picklable by reference, as
the shard workers require.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.core.topology import LinkSpec, NicSpec, RackTopology
from repro.lb.monitor import (
    BackendHealthMonitor,
    DEFAULT_HB_PERIOD_PS,
    DEFAULT_HB_TIMEOUT_PS,
    DEFAULT_MONITOR_STOP_PS,
    attach_heartbeat_responder,
)
from repro.lb.steering import (
    DEFAULT_AFFINITY_SLOTS,
    DEFAULT_IDLE_PS,
    LbSteering,
)
from repro.packet.builder import build_udp_frame
from repro.packet.headers import RACK_TAG_BYTES, RACK_TAG_UDP_PORT
from repro.reliability.selective import SelectiveRepeatTransport
from repro.reliability.transport import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_WINDOW,
    ReliableTransport,
    default_rto_ps,
)
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.workloads.rack import (
    flow_dscp,
    flow_tag,
    rack_mesh_size,
    rack_port,
    resolve_flow_id,
)
from repro.workloads.wire import DEFAULT_PROPAGATION_PS

#: The virtual IP.  Deliberately outside every host's ``10.0.<i>.1``
#: range: traffic to a host's *real* IP (heartbeats, ACK echoes) must
#: fall through ``vip_steer`` to the normal DMA path.
DEFAULT_VIP_IP = "10.0.99.1"

#: The LB's rack index; also the virtual index clients send flows to.
VIP_INDEX = 0


def lb_layout(n_nics: int, n_backends: int) -> Tuple[Tuple[int, ...],
                                                     Tuple[int, ...]]:
    """``(backends, clients)`` index tuples for a layout."""
    if n_backends < 1:
        raise ValueError(f"need at least one backend, got {n_backends}")
    if n_nics < n_backends + 2:
        raise ValueError(
            f"{n_nics} NICs cannot seat an LB, {n_backends} backends, "
            f"and at least one client"
        )
    backends = tuple(range(1, 1 + n_backends))
    clients = tuple(range(1 + n_backends, n_nics))
    return backends, clients


def client_flow_key(index: int) -> Tuple[int, int]:
    """The affinity-field values a client's frames carry: (src IP as
    int, UDP source port).  Mirrors the frame builder below; tests use
    it to prove a rack shape is collision-free in the affinity table."""
    ip = (10 << 24) | (index << 8) | 1  # 10.0.<index>.1
    return ip, 40000 + index


def build_lb_rack_nic(
    sim: Simulator,
    name: str,
    *,
    index: int,
    n_nics: int,
    n_backends: int,
    frames: int,
    gap_ps: int = 2 * US,
    stagger_ps: int = 10 * US,
    payload_bytes: int = 256,
    seed: int = 0,
    telemetry=None,
    int_=None,
    propagation_ps: int = DEFAULT_PROPAGATION_PS,
    window: int = DEFAULT_WINDOW,
    max_retries: int = DEFAULT_MAX_RETRIES,
    transport: str = "gbn",
    flow_id: str = "auto",
    vip_ip: str = DEFAULT_VIP_IP,
    slots: int = DEFAULT_AFFINITY_SLOTS,
    idle_ps: int = DEFAULT_IDLE_PS,
    hb_period_ps: int = DEFAULT_HB_PERIOD_PS,
    hb_timeout_ps: int = DEFAULT_HB_TIMEOUT_PS,
    monitor_stop_ps: int = DEFAULT_MONITOR_STOP_PS,
    drain: Optional[Tuple[int, int]] = None,
) -> Tuple[PanicNic, Callable[[], dict]]:
    """Build node ``index`` of the load-balanced rack.

    ``drain=(backend, at_ps)`` schedules a planned live drain on the LB
    node (ignored elsewhere).  Client ``c`` (zero-based among clients)
    starts its flow at ``c * stagger_ps``, sending ``frames`` payloads
    ``gap_ps`` apart to the VIP.

    Returns ``(nic, report)``.  Every report carries ``role`` and
    ``stats``; the LB adds ``steering``/``monitor``, backends add
    ``deliveries``, clients add ``tx_flows``/``fct``/``failures``.
    """
    if transport not in ("gbn", "sr"):
        raise ValueError(f"unknown transport {transport!r}")
    flow_id = resolve_flow_id(flow_id, n_nics)
    tagged = flow_id == "tag"
    backends, clients = lb_layout(n_nics, n_backends)
    mesh_side = rack_mesh_size(n_nics - 1)
    config = PanicConfig(
        ports=n_nics - 1,
        offloads=("checksum",),
        seed=seed + index,
        telemetry=telemetry,
        int_=int_,
        verify_checksums=True,
        mesh_width=mesh_side,
        mesh_height=mesh_side,
    )
    nic = PanicNic(sim, config, name=name)

    peers = [peer for peer in range(n_nics) if peer != index]
    for peer in peers:
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

    shim = RACK_TAG_BYTES if tagged else 0
    payload_offset = 42 + shim

    def frame_builder(dst: int, segment: bytes, real: bool = False) -> bytes:
        # ``dst == VIP_INDEX`` addresses the *virtual* IP unless the
        # caller asks for the real host (heartbeat echoes to the LB).
        dst_ip = (vip_ip if dst == VIP_INDEX and not real
                  else f"10.0.{dst}.1")
        prefix = (flow_tag(index, dst, n_nics).to_bytes(2, "big")
                  if tagged else b"")
        return build_udp_frame(
            src_mac="02:00:00:00:00:%02x" % (index + 1),
            dst_mac="02:00:00:00:00:%02x" % (dst + 1),
            src_ip=f"10.0.{index}.1",
            dst_ip=dst_ip,
            src_port=40000 + index,
            dst_port=RACK_TAG_UDP_PORT if tagged else 9000,
            payload=prefix + segment,
            dscp=0 if tagged else flow_dscp(index, dst, n_nics),
        )

    role = ("lb" if index == VIP_INDEX
            else "backend" if index in backends else "client")

    steering = monitor = proto = None
    deliveries = []
    total_sent = 0

    if role == "lb":
        steering = LbSteering(
            nic, vip_ip,
            {b: rack_port(index, b) for b in backends},
            slots=slots, idle_ps=idle_ps,
        )
        monitor = BackendHealthMonitor(
            nic, index, steering,
            lambda dst, payload: frame_builder(dst, payload, real=True),
            period_ps=hb_period_ps,
            timeout_ps=hb_timeout_ps,
            payload_offset=payload_offset,
        )
        monitor.start()
        sim.schedule_at(monitor_stop_ps, monitor.stop)
        if drain is not None:
            backend, at_ps = drain
            sim.schedule_at(at_ps, steering.drain, backend)
        # Reclaim masked epochs once the experiment is quiescing -- the
        # "old rules are garbage-collected" end of make-before-break.
        sim.schedule_at(monitor_stop_ps, steering.gc)
    else:
        def on_deliver(src: int, seq: int, payload: bytes,
                       queue: int) -> None:
            deliveries.append((src, seq, sim.now, queue))

        transport_cls = (SelectiveRepeatTransport if transport == "sr"
                         else ReliableTransport)
        serving = role == "backend"
        proto = transport_cls(
            nic, index,
            frame_builder=frame_builder,
            rng=SeededRng(seed + index).fork("reliability"),
            rto_initial_ps=default_rto_ps(2 * propagation_ps),
            window=window,
            max_retries=max_retries,
            on_deliver=on_deliver,
            accept_dst={VIP_INDEX} if serving else None,
            reply_as=VIP_INDEX if serving else None,
        )
        if serving:
            attach_heartbeat_responder(
                nic, index,
                lambda dst, payload: frame_builder(dst, payload, real=True),
                payload_offset=payload_offset,
            )
        else:
            ordinal = clients.index(index)
            start_ps = ordinal * stagger_ps
            pad = bytes(max(0, payload_bytes - 16))
            for seq in range(frames):
                sim.schedule_at(start_ps + seq * gap_ps,
                                proto.send, VIP_INDEX, pad)
                total_sent += 1

    def report() -> dict:
        rep = {"role": role, "index": index, "stats": nic.stats()}
        if steering is not None:
            rep["steering"] = steering.report()
        if monitor is not None:
            rep["monitor"] = monitor.report()
        if proto is not None:
            rep.update(
                deliveries=sorted(deliveries),
                sent=total_sent,
                tx_flows=proto.flow_report(),
                fct=proto.fct_report(),
                failures=proto.failure_report(),
            )
        if nic.telemetry is not None:
            rep["trace"] = nic.telemetry.trace_report()
        return rep

    return nic, report


def lb_rack_topology(
    nics: int = 7,
    n_backends: int = 3,
    frames: int = 30,
    gap_ps: int = 2 * US,
    stagger_ps: int = 10 * US,
    payload_bytes: int = 256,
    propagation_ps: int = DEFAULT_PROPAGATION_PS,
    seed: int = 0,
    telemetry=None,
    int_=None,
    window: int = DEFAULT_WINDOW,
    max_retries: int = DEFAULT_MAX_RETRIES,
    transport: str = "gbn",
    flow_id: str = "auto",
    vip_ip: str = DEFAULT_VIP_IP,
    slots: int = DEFAULT_AFFINITY_SLOTS,
    idle_ps: int = DEFAULT_IDLE_PS,
    hb_period_ps: int = DEFAULT_HB_PERIOD_PS,
    hb_timeout_ps: int = DEFAULT_HB_TIMEOUT_PS,
    monitor_stop_ps: int = DEFAULT_MONITOR_STOP_PS,
    drain: Optional[Tuple[int, int]] = None,
) -> RackTopology:
    """An all-pairs rack serving a VIP: LB at index 0, ``n_backends``
    backends, the remaining NICs clients (module docstring)."""
    flow_id = resolve_flow_id(flow_id, nics)
    lb_layout(nics, n_backends)  # validate the shape up front
    specs = [
        NicSpec(
            f"nic{i}",
            build_lb_rack_nic,
            {
                "index": i,
                "n_nics": nics,
                "n_backends": n_backends,
                "frames": frames,
                "gap_ps": gap_ps,
                "stagger_ps": stagger_ps,
                "payload_bytes": payload_bytes,
                "seed": seed,
                "telemetry": telemetry,
                "int_": int_,
                "propagation_ps": propagation_ps,
                "window": window,
                "max_retries": max_retries,
                "transport": transport,
                "flow_id": flow_id,
                "vip_ip": vip_ip,
                "slots": slots,
                "idle_ps": idle_ps,
                "hb_period_ps": hb_period_ps,
                "hb_timeout_ps": hb_timeout_ps,
                "monitor_stop_ps": monitor_stop_ps,
                "drain": drain,
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
