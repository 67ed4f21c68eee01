"""2D mesh construction and endpoint binding.

A :class:`Mesh` builds ``width x height`` routers, wires neighbouring
routers with a pair of opposed channels, and binds endpoints (engines) to
tiles.  Binding yields a :class:`NocPort`, the engine-side handle used to
inject messages.

Address scheme: the endpoint on tile ``(x, y)`` has NoC address
``y * width + x``.  Engine addresses therefore double as tile coordinates,
which is what the per-engine lightweight lookup tables store as next hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.noc.channel import Channel
from repro.noc.message import NocMessage
from repro.noc.router import Endpoint, Router
from repro.packet.packet import Packet
from repro.sim.clock import MHZ, Clock
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter


class MeshStuckError(RuntimeError):
    """The mesh quiesced with messages still buffered or queued.

    The message carries :meth:`Mesh.stuck_report`, naming the channels and
    routers holding traffic -- the starting point for diagnosing a credit
    leak or a wedged endpoint.
    """


@dataclass
class MeshConfig:
    """Parameters of the on-chip network.

    Defaults follow the paper's reference design point (section 4.2 and
    Table 3): 500 MHz clock, 64-bit channels.
    """

    width: int = 4
    height: int = 4
    channel_bits: int = 64
    freq_hz: float = 500 * MHZ
    credits: int = 8

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"mesh must be at least 1x1, got {self.width}x{self.height}")
        if self.channel_bits <= 0:
            raise ValueError(f"channel width must be positive: {self.channel_bits}")
        if self.credits <= 0:
            raise ValueError(f"credits must be positive: {self.credits}")

    @property
    def tiles(self) -> int:
        return self.width * self.height


class NocPort:
    """An endpoint's handle for injecting messages into the mesh."""

    def __init__(self, mesh: "Mesh", endpoint: Endpoint, channel: Channel):
        self._mesh = mesh
        self._endpoint = endpoint
        self._channel = channel
        self.injected = Counter(f"port{endpoint.address}.injected")

    @property
    def address(self) -> int:
        return self._endpoint.address

    def send(self, packet: Packet, dest_addr: int) -> NocMessage:
        """Inject ``packet`` toward ``dest_addr``; returns the envelope."""
        message = NocMessage(
            packet=packet,
            dest_addr=dest_addr,
            src_addr=self._endpoint.address,
            inject_ps=self._mesh.sim.now,
        )
        self.injected.value += 1
        self._channel.submit(message)
        return message

    def send_message(self, message: NocMessage) -> None:
        """Re-inject an existing envelope (e.g. after local re-routing)."""
        self._channel.submit(message)

    @property
    def backlog(self) -> int:
        """Messages waiting in the injection channel."""
        return self._channel.queue_len


class Mesh:
    """A ``width x height`` mesh of routers with bound endpoints."""

    def __init__(self, sim: Simulator, config: MeshConfig, name: str = "mesh"):
        self.sim = sim
        self.config = config
        self.name = name
        self.clock = Clock(config.freq_hz)
        self._routers: Dict[Tuple[int, int], Router] = {}
        self._endpoints: Dict[int, Endpoint] = {}
        self.channels: List[Channel] = []
        # Receiver router of every channel (walked by repro.core.train).
        self._channel_sink: Dict[Channel, Router] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def coords_of(self, address: int) -> Tuple[int, int]:
        """Tile coordinates for a NoC address."""
        if not 0 <= address < self.config.tiles:
            raise ValueError(
                f"address {address} outside {self.config.width}x"
                f"{self.config.height} mesh"
            )
        return address % self.config.width, address // self.config.width

    def address_of(self, x: int, y: int) -> int:
        if not (0 <= x < self.config.width and 0 <= y < self.config.height):
            raise ValueError(f"tile ({x},{y}) outside mesh")
        return y * self.config.width + x

    def _build(self) -> None:
        cfg = self.config
        for y in range(cfg.height):
            for x in range(cfg.width):
                address = self.address_of(x, y)
                router = Router(
                    self.sim,
                    f"{self.name}.r{x}_{y}",
                    x,
                    y,
                    address,
                    self.coords_of,
                )
                self._routers[(x, y)] = router
        # Wire neighbours with one channel per direction.
        for (x, y), router in self._routers.items():
            for dx, dy, direction in (
                (1, 0, "east"),
                (-1, 0, "west"),
                (0, 1, "south"),
                (0, -1, "north"),
            ):
                nx, ny = x + dx, y + dy
                neighbour = self._routers.get((nx, ny))
                if neighbour is None:
                    continue
                channel = Channel(
                    self.sim,
                    f"{self.name}.ch_{x}_{y}_{direction}",
                    cfg.channel_bits,
                    self.clock,
                    neighbour.on_deliver,
                    credits=cfg.credits,
                    on_drain=router.pump,
                )
                router.attach_output(direction, channel)
                neighbour.register_input(channel)
                self.channels.append(channel)
                self._channel_sink[channel] = neighbour

    # ------------------------------------------------------------------
    # Endpoint binding
    # ------------------------------------------------------------------

    def bind(self, endpoint: Endpoint, x: int, y: int) -> NocPort:
        """Attach an endpoint to tile ``(x, y)`` and return its port."""
        address = self.address_of(x, y)
        if address in self._endpoints:
            raise ValueError(f"tile ({x},{y}) already has an endpoint")
        router = self._routers[(x, y)]
        endpoint.address = address
        router.attach_endpoint(endpoint)
        # Endpoints that refuse messages when full (lossless backpressure)
        # use this to wake the router once space frees.
        endpoint.notify_space = router.pump
        self._endpoints[address] = endpoint
        inject = Channel(
            self.sim,
            f"{self.name}.inj_{x}_{y}",
            self.config.channel_bits,
            self.clock,
            router.on_deliver,
            credits=self.config.credits,
        )
        router.register_input(inject)
        self.channels.append(inject)
        self._channel_sink[inject] = router
        return NocPort(self, endpoint, inject)

    def endpoint_at(self, address: int) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise ValueError(f"no endpoint bound at address {address}") from None

    def unbound_tiles(self) -> List[Tuple[int, int]]:
        """Tiles with no endpoint attached (free for monitors, spares...)."""
        return [
            (x, y)
            for y in range(self.config.height)
            for x in range(self.config.width)
            if self.address_of(x, y) not in self._endpoints
        ]

    def channel(self, name: str) -> Channel:
        """Look up a channel by its full name (e.g. ``mesh.inj_0_0``)."""
        for channel in self.channels:
            if channel.name == name:
                return channel
        raise ValueError(f"no channel named {name!r} in {self.name}")

    def router_at(self, x: int, y: int) -> Router:
        return self._routers[(x, y)]

    @property
    def routers(self) -> List[Router]:
        return list(self._routers.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def buffered_messages(self) -> int:
        """Total messages buffered inside routers (for drain checks)."""
        return sum(router.buffered_messages for router in self._routers.values())

    @property
    def in_flight(self) -> int:
        """Messages buffered in routers or queued on channels."""
        queued = sum(channel.queue_len for channel in self.channels)
        return self.buffered_messages + queued

    @property
    def credit_deficit(self) -> int:
        """Total credits held downstream or leaked across all channels."""
        return sum(channel.credit_deficit for channel in self.channels)

    def stuck_report(self) -> str:
        """Name the channels and routers still holding traffic or credits.

        Used by :meth:`assert_drained` and the fault-injection harness: a
        quiesced mesh with ``in_flight != 0`` (or a credit deficit with no
        traffic) indicates a deadlock or leak, and this report points at
        the exact links involved instead of a bare count.
        """
        lines: List[str] = []
        for channel in self.channels:
            busy = channel._transfer_in_progress
            if channel.queue_len or busy or channel.credit_deficit:
                state = []
                if channel.queue_len:
                    state.append(f"{channel.queue_len} queued")
                if busy:
                    state.append("transfer in progress")
                if channel.credit_deficit:
                    state.append(
                        f"{channel.credit_deficit}/{channel.max_credits} "
                        "credits outstanding"
                    )
                if channel.leaked_credits.value:
                    state.append(f"{channel.leaked_credits.value} leaked")
                lines.append(f"  channel {channel.name}: {', '.join(state)}")
        for router in self._routers.values():
            if router.buffered_messages:
                lines.append(
                    f"  router {router.name}: {router.buffered_messages} "
                    "buffered messages"
                )
        if not lines:
            return f"{self.name}: fully drained"
        header = (
            f"{self.name}: {self.in_flight} messages in flight, "
            f"{self.credit_deficit} credits outstanding"
        )
        return "\n".join([header] + lines)

    def assert_drained(self) -> None:
        """Raise :class:`MeshStuckError` (with the stuck report) when
        messages remain buffered in routers or queued on channels."""
        if self.in_flight != 0:
            raise MeshStuckError(self.stuck_report())

    def bisection_bandwidth_bps(self) -> float:
        """Analytical bisection bandwidth of this mesh (both directions)."""
        from repro.noc.analysis import MeshAnalysis

        return MeshAnalysis(
            self.config.width,
            self.config.height,
            self.config.channel_bits,
            self.config.freq_hz,
        ).bisection_bw_bps
