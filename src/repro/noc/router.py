"""A 5-port input-queued mesh router with dimension-ordered routing.

Every PANIC engine contains a router (Figure 3a); routers connect to their
north/south/east/west neighbours and to the local engine.  Routing is XY
(dimension-ordered): a message first travels along the X axis to the
destination column, then along Y -- deadlock-free on a mesh without
virtual channels.

Input buffering is per-upstream-channel FIFO with credits (see
:mod:`repro.noc.channel`); the router moves head-of-line messages to output
channels whenever the output can accept, and stalls otherwise, propagating
backpressure toward the source.

Routes are static, so each router resolves a destination's output channel
once and keeps it in a next-hop table; a message arriving at an idle
router is forwarded straight away instead of through the round-robin scan.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.noc.channel import Channel
from repro.noc.message import NocMessage
from repro.sim.kernel import Component, Simulator
from repro.sim.stats import Counter


class Endpoint:
    """Anything attachable to a router's local port (engines, MACs, ...)."""

    #: NoC address; assigned when the endpoint is bound to a mesh.
    address: int = -1

    #: Set by the fabric at bind time: call it when the endpoint frees
    #: input space, so a router holding refused messages retries.
    notify_space = None

    def receive(self, message: NocMessage) -> None:
        """Accept a message delivered by the local router."""
        raise NotImplementedError

    def try_receive(self, message: NocMessage) -> bool:
        """Accept a message, or refuse it to exert backpressure.

        The default accepts unconditionally.  Endpoints with bounded
        lossless input (section 6's flow-control question) override this
        to return False when full; the router then parks the message in
        its input buffer, stalling the upstream credit loop, and retries
        when :attr:`notify_space` fires.
        """
        self.receive(message)
        return True


class Router(Component):
    """One tile's router.

    Parameters
    ----------
    sim, name:
        Kernel plumbing.
    x, y:
        Tile coordinates in the mesh.
    address:
        NoC address of the endpoint attached to this tile.
    coords_of:
        Resolver from any NoC address to tile coordinates (owned by the
        :class:`~repro.noc.mesh.Mesh`).
    """

    DIRECTIONS = ("east", "west", "north", "south")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        x: int,
        y: int,
        address: int,
        coords_of: Callable[[int], Tuple[int, int]],
    ):
        super().__init__(sim, name)
        self.x = x
        self.y = y
        self.address = address
        self._coords_of = coords_of
        self.endpoint: Optional[Endpoint] = None
        self._out: Dict[str, Channel] = {}
        # One FIFO of (message, in_channel) per upstream channel.
        self._inputs: Dict[Channel, Deque[Tuple[NocMessage, Channel]]] = {}
        self._rr_order: List[Channel] = []
        # Destination address -> output channel, filled on first use.
        # Only resolvable destinations are stored, so an unroutable one
        # raises at every forward that tries it.
        self._next_hop: Dict[int, Channel] = {}
        self._pumping = False
        self._pump_again = False
        self._buffered = 0
        self.forwarded = Counter(f"{name}.forwarded")
        self.delivered = Counter(f"{name}.delivered")
        # Set by repro.telemetry; None-checked on the refusal path only.
        self._tracer = None

    # ------------------------------------------------------------------
    # Wiring (done by the Mesh builder)
    # ------------------------------------------------------------------

    def attach_output(self, direction: str, channel: Channel) -> None:
        if direction not in self.DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if direction in self._out:
            raise ValueError(f"{self.name}: output {direction} already wired")
        self._out[direction] = channel

    def attach_endpoint(self, endpoint: Endpoint) -> None:
        if self.endpoint is not None:
            raise ValueError(f"{self.name}: endpoint already attached")
        self.endpoint = endpoint

    def register_input(self, channel: Channel) -> None:
        """Declare an upstream channel (its deliveries arrive here)."""
        if channel in self._inputs:
            raise ValueError(f"{self.name}: input channel already registered")
        self._inputs[channel] = deque()
        self._rr_order.append(channel)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def on_deliver(self, message: NocMessage, channel: Channel) -> None:
        """Channel delivery callback: buffer the message, then pump.

        At an idle router the message is the only one buffered, so the
        pump's scan would find it first and try it once: forward it
        directly, then rotate the round-robin order once for that pass
        and once per pass a re-entrant :meth:`pump` (an output's
        ``on_drain``, the endpoint's ``notify_space``) asked for.
        """
        queue = self._inputs.get(channel)
        if queue is None:
            raise RuntimeError(f"{self.name}: delivery from unregistered channel")
        if self._buffered or self._pumping:
            queue.append((message, channel))
            self._buffered += 1
            self.pump()
            return
        self._pumping = True
        # Counted as buffered while it is tried, as in the scan.
        self._buffered = 1
        try:
            if self._forward(message):
                self._buffered = 0
                channel.release_credit()
            else:
                queue.append((message, channel))
            rr = self._rr_order
            rr.append(rr.pop(0))
            while self._pump_again:
                self._pump_again = False
                if self._buffered:
                    self._pump_once()
                else:
                    rr.append(rr.pop(0))
        finally:
            self._pumping = False

    def pump(self) -> None:
        """Move head-of-line messages onward while progress is possible.

        Re-entrant calls (a channel's ``on_drain`` firing while this router
        is already pumping) are coalesced into one extra pass.
        """
        if self._pumping:
            self._pump_again = True
            return
        self._pumping = True
        try:
            self._pump_once()
            while self._pump_again:
                self._pump_again = False
                self._pump_once()
        finally:
            self._pumping = False

    def _pump_once(self) -> None:
        # Scanning empty queues has no side effects, so an idle router
        # skips straight to the fairness rotation.
        if self._buffered:
            progress = True
            while progress:
                progress = False
                for channel in self._rr_order:
                    queue = self._inputs[channel]
                    if not queue:
                        continue
                    message, in_channel = queue[0]
                    if self._forward(message):
                        queue.popleft()
                        self._buffered -= 1
                        in_channel.release_credit()
                        progress = True
                if not self._buffered:
                    break
        # Round-robin fairness: rotate the service order.
        if self._rr_order:
            self._rr_order.append(self._rr_order.pop(0))

    def _forward(self, message: NocMessage) -> bool:
        """Try to move one message toward its destination.

        Returns True when the message was consumed (delivered locally or
        handed to an output channel).
        """
        if message.dest_addr == self.address:
            if self.endpoint is None:
                raise RuntimeError(
                    f"{self.name}: message for local endpoint but none attached"
                )
            if not self.endpoint.try_receive(message):
                # Endpoint full: hold the message here; its credit stays
                # consumed, backpressuring the upstream path.
                if self._tracer is not None:
                    ctx = message.packet.meta.annotations.get("__trace__")
                    if ctx is not None:
                        self._tracer.instant(
                            ctx, "refused", self.name, self.now,
                            (("dest", message.dest_addr),))
                return False
            self.delivered.value += 1
            return True
        out = self._next_hop.get(message.dest_addr)
        if out is None:
            out = self.next_hop(message.dest_addr)
        if out._pending:
            # Queueing behind a waiting message would only relocate the
            # queue; refusing propagates backpressure toward the source.
            return False
        self.forwarded.value += 1
        out.submit(message)
        return True

    def next_hop(self, dest_addr: int) -> Channel:
        """The output channel toward ``dest_addr`` (XY route).

        Raises ValueError for an address outside the mesh and
        RuntimeError when the route leaves through an unwired side.
        """
        out = self._next_hop.get(dest_addr)
        if out is not None:
            return out
        direction = self.route(dest_addr)
        out = self._out.get(direction)
        if out is None:
            raise RuntimeError(
                f"{self.name}: no {direction} link toward address "
                f"{dest_addr}"
            )
        self._next_hop[dest_addr] = out
        return out

    def route(self, dest_addr: int) -> str:
        """Dimension-ordered (X first, then Y) next-hop decision."""
        dx, dy = self._coords_of(dest_addr)
        if dx > self.x:
            return "east"
        if dx < self.x:
            return "west"
        if dy > self.y:
            return "south"
        if dy < self.y:
            return "north"
        raise ValueError(
            f"{self.name}: routing to self (address {dest_addr}); "
            "local delivery should have been taken"
        )

    @property
    def buffered_messages(self) -> int:
        """Messages currently waiting in this router's input buffers."""
        return self._buffered
