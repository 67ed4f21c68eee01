"""A one-way on-chip channel with serialization and credit backpressure.

The paper (section 3.1.2) requires the on-chip network to be *lossless*:
messages are never dropped in flight; drops happen only at the logical
scheduler.  We implement losslessness with credits: a channel may start a
transfer only while it holds a credit for a downstream buffer slot, and the
receiver returns the credit when the message leaves its input buffer.

Timing model (store-and-forward):

* serialization takes ``ceil(bits / width_bits)`` cycles of the channel
  clock -- a message occupies the wires for its whole length;
* the downstream router adds one cycle of latency per hop (section 3.1.2:
  "routers add one cycle of latency at each hop"), charged here as part of
  the delivery delay.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

from repro.sim.clock import Clock
from repro.sim.kernel import Component, Simulator
from repro.sim.stats import Counter

if TYPE_CHECKING:
    from repro.noc.message import NocMessage

#: Per-hop router pipeline latency in cycles (paper section 3.1.2).
ROUTER_HOP_CYCLES = 1


class Channel(Component):
    """A unidirectional link between two NoC components.

    Parameters
    ----------
    sim, name:
        Simulation kernel plumbing.
    width_bits:
        Channel bit width per cycle; the paper evaluates 64 and 128.
    clock:
        The NoC clock domain (500 MHz in the paper's reference numbers).
    deliver:
        Callback ``deliver(message, channel)`` invoked when a message has
        fully arrived downstream.
    credits:
        Number of downstream buffer slots, i.e. the credit pool.
    on_drain:
        Optional callback fired whenever a transfer *starts*, freeing the
        sender-side slot -- routers use it to resume stalled forwarding.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        width_bits: int,
        clock: Clock,
        deliver: Callable[["NocMessage", "Channel"], None],
        credits: int = 4,
        on_drain: Optional[Callable[[], None]] = None,
    ):
        super().__init__(sim, name)
        if width_bits <= 0:
            raise ValueError(f"channel width must be positive, got {width_bits}")
        if credits <= 0:
            raise ValueError(f"channel needs at least one credit, got {credits}")
        self.width_bits = width_bits
        self.clock = clock
        self.deliver = deliver
        self.on_drain = on_drain
        self._credits = credits
        self._max_credits = credits
        self._pending: Deque["NocMessage"] = deque()
        self._busy_until = 0
        self._busy_accum_ps = 0
        self._transfer_in_progress = False
        self._ser_cache: dict = {}
        # Pending injected faults (see inject_corruption / inject_drop):
        # each entry applies to one future transfer completion.
        self._fault_corruptions: Deque[tuple] = deque()
        self._fault_drops: Deque[bool] = deque()
        # Set by repro.telemetry; None-checked on the completion path only.
        self._tracer = None
        # Statistics.
        self.sent = Counter(f"{name}.sent")
        self.bits_sent = Counter(f"{name}.bits")
        self.stall_events = Counter(f"{name}.stalls")
        self.corrupted = Counter(f"{name}.corrupted")
        self.dropped_flits = Counter(f"{name}.dropped_flits")
        self.leaked_credits = Counter(f"{name}.leaked_credits")

    # ------------------------------------------------------------------
    # Sender interface
    # ------------------------------------------------------------------

    def submit(self, message: "NocMessage") -> None:
        """Queue a message for transmission (never drops)."""
        self._pending.append(message)
        if not self._transfer_in_progress:
            self._try_start()

    @property
    def queue_len(self) -> int:
        """Messages waiting for the wire (sender side)."""
        return len(self._pending)

    @property
    def credits(self) -> int:
        """Credits currently available."""
        return self._credits

    # ------------------------------------------------------------------
    # Receiver interface
    # ------------------------------------------------------------------

    def release_credit(self) -> None:
        """Called by the receiver when a message leaves its input buffer."""
        if self._credits >= self._max_credits:
            raise RuntimeError(f"{self.name}: credit overflow")
        self._credits += 1
        if self._pending and not self._transfer_in_progress:
            self._try_start()

    @property
    def max_credits(self) -> int:
        """Size of the credit pool (downstream buffer slots)."""
        return self._max_credits

    @property
    def credit_deficit(self) -> int:
        """Credits currently held downstream (or leaked by a fault)."""
        return self._max_credits - self._credits

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------

    def inject_corruption(self, rng, bits: int = 1,
                          offset: Optional[int] = None) -> None:
        """Arm a one-shot fault: the next message completing a transfer on
        this wire has ``bits`` random payload bits flipped (positions drawn
        from ``rng``, or within the byte at ``offset`` when given).  The
        message still delivers -- detection is the receiver's job, at
        checksum/ICV verification points.
        """
        self._fault_corruptions.append((rng, bits, offset))

    def inject_drop(self, leak_credit: bool = True) -> None:
        """Arm a one-shot fault: the next message completing a transfer
        vanishes in flight.  With ``leak_credit`` (the default, modelling a
        corrupted credit-return path) the consumed credit is never
        returned, permanently shrinking the channel's pool -- the classic
        leak that eventually wedges a lossless mesh.
        """
        self._fault_drops.append(leak_credit)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _serialization_ps(self, bits: int) -> int:
        cached = self._ser_cache.get(bits)
        if cached is not None:
            return cached
        cycles = -(-bits // self.width_bits)  # ceil division
        result = self.clock.cycles_to_ps(cycles + ROUTER_HOP_CYCLES)
        if len(self._ser_cache) < 512:
            self._ser_cache[bits] = result
        return result

    def _try_start(self) -> None:
        if self._transfer_in_progress or not self._pending:
            return
        if self._credits <= 0:
            self.stall_events.value += 1
            return
        message = self._pending.popleft()
        bits = message.bits
        self._credits -= 1
        self._transfer_in_progress = True
        duration = self._ser_cache.get(bits)
        if duration is None:
            duration = self._serialization_ps(bits)
        # The previous transfer ended by the time its _complete cleared
        # _transfer_in_progress, so the wires are free from now on.
        self._busy_until = self.sim.now + duration
        self._busy_accum_ps += duration
        self.schedule(duration, self._complete, message)
        self.sent.value += 1
        self.bits_sent.value += bits
        if self.on_drain is not None:
            self.on_drain()

    def _complete(self, message: "NocMessage") -> None:
        self._transfer_in_progress = False
        tracer = self._tracer
        ctx = (message.packet.meta.annotations.get("__trace__")
               if tracer is not None else None)
        if self._fault_drops:
            leak = self._fault_drops.popleft()
            self.dropped_flits.add()
            if leak:
                self.leaked_credits.add()
            else:
                self._credits += 1
            if ctx is not None:
                tracer.instant(ctx, "wire_drop", self.name, self.now)
            if self._pending:
                self._try_start()
            return
        if self._fault_corruptions:
            rng, bits, offset = self._fault_corruptions.popleft()
            self._apply_corruption(message, rng, bits, offset)
        message.hops += 1
        if ctx is not None:
            # The transfer window is [now - serialization, now].
            tracer.hop(ctx, self.name,
                       self.now - self._serialization_ps(message.bits),
                       self.now)
        self.deliver(message, self)
        if self._pending and not self._transfer_in_progress:
            self._try_start()

    def _apply_corruption(self, message: "NocMessage", rng, bits: int,
                          offset: Optional[int]) -> None:
        data = bytearray(message.packet.data)
        if not data:
            return
        for _ in range(bits):
            if offset is not None and 0 <= offset < len(data):
                position = offset * 8 + rng.randint(0, 7)
            else:
                position = rng.randint(0, len(data) * 8 - 1)
            data[position // 8] ^= 1 << (position % 8)
        message.packet.data = bytes(data)
        self.corrupted.add()

    def utilization(self, elapsed_ps: int) -> float:
        """Fraction of ``[0, elapsed_ps]`` the wires spent busy.

        Serialization time is accumulated per transfer; any portion of an in-progress transfer
        beyond ``elapsed_ps`` is excluded.
        """
        if elapsed_ps <= 0:
            return 0.0
        busy = self._busy_accum_ps
        if self._busy_until > elapsed_ps:
            busy -= self._busy_until - elapsed_ps
        if busy <= 0:
            return 0.0
        return min(1.0, busy / elapsed_ps)
