"""Point-to-point links with serialization and propagation delay.

A :class:`Link` is unidirectional: it drains one egress queue of the node at
its transmit side and delivers packets to the receive handler of the node at
the far side.  Bidirectional cables are simply two ``Link`` objects.

Each link owns:

* a :class:`~repro.net.queue.DropTailQueue` (the egress buffer of the port),
* a virtual-clock transmitter (one packet in flight at a time —
  store-and-forward), and
* an up/down flag so experiments can fail links to create asymmetry.

A :class:`~repro.net.dre.DiscountingRateEstimator` is attached only to the
links whose utilization something reads — INT-capable switch egress
(Clove-INT), CONGA switch egress, the telemetry ``link.utilization``
gauge, a stability sampler — each of which calls
:meth:`Link.track_utilization` while wiring, before traffic starts.
Every other link skips rate estimation on its data path entirely.

The transmitter keeps a *virtual serializer clock* (``_free_at``) instead of
an event chain: a packet admitted at ``t`` starts serializing at
``start = max(t, _free_at)``, ends at ``end = start + size/rate`` and is
delivered ``delay_s`` later — all computed at admission, so the whole hop
costs one simulator event (the delivery) instead of the three the old
start/finish/deliver chain paid.  The queue still holds every admitted
packet until its serialization start passes; ``_settle`` lazily folds
started packets into the tx counters (at admission — so occupancy/ECN
decisions see exactly the store-and-forward state — and at delivery, so
the conservation ledger never observes a delivery outrunning its
dequeue).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.net.dre import DiscountingRateEstimator
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Event, Simulator

ReceiveFn = Callable[[Packet], None]


class Link:
    """Unidirectional link: ``src_name`` -> ``dst_name``."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay_s: float,
        queue: Optional[DropTailQueue] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        #: the as-built rate; degradations scale relative to this, and
        #: restoration returns to exactly this value (no multiply-back drift)
        self.nominal_rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None else DropTailQueue()
        #: rate estimator, attached by :meth:`track_utilization` (None =
        #: nothing reads this link's utilization, so nothing records it)
        self.dre: Optional[DiscountingRateEstimator] = None
        self.up = True
        #: sim time of the most recent :meth:`fail` (-inf = never failed);
        #: switches with a non-zero failover delay consult this to keep a
        #: recently-dead link in their ECMP groups (stale hardware state)
        self.down_since = float("-inf")
        #: when the serializer finishes its last accepted packet
        self._free_at = 0.0
        #: per queued packet, parallel to ``queue._items``:
        #: (serialization start, serialization end, delivery event)
        self._meta: Deque[Tuple[float, float, Event]] = deque()
        self._receive: Optional[ReceiveFn] = None
        # Counters.
        self.tx_packets = 0
        self.tx_bytes = 0
        #: packets handed to the far-side receive handler
        self.rx_delivered = 0
        #: packets that were on the wire when the link died (the only loss
        #: on a link that is not a counted queue drop)
        self.lost_in_flight = 0
        #: queued packets discarded by :meth:`fail` (also in stats.dropped)
        self.flushed_packets = 0

    #: telemetry hooks; instances overwrite these via :meth:`attach_telemetry`
    #: (class attributes keep the uninstrumented path to one ``is None`` test)
    _tel_events = None
    _tel_drops = None
    _tel_marks = None

    #: global liveness generation, bumped by every :meth:`fail` /
    #: :meth:`recover` on any link; switches key their forwarding memos on
    #: it, so the memos invalidate exactly when some link's ``up`` flag
    #: flips
    state_gen = 0

    def attach_telemetry(self, telemetry) -> None:
        """Bind this link's hot-path drop/mark hooks to a telemetry scope."""
        self._tel_events = telemetry.events
        self._tel_drops = telemetry.registry.counter("switch.drop", link=self.name)
        self._tel_marks = telemetry.registry.counter("switch.ecn_mark", link=self.name)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, receive: ReceiveFn) -> None:
        """Set the far-side receive handler (done by the topology builder)."""
        self._receive = receive

    def track_utilization(self) -> None:
        """Attach a rate estimator so :meth:`utilization` can be read.

        Readers call this while wiring, before traffic starts (the
        estimator sees only packets sent after it is attached); a second
        call keeps the existing estimator.
        """
        if self.dre is None:
            self.dre = DiscountingRateEstimator(self.rate_bps)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the egress queue; returns ``False`` when it was
        dropped (queue full or link down).  A down link silently discards
        traffic, matching a dead cable.
        """
        if not self.up:
            meta = packet.meta
            if meta and ("probe" in meta or "probe_reply" in meta or "icmp" in meta):
                self.queue.stats.probe_dropped += 1
            else:
                self.queue.stats.dropped += 1
            if self._tel_events is not None:
                self._tel_drops.inc()
                self._tel_events.emit("switch.drop", self.sim.now,
                                      link=self.name, reason="link_down")
            return False
        sim = self.sim
        now = sim.now
        pending = self._meta
        # Fold already-started transmissions out of the buffer first, so the
        # occupancy the drop/ECN decision sees is exactly the waiting set a
        # store-and-forward port would hold.
        if pending and pending[0][0] <= now:
            self._settle(now)
        events = self._tel_events
        queue = self.queue
        if events is not None:
            ce_before = packet.ce
            if not queue.enqueue(packet, now):
                self._tel_drops.inc()
                events.emit("switch.drop", now,
                            link=self.name, reason="queue_full",
                            depth=len(queue))
                return False
            if packet.ce and not ce_before:
                self._tel_marks.inc()
                events.emit("switch.ecn_mark", now,
                            link=self.name, depth=len(queue))
        elif not queue.enqueue(packet, now):
            return False
        start = self._free_at
        if start < now:
            start = now
        size = packet.size
        end = start + size * 8.0 / self.rate_bps
        self._free_at = end
        dre = self.dre
        if dre is not None:
            dre.record(size, start)
        event = sim.at(end + self.delay_s, self._deliver, packet)
        pending.append((start, end, event))
        return True

    def _settle(self, now: float) -> None:
        """Evict every packet whose serialization has started by ``now``."""
        pending = self._meta
        queue = self.queue
        while pending and pending[0][0] <= now:
            start = pending.popleft()[0]
            packet = queue.dequeue(start)
            self.tx_packets += 1
            self.tx_bytes += packet.size

    def sync(self) -> None:
        """Fold started-but-unsettled transmissions into the counters.

        The virtual-clock transmitter evicts lazily on the data path;
        out-of-band readers of exact queue occupancy (the audit
        invariants) call this first.
        """
        if self._meta:
            self._settle(self.sim.now)

    def _deliver(self, packet: Packet) -> None:
        # Deliveries are FIFO, so settling up to now always evicts this
        # packet's own entry first — keeping ``rx_delivered`` from ever
        # outrunning the queue's dequeue count.
        pending = self._meta
        queue = self.queue
        now = self.sim.now
        while pending and pending[0][0] <= now:
            start = pending.popleft()[0]
            settled = queue.dequeue(start)
            self.tx_packets += 1
            self.tx_bytes += settled.size
        receive = self._receive
        if receive is None:
            self.lost_in_flight += 1
            return
        self.rx_delivered += 1
        receive(packet)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> int:
        """Take the link down; returns how many queued packets were flushed
        (lost).  Emits a ``link.down`` telemetry event when instrumented,
        so fault timelines are recoverable from any event log.

        Packets already past the serializer keep propagating and deliver;
        the packet on the wire mid-serialization dies with the link; the
        waiting buffer is flushed.
        """
        now = self.sim.now
        self.up = False
        self.down_since = now
        Link.state_gen += 1
        pending = self._meta
        queue = self.queue
        # Fully serialized: normal evictions, deliveries left scheduled.
        while pending and pending[0][1] <= now:
            start = pending.popleft()[0]
            packet = queue.dequeue(start)
            self.tx_packets += 1
            self.tx_bytes += packet.size
        # Mid-serialization: counted as transmitted, lost on the wire.
        if pending and pending[0][0] <= now:
            start, _end, event = pending.popleft()
            packet = queue.dequeue(start)
            self.tx_packets += 1
            self.tx_bytes += packet.size
            event.cancel()
            self.lost_in_flight += 1
        # Waiting: flushed, like the buffer of a yanked line card.
        flushed = 0
        stats = queue.stats
        while pending:
            pending.popleft()[2].cancel()
            queue.dequeue(now)
            stats.dropped += 1
            flushed += 1
        self.flushed_packets += flushed
        # Their serializations will never happen.
        if self.dre is not None:
            self.dre.drop_pending_after(now)
        self._free_at = now
        if self._tel_events is not None:
            self._tel_events.emit("link.down", now,
                                  link=self.name, flushed=flushed)
        return flushed

    def recover(self) -> None:
        """Bring the link back up (the buffer is empty after a failure, so
        there is no transmitter to restart)."""
        self.up = True
        self.down_since = float("-inf")
        Link.state_gen += 1
        if self._tel_events is not None:
            self._tel_events.emit("link.up", self.sim.now, link=self.name)

    def set_rate(self, rate_bps: float) -> None:
        """Change the live transmit rate (keeps the DRE consistent).

        The packet on the wire keeps its old-rate schedule, as hardware
        would; every waiting packet's serialization window — and its
        delivery event — is re-planned at the new rate.
        """
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_bps = rate_bps
        dre = self.dre
        if dre is not None:
            dre.rate_bps = rate_bps
        pending = self._meta
        if not pending:
            return
        sim = self.sim
        now = sim.now
        # Apply queued DRE samples before their start times move (rare
        # chaos-only path; keeps the estimator's timeline monotonic).
        if dre is not None:
            dre.flush_pending()
        rebuilt: Deque[Tuple[float, float, Event]] = deque()
        prev_end: Optional[float] = None
        items: List[Tuple[Packet, float]] = list(self.queue._items)
        for (start, end, event), (packet, _enqueued) in zip(pending, items):
            if start <= now:
                rebuilt.append((start, end, event))
                prev_end = end
                continue
            # The first waiting packet stays anchored to the in-flight
            # packet's (old-rate) end; the rest chain at the new rate.
            new_start = start if prev_end is None else prev_end
            new_end = new_start + packet.size * 8.0 / rate_bps
            if new_start != start or new_end != end:
                event.cancel()
                event = sim.at(new_end + self.delay_s, self._deliver, packet)
            rebuilt.append((new_start, new_end, event))
            prev_end = new_end
        self._meta = rebuilt
        if prev_end is not None:
            self._free_at = prev_end

    def degrade(self, factor: float) -> None:
        """Run at ``factor`` of the *nominal* rate (repeat calls don't
        compound: the factor is always relative to the as-built rate)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        self.set_rate(self.nominal_rate_bps * factor)

    def restore_rate(self) -> None:
        """Return to exactly the as-built nominal rate."""
        self.set_rate(self.nominal_rate_bps)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Instantaneous DRE-estimated utilization (0..~1).

        Raises ``RuntimeError`` on a link nobody registered with
        :meth:`track_utilization` — an untracked link has no estimate, and
        a silent 0.0 would read as an idle link.
        """
        dre = self.dre
        if dre is None:
            raise RuntimeError(
                f"link {self.name} does not track utilization; call "
                f"track_utilization() while wiring, before traffic starts"
            )
        return dre.utilization(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"Link({self.name}, {self.rate_bps/1e9:.1f}Gbps, {state}, q={len(self.queue)})"
