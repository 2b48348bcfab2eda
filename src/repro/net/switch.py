"""Store-and-forward L3 switch with static-hash ECMP.

The switch models exactly the features Clove assumes from off-the-shelf
hardware:

* **ECMP** — per-destination next-hop groups; the egress link is picked by a
  static per-switch hash of the routed 5-tuple (the *outer* header for
  encapsulated traffic).  When the set of live next hops changes, ``hash %
  n`` remaps, which is why Clove re-runs path discovery after failures.
* **TTL / ICMP** — TTL is decremented per hop; on expiry the switch returns
  an ICMP Time-Exceeded identifying the ingress interface.  This is the
  primitive Clove's encapsulation-header traceroute builds on.
* **ECN marking** — performed by the egress queues (:mod:`repro.net.queue`).
* **INT stamping** — when a packet requests telemetry, the switch folds the
  egress link's DRE utilization into ``int_max_util`` (Clove-INT).  An
  INT-capable switch registers its egress links for utilization tracking
  as routes are installed.

Switches intended to run CONGA subclass this and override
:meth:`select_port`; everything else is shared.

The base switch's egress choice is a pure function of the routed 5-tuple
and the up/down state of the group's links, so it keeps a *forwarding
memo* (route key -> egress link) that :meth:`receive` consults first: a
hit costs one dict lookup instead of the group lookup, live-member filter
and hash.  The memo is cleared whenever any link's up flag flips
(``Link.state_gen``) or a route changes, and is not used by subclasses
that override the egress choice (CONGA, LetFlow) or while a non-zero
``failover_delay`` makes liveness depend on time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.net.hashing import EcmpHasher
from repro.net.link import Link
from repro.net.packet import FlowKey, Packet
from repro.sim.engine import Simulator

PROTO_ICMP = 1
PROTO_TCP = 6

#: meta key for the ICMP payload of a Time-Exceeded message.
ICMP_TIME_EXCEEDED = "time_exceeded"


class Switch:
    """An L3 ECMP switch.  One ingress handler per attached link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        hash_seed: int,
        int_capable: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ip = ip
        self.hasher = EcmpHasher(hash_seed)
        self.int_capable = int_capable
        #: dst_ip -> ordered ECMP group of egress links.
        self.routes: Dict[int, List[Link]] = {}
        #: seconds a freshly-dead link stays in its ECMP groups before the
        #: (modeled) routing agent repairs them.  0 = idealized instant
        #: failover, the historical behavior; real fabrics take tens of
        #: milliseconds to seconds, during which traffic hashed onto the
        #: dead member is blackholed — the regime edge-based path health
        #: monitoring (repro.core.health) exists to fix.
        self.failover_delay = 0.0
        #: route key -> egress link, valid at ``Link.state_gen ==
        #: _memo_gen``; None when a subclass overrides the egress choice
        cls = type(self)
        pure = (
            cls.forward is Switch.forward
            and cls.select_port is Switch.select_port
            and cls.on_egress is Switch.on_egress
        )
        self._egress_memo: Optional[Dict[FlowKey, Link]] = {} if pure else None
        self._memo_gen = Link.state_gen
        self.rx_packets = 0
        self.blackholed = 0
        #: packets consumed here because their TTL hit zero
        self.ttl_expired = 0
        #: ICMP Time-Exceeded replies this switch injected into the fabric
        self.icmp_originated = 0

    #: telemetry hook; instances overwrite via :meth:`attach_telemetry`
    _tel_events = None

    def attach_telemetry(self, telemetry) -> None:
        """Bind blackhole/TTL event emission to a telemetry scope."""
        self._tel_events = telemetry.events

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def add_route(self, dst_ip: int, links: Sequence[Link]) -> None:
        """Install/replace the ECMP group towards ``dst_ip``."""
        group = list(links)
        self.routes[dst_ip] = group
        if self._egress_memo is not None:
            self._egress_memo.clear()
        if self.int_capable:
            for link in group:
                link.track_utilization()

    def ingress_handler(self, link_in: Optional[Link]) -> Callable[[Packet], None]:
        """Return the receive callback for packets arriving over ``link_in``."""
        def _receive(packet: Packet) -> None:
            self.receive(packet, link_in)
        return _receive

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link_in: Optional[Link]) -> None:
        """Process one arriving packet."""
        self.rx_packets += 1
        if packet.trace is not None:
            self.on_trace(packet, link_in)
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.ttl_expired += 1
            if self._tel_events is not None:
                self._tel_events.emit("switch.ttl_expired", self.sim.now,
                                      switch=self.name,
                                      dst=packet.route_key.dst_ip)
            self._send_time_exceeded(packet, link_in)
            return
        # Forwarding memo hit: one dict lookup, then the INT stamp and the
        # send.  A miss (or a switch that may not memoize) takes forward.
        memo = self._egress_memo
        if memo is not None and not self.failover_delay:
            if self._memo_gen != Link.state_gen:
                memo.clear()
                self._memo_gen = Link.state_gen
            key = packet.outer
            link_out = memo.get(key if key is not None else packet.inner)
            if link_out is not None:
                if self.int_capable and packet.int_enabled:
                    util = link_out.utilization()
                    if util > packet.int_max_util:
                        packet.int_max_util = util
                link_out.send(packet)
                return
        self.forward(packet, link_in)

    def forward(self, packet: Packet, link_in: Optional[Link]) -> None:
        """Route ``packet`` towards its (outer) destination IP."""
        key = packet.route_key
        memo = self._egress_memo
        link_out = None
        if memo is not None and not self.failover_delay:
            if self._memo_gen != Link.state_gen:
                memo.clear()
                self._memo_gen = Link.state_gen
            link_out = memo.get(key)
        else:
            memo = None
        if link_out is None:
            group = self.routes.get(key.dst_ip)
            if not group:
                self.blackholed += 1
                if self._tel_events is not None:
                    self._tel_events.emit("switch.drop", self.sim.now,
                                          switch=self.name, reason="no_route",
                                          dst=key.dst_ip)
                return
            if self.failover_delay > 0.0:
                # Stale-group window: a link that died less than
                # failover_delay ago is still an ECMP member; packets hashed
                # onto it are dropped at the link (counted on its queue, so
                # chaos blackhole accounting attributes them to the dead
                # cable).
                horizon = self.sim.now - self.failover_delay
                live = [
                    link for link in group
                    if link.up or link.down_since > horizon
                ]
            else:
                live = [link for link in group if link.up]
            if not live:
                self.blackholed += 1
                if self._tel_events is not None:
                    self._tel_events.emit("switch.drop", self.sim.now,
                                          switch=self.name,
                                          reason="all_links_down",
                                          dst=key.dst_ip)
                return
            link_out = self.select_port(packet, key, live, link_in)
            if memo is not None:
                memo[key] = link_out
        if self.int_capable and packet.int_enabled:
            util = link_out.utilization()
            if util > packet.int_max_util:
                packet.int_max_util = util
        self.on_egress(packet, link_out)
        link_out.send(packet)

    def select_port(
        self,
        packet: Packet,
        key: FlowKey,
        live: List[Link],
        link_in: Optional[Link],
    ) -> Link:
        """Default policy: static ECMP hash over the live next hops."""
        return live[self.hasher.select(key, len(live))]

    # Hooks for subclasses (CONGA / LetFlow) -----------------------------
    def on_egress(self, packet: Packet, link_out: Link) -> None:
        """Called just before transmission; default is a no-op."""

    def on_trace(self, packet: Packet, link_in: Optional[Link]) -> None:
        """Record the hop when packet tracing is enabled."""
        tag = f"{self.name}<{link_in.name}" if link_in is not None else self.name
        packet.trace.append(tag)

    # ------------------------------------------------------------------
    # ICMP
    # ------------------------------------------------------------------
    def _send_time_exceeded(self, packet: Packet, link_in: Optional[Link]) -> None:
        """Reply to the (outer) source with an ICMP Time-Exceeded.

        The reply identifies the ingress interface (the link the probe came
        in on), which is what lets the traceroute daemon distinguish two
        paths that traverse the same switch via different links — exactly
        what Paris-style traceroute observes from interface IPs.
        """
        key = packet.route_key
        reply_key = FlowKey(self.ip, key.src_ip, 0, 0, PROTO_ICMP)
        reply = Packet(reply_key, payload_bytes=28, created_at=self.sim.now)
        reply.meta["icmp"] = ICMP_TIME_EXCEEDED
        reply.meta["hop_switch"] = self.name
        reply.meta["hop_interface"] = link_in.name if link_in is not None else self.name
        reply.meta["orig"] = key
        reply.meta["probe_id"] = packet.meta.get("probe_id")
        self.icmp_originated += 1
        self.forward(reply, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name}, routes={len(self.routes)})"
