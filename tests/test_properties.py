"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.discovery import select_disjoint
from repro.core.flowlet import FlowletTable
from repro.core.weights import WeightedPathTable
from repro.metrics.collector import percentile
from repro.net.dre import DiscountingRateEstimator
from repro.net.hashing import EcmpHasher
from repro.net.link import Link
from repro.net.packet import FlowKey
from repro.net.queue import DropTailQueue, Packet
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.workloads.distributions import EmpiricalCdf
import random


flow_keys = st.builds(
    FlowKey,
    src_ip=st.integers(0, 2**16),
    dst_ip=st.integers(0, 2**16),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    proto=st.sampled_from([6, 17]),
)


class TestHashingProperties:
    @given(flow_keys, st.integers(1, 64), st.integers(0, 2**32))
    def test_select_in_range_and_deterministic(self, key, n, seed):
        hasher = EcmpHasher(seed)
        choice = hasher.select(key, n)
        assert 0 <= choice < n
        assert hasher.select(key, n) == choice

    @given(flow_keys)
    def test_reverse_is_involution(self, key):
        assert key.reversed().reversed() == key


class TestWeightProperties:
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
        st.floats(0.05, 0.9),
    )
    def test_weights_remain_normalized_and_positive(self, marks, reduction):
        table = WeightedPathTable(reduction_factor=reduction)
        ports = [100, 200, 300, 400]
        table.set_paths(1, ports, [("a",), ("b",), ("c",), ("d",)])
        for i, index in enumerate(marks):
            table.mark_congested(1, ports[index], now=i * 1e-5)
            weights = table.weights_for(1)
            assert math.isclose(sum(weights.values()), 1.0, rel_tol=1e-9)
            assert all(w > 0 for w in weights.values())

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_wrr_long_run_frequency_matches_weights(self, raw):
        total = sum(raw)
        if total <= 0:
            raw = [1.0] * len(raw)
            total = float(len(raw))
        table = WeightedPathTable()
        ports = list(range(len(raw)))
        table.set_paths(1, ports, [(f"t{i}",) for i in ports])
        table.set_static_weights(1, raw)
        n = 2000
        counts = {p: 0 for p in ports}
        for _ in range(n):
            counts[table.next_port(1)] += 1
        weights = table.weights_for(1)
        for port in ports:
            assert abs(counts[port] / n - weights[port]) < 0.02


class TestFlowletProperties:
    @given(st.lists(st.floats(1e-7, 1e-2), min_size=1, max_size=200))
    def test_flowlet_ids_monotonic(self, gaps):
        table = FlowletTable(gap=1e-4)
        key = ("flow",)
        now = 0.0
        last_id = -1
        for gap in gaps:
            now += gap
            port, _fid = table.lookup(key, now)
            if port is None:
                fid = table.assign(key, 1, now)
                assert fid > last_id
                last_id = fid

    @given(st.lists(st.floats(0, 9e-5), min_size=1, max_size=100))
    def test_no_new_flowlet_within_gap(self, deltas):
        table = FlowletTable(gap=1e-4)
        key = ("flow",)
        table.assign(key, 7, 0.0)
        now = 0.0
        for delta in deltas:
            now += min(delta, 9e-5)
            port, _ = table.lookup(key, now)
            assert port == 7


class TestQueueProperties:
    @given(st.lists(st.sampled_from(["enq", "deq"]), min_size=1, max_size=300))
    def test_occupancy_invariants(self, ops):
        queue = DropTailQueue(capacity_packets=16, ecn_threshold_packets=4)
        flow = FlowKey(1, 2, 3, 4)
        model = 0
        for op in ops:
            if op == "enq":
                packet = Packet(flow, payload_bytes=100)
                if queue.enqueue(packet, 0.0):
                    model += 1
            else:
                got = queue.dequeue(0.0)
                if got is not None:
                    model -= 1
            assert len(queue) == model
            assert 0 <= len(queue) <= 16
            assert queue.byte_count >= 0

    @given(st.integers(1, 50), st.integers(0, 60))
    def test_never_exceeds_capacity(self, capacity, offered):
        queue = DropTailQueue(capacity_packets=capacity, ecn_threshold_packets=None)
        flow = FlowKey(1, 2, 3, 4)
        for _ in range(offered):
            queue.enqueue(Packet(flow, payload_bytes=10), 0.0)
        assert len(queue) <= capacity
        assert queue.stats.dropped == max(0, offered - capacity)


class TestDreProperties:
    @given(
        st.lists(st.tuples(st.integers(1, 10_000), st.floats(0, 1e-3)),
                 min_size=1, max_size=100)
    )
    def test_utilization_nonnegative_and_decaying(self, events):
        dre = DiscountingRateEstimator(rate_bps=1e9)
        now = 0.0
        for nbytes, gap in events:
            now += gap
            dre.record(nbytes, now)
            assert dre.utilization(now) >= 0.0
        later = dre.utilization(now + 0.1)
        assert later <= dre.utilization(now) + 1e-12


class _TapLink(Link):
    """A link that records the packets handed to it instead of sending."""

    def __init__(self, sim, name):
        super().__init__(sim, name, rate_bps=1e9, delay_s=0.0)
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True


_N_LINKS = 4
_DSTS = (101, 102, 103)
_route_keys = [
    FlowKey(7, dst, sport, 7471) for dst in _DSTS for sport in (1000, 1001, 2024, 40000)
]
_switch_ops = st.lists(
    st.one_of(
        st.tuples(st.just("fail"), st.integers(0, _N_LINKS - 1)),
        st.tuples(st.just("recover"), st.integers(0, _N_LINKS - 1)),
        st.tuples(st.just("route"), st.sampled_from(_DSTS),
                  st.lists(st.integers(0, _N_LINKS - 1), max_size=_N_LINKS)),
        st.tuples(st.just("delay"), st.sampled_from([0.0, 0.0, 1e-3])),
        st.tuples(st.just("tick"), st.sampled_from([1e-4, 2e-3])),
    ),
    max_size=25,
)


class TestForwardingMemoProperties:
    """The per-switch forwarding memo is invisible: every hop leaves on the
    link a fresh ECMP computation over the live group would pick."""

    @staticmethod
    def _reference(switch, key):
        group = switch.routes.get(key.dst_ip)
        if not group:
            return None
        horizon = switch.sim.now - switch.failover_delay
        live = [link for link in group if link.up or link.down_since > horizon]
        if not live:
            return None
        return live[switch.hasher.select(key, len(live))]

    @settings(max_examples=150, deadline=None)
    @given(_switch_ops, st.integers(0, 2**32))
    def test_memoized_egress_matches_reference(self, ops, seed):
        sim = Simulator()
        links = [_TapLink(sim, f"l{i}") for i in range(_N_LINKS)]
        switch = Switch(sim, "S", ip=1, hash_seed=seed)
        for dst in _DSTS:
            switch.add_route(dst, links)
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "fail":
                links[op[1]].fail()
            elif kind == "recover":
                links[op[1]].recover()
            elif kind == "route":
                switch.add_route(op[1], [links[i] for i in op[2]])
            elif kind == "delay":
                switch.failover_delay = op[1]
            else:
                sim.run(until=sim.now + op[1])
            # Both entry points consult the memo; alternate which one sees
            # the new link state first.
            entries = (switch.receive, switch.forward)
            if step % 2:
                entries = entries[::-1]
            for key in _route_keys:
                expected = self._reference(switch, key)
                for entry in entries:
                    # An equal but distinct key must hit the same entry.
                    packet = Packet(FlowKey(*key.as_tuple()), payload_bytes=10)
                    before = switch.blackholed
                    entry(packet, None)
                    if expected is None:
                        assert switch.blackholed == before + 1
                        assert all(packet not in link.sent for link in links)
                        continue
                    assert expected.sent and expected.sent[-1] is packet
                    if not switch.failover_delay:
                        assert switch._egress_memo[key] is expected

    def test_in_switch_balancers_bypass_the_memo(self):
        from repro.baselines.conga import CongaLeafSwitch, CongaSpineSwitch
        from repro.baselines.letflow import LetFlowSwitch

        sim = Simulator()
        for cls in (CongaLeafSwitch, CongaSpineSwitch, LetFlowSwitch):
            assert cls(sim, "X", ip=1, hash_seed=3)._egress_memo is None
        assert Switch(sim, "X", ip=1, hash_seed=3)._egress_memo == {}


class TestDisjointSelectionProperties:
    @given(
        st.dictionaries(
            st.integers(1024, 65535),
            st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 8),
    )
    def test_selection_unique_and_bounded(self, candidates, k):
        selection = select_disjoint(candidates, k)
        traces = [t for _p, t in selection]
        assert len(traces) == len(set(traces))      # no duplicate paths
        assert len(selection) <= k
        assert all(p in candidates for p, _t in selection)
        unique_traces = len(set(candidates.values()))
        assert len(selection) == min(k, unique_traces)


class TestDistributionProperties:
    @given(st.integers(0, 2**31), st.floats(0.001, 10.0))
    def test_samples_scale_with_support(self, seed, scale):
        dist = EmpiricalCdf([(1_000, 0.0), (10_000, 0.5), (100_000, 1.0)], scale=scale)
        rng = random.Random(seed)
        sample = dist.sample(rng)
        assert 1_000 * scale * 0.99 <= sample <= 100_000 * scale * 1.01 or sample == 1


class TestPercentileProperties:
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=500),
           st.floats(0.1, 100.0))
    def test_percentile_is_member_and_bounded(self, values, q):
        values.sort()
        result = percentile(values, q)
        assert result in values
        assert values[0] <= result <= values[-1]

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_percentile_monotone_in_q(self, values):
        values.sort()
        assert percentile(values, 50) <= percentile(values, 99)
