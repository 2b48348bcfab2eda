"""Unit tests for drop-tail queues and links."""

import pytest

from repro.net.link import Link
from repro.net.packet import FlowKey, Packet, make_data_packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator


def _packet(payload=1460, ect=False):
    packet = make_data_packet(FlowKey(1, 2, 3, 4), 0, payload, 0.0)
    packet.ect = ect
    return packet


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(capacity_packets=10, ecn_threshold_packets=None)
        first, second = _packet(), _packet()
        queue.enqueue(first, 0.0)
        queue.enqueue(second, 0.0)
        assert queue.dequeue(0.0) is first
        assert queue.dequeue(0.0) is second
        assert queue.dequeue(0.0) is None

    def test_drop_when_full(self):
        queue = DropTailQueue(capacity_packets=2, ecn_threshold_packets=None)
        assert queue.enqueue(_packet(), 0.0)
        assert queue.enqueue(_packet(), 0.0)
        assert not queue.enqueue(_packet(), 0.0)
        assert queue.stats.dropped == 1
        assert queue.stats.enqueued == 2

    def test_ecn_marked_above_threshold_for_ect_packets(self):
        queue = DropTailQueue(capacity_packets=100, ecn_threshold_packets=2)
        packets = [_packet(ect=True) for _ in range(4)]
        for packet in packets:
            queue.enqueue(packet, 0.0)
        # Packets 0 and 1 saw queue lengths 0 and 1 (below threshold).
        assert not packets[0].ce and not packets[1].ce
        assert packets[2].ce and packets[3].ce
        assert queue.stats.ecn_marked == 2

    def test_non_ect_packets_never_marked(self):
        queue = DropTailQueue(capacity_packets=100, ecn_threshold_packets=0)
        packet = _packet(ect=False)
        queue.enqueue(packet, 0.0)
        assert not packet.ce

    def test_byte_count_tracks_contents(self):
        queue = DropTailQueue(capacity_packets=10, ecn_threshold_packets=None)
        packet = _packet()
        queue.enqueue(packet, 0.0)
        assert queue.byte_count == packet.size
        queue.dequeue(0.0)
        assert queue.byte_count == 0

    def test_queue_delay_accounting(self):
        queue = DropTailQueue(capacity_packets=10, ecn_threshold_packets=None)
        queue.enqueue(_packet(), 0.0)
        queue.dequeue(2.5)
        assert queue.stats.total_queue_delay == pytest.approx(2.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=0)


class TestLink:
    def test_serialization_plus_propagation_delay(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=10e-6)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        packet = _packet(payload=1460)  # 1500B on wire
        link.send(packet)
        sim.run()
        expected = packet.size * 8 / 1e9 + 10e-6
        assert arrivals == [pytest.approx(expected)]

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        a, b = _packet(), _packet()
        link.send(a)
        link.send(b)
        sim.run()
        tx = a.size * 8 / 1e9
        assert arrivals[0] == pytest.approx(tx)
        assert arrivals[1] == pytest.approx(2 * tx)

    def test_down_link_discards(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(p))
        link.fail()
        assert not link.send(_packet())
        sim.run()
        assert arrivals == []

    def test_fail_flushes_queue(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p: None)
        link.send(_packet())
        link.send(_packet())
        link.fail()
        assert link.queue.is_empty

    def test_recover_resumes_transmission(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(p))
        link.fail()
        link.recover()
        assert link.send(_packet())
        sim.run()
        assert len(arrivals) == 1

    def test_tx_counters(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p: None)
        packet = _packet()
        link.send(packet)
        sim.run()
        assert link.tx_packets == 1
        assert link.tx_bytes == packet.size

    def test_dre_sees_traffic(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p: None)
        link.track_utilization()
        for _ in range(50):
            link.send(_packet())
        sim.run(until=1e-5)
        assert link.utilization() > 0.0

    def test_untracked_link_has_no_utilization(self):
        sim = Simulator()
        link = Link(sim, "L1->S1#0", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p: None)
        link.send(_packet())
        assert link.dre is None
        with pytest.raises(RuntimeError, match=r"L1->S1#0"):
            link.utilization()

    def test_track_utilization_twice_keeps_the_estimator(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.track_utilization()
        dre = link.dre
        link.track_utilization()
        assert link.dre is dre

    def test_untracked_link_fails_and_rescales(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p: None)
        for _ in range(3):
            link.send(_packet())
        link.set_rate(5e8)
        # The first packet is serializing; the two waiting ones are flushed.
        assert link.fail() == 2
        assert link.dre is None

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "l", rate_bps=0, delay_s=0.0)
        with pytest.raises(ValueError):
            Link(sim, "l", rate_bps=1e9, delay_s=-1.0)
