"""Tests for the virtual switch: encapsulation, echo reflection, masking."""

import pytest

from repro.core.clove import CloveEcnPolicy, CloveIntPolicy, CloveParams
from repro.hypervisor.policy import LoadBalancer, PathFeedback
from repro.net.packet import FlowKey, Packet, STT_DST_PORT, make_data_packet
from repro.transport.tcp import FLAG_ECE, open_connection

from tests.conftest import make_fabric


class FixedPortPolicy(LoadBalancer):
    """Test double: constant source port, records feedback."""

    wants_ecn = True

    def __init__(self, port=55555):
        self.port = port
        self.feedback = []

    def select_source_port(self, inner, packet, now):
        return self.port

    def on_path_feedback(self, feedback, now):
        self.feedback.append(feedback)


def _overlay_fabric(policy_cls=FixedPortPolicy, **kwargs):
    policies = {}

    def factory(name, index):
        policies[name] = policy_cls()
        return policies[name]

    sim, net, hosts = make_fabric(policy_factory=factory, **kwargs)
    return sim, net, hosts, policies


class TestEncapsulation:
    def test_guest_traffic_is_tunnelled(self):
        sim, net, hosts, policies = _overlay_fabric()
        seen = []
        orig = hosts["h2_0"].vswitch.receive_encapsulated
        hosts["h2_0"].vswitch.receive_encapsulated = lambda p: (seen.append(p.outer), orig(p))
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(10_000, lambda: None)
        sim.run(until=0.1)
        assert seen
        outer = seen[0]
        assert outer.src_port == 55555
        assert outer.dst_port == STT_DST_PORT
        assert outer.src_ip == hosts["h1_0"].ip
        assert outer.dst_ip == hosts["h2_0"].ip

    def test_flow_completes_through_overlay(self):
        sim, net, hosts, policies = _overlay_fabric()
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        done = []
        connection.start_flow(200_000, lambda: done.append(sim.now))
        sim.run(until=1.0)
        assert done

    def test_guest_never_sees_ce(self):
        # Force marking with a 0 threshold: every ECT packet gets CE.
        sim, net, hosts, policies = _overlay_fabric(ecn_threshold_packets=0)
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        done = []
        connection.start_flow(100_000, lambda: done.append(True))
        sim.run(until=1.0)
        assert done
        # The receiver's guest stack must never have latched ECE: the
        # hypervisor strips CE before delivery.
        assert connection.receiver.ece_latched is False
        assert connection.sender.ecn_reductions == 0


class TestEchoReflection:
    def test_ce_is_reflected_to_sender_policy(self):
        sim, net, hosts, policies = _overlay_fabric(ecn_threshold_packets=0)
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(100_000, lambda: None)
        sim.run(until=1.0)
        feedback = policies["h1_0"].feedback
        assert feedback, "no ECN echo reached the sending policy"
        assert all(f.port == 55555 for f in feedback)
        assert any(f.congested for f in feedback)
        # Feedback is about paths towards the data's destination.
        assert all(f.dst_ip == hosts["h2_0"].ip for f in feedback)

    def test_no_marks_no_echo(self):
        sim, net, hosts, policies = _overlay_fabric(ecn_threshold_packets=None)
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(100_000, lambda: None)
        sim.run(until=1.0)
        assert not any(f.congested for f in policies["h1_0"].feedback)

    def test_relay_interval_rate_limits_echoes(self):
        results = {}
        for interval in (0.0, 1.0):
            sim, net, hosts, policies = _overlay_fabric(ecn_threshold_packets=0)
            for host in hosts.values():
                host.vswitch.ecn_relay_interval = interval
            connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
            connection.start_flow(100_000, lambda: None)
            sim.run(until=1.0)
            results[interval] = sum(1 for f in policies["h1_0"].feedback if f.congested)
        assert results[1.0] < results[0.0]
        assert results[1.0] >= 1


class TestIntEcho:
    def test_int_utilization_echoed(self):
        policies = {}

        def factory(name, index):
            policies[name] = CloveIntPolicy(CloveParams(flowlet_gap=1e-3))
            return policies[name]

        sim, net, hosts = make_fabric(policy_factory=factory, int_capable=True)
        policy = policies["h1_0"]
        dst = hosts["h2_0"].ip
        policy.set_paths(dst, [50001, 50002], [("a",), ("b",)])
        policies["h2_0"].set_paths(hosts["h1_0"].ip, [50001], [("r",)])
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(500_000, lambda: None)
        sim.run(until=1.0)
        utils = [policy.weights.util_of(dst, p) for p in (50001, 50002)]
        assert any(u > 0 for u in utils), "no INT utilization echoed back"


class TestGuestEceInjection:
    def test_ece_injected_when_all_paths_congested(self):
        sim, net, hosts, policies = _overlay_fabric(ecn_threshold_packets=0)

        # Make the sending host's policy report "everything is congested".
        policies["h1_0"].all_paths_congested = lambda dst, now: True
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(200_000, lambda: None)
        sim.run(until=1.0)
        assert hosts["h1_0"].vswitch.guest_ecn_injected > 0
        assert connection.sender.ecn_reductions > 0

    def test_no_injection_when_any_path_clear(self):
        sim, net, hosts, policies = _overlay_fabric(ecn_threshold_packets=0)
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(200_000, lambda: None)
        sim.run(until=1.0)
        assert hosts["h1_0"].vswitch.guest_ecn_injected == 0


class TestCloveEcnEndToEnd:
    def test_weights_shift_away_from_congested_path(self):
        policies = {}

        def factory(name, index):
            policies[name] = CloveEcnPolicy(CloveParams(flowlet_gap=1e-4))
            return policies[name]

        sim, net, hosts = make_fabric(policy_factory=factory, ecn_threshold_packets=0)
        src, dst = hosts["h1_0"], hosts["h2_0"]
        policy = policies["h1_0"]
        # Find real ports for two distinct fabric paths via the leaf hash.
        leaf = net.switches["L1"]
        group = leaf.routes[dst.ip]
        ports_by_path = {}
        for sport in range(49152, 49152 + 200):
            key = FlowKey(src.ip, dst.ip, sport, STT_DST_PORT)
            index = leaf.hasher.select(key, len(group))
            ports_by_path.setdefault(index, sport)
            if len(ports_by_path) == len(group):
                break
        ports = list(ports_by_path.values())[:4]
        policy.set_paths(dst.ip, ports, [(f"p{i}",) for i in range(len(ports))])
        policies["h2_0"].set_paths(src.ip, [50001], [("r",)])
        connection = open_connection(src, dst, 1000, 80)
        connection.start_flow(3_000_000, lambda: None)
        sim.run(until=1.0)
        assert policy.weights.weight_reductions > 0


class TestProbeKeyInterning:
    def test_probe_route_key_is_the_data_outer_key(self):
        """Discovery and health probes reuse the vswitch's interned outer
        key, so switch tables see one object per (destination, port)."""
        from repro.harness.experiment import ExperimentConfig, run_experiment

        probes, data = {}, {}

        def tap(sim, net, hosts):
            for host in hosts.values():
                def nic_send(packet, _send=host.nic_send):
                    key = packet.route_key
                    if "probe" in packet.meta:
                        probes.setdefault((key.src_ip, key.dst_ip, key.src_port), []).append(key)
                    elif packet.outer is not None:
                        data.setdefault((key.src_ip, key.dst_ip, key.src_port), key)
                    _send(packet)
                host.nic_send = nic_send

        run_experiment(
            ExperimentConfig(scheme="clove-ecn", load=0.4, seed=5, jobs_per_client=4,
                             clients_per_leaf=2, connections_per_client=1,
                             health=True),
            on_ready=tap,
        )
        shared = set(probes) & set(data)
        assert shared
        for path in shared:
            assert all(key is data[path] for key in probes[path])
