"""Layer tracer: spans around the calls into each layer of ``repro``.

The tracer works entirely from outside the program.  :meth:`Tracer.install`
replaces the public entry points listed in :data:`TARGETS` (and every alias
of the module-level ones) with span-recording wrappers, and wraps
``Simulator.schedule`` / ``Simulator.at`` so that every event callback runs
inside a span labelled by the module that defines the callback.
:meth:`Tracer.uninstall` puts every original attribute back.  Install before
the fabric is built: components that capture bound methods at construction
time (``Network.register_host_receiver``) must capture the wrappers.

A span is four numbers kept in flat in-memory arrays: layer id, parent span
index, start and end (``time.perf_counter``).  Nothing is written while the
program runs; :meth:`Tracer.write` saves the arrays when the run is over.
A layer's *self time* is the summed duration of its spans minus the part of
each span that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layers, named after the repository's modules.  ``harness`` is the root
#: span (the harness call) plus any repro module not listed here.
LAYERS: Tuple[str, ...] = (
    "harness",
    "sim",
    "net.link",
    "net.queue",
    "net.switch",
    "net.hashing",
    "net.dre",
    "net.packet",
    "hypervisor.vswitch",
    "hypervisor.host",
    "hypervisor.policy",
    "baselines",
    "core.clove",
    "core.flowlet",
    "core.weights",
    "core.discovery",
    "core.health",
    "transport.tcp",
    "transport.mptcp",
    "workloads",
    "topology",
    "telemetry",
    "chaos",
)
LAYER_ID: Dict[str, int] = {name: index for index, name in enumerate(LAYERS)}

#: module prefix -> layer, longest prefix first wins (see :func:`layer_of_module`)
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net.link", "net.link"),
    ("repro.net.queue", "net.queue"),
    ("repro.net.switch", "net.switch"),
    ("repro.net.hashing", "net.hashing"),
    ("repro.net.dre", "net.dre"),
    ("repro.net.packet", "net.packet"),
    ("repro.net", "net.link"),
    ("repro.hypervisor.vswitch", "hypervisor.vswitch"),
    ("repro.hypervisor.host", "hypervisor.host"),
    ("repro.hypervisor", "hypervisor.policy"),
    ("repro.baselines", "baselines"),
    ("repro.core.flowlet", "core.flowlet"),
    ("repro.core.weights", "core.weights"),
    ("repro.core.discovery", "core.discovery"),
    ("repro.core.health", "core.health"),
    ("repro.core", "core.clove"),
    ("repro.transport.mptcp", "transport.mptcp"),
    ("repro.transport", "transport.tcp"),
    ("repro.workloads", "workloads"),
    ("repro.metrics", "workloads"),
    ("repro.topology", "topology"),
    ("repro.telemetry", "telemetry"),
    ("repro.chaos", "chaos"),
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to (``harness`` for anything unlisted)."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "harness"


#: (module, class or None, attribute names).  Class entries wrap methods
#: defined in that class's own ``__dict__`` (a name the class only inherits
#: is skipped, so an override and its base are each wrapped once); ``None``
#: wraps module-level functions together with every alias of them that
#: another loaded ``repro`` module imported by name.
TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...] = (
    ("repro.sim.engine", "Simulator", ("run",)),
    ("repro.sim.engine", "Event", ("cancel",)),
    ("repro.net.link", "Link", ("send", "sync", "fail", "recover", "set_rate")),
    ("repro.net.queue", "DropTailQueue", ("enqueue", "dequeue")),
    ("repro.net.switch", "Switch", ("receive",)),
    ("repro.net.hashing", "EcmpHasher", ("select", "hash_key")),
    ("repro.net.dre", "DiscountingRateEstimator",
     ("record", "utilization", "quantized")),
    ("repro.net.packet", "Packet", ("__init__", "encapsulate", "decapsulate")),
    ("repro.net.packet", "FlowKey", ("__init__",)),
    ("repro.hypervisor.vswitch", "VSwitch",
     ("transmit", "receive_encapsulated", "receive_rewritten")),
    ("repro.hypervisor.host", "Host",
     ("receive", "nic_send", "send_from_guest", "deliver_to_guest")),
    ("repro.hypervisor.policy", "LoadBalancer",
     ("select_source_port", "on_path_feedback", "all_paths_congested")),
    ("repro.baselines.ecmp", "EcmpPolicy", ("select_source_port",)),
    ("repro.core.clove", "EdgeFlowletPolicy", ("select_source_port",)),
    ("repro.core.clove", "CloveEcnPolicy",
     ("select_source_port", "on_path_feedback", "all_paths_congested")),
    ("repro.core.clove", "CloveIntPolicy",
     ("select_source_port", "on_path_feedback", "all_paths_congested")),
    ("repro.core.flowlet", "FlowletTable", ("lookup", "assign")),
    ("repro.core.weights", "WeightedPathTable",
     ("next_port", "least_utilized_port", "mark_congested", "record_util",
      "all_congested", "epoch_of", "set_paths")),
    ("repro.core.discovery", "PathDiscovery",
     ("notice_destination", "start_round", "on_icmp", "on_probe_reply")),
    ("repro.core.health", "PathHealthMonitor",
     ("start", "on_probe_reply", "on_echo")),
    ("repro.transport.tcp", "TcpSender", ("send", "on_packet")),
    ("repro.transport.tcp", "TcpReceiver", ("on_packet",)),
    ("repro.transport.dctcp", "DctcpSender", ("on_packet",)),
    ("repro.transport.mptcp", "MptcpSubflowSender", ("assign",)),
    ("repro.transport.mptcp", "MptcpSubflowReceiver", ("on_packet",)),
    ("repro.transport.mptcp", "MptcpConnection",
     ("start_flow", "pump", "refill", "on_data_received",
      "on_subflow_timeout")),
    ("repro.workloads.generator", "PoissonWorkload", ("start",)),
    ("repro.workloads.incast", "IncastWorkload", ("start",)),
    ("repro.metrics.collector", "MetricsCollector",
     ("job_started", "job_finished")),
    ("repro.topology.leafspine", None, ("build_leaf_spine",)),
    ("repro.topology.network", "Network",
     ("compute_routes", "fail_cable", "recover_cable")),
    ("repro.telemetry.events", "EventLog", ("emit",)),
    ("repro.telemetry.registry", "Counter", ("inc",)),
    ("repro.telemetry.trace", "Tracer",
     ("begin", "end", "instant", "flow_begin", "flow_end", "flowlet",
      "flowlet_bytes")),
    ("repro.telemetry.core", "Telemetry",
     ("instrument", "observe_network", "observe_hosts", "observe_collector")),
    ("repro.chaos.engine", "ChaosEngine", ("start", "attach_hosts", "finish")),
    ("repro.chaos.engine", "ControlPlaneState", ("drop_probe", "filter_echo")),
)


class Patcher:
    """Replaces attributes and remembers the originals for :meth:`restore`."""

    def __init__(self) -> None:
        #: (owner, attribute name, original value) in patch order
        self.patched: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, name: str, value: object) -> None:
        """Set ``owner.name = value``; ``name`` must be in ``owner.__dict__``."""
        self.patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, module, name: str,
                       wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``module.name`` and every alias of it that a loaded
        ``repro`` module imported by name with ``wrap(original)``."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", None) or ""
            if other_name != "repro" and not other_name.startswith("repro."):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self.patch(other, attr, wrapped)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)


class Tracer:
    """Records layer spans in memory while installed.

    ``calls`` counts spans per layer id, ``fn_calls`` per wrapped
    ``"module.Class.method"``; both are exact for a given workload seed.
    """

    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.fn_calls: Dict[str, List[int]] = {}
        self.patches = Patcher()
        self._callback_layer: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def span(self, layer: str, fn: Callable, counter: Optional[List[int]] = None
             ) -> Callable:
        """``fn`` wrapped so that each call records one span of ``layer``."""
        lid = LAYER_ID[layer]
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self._stack
        perf = time.perf_counter
        tally = counter if counter is not None else [0]

        def traced(*args, **kwargs):
            index = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            tally[0] += 1
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()

        return traced

    def run_root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside the root ``harness`` span; returns its result."""
        return self.span("harness", fn)(*args, **kwargs)

    def _layer_of_callback(self, fn: Callable) -> int:
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        lid = self._callback_layer.get(key)
        if lid is None:
            module = getattr(func, "__module__", None)
            if module is None:
                module = type(func).__module__
            lid = self._callback_layer[key] = LAYER_ID[layer_of_module(module)]
        return lid

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry of :data:`TARGETS` plus the simulator's
        scheduling calls."""
        if self.patches.patched:
            raise RuntimeError("tracer is already installed")
        for module_name, class_name, names in TARGETS:
            module = importlib.import_module(module_name)
            layer = layer_of_module(module_name)
            if class_name is None:
                for name in names:
                    counter = self.fn_calls.setdefault(
                        f"{module_name}.{name}", [0])
                    self.patches.patch_function(
                        module, name,
                        lambda fn, c=counter, lay=layer: self.span(lay, fn, c))
                continue
            owner = getattr(module, class_name)
            for name in names:
                if name not in owner.__dict__:
                    continue
                key = f"{module_name}.{class_name}.{name}"
                counter = self.fn_calls.setdefault(key, [0])
                self.patches.patch(
                    owner, name, self.span(layer, owner.__dict__[name], counter))
        self._wrap_scheduling()

    def _wrap_scheduling(self) -> None:
        """Spans for ``schedule``/``at`` (``sim``) and for every callback
        they queue (labelled by the callback's defining module)."""
        from repro.sim.engine import Simulator

        sim_calls = self.fn_calls.setdefault("repro.sim.engine.Simulator.schedule", [0])
        at_calls = self.fn_calls.setdefault("repro.sim.engine.Simulator.at", [0])
        schedule = self.span("sim", Simulator.__dict__["schedule"], sim_calls)
        at = self.span("sim", Simulator.__dict__["at"], at_calls)
        layer_of = self._layer_of_callback
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self._stack
        perf = time.perf_counter

        # The body of span()'s wrapper, with the layer passed per event.
        def run_callback(lid, fn, *args):
            index = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                return fn(*args)
            finally:
                ends[index] = perf()
                stack.pop()

        def traced_schedule(sim, delay, fn, *args):
            return schedule(sim, delay, run_callback, layer_of(fn), fn, *args)

        def traced_at(sim, when, fn, *args):
            return at(sim, when, run_callback, layer_of(fn), fn, *args)

        self.patches.patch(Simulator, "schedule", traced_schedule)
        self.patches.patch(Simulator, "at", traced_at)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        self.patches.restore()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def calls(self) -> Dict[str, int]:
        """Spans recorded per layer name."""
        counts = [0] * len(LAYERS)
        for lid in self.layer:
            counts[lid] += 1
        return {name: counts[lid] for lid, name in enumerate(LAYERS)}

    def self_times(self) -> Dict[str, float]:
        """Self time per layer name, in seconds."""
        per_id = self_times(self.layer, self.parent, self.start, self.end,
                            len(LAYERS))
        return {name: per_id[lid] for lid, name in enumerate(LAYERS)}

    def write(self, path: str) -> None:
        """Save the span arrays (layer, parent, start, end) to ``path``."""
        with open(path, "wb") as fp:
            header = array("q", [len(self.layer)])
            header.tofile(fp)
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(fp)


def self_times(
    layers: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    n_layers: int,
) -> List[float]:
    """Per-layer self time of a span forest.

    Span ``i`` belongs to layer ``layers[i]``, is a child of span
    ``parents[i]`` (-1 for a root) and lasts ``ends[i] - starts[i]``.  A
    span's self time is its duration minus the durations of its direct
    children; children lie inside their parent, so the subtraction removes
    exactly the part of the parent's interval they cover.
    """
    totals = [0.0] * n_layers
    for i in range(len(layers)):
        duration = ends[i] - starts[i]
        totals[layers[i]] += duration
        parent = parents[i]
        if parent >= 0:
            totals[layers[parent]] -= duration
    return totals
