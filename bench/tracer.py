"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each ``verialloc`` module in
place: module functions are replaced in every loaded ``verialloc`` module
that holds the same object (so names bound by ``from .x import f`` are
caught too), and methods are replaced on their class.  Each wrapped call
records a span (group, start, end, parent) and a call count; a few entry
points record a work count (rows, nodes, arcs, phases) instead of a span.

An entry point that no longer exists is listed as absent and the run goes
on; a metric whose entry points are all absent is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "verialloc"

# (module, attribute path, span group or None, count key or None, amount)
# amount(args, kwargs) gives the work count of one call; None counts calls
ENTRY_POINTS = [
    ("distributions", "truncated_mean", "distributions.truncated_mean", None, None),
    ("envelope", "partition", "envelope.partition", None, None),
    ("envelope", "c_allo", "envelope.constraint", None, None),
    ("envelope", "c_aud", "envelope.constraint", None, None),
    ("envelope", "c_ic", "envelope.constraint", None, None),
    ("interim", "allocation_branch", "interim.branch", None, None),
    ("optimizer", "payoff", "optimizer.payoff", None, None),
    ("optimizer", "foc_residual", "optimizer.foc", None, None),
    ("optimizer", "baseline_payoffs", "optimizer.baselines", None, None),
    ("optimizer", "solve", "optimizer.solve", None, None),
    ("simulation", "calibrate_lottery", "simulation.calibrate", None, None),
    ("simulation", "calibrate_audit", "simulation.calibrate", None, None),
    ("simulation", "_mechanism_batch", "simulation.batch", "simulation.batch.rows",
     lambda a, kw: a[0].shape[0]),
    ("simulation", "BinWeights.lookup", "simulation.lookup", None, None),
    ("simulation", "bin_targets", "simulation.targets", None, None),
    ("simulation", "simulate", "simulation.simulate", "simulation.trials",
     lambda a, kw: kw["trials"] if "trials" in kw else a[2]),
    ("flows", "discretize_rules", "flows.discretize", None, None),
    ("flows", "check_feasible", "flows.check", None, None),
    ("flows", "check_interim_allocation", "flows.check", None, None),
    ("flows", "check_interim_audit", "flows.check", None, None),
    ("flows", "_symmetric_flow_verdict", "flows.check", None, None),
    ("flows", "_Scaled.rhs_units", "flows.witness", None, None),
    ("_maxflow", "MaxFlow.__init__", None, "flows.network.nodes",
     lambda a, kw: kw["num_nodes"] if "num_nodes" in kw else a[1]),
    ("_maxflow", "MaxFlow.add_edge", "maxflow.add_edge", "flows.network.arcs", None),
    ("_maxflow", "MaxFlow.max_flow", "maxflow.max_flow", None, None),
    ("_maxflow", "MaxFlow._bfs_levels", None, "maxflow.phases", None),
    ("_maxflow", "MaxFlow.reachable_from", "maxflow.reachable", None, None),
]

# per-layer metrics in report order: (name, unit, source)
# source: ("calls", group) | ("self", group) | ("count", key) | ("rows_per_trial",)
# | ("host",) | ("op",)
PER_LAYER = [
    ("envelope.partition.calls", "count", ("calls", "envelope.partition")),
    ("envelope.partition.self_s", "s", ("self", "envelope.partition")),
    ("envelope.constraint.calls", "count", ("calls", "envelope.constraint")),
    ("envelope.constraint.self_s", "s", ("self", "envelope.constraint")),
    ("interim.branch.calls", "count", ("calls", "interim.branch")),
    ("interim.branch.self_s", "s", ("self", "interim.branch")),
    ("distributions.truncated_mean.calls", "count", ("calls", "distributions.truncated_mean")),
    ("distributions.truncated_mean.self_s", "s", ("self", "distributions.truncated_mean")),
    ("optimizer.payoff.calls", "count", ("calls", "optimizer.payoff")),
    ("optimizer.payoff.self_s", "s", ("self", "optimizer.payoff")),
    ("optimizer.foc.calls", "count", ("calls", "optimizer.foc")),
    ("optimizer.foc.self_s", "s", ("self", "optimizer.foc")),
    ("optimizer.baselines.self_s", "s", ("self", "optimizer.baselines")),
    ("optimizer.solve.self_s", "s", ("self", "optimizer.solve")),
    ("simulation.calibrate.self_s", "s", ("self", "simulation.calibrate")),
    ("simulation.batch.calls", "count", ("calls", "simulation.batch")),
    ("simulation.batch.rows", "count", ("count", "simulation.batch.rows")),
    ("simulation.batch.self_s", "s", ("self", "simulation.batch")),
    ("simulation.rows_per_trial", "rows/trial", ("rows_per_trial",)),
    ("simulation.lookup.calls", "count", ("calls", "simulation.lookup")),
    ("simulation.lookup.self_s", "s", ("self", "simulation.lookup")),
    ("simulation.targets.self_s", "s", ("self", "simulation.targets")),
    ("simulation.simulate.self_s", "s", ("self", "simulation.simulate")),
    ("flows.discretize.self_s", "s", ("self", "flows.discretize")),
    ("flows.check.self_s", "s", ("self", "flows.check")),
    ("flows.network.nodes", "count", ("count", "flows.network.nodes")),
    ("flows.network.arcs", "count", ("count", "flows.network.arcs")),
    ("flows.witness.calls", "count", ("calls", "flows.witness")),
    ("flows.witness.self_s", "s", ("self", "flows.witness")),
    ("maxflow.max_flow.self_s", "s", ("self", "maxflow.max_flow")),
    ("maxflow.phases", "count", ("count", "maxflow.phases")),
    ("maxflow.add_edge.self_s", "s", ("self", "maxflow.add_edge")),
    ("maxflow.reachable.self_s", "s", ("self", "maxflow.reachable")),
    ("host.ref_loop_s", "s", ("host",)),
    ("trace.op_s", "s", ("op",)),
]


class Tracer:
    """Span and count recorder around the wrapped entry points.

    Aggregates (calls, self time, counts) cover the current phase and are
    cleared by ``reset``; raw spans are kept only while ``recording`` is
    set, in flat arrays so they stay out of the garbage collector's way.
    """

    def __init__(self):
        self.groups: list[str] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [group id, start, child time, span index]
        self.recording = False
        self.span_group = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset()

    # -- aggregates --------------------------------------------------------

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def spans(self) -> dict:
        """Recorded spans as columns; parent -1 marks a top-level span."""
        return {
            "groups": list(self.groups),
            "group": self.span_group.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, group: str, count_key, amount):
        if group not in self.groups:
            self.groups.append(group)
        gid = self.groups.index(group)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_key is not None:
                self.counts[count_key] += _amount(amount, args, kwargs)
            index = -1
            if self.recording:
                index = len(self.span_start)
                self.span_group.append(gid)
                self.span_parent.append(stack[-1][3] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [gid, clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.calls[group] += 1
                self.self_s[group] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    self.span_start[index] = frame[1]
                    self.span_end[index] = end

        return wrapper

    def _count_wrapper(self, fn, count_key: str, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[count_key] += _amount(amount, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point that exists; list the rest as absent."""
        for module_name, path, group, count_key, amount in ENTRY_POINTS:
            label = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(label)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                self.absent.append(label)
                continue
            if group is None:
                wrapped = self._count_wrapper(original, count_key, amount)
            else:
                wrapped = self._span_wrapper(original, group, count_key, amount)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def absent_metrics(self) -> set[str]:
        """Per-layer metrics none of whose entry points could be wrapped."""
        present_groups: set[str] = set()
        present_counts: set[str] = set()
        for module_name, path, group, count_key, _ in ENTRY_POINTS:
            if f"{module_name}.{path}" in self.absent:
                continue
            present_groups.add(group)
            present_counts.add(count_key)
        out = set()
        for name, _, source in PER_LAYER:
            kind = source[0]
            if kind in ("calls", "self") and source[1] not in present_groups:
                out.add(name)
            elif kind == "count" and source[1] not in present_counts:
                out.add(name)
            elif kind == "rows_per_trial" and not {
                "simulation.batch.rows", "simulation.trials"
            } <= present_counts:
                out.add(name)
        return out


def _amount(amount, args, kwargs) -> int:
    """Work count of one call; 0 when a changed signature hides it."""
    if amount is None:
        return 1
    try:
        return int(amount(args, kwargs))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return 0


def per_layer_values(setup: dict, op: dict, op_self_s: dict, host_s: float,
                     op_s: float) -> dict:
    """Per-layer metric values: set-up work plus the work of one operation.

    ``setup`` and ``op`` are snapshots (set-up phase, first timed
    operation); ``op_self_s`` holds the median self time per group over the
    timed operations.  Counts come from the snapshots, so they repeat
    exactly between runs with the same inputs.
    """
    out = {}
    for name, _, source in PER_LAYER:
        kind = source[0]
        if kind == "calls":
            value = setup["calls"].get(source[1], 0) + op["calls"].get(source[1], 0)
        elif kind == "self":
            value = setup["self_s"].get(source[1], 0.0) + op_self_s.get(source[1], 0.0)
        elif kind == "count":
            value = setup["counts"].get(source[1], 0) + op["counts"].get(source[1], 0)
        elif kind == "rows_per_trial":
            trials = op["counts"].get("simulation.trials", 0)
            rows = op["counts"].get("simulation.batch.rows", 0)
            value = rows / trials if trials else 0.0
        elif kind == "host":
            value = host_s
        else:
            value = op_s
        out[name] = value
    return out

