"""Flowline DAGs: task graphs, validation, and critical-path timing.

A flowline is a DAG of tasks (model endpoints and built-in operators) with a
single entry and a single exit. Vertex weights are seconds per data slice,
edge payloads are bytes per data slice. The makespan of a computation graph
is the finish time of the exit vertex:

    FT(v) = w(v)                                        if v is the entry
    FT(v) = w(v) + max over precursors u (FT(u) + w(u->v))   otherwise

which equals the weight of the heaviest entry->exit path. A corpus runs as
whole slices, the last one timed as a full slice even when it is short, so
its total processing time is ``n_slices(corpus_size, slice_size)`` (that
is, ceil(corpus_size / slice_size)) times the makespan; ``n_slices`` is the
one place that rule is written. ``finish_times`` is the one implementation
of the recurrence: ``makespan``, the simulator and the list baseline's
upward ranks all run on it.

All types are immutable after construction and every operation is a pure
function, so evaluation is safe from multiple threads.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

from . import registry

KIND_MODEL_CC = "model-CC"
KIND_MODEL_CE = "model-CE"
KIND_OPERATOR = "operator"
MODEL_KINDS = (KIND_MODEL_CC, KIND_MODEL_CE)

GPU_INTENSIVE = "GPU-intensive"
CPU_ONLY = "CPU-only"


class FlowlineError(ValueError):
    """Structural misuse of a flowline or profile (not a validation finding)."""


@dataclass(frozen=True)
class TaskNode:
    """One task vertex: an IE model endpoint or a built-in operator."""

    id: str
    label: str = ""
    kind: str = KIND_OPERATOR
    operator_family: str | None = None
    resource_class: str = ""
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (*MODEL_KINDS, KIND_OPERATOR):
            raise FlowlineError(f"unknown task kind: {self.kind!r}")
        derived = GPU_INTENSIVE if self.kind in MODEL_KINDS else CPU_ONLY
        if not self.resource_class:
            object.__setattr__(self, "resource_class", derived)
        elif self.resource_class != derived:
            raise FlowlineError(
                f"task {self.id!r}: {self.kind} must be {derived}, "
                f"got {self.resource_class}")
        if not self.label:
            object.__setattr__(self, "label", self.id)

    @property
    def is_model(self) -> bool:
        return self.kind in MODEL_KINDS

    @property
    def function(self) -> str:
        """Registry name of the task: the config's ``function``, else the id
        up to any ``[label]`` instance tag (ids look like "filter[f_bert]")."""
        return str(self.config.get("function") or self.id.split("[", 1)[0])


@dataclass(frozen=True)
class Flowline:
    """Immutable task DAG with declared entry and exit vertices."""

    vertices: tuple[TaskNode, ...]
    edges: tuple[tuple[str, str], ...]
    entry: str
    exit: str

    @classmethod
    def build(cls, vertices: Iterable[TaskNode],
              edges: Iterable[tuple[str, str]],
              entry: str | None = None, exit: str | None = None) -> "Flowline":
        """Construct a flowline, inferring entry/exit from degrees if omitted."""
        verts = tuple(vertices)
        eds = tuple((str(a), str(b)) for a, b in edges)
        ids = [v.id for v in verts]
        if len(set(ids)) != len(ids):
            raise FlowlineError(f"duplicate task ids: {_duplicates(ids)}")
        if entry is None or exit is None:
            targets = {b for _, b in eds}
            sources = {a for a, _ in eds}
            heads = [i for i in ids if i not in targets]
            tails = [i for i in ids if i not in sources]
            if entry is None:
                if len(heads) != 1:
                    raise FlowlineError(f"cannot infer entry, candidates: {heads}")
                entry = heads[0]
            if exit is None:
                if len(tails) != 1:
                    raise FlowlineError(f"cannot infer exit, candidates: {tails}")
                exit = tails[0]
        return cls(verts, eds, entry, exit)

    @cached_property
    def by_id(self) -> dict[str, TaskNode]:
        return {v.id: v for v in self.vertices}

    def node(self, task_id: str) -> TaskNode:
        try:
            return self.by_id[task_id]
        except KeyError:
            raise FlowlineError(f"no such task: {task_id!r}") from None

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        for a, b in self.edges:
            if a in out and b in out:
                out[a].append(b)
        return {k: tuple(sorted(set(v))) for k, v in out.items()}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        inn: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        for a, b in self.edges:
            if a in inn and b in inn:
                inn[b].append(a)
        return {k: tuple(sorted(set(v))) for k, v in inn.items()}

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        """Deterministic topological order (lexicographic among ready tasks).

        Raises FlowlineError if the graph has a cycle; ``validate`` reports
        cycles as data instead.
        """
        order = _topo_sort(self)
        if order is None:
            raise FlowlineError("flowline contains a cycle")
        return order

    def model_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in sorted(self.vertices, key=lambda v: v.id)
                     if v.is_model)

    @cached_property
    def _neighbor_sets(self) -> dict[str, frozenset[str]]:
        return {k: frozenset(succ).union(self.predecessors[k])
                for k, succ in self.successors.items()}

    @cached_property
    def _model_set(self) -> frozenset[str]:
        return frozenset(v.id for v in self.vertices if v.is_model)


@dataclass(frozen=True)
class TaskProfile:
    """Measured task costs: seconds per slice and bytes per slice."""

    vertex_weights: Mapping[str, float]
    edge_payloads: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for tid, w in self.vertex_weights.items():
            if not 0 <= w < math.inf:
                raise FlowlineError(
                    f"weight for task {tid!r} must be finite and >= 0: {w}")
        for edge, size in self.edge_payloads.items():
            if not 0 <= size < math.inf:
                raise FlowlineError(
                    f"payload for edge {edge} must be finite and >= 0: {size}")

    def weight(self, task_id: str) -> float:
        try:
            return float(self.vertex_weights[task_id])
        except KeyError:
            raise FlowlineError(f"profile has no weight for task {task_id!r}") from None

    def payload(self, edge: tuple[str, str]) -> float:
        return float(self.edge_payloads.get(edge, 0.0))

    def check_covers(self, flowline: Flowline) -> None:
        missing = [v.id for v in flowline.vertices
                   if v.id not in self.vertex_weights]
        if missing:
            raise FlowlineError(f"profile missing weights for: {sorted(missing)}")


@dataclass(frozen=True)
class NetParams:
    """Cross-VM link model: fixed latency plus payload / bandwidth."""

    latency_s: float = 0.0
    bandwidth_Bps: float = 1.0e9

    def __post_init__(self):
        if not 0 <= self.latency_s < math.inf:
            raise FlowlineError(
                f"latency_s must be finite and >= 0: {self.latency_s}")
        if not self.bandwidth_Bps > 0:
            raise FlowlineError(
                f"bandwidth_Bps must be > 0: {self.bandwidth_Bps}")

    def transfer_time(self, payload_bytes: float) -> float:
        return self.latency_s + payload_bytes / self.bandwidth_Bps


def _topo_sort(flowline: Flowline) -> tuple[str, ...] | None:
    indeg = {v.id: 0 for v in flowline.vertices}
    for a, b in flowline.edges:
        if a in indeg and b in indeg:
            indeg[b] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nxt = heapq.heappop(ready)
        order.append(nxt)
        for succ in flowline.successors[nxt]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(flowline.vertices):
        return None
    return tuple(order)


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok and not self.warnings:
            return "ok"
        lines = [str(v) for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate(flowline: Flowline, profile: TaskProfile | None = None) -> ValidationReport:
    """Structural and pipe-compatibility validation.

    Findings are data, not exceptions: cycles, entry/exit multiplicity,
    unreachable vertices, dangling edges, unknown operators/models, and
    type-incompatible pipes (a consumer requiring columns its producer
    cannot supply). With a profile, zero-weight model vertices are flagged
    as warnings (weight 0 is permitted but usually a profiling gap).
    """
    violations: list[Violation] = []
    warnings: list[Violation] = []
    ids = [v.id for v in flowline.vertices]
    known = set(ids)

    for d in _duplicates(ids):
        violations.append(Violation("duplicate-id", f"task id {d!r} repeats"))

    for a, b in flowline.edges:
        if a not in known or b not in known:
            violations.append(Violation(
                "dangling-edge", f"edge {a}->{b} references unknown task"))

    valid_edges = [(a, b) for a, b in flowline.edges if a in known and b in known]
    targets = {b for _, b in valid_edges}
    sources = {a for a, _ in valid_edges}
    heads = sorted(i for i in known if i not in targets)
    tails = sorted(i for i in known if i not in sources)
    if len(heads) != 1:
        violations.append(Violation(
            "multiple-entries" if heads else "no-entry",
            f"in-degree-0 vertices: {heads}"))
    elif heads[0] != flowline.entry:
        violations.append(Violation(
            "entry-mismatch", f"declared entry {flowline.entry!r}, found {heads[0]!r}"))
    if len(tails) != 1:
        violations.append(Violation(
            "multiple-exits" if tails else "no-exit",
            f"out-degree-0 vertices: {tails}"))
    elif tails[0] != flowline.exit:
        violations.append(Violation(
            "exit-mismatch", f"declared exit {flowline.exit!r}, found {tails[0]!r}"))

    order = _topo_sort(flowline)
    if order is None:
        violations.append(Violation("cycle", "flowline contains a directed cycle"))

    if order is not None and len(heads) == 1 and len(tails) == 1:
        fwd = _reachable(heads[0], flowline.successors)
        bwd = _reachable(tails[0], flowline.predecessors)
        for tid in sorted(known - fwd):
            violations.append(Violation(
                "unreachable", f"task {tid!r} not reachable from entry"))
        for tid in sorted(known - bwd):
            violations.append(Violation(
                "unreachable", f"task {tid!r} cannot reach exit"))

    for v in sorted(flowline.vertices, key=lambda v: v.id):
        if v.is_model:
            if registry.model_spec(v.function) is None:
                violations.append(Violation(
                    "unknown-model",
                    f"task {v.id!r}: model {v.function!r} not registered"))
        elif registry.operator_spec(v.function) is None:
            violations.append(Violation(
                "unknown-operator",
                f"task {v.id!r}: operator {v.function!r} not registered"))

    if order is not None and not violations:
        violations.extend(_check_pipes(flowline, order))

    if profile is not None:
        for v in sorted(flowline.vertices, key=lambda v: v.id):
            if v.is_model and profile.vertex_weights.get(v.id) == 0:
                warnings.append(Violation(
                    "zero-weight-model", f"model task {v.id!r} has weight 0"))

    return ValidationReport(tuple(violations), tuple(warnings))


def _duplicates(ids: Iterable[str]) -> list[str]:
    return sorted(i for i, n in Counter(ids).items() if n > 1)


def node_op_spec(node: TaskNode) -> registry.OpSpec | None:
    """Column contract for any task vertex (models get their paradigm's)."""
    if node.is_model:
        task = registry.TASK_CC if node.kind == KIND_MODEL_CC else registry.TASK_CE
        inputs, outputs = registry.task_io(task)
        return registry.OpSpec(node.function, "model", inputs, outputs,
                               carries=False, keeps=inputs)
    return registry.operator_spec(node.function)


def _check_pipes(flowline: Flowline, order: tuple[str, ...]) -> list[Violation]:
    """Propagate edge-projected columns; flag consumers that cannot be fed."""
    corpus_feed = frozenset({registry.SAMPLE, registry.ANY})
    available: dict[str, frozenset[str]] = {}
    found: list[Violation] = []
    for tid in order:
        node = flowline.node(tid)
        spec = node_op_spec(node)
        if spec is None:  # already reported as unknown-operator
            available[tid] = frozenset()
            continue
        if tid == flowline.entry:
            received = spec.received_columns(corpus_feed)
        else:
            received = frozenset()
            for pred in flowline.predecessors[tid]:
                received |= spec.received_columns(
                    available.get(pred, frozenset()))
            missing = [c for c in spec.requires
                       if c != registry.ANY and c not in received]
            if missing:
                preds = ",".join(flowline.predecessors[tid])
                found.append(Violation(
                    "incompatible-pipe",
                    f"task {tid!r} requires columns {missing} not supplied "
                    f"by precursor(s) {preds}"))
        available[tid] = spec.output_columns(received)
    return found


def _reachable(start: str, adjacency: Mapping[str, tuple[str, ...]]) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def finish_times(order: Iterable[str], preds: Mapping[str, Iterable[str]],
                 duration: Mapping[str, float],
                 delay: Mapping[tuple[str, str], float], start: float = 0.0,
                 after: Mapping[str, float] | None = None
                 ) -> tuple[dict[str, float], dict[str, float]]:
    """Start and finish times of the tasks in ``order``, a topological order
    of the graph ``preds`` describes, with ``after`` (if given) each task's
    earliest start and no delay on a pair missing from ``delay``:

        ST(v) = max(start, after[v], FT(u) + delay[u, v] for u in preds[v])
        FT(v) = ST(v) + duration[v]
    """
    st: dict[str, float] = {}
    ft: dict[str, float] = {}
    for v in order:
        ready = start if after is None else max(start, after[v])
        for u in preds[v]:
            ready = max(ready, ft[u] + delay.get((u, v), 0.0))
        st[v] = ready
        ft[v] = ready + duration[v]
    return st, ft


def makespan(flowline: Flowline, profile: TaskProfile,
             delay: Mapping[tuple[str, str], float] | None = None) -> float:
    """Finish time of one slice at the exit task: the heaviest entry->exit
    path, each edge in ``delay`` paying its transfer time; None (no delay
    anywhere) is every task on one VM."""
    order = flowline.topological_order
    weights = {tid: profile.weight(tid) for tid in order}
    _, ft = finish_times(order, flowline.predecessors, weights, delay or {})
    return ft[flowline.exit]


def apply_partition(flowline: Flowline, profile: TaskProfile,
                    partition: Mapping[str, int],
                    net: NetParams) -> dict[tuple[str, str], float]:
    """Transfer time, latency + size / bandwidth, of every edge whose ends
    ``partition`` puts on different VMs; co-located edges are left out."""
    profile.check_covers(flowline)
    unassigned = sorted(v.id for v in flowline.vertices if v.id not in partition)
    if unassigned:
        raise FlowlineError(f"partition leaves tasks unassigned: {unassigned}")
    return {(a, b): net.transfer_time(profile.payload((a, b)))
            for a, b in flowline.edges if partition[a] != partition[b]}


def n_slices(corpus_size: float, slice_size: float) -> int:
    """Whole slices a corpus of ``corpus_size`` rows runs as."""
    if not 0 < slice_size < math.inf:
        raise FlowlineError(f"slice_size must be finite and > 0: {slice_size}")
    if not 0 <= corpus_size < math.inf:
        raise FlowlineError(
            f"corpus_size must be finite and >= 0: {corpus_size}")
    count = corpus_size / slice_size
    if count == math.inf:
        raise FlowlineError(f"corpus_size / slice_size overflows: "
                            f"{corpus_size} / {slice_size}")
    return math.ceil(count)


def ideal_time(flowline: Flowline, profile: TaskProfile,
               corpus_size: float, slice_size: float) -> float:
    """Total processing time with all tasks co-located."""
    return n_slices(corpus_size, slice_size) * makespan(flowline, profile)


# --- dict serialization (a flowline built in code, with its profile) ----------

def flowline_to_dict(flowline: Flowline,
                     profile: TaskProfile | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "vertices": [
            {
                "id": v.id,
                "label": v.label,
                "kind": v.kind,
                "operator_family": v.operator_family,
                "resource_class": v.resource_class,
                "config": dict(v.config),
            }
            for v in flowline.vertices
        ],
        "edges": [[a, b] for a, b in flowline.edges],
        "entry": flowline.entry,
        "exit": flowline.exit,
    }
    if profile is not None:
        doc["profile"] = profile_to_dict(profile)
    return doc


def flowline_from_dict(doc: Mapping[str, Any]) -> tuple[Flowline, TaskProfile | None]:
    vertices = [
        TaskNode(
            id=str(v["id"]),
            label=str(v.get("label", "") or v["id"]),
            kind=str(v.get("kind", KIND_OPERATOR)),
            operator_family=v.get("operator_family"),
            resource_class=str(v.get("resource_class", "")),
            config=dict(v.get("config", {})),
        )
        for v in doc["vertices"]
    ]
    fl = Flowline.build(vertices, [tuple(e) for e in doc["edges"]],
                        entry=doc.get("entry"), exit=doc.get("exit"))
    profile = None
    if "profile" in doc and doc["profile"] is not None:
        profile = profile_from_dict(doc["profile"])
    return fl, profile


def profile_to_dict(profile: TaskProfile) -> dict[str, Any]:
    return {
        "vertex_weights": {k: float(v) for k, v in sorted(profile.vertex_weights.items())},
        "edge_payloads": {f"{a}->{b}": float(s)
                          for (a, b), s in sorted(profile.edge_payloads.items())},
    }


def profile_from_dict(doc: Mapping[str, Any]) -> TaskProfile:
    payloads: dict[tuple[str, str], float] = {}
    for key, size in doc.get("edge_payloads", {}).items():
        a, _, b = key.partition("->")
        if not b:
            raise FlowlineError(f"bad edge key in profile: {key!r}")
        payloads[(a, b)] = float(size)
    return TaskProfile({k: float(v) for k, v in doc.get("vertex_weights", {}).items()},
                       payloads)

