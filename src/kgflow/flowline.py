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
of the recurrence: ``makespan`` and the placement's upward ranks run it
on floats, and the simulator and ``predict_many`` on (tasks, columns) numpy
arrays, one column per slice or per plan, so that one pass over the tasks
times every slice of a corpus.

All types are immutable after construction and every operation is a pure
function, so evaluation is safe from multiple threads.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Iterable, Mapping

import numpy as np

from . import registry

KIND_OPERATOR = "operator"


class FlowlineError(ValueError):
    """Structural misuse of a flowline or profile (not a validation finding)."""


@lru_cache(maxsize=4096)
def natural_key(task_id: str):
    """Sort key for task ids: digit runs compare as numbers, "m2" < "m10"."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", task_id))


@dataclass(frozen=True)
class TaskNode:
    """One task vertex: an IE model endpoint or a built-in operator. Its
    ``kind``, a model paradigm or ``KIND_OPERATOR``, alone decides
    ``is_model``; the registry holds its function's contract."""

    id: str
    label: str = ""
    kind: str = KIND_OPERATOR
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind != KIND_OPERATOR and self.kind not in registry.PARADIGMS:
            raise FlowlineError(f"unknown task kind: {self.kind!r}")
        if not self.label:
            object.__setattr__(self, "label", self.id)

    @property
    def is_model(self) -> bool:
        return self.kind in registry.PARADIGMS

    @property
    def function(self) -> str:
        """Registry name of the task: the config's ``function``, else the id
        up to any ``[label]`` instance tag (ids look like "filter[f_bert]")."""
        return str(self.config.get("function") or self.id.split("[", 1)[0])


@dataclass(frozen=True)
class Flowline:
    """Immutable task graph with declared entry and exit. Construction keeps
    a repeated edge once and raises FlowlineError unless the task ids are
    unique and every edge, the entry and the exit name tasks of it."""

    vertices: tuple[TaskNode, ...]
    edges: tuple[tuple[str, str], ...]
    entry: str
    exit: str

    def __post_init__(self):
        object.__setattr__(self, "edges", _edge_set(self.vertices, self.edges))
        for role, task in (("entry", self.entry), ("exit", self.exit)):
            if task not in self.by_id:
                raise FlowlineError(f"{role} {task!r} is not a task of the flowline")

    @classmethod
    def build(cls, vertices: Iterable[TaskNode],
              edges: Iterable[tuple[str, str]]) -> "Flowline":
        """Construct a flowline, inferring entry and exit from degrees; the
        constructor takes them where the degrees leave them ambiguous."""
        verts = tuple(vertices)
        # Checked before the degrees are read, so a bad edge is named.
        eds = _edge_set(verts, edges)
        heads, tails = _ends(verts, eds)
        if len(heads) != 1:
            raise FlowlineError(f"cannot infer entry, candidates: {heads}")
        if len(tails) != 1:
            raise FlowlineError(f"cannot infer exit, candidates: {tails}")
        return cls(verts, eds, heads[0], tails[0])

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
            out[a].append(b)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        inn: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        for a, b in self.edges:
            inn[b].append(a)
        return {k: tuple(sorted(v)) for k, v in inn.items()}

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        """Deterministic topological order (lexicographic among ready tasks).

        Raises FlowlineError if the graph has a cycle; ``validate`` reports
        cycles as data instead.
        """
        indeg = {k: len(v) for k, v in self.predecessors.items()}
        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            nxt = heapq.heappop(ready)
            order.append(nxt)
            for succ in self.successors[nxt]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self.vertices):
            raise FlowlineError("flowline contains a cycle")
        return tuple(order)

    @cached_property
    def natural_order(self) -> tuple[str, ...]:
        """The task ids sorted by ``natural_key``, ties in vertex order."""
        return tuple(sorted((v.id for v in self.vertices), key=natural_key))

    @cached_property
    def models(self) -> frozenset[str]:
        """The ids of the model tasks."""
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


def _edge_set(vertices: tuple[TaskNode, ...],
              edges: Iterable[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """``edges`` once each in first-seen order, checked against ``vertices``."""
    ids = Counter(v.id for v in vertices)
    repeated = sorted(i for i, n in ids.items() if n > 1)
    if repeated:
        raise FlowlineError(f"duplicate task ids: {repeated}")
    unique = tuple(dict.fromkeys(edges))
    dangling = [e for e in unique if e[0] not in ids or e[1] not in ids]
    if dangling:
        raise FlowlineError(f"edges join unknown tasks: {dangling}")
    return unique


def _ends(vertices: tuple[TaskNode, ...], edges: tuple[tuple[str, str], ...]
          ) -> tuple[list[str], list[str]]:
    """Heads and tails: the tasks with no in-edge, and with no out-edge."""
    targets = {b for _, b in edges}
    sources = {a for a, _ in edges}
    ids = sorted(v.id for v in vertices)
    return ([i for i in ids if i not in targets],
            [i for i in ids if i not in sources])


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str
    tasks: tuple[str, ...] = ()  # the ids of the tasks it names

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

    Findings are data, not exceptions: entry/exit multiplicity and any
    mismatch with the declared ones, cycles, unknown operators/models (a
    model vertex whose kind is not its function's paradigm included), and
    type-incompatible pipes (a consumer requiring columns its producer
    cannot supply). With a profile, zero-weight model vertices are flagged
    as warnings (weight 0 is permitted but usually a profiling gap).
    """
    violations: list[Violation] = []
    warnings: list[Violation] = []
    heads, tails = _ends(flowline.vertices, flowline.edges)
    for role, many, degree, ends, declared in (
            ("entry", "entries", "in", heads, flowline.entry),
            ("exit", "exits", "out", tails, flowline.exit)):
        if len(ends) != 1:
            violations.append(Violation(
                f"multiple-{many}" if ends else f"no-{role}",
                f"{degree}-degree-0 vertices: {ends}", tuple(ends)))
        elif ends[0] != declared:
            violations.append(Violation(
                f"{role}-mismatch", f"declared {role} {declared!r}, found "
                f"{ends[0]!r}", (declared, ends[0])))

    try:
        flowline.topological_order  # sorted once, then cached
    except FlowlineError:
        violations.append(Violation("cycle", "flowline contains a directed "
                                    "cycle", _on_cycles(flowline)))

    for v in sorted(flowline.vertices, key=lambda v: v.id):
        family = getattr(registry.spec(v.function), "family", None)
        if v.is_model and family != v.kind:
            detail = (f"is registered as {family}, not {v.kind}"
                      if family in registry.PARADIGMS else "not registered")
            violations.append(Violation(
                "unknown-model",
                f"task {v.id!r}: model {v.function!r} {detail}", (v.id,)))
        elif not v.is_model and family in (None, *registry.PARADIGMS):
            violations.append(Violation(
                "unknown-operator",
                f"task {v.id!r}: operator {v.function!r} not registered",
                (v.id,)))

    if not violations:  # then the flowline is acyclic
        violations.extend(_check_pipes(flowline))

    if profile is not None:
        for v in sorted(flowline.vertices, key=lambda v: v.id):
            if v.is_model and profile.vertex_weights.get(v.id) == 0:
                warnings.append(Violation(
                    "zero-weight-model", f"model task {v.id!r} has weight 0",
                    (v.id,)))

    return ValidationReport(tuple(violations), tuple(warnings))


def _on_cycles(flowline: Flowline) -> tuple[str, ...]:
    """The tasks on a directed cycle or on a path between two: those the
    topological sort leaves unsorted, less those that lead to no cycle.
    Tasks without a precursor among those left are peeled off until none
    is, then tasks without a successor among them."""
    left = set(flowline.by_id)
    for links in (flowline.predecessors, flowline.successors):
        while peel := {t for t in left if left.isdisjoint(links[t])}:
            left -= peel
    return tuple(sorted(left, key=lambda t: (natural_key(t), t)))


def _check_pipes(flowline: Flowline) -> list[Violation]:
    """Propagate edge-projected columns; flag consumers that cannot be fed
    (every vertex's function is registered under its kind)."""
    corpus_feed = frozenset({registry.SAMPLE, registry.ANY})
    available: dict[str, frozenset[str]] = {}
    found: list[Violation] = []
    for tid in flowline.topological_order:
        spec = registry.spec(flowline.node(tid).function)
        if tid == flowline.entry:
            received = spec.received_columns(corpus_feed)
        else:
            received = frozenset()
            for pred in flowline.predecessors[tid]:
                received |= spec.received_columns(available[pred])
            missing = [c for c in spec.requires
                       if c != registry.ANY and c not in received]
            if missing:
                preds = ",".join(flowline.predecessors[tid])
                found.append(Violation(
                    "incompatible-pipe",
                    f"task {tid!r} requires columns {missing} not supplied "
                    f"by precursor(s) {preds}", (tid,)))
        available[tid] = spec.output_columns(received)
    return found


def finish_times(order: Iterable[str], preds: Mapping[str, Iterable[str]],
                 duration: Any, delay: Mapping[tuple[str, str], Any],
                 serial: bool = False) -> tuple[Any, Any]:
    """Start and finish times of the tasks in ``order``, a topological order
    of the graph ``preds`` describes, with no delay on a pair missing from
    ``delay``:

        ST(v) = max(0, FT(u) + delay[u, v] for u in preds[v])
        FT(v) = ST(v) + duration[v]

    The mode follows ``duration``'s type. A dict of floats keyed by task
    gives dicts of floats. A 2-D numpy array, row j holding task
    ``order[j]``'s durations, one column per slice (or per plan), gives two
    arrays of its shape, row j again ``order[j]``, so one pass over the
    tasks times every column at once; a delay may then be a float or a
    row. Each task's ready and finish times are written straight into its
    rows. With ``serial``, which needs an array, a task runs its columns in
    order: column s also waits for FT(s - 1, v), and the finish row solves

        FT(s, v) = max(R(s), FT(s - 1, v)) + D(s)

    (R the ready row above, D the durations) as one max-plus scan,
    FT = C + maximum.accumulate(R - (C - D)) with C the row's prefix sums,
    taken for every task by one ``cumsum`` over ``duration``.
    """
    if not isinstance(duration, np.ndarray):
        st: dict[str, float] = {}
        ft: dict[str, float] = {}
        for v in order:
            ready = 0.0
            for u in preds[v]:
                ready = max(ready, ft[u] + delay.get((u, v), 0.0))
            st[v] = ready
            ft[v] = ready + duration[v]
        return st, ft
    row: dict[str, int] = {}
    start = np.zeros(duration.shape)
    end = np.empty_like(start)
    starts, ends = list(start), list(end)  # each row's view, made once
    if serial:
        cum = np.cumsum(duration, axis=1)
    for j, v in enumerate(order):
        row[v] = j
        ready = starts[j]
        for u in preds[v]:
            pause = delay.get((u, v))  # None: FT(u) + 0 is FT(u), as FT >= 0
            np.maximum(ready, ends[row[u]] if pause is None
                       else ends[row[u]] + pause, out=ready)
        if serial:
            done = ready - (cum[j] - duration[j])
            np.maximum.accumulate(done, out=done)
            done += cum[j]
            np.maximum(ready[1:], done[:-1], out=ready[1:])
        np.add(ready, duration[j], out=ends[j])
    return start, end


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

