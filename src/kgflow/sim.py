"""Deterministic discrete-event simulation of a schedule plan.

A corpus is processed as micro-batch slices over the plan's VMs. In the
default discipline one slice is in flight at a time: slice s is admitted
once slice s-1 has left the exit task, and within a slice every task starts
as soon as all precursors have finished and any cross-VM transfer delay has
elapsed. The corpus runs as ``flowline.n_slices`` whole slices, the last one
a full slice even when the corpus ends part-way through it, and the slices
run on ``flowline.finish_times``, the recurrence behind ``makespan``. So
with zero jitter this reproduces the analytic model within float rounding:
total time = n_slices(corpus, slice) * makespan of the partitioned graph,
for every corpus and slice size. The ``overlap`` flag enables the
experimentation mode where tasks run ahead across slices (per-task serial
order still holds); throughput then exceeds the analytic model's, so only
the default mode matches it.

Every slice is timed at once, in one (tasks, slices) pair of start and
finish arrays, row j for task ``topological_order[j]``: ``finish_times``
makes one pass over the tasks and writes each task's rows in place. The
durations are one product of the tasks' weight column with the jitter
draw; with zero jitter they are that column broadcast to every slice, a
view that allocates nothing. Without overlap each slice's times come out
relative to its own admission; the admissions, the exclusive cumulative
sum of the slices' exit finishes, are then added to the arrays in place.
With overlap, a task's slices form the max-plus scan FT(s) = max(R(s),
FT(s - 1)) + D(s), R the slice's ready time and D the duration, which
``finish_times`` solves with a cumulative maximum over prefix sums taken
by one ``cumsum`` over the durations. A run holds a few float64 arrays of
that shape, so one that would outgrow ``_MAX_SIM_BYTES`` is refused before
anything is allocated. The result's ``timeline`` keeps the start and
finish arrays and builds a ``TimelineEvent`` only when one is read.

Task durations can be jittered with a multiplicative log-normal factor
(mean 1, fractional std-dev ``jitter``), drawn as one (slices, tasks) array
from ``numpy.random.Generator(PCG64(seed))``, so a seed gives the same run
every time; its transpose is scaled in place into the durations.

Also here: the two comparison baselines (seeded random plans, and the
cheapest procurement placed by ``scheduler.greedy_partition``, the
earliest-finish-time rule ``schedule`` places by too) and the eta sweep
that produces makespan/cost trade-off tables. The sweep draws its random
plans in one pass, ``baseline_random_many``, which checks the catalog and
demand once for all its seeds.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import _fields
from .costmodel import (
    CostModelError,
    PlanTable,
    Preference,
    ProcurementPlan,
    ResourceDemand,
    VmType,
    catalog_types,
    normalized_objectives,
    procure,
)
from .flowline import (
    Flowline,
    FlowlineError,
    NetParams,
    TaskProfile,
    apply_partition,
    finish_times,
    n_slices,
    natural_key,
)
from .scheduler import (
    Ledger,
    SchedulePlan,
    greedy_partition,
    need,
    predict_many,
    require_qualified,
    schedule_many,
)


_check_count = functools.partial(_fields.count, FlowlineError)


@dataclass(frozen=True, kw_only=True)
class _RunConfig:
    """The network and the sliced corpus of a run. A bad value raises
    FlowlineError naming its field."""

    latency_s: float = 0.0
    bandwidth_Bps: float = 1.0e9
    slice_size: int = 200
    corpus_size: int = 8000
    seed: int = 0

    def __post_init__(self):
        self.net  # rejects a bad latency or bandwidth
        self.n_slices  # rejects a bad corpus or slice size
        _check_count("seed", self.seed, 0)

    @property
    def net(self) -> NetParams:
        return NetParams(self.latency_s, self.bandwidth_Bps)

    @property
    def n_slices(self) -> int:
        return n_slices(self.corpus_size, self.slice_size)


@dataclass(frozen=True, kw_only=True)
class SimConfig(_RunConfig):
    jitter: float = 0.0
    overlap: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.jitter < math.inf:
            raise FlowlineError(
                f"jitter must be finite and >= 0: {self.jitter}")


@dataclass(frozen=True)
class TimelineEvent:
    task: str
    slice_index: int
    vm: int
    start: float
    end: float


@dataclass(frozen=True, eq=False)
class Timeline(Sequence[TimelineEvent]):
    """A run's events, slice by slice and within a slice in ``tasks``
    order, kept as read-only (tasks, slices) start and end arrays; an
    event is built only when it is read."""

    tasks: tuple[str, ...]
    vms: tuple[int, ...]
    start: np.ndarray
    end: np.ndarray

    def __len__(self) -> int:
        return self.start.size

    def __getitem__(self, index):
        picked = range(len(self))[index]  # IndexError when out of range
        if isinstance(picked, range):
            return tuple(self[i] for i in picked)
        s, j = divmod(picked, len(self.tasks))
        return TimelineEvent(self.tasks[j], s, self.vms[j],
                             float(self.start[j, s]), float(self.end[j, s]))

    def __eq__(self, other):
        if not isinstance(other, Timeline):
            return NotImplemented
        return (self.tasks == other.tasks and self.vms == other.vms
                and np.array_equal(self.start, other.start)
                and np.array_equal(self.end, other.end))


@dataclass(frozen=True)
class SimResult:
    total_time: float
    per_slice_makespan: tuple[float, ...]
    monetary_cost: float
    timeline: Timeline


# A run's arrays peak at float64 bytes per event of: 16 with neither jitter
# nor overlap, the start and finish arrays the timeline keeps (a zero-jitter
# duration is a broadcast view); 24 with jitter, adding the draw scaled in
# place into the durations; 24 with overlap, adding the durations' prefix
# sums; 32 with both; each plus a few rows of one float per slice. A run is
# charged 48, its peak before the arrays were filled in place, so the runs
# refused, those charged more than the budget, stay the same.
_EVENT_BYTES = 48
_MAX_SIM_BYTES = 1 << 27


def simulate(plan: SchedulePlan, flowline: Flowline, profile: TaskProfile,
             config: SimConfig) -> SimResult:
    """Event-driven run of the plan over the sliced corpus: one pass of
    ``finish_times`` over the tasks times every slice at once."""
    require_qualified(plan, flowline)
    delay = apply_partition(flowline, profile, plan.assignment, config.net)
    order = flowline.topological_order
    slices = config.n_slices
    if slices * len(order) * _EVENT_BYTES > _MAX_SIM_BYTES:
        raise FlowlineError(
            f"corpus_size {config.corpus_size:g} at slice_size "
            f"{config.slice_size:g} is {slices} slices of {len(order)} tasks, "
            f"more events than {_MAX_SIM_BYTES >> 20} MB holds; raise "
            "slice_size or split the corpus")
    weights = np.array([profile.weight(task) for task in order])[:, None]
    sigma = config.jitter
    if sigma:  # drawn slice by slice, scaled in place into (tasks, slices)
        draw = np.random.Generator(np.random.PCG64(config.seed)).lognormal(
            -0.5 * sigma * sigma, sigma, (slices, len(order))).T  # mean 1
        duration = np.multiply(weights, draw, out=draw)
    else:
        duration = np.broadcast_to(weights, (len(order), slices))
    start, end = finish_times(order, flowline.predecessors, duration, delay,
                              serial=config.overlap)
    exit_finish = end[order.index(flowline.exit)]
    if config.overlap:  # a slice runs from its first start to its exit
        per_slice = exit_finish - start.min(axis=0)
        left = exit_finish
    else:  # a slice is admitted when the one before it leaves the exit
        per_slice = exit_finish.copy()  # a view of ``end``, shifted below
        left = np.cumsum(exit_finish)
        offsets = np.concatenate(([0.0], left))[:-1]
        start += offsets
        end += offsets
    start.flags.writeable = end.flags.writeable = False
    total = float(left[-1]) if slices else 0.0
    cost = plan.procurement.total_price * total / 3600.0
    timeline = Timeline(order, tuple(plan.assignment[t] for t in order),
                        start, end)
    return SimResult(total, tuple(per_slice.tolist()), cost, timeline)


def timeline_to_chrome_trace(result: SimResult) -> list[dict[str, Any]]:
    """Chrome-trace-compatible event list (timestamps in microseconds),
    ordered by start, task id in natural order and slice; events that tie
    on all three, such as tasks "a1" and "a01", keep timeline order."""
    timeline = result.timeline
    keys = [natural_key(task) for task in timeline.tasks]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    start, end = timeline.start.T.ravel(), timeline.end.T.ravel()  # slice-major
    slices, tasks = np.divmod(np.arange(start.size), len(keys))
    order = np.lexsort((slices, np.array([rank[k] for k in keys])[tasks], start))
    names, vms = timeline.tasks, timeline.vms
    return [{"name": f"{names[j]}#{s}", "cat": "task", "ph": "X", "ts": ts,
             "dur": dur, "pid": vms[j], "tid": names[j]}
            for j, s, ts, dur in zip(tasks[order].tolist(),
                                     slices[order].tolist(),
                                     (start[order] * 1e6).tolist(),
                                     ((end - start)[order] * 1e6).tolist())]


# --- baselines -----------------------------------------------------------------

def baseline_random(flowline: Flowline, catalog: Sequence[VmType],
                    seed: int, net: NetParams | None = None) -> SchedulePlan:
    """Uniformly random feasible procurement and qualified assignment.

    Deterministic per seed: every draw comes from one
    ``random.Random(seed)`` stream, in this order. Up to 10,000 times, k
    is drawn from 1..k_cap and then k instances, each of a type drawn
    uniformly; the first draw that covers the demand is bought. Then the
    tasks, in natural order, are shuffled, and each in turn goes to a VM
    drawn uniformly from those with room for it (``Ledger.fitting``, in
    index order). Should all 10,000 draws fall short, the last one is
    topped up with instances of types drawn uniformly from those with GPU
    cards until it has enough cards, then from those with headroom cores
    until it has enough cores. A catalog in which no type supplies the
    demand raises ``ResourceDemand.check_supplied``'s CostModelError
    before any draw.

    Every draw is read straight off ``getrandbits`` by the rule of
    CPython 3.11's ``randint``, ``randrange`` and ``shuffle``: a draw
    below n takes k = n.bit_length() bits, and takes them again while
    they read n or more; the shuffle makes ``shuffle``'s swaps. So the
    stream is theirs, draw for draw. A Python whose ``random`` draws
    otherwise would part the two; the guard is the property in
    ``tests/test_sim.py`` that compares ``baseline_random_many`` with
    ``reference_baseline_random``, which calls those methods. This is
    ``baseline_random_many`` of one seed.
    """
    return baseline_random_many(flowline, catalog, [seed], net)[0]


def baseline_random_many(flowline: Flowline, catalog: Sequence[VmType],
                         seeds: Sequence[int],
                         net: NetParams | None) -> list[SchedulePlan]:
    """``baseline_random`` of each of ``seeds``, in order, from one pass.

    Each seed draws from its own ``random.Random(seed)``. What does not
    depend on the seed is done once: the catalog and demand checks,
    k_cap and each type's (cards, headroom cores).
    """
    types = catalog_types(catalog)
    tasks = flowline.natural_order
    demand = n_models, n_operators = need(flowline, tasks)
    ResourceDemand(*demand).check_supplied(types)
    # Enough of the type with most GPUs plus of the one with most headroom.
    k_cap = max(2, n_models + 1, 1 + math.ceil(
        n_models / (max(vm.gpu_cards for vm in types) or 1)) + math.ceil(
        n_operators / (max(vm.cpu_headroom for vm in types) or 1)))
    supply = [(vm.gpu_cards, vm.cpu_headroom) for vm in types]
    gpus = [i for i, vm in enumerate(types) if vm.gpu_cards]
    cores = [i for i, vm in enumerate(types) if vm.cpu_headroom]
    n_types, type_bits = len(types), len(types).bit_length()
    k_bits = k_cap.bit_length()
    # shuffle's swaps: from the end, position i with a draw below i + 1.
    swaps = [(i, (i + 1).bit_length()) for i in range(len(tasks) - 1, 0, -1)]
    models = flowline.models
    plans = []
    for seed in seeds:
        bits = random.Random(seed).getrandbits
        for _ in range(10000):
            k = bits(k_bits)  # randint(1, k_cap) is 1 + a draw below k_cap
            while k >= k_cap:
                k = bits(k_bits)
            drawn = []
            cards = headroom = 0
            for _ in range(k + 1):
                i = bits(type_bits)
                while i >= n_types:
                    i = bits(type_bits)
                drawn.append(i)
                cards += supply[i][0]
                headroom += supply[i][1]
            if cards >= n_models and headroom >= n_operators:
                break
        else:  # top the last draw up; check_supplied found both supplies
            have = [cards, headroom]
            for pool, unit in ((gpus, 0), (cores, 1)):
                n, n_bits = len(pool), len(pool).bit_length()
                while have[unit] < demand[unit]:
                    i = bits(n_bits)
                    while i >= n:
                        i = bits(n_bits)
                    drawn.append(pool[i])
                    have[0] += supply[pool[i]][0]
                    have[1] += supply[pool[i]][1]

        procurement = ProcurementPlan.of([types[i] for i in drawn])
        ledger = Ledger(procurement.expand())
        card, core = ledger.stock(Ledger.CARD), ledger.stock(Ledger.CORE)
        order = list(tasks)
        for i, i_bits in swaps:
            j = bits(i_bits)
            while j > i:
                j = bits(i_bits)
            order[i], order[j] = order[j], order[i]
        assignment: dict[str, int] = {}
        for task in order:  # the draw covers the demand, so a VM has room
            vms, left = card if task in models else core
            n = len(vms)
            n_bits = n.bit_length()
            pick = bits(n_bits)
            while pick >= n:
                pick = bits(n_bits)
            assignment[task] = vms[pick]
            left[pick] -= 1
            if not left[pick]:
                del vms[pick], left[pick]
        plans.append(SchedulePlan(procurement, assignment, eta=0.5, net=net,
                                  scheduler="random"))
    return plans


def baseline_list(flowline: Flowline, profile: TaskProfile,
                  catalog: Sequence[VmType], net: NetParams,
                  table: PlanTable | None = None) -> SchedulePlan:
    """List scheduler: ``greedy_partition``'s earliest-finish-time placement
    over the cheapest feasible procurement, searched in ``table`` when one
    is given for the catalog and the flowline's demand."""
    profile.check_covers(flowline)
    demand = ResourceDemand(*need(flowline, flowline.by_id))
    procurement = procure(catalog, 0.0, demand, table=table)
    assignment = greedy_partition(flowline, profile, procurement.expand(), net)
    return SchedulePlan(procurement, assignment, eta=0.5, net=net,
                        scheduler="list")


# --- eta sweep -------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class SweepConfig(_RunConfig):
    latency_s: float = 0.05
    bandwidth_Bps: float = 1.0e7
    random_plans: int = 50

    def __post_init__(self):
        super().__post_init__()
        _check_count("random_plans", self.random_plans, 1)


@dataclass(frozen=True)
class SweepRow:
    eta: float
    scheduler: str
    makespan_s: float
    cost_com_s: float
    cost_mon: float
    J: float


def sweep_eta(flowline: Flowline, profile: TaskProfile,
              catalog: Sequence[VmType], etas: Sequence[float],
              config: SweepConfig = SweepConfig()) -> list[SweepRow]:
    """Trade-off table: ``schedule`` vs list vs random baselines per eta.

    Each eta cell evaluates every candidate plan analytically, min-max
    normalizes (cost_com, cost_mon) over the whole cell, and weights them
    into J. The random row reports medians over ``config.random_plans``
    seeded plans, drawn in one ``baseline_random_many`` pass. What does
    not depend on eta is done once and shared by every cell: one
    ``PlanTable`` for the catalog and the flowline's demand, which the
    list baseline and every eta's procurement read; the baselines' costs,
    from one columnar ``predict_many`` pass, and the random row's medians
    of them; and, through ``schedule_many``, the price-to-makespan curve,
    fitted there from one synthesized warm-up, and the placement and
    costs of each distinct procurement, made once for the first eta that
    buys it, as its makespan, corpus time and money do not depend on eta.
    """
    if not etas:
        raise CostModelError("empty eta list")
    for eta in etas:  # before any warm-up work
        Preference(eta)
    net = config.net
    plan_table = PlanTable(catalog, ResourceDemand(*need(flowline,
                                                         flowline.by_id)))
    baselines = [baseline_list(flowline, profile, catalog, net, plan_table)]
    baselines += baseline_random_many(
        flowline, catalog,
        range(config.seed, config.seed + config.random_plans), net)

    # The baselines place a task only where the Ledger has room and place
    # every task, so their plans are costed without qualifying them again.
    baseline_metrics = predict_many(baselines, flowline, profile,
                                    config.corpus_size, config.slice_size,
                                    net)
    random_costs = [statistics.median(m[k] for m in baseline_metrics[1:])
                    for k in ("makespan_s", "cost_com_s", "cost_mon")]
    # schedule_many qualified and costed its plans on this corpus and net.
    plans = schedule_many(flowline, profile, catalog, etas, net,
                          corpus_size=config.corpus_size,
                          slice_size=config.slice_size, table=plan_table)
    rows: list[SweepRow] = []
    for eta, plan in zip(etas, plans):
        metrics = [plan.predictions] + baseline_metrics
        js = normalized_objectives(
            [(m["cost_com_s"], m["cost_mon"]) for m in metrics], eta)
        table = [(m["makespan_s"], m["cost_com_s"], m["cost_mon"], j)
                 for m, j in zip(metrics[:2], js)]
        # bench/workloads.py finds schedule's row by this label.
        rows += [SweepRow(eta, "compound-greedy", *table[0]),
                 SweepRow(eta, "list", *table[1]),
                 SweepRow(eta, "random", *random_costs,
                          statistics.median(js[2:]))]
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["eta,scheduler,makespan_s,cost_com_s,cost_mon,J"]
    for r in rows:
        lines.append(f"{r.eta},{r.scheduler},{r.makespan_s:.9g},"
                     f"{r.cost_com_s:.9g},{r.cost_mon:.9g},{r.J:.9g}")
    return "\n".join(lines) + "\n"

