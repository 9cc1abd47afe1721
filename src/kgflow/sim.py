"""Deterministic discrete-event simulation of a schedule plan.

A corpus is processed as micro-batch slices over the plan's VMs. In the
default discipline one slice is in flight at a time: slice s is admitted
once slice s-1 has left the exit task, and within a slice every task starts
as soon as all precursors have finished and any cross-VM transfer delay has
elapsed. Each slice runs on ``flowline.finish_times``, the recurrence behind
``makespan``, so with zero jitter this reproduces the analytic model within
float rounding: total time = (corpus / slice) * makespan of the partitioned
graph. The ``overlap`` flag enables the experimentation mode where tasks run
ahead across slices (per-task serial order still holds); throughput then
exceeds the analytic model's, so only the default mode matches it.

Task durations can be jittered with a multiplicative log-normal factor
(mean 1, fractional std-dev ``jitter``), drawn deterministically from the
seed.

Also here: the two comparison baselines (seeded random plans and an
earliest-finish-time list scheduler) and the eta sweep that produces
makespan/cost trade-off tables.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Any, Sequence

from .costmodel import (
    CostModelError,
    ResourceDemand,
    VmType,
    normalized_objectives,
    procure,
)
from .flowline import Flowline, NetParams, TaskProfile, apply_partition, finish_times
from .scheduler import (
    Ledger,
    SchedulePlan,
    SchedulingError,
    _natural_key,
    _plan_from_instances,
    check_qualification,
    evaluate_plan,
    need,
    schedule,
    synthesized_fit,
)


@dataclass(frozen=True)
class SimConfig:
    latency_s: float = 0.0
    bandwidth_Bps: float = 1.0e9
    slice_size: int = 200
    corpus_size: int = 8000
    jitter: float = 0.0
    seed: int = 0
    overlap: bool = False

    def __post_init__(self):
        self.net  # rejects a bad latency or bandwidth
        if self.slice_size < 1:
            raise ValueError("slice size must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @property
    def net(self) -> NetParams:
        return NetParams(self.latency_s, self.bandwidth_Bps)

    @property
    def n_slices(self) -> int:
        return math.ceil(self.corpus_size / self.slice_size)


@dataclass(frozen=True)
class TimelineEvent:
    task: str
    slice_index: int
    vm: int
    start: float
    end: float


@dataclass(frozen=True)
class SimResult:
    total_time: float
    per_slice_makespan: tuple[float, ...]
    monetary_cost: float
    timeline: tuple[TimelineEvent, ...]


def simulate(plan: SchedulePlan, flowline: Flowline, profile: TaskProfile,
             config: SimConfig) -> SimResult:
    """Event-driven run of the plan over the sliced corpus."""
    report = check_qualification(plan, flowline)
    if not report.ok:
        raise SchedulingError("plan fails qualification: "
                              + "; ".join(report.violations))
    assignment = plan.assignment
    delay = apply_partition(flowline, profile, assignment,
                            config.net).edge_weights
    order = flowline.topological_order
    weights = {task: profile.weight(task) for task in order}
    rng = random.Random(config.seed)
    sigma = config.jitter
    mu = -0.5 * sigma * sigma  # mean-1 log-normal

    timeline: list[TimelineEvent] = []
    per_slice: list[float] = []
    admitted = total = 0.0
    finish = None
    for s in range(config.n_slices):
        duration = weights if not sigma else {
            task: weights[task] * rng.lognormvariate(mu, sigma)
            for task in order}
        if config.overlap:
            start, finish = finish_times(order, flowline.predecessors,
                                         duration, delay, after=finish)
            admitted = min(start.values())  # the slice's first start
        else:
            start, finish = finish_times(order, flowline.predecessors,
                                         duration, delay, start=admitted)
        timeline.extend(TimelineEvent(task, s, assignment[task], start[task],
                                      finish[task]) for task in order)
        total = finish[flowline.exit]
        per_slice.append(total - admitted)
        admitted = total

    cost = plan.total_unit_price * total / 3600.0
    return SimResult(total, tuple(per_slice), cost, tuple(timeline))


def timeline_to_chrome_trace(result: SimResult) -> list[dict[str, Any]]:
    """Chrome-trace-compatible event list (timestamps in microseconds)."""
    events = []
    for ev in sorted(result.timeline,
                     key=lambda e: (e.start, _natural_key(e.task), e.slice_index)):
        events.append({
            "name": f"{ev.task}#{ev.slice_index}",
            "cat": "task",
            "ph": "X",
            "ts": ev.start * 1e6,
            "dur": (ev.end - ev.start) * 1e6,
            "pid": ev.vm,
            "tid": ev.task,
        })
    return events


# --- baselines -----------------------------------------------------------------

def _feasible(vms: Sequence[VmType], demand: tuple[int, int]) -> bool:
    return (sum(vm.gpu_cards for vm in vms) >= demand[0]
            and sum(vm.cpu_headroom for vm in vms) >= demand[1])


def baseline_random(flowline: Flowline, catalog: Sequence[VmType],
                    seed: int, net: NetParams | None = None) -> SchedulePlan:
    """Uniformly random feasible procurement and qualified assignment.

    Deterministic per seed (rejection sampling off a seeded generator).
    """
    if not catalog:
        raise CostModelError("empty catalog")
    rng = random.Random(seed)
    types = sorted(catalog, key=lambda v: v.name)
    tasks = sorted((v.id for v in flowline.vertices), key=_natural_key)
    demand = need(flowline, tasks)
    n_models = demand[0]
    min_gpu = max((vm.gpu_cards for vm in types), default=0)
    k_cap = max(2, n_models + 1, math.ceil(n_models / max(min_gpu, 1)) + 1)

    combo: list[VmType] | None = None
    for _ in range(10000):
        k = rng.randint(1, k_cap)
        candidate = [types[rng.randrange(len(types))] for _ in range(k)]
        if _feasible(candidate, demand):
            combo = candidate
            break
    if combo is None:
        raise CostModelError("could not sample a feasible procurement; "
                             "catalog cannot host the flowline")

    procurement = _plan_from_instances(combo)
    vms = procurement.expand()
    ledger = Ledger(vms)
    assignment: dict[str, int] = {}
    rng.shuffle(tasks)
    for task in tasks:
        unit = need(flowline, (task,))
        options = [i for i in range(len(vms)) if ledger.fits(i, unit)]
        if not options:
            raise SchedulingError(f"random assignment stuck at {task!r}")
        pick = options[rng.randrange(len(options))]
        ledger.take(pick, unit)
        assignment[task] = pick
    return SchedulePlan(procurement, vms, assignment, eta=0.5, net=net,
                        scheduler="random")


def _upward_ranks(flowline: Flowline, profile: TaskProfile,
                  net: NetParams) -> dict[str, float]:
    """HEFT upward ranks: the finish-time recurrence run from the exit back
    over ``successors``, with every edge paying its transfer time."""
    order = flowline.topological_order[::-1]
    weights = {task: profile.weight(task) for task in order}
    delay = {(b, a): net.transfer_time(profile.payload((a, b)))
             for a in order for b in flowline.successors[a]}
    return finish_times(order, flowline.successors, weights, delay)[1]


def baseline_list(flowline: Flowline, profile: TaskProfile,
                  catalog: Sequence[VmType],
                  net: NetParams | None = None) -> SchedulePlan:
    """List scheduler: upward-rank order, earliest-finish-time placement,
    over the cheapest feasible procurement."""
    net = net or NetParams()
    profile.check_covers(flowline)
    demand = ResourceDemand(*need(flowline, flowline.by_id))
    procurement = procure(catalog, 0.0, demand)
    vms = procurement.expand()

    ranks = _upward_ranks(flowline, profile, net)
    tasks = sorted((v.id for v in flowline.vertices),
                   key=lambda t: (-ranks[t], _natural_key(t)))
    ledger = Ledger(vms)
    assignment: dict[str, int] = {}
    finish: dict[str, float] = {}
    for task in tasks:
        unit = need(flowline, (task,))
        best: tuple[float, int] | None = None
        for i in range(len(vms)):
            if not ledger.fits(i, unit):
                continue
            ready = 0.0
            for pred in flowline.predecessors[task]:
                if pred not in assignment:  # rank order is not topological
                    continue
                delay = 0.0 if assignment[pred] == i else net.transfer_time(
                    profile.payload((pred, task)))
                ready = max(ready, finish[pred] + delay)
            eft = ready + profile.weight(task)
            if best is None or (eft, i) < best:
                best = (eft, i)
        if best is None:
            raise SchedulingError(f"list baseline cannot place {task!r}")
        eft, idx = best
        assignment[task] = idx
        finish[task] = eft
        ledger.take(idx, unit)
    return SchedulePlan(procurement, vms, assignment, eta=0.5, net=net,
                        scheduler="list")


# --- eta sweep -------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    corpus_size: int = 8000
    slice_size: int = 200
    latency_s: float = 0.05
    bandwidth_Bps: float = 1.0e7
    random_plans: int = 50
    seed: int = 0

    @property
    def net(self) -> NetParams:
        return NetParams(self.latency_s, self.bandwidth_Bps)


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
    """Trade-off table: heuristic vs list vs random baselines per eta.

    Each eta cell evaluates every candidate plan analytically, min-max
    normalizes (cost_com, cost_mon) over the whole cell, and weights them
    into J. The random row reports medians over ``config.random_plans``
    seeded plans. The price-to-makespan curve and the baselines' costs do
    not depend on eta, so they are computed once and shared by every cell.
    """
    if not etas:
        raise ValueError("empty eta list")
    net = config.net
    baselines = [baseline_list(flowline, profile, catalog, net)]
    baselines += [baseline_random(flowline, catalog, config.seed + i, net)
                  for i in range(config.random_plans)]
    fit = synthesized_fit(flowline, profile, catalog, net)

    def cost(plan: SchedulePlan, eta: float) -> tuple[float, float]:
        metrics = evaluate_plan(plan, flowline, profile, config.corpus_size,
                                config.slice_size, eta, net)
        return metrics["cost_com_s"], metrics["cost_mon"]

    # The eta passed here only weights the J that is not used.
    baseline_costs = [cost(plan, etas[0]) for plan in baselines]
    rows: list[SweepRow] = []
    for eta in etas:
        # schedule() qualified and costed its plan on this corpus and net.
        predicted = schedule(flowline, profile, catalog, eta, net, fit=fit,
                             corpus_size=config.corpus_size,
                             slice_size=config.slice_size).predictions
        costs = ([(predicted["cost_com_s"], predicted["cost_mon"])]
                 + baseline_costs)
        js = normalized_objectives(costs, eta)

        def row(name: str, idx: int) -> SweepRow:
            com, mon = costs[idx]
            per_slice = com / (config.corpus_size / config.slice_size)
            return SweepRow(eta, name, per_slice, com, mon, js[idx])

        rows.append(row("compound-greedy", 0))
        rows.append(row("list", 1))
        random_rows = [row("random", 2 + i) for i in range(config.random_plans)]
        rows.append(SweepRow(
            eta, "random",
            statistics.median(r.makespan_s for r in random_rows),
            statistics.median(r.cost_com_s for r in random_rows),
            statistics.median(r.cost_mon for r in random_rows),
            statistics.median(r.J for r in random_rows)))
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["eta,scheduler,makespan_s,cost_com_s,cost_mon,J"]
    for r in rows:
        lines.append(f"{r.eta},{r.scheduler},{r.makespan_s:.9g},"
                     f"{r.cost_com_s:.9g},{r.cost_mon:.9g},{r.J:.9g}")
    return "\n".join(lines) + "\n"


def sim_result_to_dict(result: SimResult) -> dict[str, Any]:
    return {
        "total_time_s": result.total_time,
        "per_slice_makespan_s": list(result.per_slice_makespan),
        "monetary_cost": result.monetary_cost,
        "timeline": [
            {"task": ev.task, "slice": ev.slice_index, "vm": ev.vm,
             "start_s": ev.start, "end_s": ev.end}
            for ev in result.timeline
        ],
    }
