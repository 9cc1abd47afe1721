"""Cost-aware flowline scheduling: procure, place, predict.

The pipeline:

1. *Procurement*: fit (or accept) the price-to-makespan curve, derive the
   optimal unit price x0 for the preference eta, and buy the instance
   multiset closest to x0 that covers |V^m| GPUs and |V^o| CPU cores.
2. *Placement*: HEFT's earliest-finish-time rule (Topcuoglu, Hariri & Wu,
   IEEE TPDS 2002), ``greedy_partition``. The tasks go in upward-rank
   order, each to the VM with room where it would finish earliest: a GPU
   card for a model, a core of CPU headroom (cores minus one per GPU card)
   for an operator (``Ledger``). The warm-up synthesis places every
   candidate procurement by the same rule, all at once (``_place_many``),
   and ``sim.baseline_list`` places the cheapest one with it.

CPU-only flowlines skip the curve and buy one VM with adequate cores.

The paper names only "self-adaptive task scheduling". This package once
read that as compounding: each model absorbed the operators downstream of
it, and each such compound went whole to the VM holding most of its
neighbours. ``compound`` still gives those units, but nothing here places
by them.

A ``SchedulePlan`` assigns tasks to the VMs of its procurement expanded;
it keeps no VM list of its own that could disagree with the procurement.

Everything is deterministic: identical inputs produce byte-identical plan
JSON.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement
from typing import Any, Mapping, Sequence

import numpy as np

from . import _fields
from .costmodel import (
    CostModelError,
    MakespanPriceFit,
    Observation,
    PlanTable,
    Preference,
    ProcurementPlan,
    ResourceDemand,
    VmType,
    catalog_types,
    fit_price_makespan,
    objective,
    optimal_unit_price,
    procure,
    vm_type_from_dict,
)
from .flowline import (
    Flowline,
    FlowlineError,
    NetParams,
    TaskProfile,
    apply_partition,
    finish_times,
    makespan,
    n_slices,
    natural_key,
)


class SchedulingError(ValueError):
    """Infeasible placement or a plan that violates its own constraints."""


_field = functools.partial(_fields.field, SchedulingError)


@dataclass(frozen=True)
class Compound:
    """A GPU ``anchor`` plus its captive operators, or (``anchor`` None)
    one orphan task."""

    members: tuple[str, ...]
    anchor: str | None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members,
                                                         key=natural_key)))


def compound(flowline: Flowline) -> tuple[Compound, ...]:
    """The compounds by anchor, then one unit per orphan by id. No
    placement reads them; ``bench/tracer.py`` still times this layer by
    name. One pass in topological order gives each task its head: a model
    heads its own compound, an operator joins the one all its precursors
    share, and any other task is an orphan."""
    models = flowline.models
    head: dict[str, str | None] = {}
    for task in flowline.topological_order:
        if task in models:
            head[task] = task
        else:
            heads = {head[p] for p in flowline.predecessors[task]}
            head[task] = heads.pop() if len(heads) == 1 else None
    units: dict[str | None, list[str]] = {}
    for v in flowline.vertices:
        units.setdefault(head[v.id], []).append(v.id)
    orphans = units.pop(None, [])
    return (*(Compound(tuple(units[a]), a)
              for a in sorted(units, key=lambda a: (natural_key(a), a))),
            *(Compound((t,), None) for t in sorted(orphans, key=natural_key)))


def need(flowline: Flowline) -> ResourceDemand:
    """What the flowline's tasks take on the VMs bought for it: a GPU card
    per model task, a core of CPU headroom per operator."""
    cards = len(flowline.models)
    return ResourceDemand(cards, len(flowline.by_id) - cards)


class Ledger:
    """``room``, the GPU cards and headroom cores left on each VM of
    ``vms``, is all a ledger keeps; it goes negative on a VM that was
    given more than it has."""

    CARD, CORE = (1, 0), (0, 1)  # what ``need`` charges a model, an operator

    def __init__(self, vms: Sequence[VmType]):
        self.room = [(vm.gpu_cards, vm.cpu_headroom) for vm in vms]

    def fitting(self, demand: tuple[int, int]) -> list[int]:
        """The indices, ascending, of the VMs with room for ``demand``,
        scanned from ``room`` at each call."""
        cards, cores = demand
        return [i for i, (c, o) in enumerate(self.room)
                if cards <= c and cores <= o]

    def take(self, i: int, demand: tuple[int, int]) -> None:
        cards, cores = self.room[i]
        self.room[i] = cards - demand[0], cores - demand[1]

    def stock(self, unit: tuple[int, int]) -> tuple[list[int], list[int]]:
        """For one ``CARD`` or one ``CORE``: ``fitting(unit)``, and how many
        units each of those VMs has room for. Handing a unit out is a
        decrement of its VM's count, and the VM leaves both lists when that
        reaches 0: the first list then stays what ``fitting`` gives after
        the same ``take`` calls."""
        found = self.fitting(unit)
        k = unit.index(1)
        return found, [self.room[i][k] for i in found]


def _upward_ranks(flowline: Flowline, profile: TaskProfile,
                  net: NetParams) -> dict[str, float]:
    """HEFT upward ranks: the finish-time recurrence run from the exit back
    over ``successors``, with every edge paying its transfer time."""
    order = flowline.topological_order[::-1]
    weights = {task: profile.weight(task) for task in order}
    delay = {(b, a): net.transfer_time(profile.payload((a, b)))
             for a in order for b in flowline.successors[a]}
    return finish_times(order, flowline.successors, weights, delay)[1]


def _rank_order(flowline: Flowline, profile: TaskProfile,
                net: NetParams) -> list[str]:
    """The tasks by upward rank, highest first, ties in topological order.
    A task's rank is at least each successor's, so every task comes after
    its precursors."""
    ranks = _upward_ranks(flowline, profile, net)
    return sorted(flowline.topological_order, key=lambda t: -ranks[t])


def greedy_partition(flowline: Flowline, profile: TaskProfile,
                     vms: Sequence[VmType], net: NetParams) -> dict[str, int]:
    """Assign every task to a VM index by earliest finish time.

    Tasks go in ``_rank_order``. Each goes to the VM with room for it
    (``Ledger``) where it would finish earliest, the lowest index on a tie:
    its precursors' finishes, each plus its transfer time unless the
    precursor is on that VM, then its own weight. Raises SchedulingError
    naming the task when no VM has room for it.
    """
    ledger = Ledger(vms)
    assignment: dict[str, int] = {}
    finish: dict[str, float] = {}
    for task in _rank_order(flowline, profile, net):
        unit = Ledger.CARD if task in flowline.models else Ledger.CORE
        arrivals = [(assignment[p], finish[p], finish[p] + net.transfer_time(
            profile.payload((p, task)))) for p in flowline.predecessors[task]]
        best: tuple[float, int] | None = None
        for i in ledger.fitting(unit):
            ready = 0.0
            for vm, bare, moved in arrivals:
                ready = max(ready, bare if vm == i else moved)
            eft = ready + profile.weight(task)
            if best is None or eft < best[0]:
                best = eft, i
        if best is None:
            raise SchedulingError(
                f"no VM can host task {task!r} (needs {unit[0]} GPU card(s), "
                f"{unit[1]} CPU core(s); capacities {Ledger(vms).room})")
        finish[task], assignment[task] = best
        ledger.take(best[1], unit)
    return assignment


def _place_many(flowline: Flowline, profile: TaskProfile, room: np.ndarray,
                net: NetParams) -> np.ndarray:
    """The exit finish of ``greedy_partition`` on each of many VM lists,
    equal to the ``makespan`` of its placement bit for bit, or +inf where
    the list cannot host the flowline. ``room`` is (lists, VMs, 2): each
    list's (cards, cores) per VM, as a fresh ``Ledger`` holds them, a
    shorter list padded with VMs that have no room.

    Per task, one (lists, VMs) array of finish times: each precursor's
    arrival, its finish plus its transfer time on every VM but its own,
    maxed in place, plus the weight; +inf where the VM has no room, then
    the argmin. A list keeps placing after a task found no room, and is
    masked at the end."""
    cards, cores = room[..., 0].copy(), room[..., 1].copy()
    width = cards.shape[1]
    first = np.arange(0, cards.size, width)  # each list's VM 0, flat
    hosted = np.ones(len(room), dtype=bool)
    at: dict[str, np.ndarray] = {}  # each placed task's VM, flat
    finish: dict[str, np.ndarray] = {}
    for task in _rank_order(flowline, profile, net):
        eft = np.zeros(cards.shape)
        for p in flowline.predecessors[task]:
            arrival = np.repeat((finish[p] + net.transfer_time(
                profile.payload((p, task))))[:, None], width, axis=1)
            arrival.ravel()[at[p]] = finish[p]
            np.maximum(eft, arrival, out=eft)
        eft += profile.weight(task)
        left = (cards if task in flowline.models else cores).ravel()
        eft.ravel()[left < 1] = np.inf
        at[task] = here = first + eft.argmin(axis=1)
        finish[task] = eft.ravel()[here]
        hosted &= left[here] > 0
        left[here] -= 1
    return np.where(hosted, finish[flowline.exit], np.inf)


@functools.lru_cache(maxsize=16)
def _multisets(n: int, most: int) -> np.ndarray:
    """Every multiset of 1 to ``most`` of the indices 0..n-1, read-only: a
    row of indices ascending each, padded with -1, the rows in
    lexicographic order (a multiset before those that extend it)."""
    rows = sorted(chain.from_iterable(
        combinations_with_replacement(range(n), k)
        for k in range(1, most + 1)))
    multisets = np.array([row + (-1,) * (most - len(row)) for row in rows])
    multisets.flags.writeable = False
    return multisets


@dataclass(frozen=True)
class QualificationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SchedulePlan:
    """A procurement plus a task-to-VM assignment with predicted costs.

    ``assignment`` maps task ids to 0-based indices into ``vms``.
    """

    procurement: ProcurementPlan
    assignment: Mapping[str, int]
    eta: float
    net: NetParams | None = None
    predictions: Mapping[str, float] = field(default_factory=dict)
    scheduler: str = "eft"

    @property
    def vms(self) -> tuple[VmType, ...]:
        """The procurement expanded, sorted by GPU capacity descending."""
        return self.procurement.expand()


def check_qualification(plan: SchedulePlan,
                        flowline: Flowline) -> QualificationReport:
    """Per-VM resource feasibility and full assignment coverage.

    An assigned id the flowline lacks is reported, not charged to its VM.
    """
    vms = plan.vms
    ledger = Ledger(vms)
    unknown = []
    foreign = []
    for task_id, idx in plan.assignment.items():
        if task_id not in flowline.by_id:
            foreign.append(task_id)
        elif 0 <= idx < len(vms):
            ledger.take(idx, Ledger.CARD if task_id in flowline.models
                        else Ledger.CORE)
        else:
            unknown.append(task_id)
    uncovered = [v.id for v in flowline.vertices if v.id not in plan.assignment]
    violations = [f"task {t!r} assigned to unknown VM {plan.assignment[t]}"
                  for t in sorted(unknown, key=natural_key)]
    violations += [f"task {t!r} is not in the flowline"
                   for t in sorted(foreign, key=natural_key)]
    violations += [f"uncovered task {t!r}"
                   for t in sorted(uncovered, key=natural_key)]
    for i, (vm, (cards, cores)) in enumerate(zip(vms, ledger.room)):
        if cards < 0:
            violations.append(
                f"vm {i} ({vm.name}): {vm.gpu_cards - cards} model task(s) "
                f"exceed {vm.gpu_cards} GPU card(s)")
        if cores < 0:
            violations.append(
                f"vm {i} ({vm.name}): {vm.cpu_headroom - cores} operator "
                f"task(s) exceed {vm.cpu_headroom} spare CPU core(s)")
    return QualificationReport(tuple(violations))


def require_qualified(plan: SchedulePlan, flowline: Flowline) -> None:
    """Raise SchedulingError listing the violations of a plan that fails
    ``check_qualification``."""
    report = check_qualification(plan, flowline)
    if not report.ok:
        raise SchedulingError("plan fails qualification: "
                              + "; ".join(report.violations))


def predict_costs(plan: SchedulePlan, flowline: Flowline, profile: TaskProfile,
                  corpus_size: float, slice_size: float,
                  net: NetParams) -> dict[str, float]:
    """A plan's per-slice makespan, corpus time and money."""
    delay = apply_partition(flowline, profile, plan.assignment, net)
    return _costs(plan, n_slices(corpus_size, slice_size),
                  makespan(flowline, profile, delay))


def _costs(plan: SchedulePlan, slices: int,
           makespan_s: float) -> dict[str, float]:
    cost_com = slices * makespan_s
    return {
        "makespan_s": makespan_s,
        "cost_com_s": cost_com,
        "cost_mon": plan.procurement.total_price * cost_com / 3600.0,
    }


def predict_many(plans: Sequence[SchedulePlan], flowline: Flowline,
                 profile: TaskProfile, corpus_size: float, slice_size: float,
                 net: NetParams) -> list[dict[str, float]]:
    """``predict_costs`` of each plan, equal to it bit for bit, from one
    columnar pass of ``finish_times``, column p for plan p: each task's VM
    is a row over the plans, so each edge's delay is one too, its transfer
    time where the plan cuts the edge and 0 where it does not."""
    profile.check_covers(flowline)
    slices = n_slices(corpus_size, slice_size)
    order = flowline.topological_order
    try:
        vm = {t: np.array([plan.assignment[t] for plan in plans])
              for t in order}
    except KeyError:  # the first such plan's error, as predict_costs gives
        for plan in plans:
            apply_partition(flowline, profile, plan.assignment, net)
        raise
    delay = {(a, b): np.where(vm[a] != vm[b],
                              net.transfer_time(profile.payload((a, b))), 0.0)
             for a, b in flowline.edges}
    weights = np.array([profile.weight(t) for t in order])[:, None]
    _, ft = finish_times(order, flowline.predecessors,
                         np.broadcast_to(weights, (len(order), len(plans))),
                         delay)
    per_slice = ft[order.index(flowline.exit)].tolist()
    return [_costs(plan, slices, mk) for plan, mk in zip(plans, per_slice)]


def evaluate_plan(plan: SchedulePlan, flowline: Flowline, profile: TaskProfile,
                  corpus_size: float, slice_size: float, eta: float,
                  net: NetParams | None = None) -> dict[str, float]:
    """Analytic cost of an existing plan (must pass qualification), with J
    weighting its corpus time and money by ``eta``."""
    require_qualified(plan, flowline)
    if net is None:
        net = plan.net
    if net is None:
        raise SchedulingError("no network parameters: pass net= or use a "
                              "plan that records them")
    costs = predict_costs(plan, flowline, profile, corpus_size, slice_size,
                          net)
    costs["J"] = objective(costs["cost_com_s"], costs["cost_mon"], eta)
    return costs


def synthesize_observations(flowline: Flowline, profile: TaskProfile,
                            catalog: Sequence[VmType], net: NetParams
                            ) -> list[Observation]:
    """Warm-up-style (price, per-slice makespan) table.

    Enumerates procurement multisets of up to max(3, min(models, 4)) + 1
    instances, places the flowline on each by ``greedy_partition``'s
    earliest-finish-time rule, and records the analytic per-slice makespan;
    combinations that cannot host the flowline become infeasible
    observations (they cap the fitted curve's pole).

    One ``_place_many`` pass places every multiset, a row of its VMs in
    expand order each, and its exit finishes are the makespans. A
    multiset's price adds its unit prices left to right in name order, one
    column of all multisets at a time, as ``costmodel._fold`` does on any
    Python version. The multisets go in lexicographic order of their type
    indices in name order, and each (price, makespan) key keeps the
    observation of the first multiset that reaches it, the only one built.
    """
    max_instances = max(3, min(len(flowline.models), 4)) + 1
    types = catalog_types(catalog)
    multisets = _multisets(len(types), max_instances)
    unit_prices = np.array([vm.unit_price for vm in types] + [0.0])
    prices = np.zeros(len(multisets))
    for column in multisets.T:
        prices += unit_prices[column]
    expand = ProcurementPlan.of(types).expand()
    rank = np.array([expand.index(vm) for vm in types] + [len(types)])
    room = np.array(Ledger(expand).room + [(0, 0)])[
        np.sort(rank[multisets], axis=1)]
    observations: dict[tuple[float, float | None], Observation] = {}
    for price, mk in zip(prices.tolist(),
                         _place_many(flowline, profile, room, net).tolist()):
        if mk == np.inf:  # the multiset does not host the flowline
            mk = None
        key = (round(price, 9), None if mk is None else round(mk, 12))
        if key not in observations:
            observations[key] = Observation(price, mk)
    return [observations[k] for k in sorted(observations,
                                            key=lambda k: (k[0], k[1] is None,
                                                           k[1] or 0.0))]


def schedule(flowline: Flowline, profile: TaskProfile,
             catalog: Sequence[VmType], eta: float, net: NetParams, *,
             fit: MakespanPriceFit | None = None,
             observations: Sequence[Observation] | None = None
             ) -> SchedulePlan:
    """Full scheduling pipeline; returns a qualified plan with predictions.

    The price-to-makespan curve comes from, in order of preference: an
    explicit ``fit``, explicit warm-up ``observations``, or observations
    synthesized from the profile by enumerating candidate procurements.
    The predictions are costed on ``schedule_many``'s default corpus.
    ``schedule_many`` schedules at several etas, sharing the work that does
    not depend on eta.
    """
    return schedule_many(flowline, profile, catalog, (eta,), net, fit=fit,
                         observations=observations)[0]


def schedule_many(flowline: Flowline, profile: TaskProfile,
                  catalog: Sequence[VmType], etas: Sequence[float],
                  net: NetParams, *, fit: MakespanPriceFit | None = None,
                  observations: Sequence[Observation] | None = None,
                  corpus_size: float = 8000, slice_size: float = 200,
                  table: PlanTable | None = None) -> list[SchedulePlan]:
    """``schedule`` at each of ``etas``, equal to it plan by plan, with the
    work that does not depend on eta done once. Every eta is checked
    first. Then the curve is fitted once, here and nowhere else, from
    ``fit``, ``observations`` or a synthesized warm-up as ``schedule``
    says. Each eta's procurement is read from ``table`` when one is given
    for the catalog and the flowline's demand, and each distinct
    procurement is placed, qualified and costed once, by the first eta
    that buys it. Every eta that buys it shares its assignment, makespan,
    corpus time and money, none of which depends on eta, and weighs its
    own J from them. An error is raised where ``schedule`` would raise it,
    at the first eta it would; empty ``etas`` ask for no plan, so they
    give ``[]`` at once, with nothing fitted."""
    if not etas:
        return []
    for eta in etas:
        Preference(eta)
    profile.check_covers(flowline)
    types = catalog_types(catalog)
    demand = need(flowline)
    if not demand.gpus:
        # CPU-only: one VM with a headroom core per task hosts them all.
        adequate = [vm for vm in types if vm.cpu_headroom >= demand.cpus]
        if not adequate:
            raise SchedulingError(
                f"no catalog VM has {demand.cpus} spare CPU cores for a "
                "CPU-only flowline")
        chosen = min(adequate, key=lambda v: (v.unit_price, v.name))
        bought = ProcurementPlan(((chosen, 1),))
    elif fit is None:
        fit = fit_price_makespan(
            list(observations) if observations is not None
            else synthesize_observations(flowline, profile, types, net))
    plans: list[SchedulePlan] = []
    # Per distinct procurement, its assignment and costs; each eta weighs
    # its own J from the eta-free ones.
    placed: dict[ProcurementPlan, tuple[dict[str, int], dict[str, float]]] = {}
    for eta in etas:
        if demand.gpus:
            x0 = optimal_unit_price(fit, Preference(eta))
            bought = procure(types, x0, demand, table=table)
        if bought not in placed:
            assignment = greedy_partition(flowline, profile, bought.expand(),
                                          net)
            placed[bought] = assignment, evaluate_plan(
                SchedulePlan(bought, assignment, eta, net), flowline, profile,
                corpus_size, slice_size, eta, net)
        assignment, costs = placed[bought]
        J = objective(costs["cost_com_s"], costs["cost_mon"], eta)
        plans.append(SchedulePlan(bought, assignment, eta, net,
                                  predictions={**costs, "J": J}))
    return plans


# --- plan JSON ------------------------------------------------------------------

def plan_to_dict(plan: SchedulePlan) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "scheduler": plan.scheduler,
        "eta": plan.eta,
        "procurement": [{"type": vm.name, "count": n}
                        for vm, n in plan.procurement.items],
        "vms": [{"name": vm.name, "cpu_cores": vm.cpu_cores,
                 "gpu_cards": vm.gpu_cards, "unit_price": vm.unit_price,
                 "currency": vm.currency} for vm in plan.vms],
        "assignment": {task: idx for task, idx in sorted(plan.assignment.items())},
        "predictions": dict(plan.predictions),
    }
    if plan.net is not None:
        doc["net"] = {"latency_s": plan.net.latency_s,
                      "bandwidth_Bps": plan.net.bandwidth_Bps}
    return doc


def plan_from_dict(doc: Mapping[str, Any]) -> SchedulePlan:
    """Inverse of ``plan_to_dict``. A field that is missing, of the wrong
    type or not a whole number where one is due, a bad eta, net, VM row or
    procurement (a count below 1, a type listed twice), or ``vms`` other
    than the expanded procurement raise SchedulingError naming the field."""
    try:
        vms = tuple(vm_type_from_dict(row)
                    for row in _field(doc, "vms", "plan", list))
    except CostModelError as exc:
        raise SchedulingError(f"bad plan vms: {exc}") from None
    by_name = {vm.name: vm for vm in vms}
    items = []
    for row in _field(doc, "procurement", "plan", list):
        name = _field(row, "type", "plan procurement row", str)
        if name not in by_name:
            raise SchedulingError(f"procurement type {name!r} "
                                  "is not among the plan's vms")
        items.append((by_name[name],
                      _field(row, "count", "plan procurement row", int)))
    try:
        procurement = ProcurementPlan(tuple(items))
    except CostModelError as exc:
        raise SchedulingError(f"bad plan procurement: {exc}") from None
    assigned = _field(doc, "assignment", "plan", Mapping)
    assignment = {task: _field(assigned, task, "plan assignment", int)
                  for task in assigned}
    net = _field(doc, "net", "plan", Mapping, None)
    eta = _field(doc, "eta", "plan", float, 0.5)
    predictions = _field(doc, "predictions", "plan", Mapping, {})
    try:
        Preference(eta)
        net = None if net is None else NetParams(
            *(_field(net, k, "plan net", float)
              for k in ("latency_s", "bandwidth_Bps")))
    except CostModelError as exc:
        raise SchedulingError(f"bad plan eta: {exc}") from None
    except FlowlineError as exc:
        raise SchedulingError(f"bad plan net: {exc}") from None
    if procurement.expand() != vms:
        raise SchedulingError(
            f"plan vms {[vm.name for vm in vms]} are not the procurement "
            f"{procurement.describe()!r} expanded")
    return SchedulePlan(
        procurement, assignment, eta, net,
        {k: _field(predictions, k, "plan predictions", float)
         for k in predictions},
        _field(doc, "scheduler", "plan", str, "eft"))


def plan_to_json(plan: SchedulePlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"

