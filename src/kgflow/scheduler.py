"""Cost-aware flowline scheduling: compound, procure, partition, predict.

The pipeline:

1. *Compounding*: each GPU-intensive task anchors a compound that greedily
   absorbs downstream CPU-only tasks whose precursors all lie inside the
   compound. Cutting an edge inside a compound could only add communication
   cost, so compounds are never split. Tasks captured by no compound
   (aggregators fed by several models, and anything downstream of them) are
   orphans.
2. *Procurement*: fit (or accept) the price-to-makespan curve, derive the
   optimal unit price x0 for the preference eta, and buy the instance
   multiset closest to x0 that covers |V^m| GPUs and |V^o| CPU cores.
3. *Greedy partition*: place compounds first, then orphans, each onto the
   VM (GPU capacity descending) with the largest neighbor overlap that still
   has capacity: GPU cards for models, CPU headroom (cores minus one per
   GPU card) for operators. Overlap is counted once per unit from the
   neighbours already placed; the placement rule is unchanged.

CPU-only flowlines skip all of this and buy one VM with adequate cores.

Everything is deterministic: identical inputs produce byte-identical plan
JSON.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Mapping, Sequence

from .costmodel import (
    CostModelError,
    MakespanPriceFit,
    Observation,
    Preference,
    ProcurementPlan,
    ResourceDemand,
    VmType,
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
    makespan,
    n_slices,
)


class SchedulingError(ValueError):
    """Infeasible placement or a plan that violates its own constraints."""


@dataclass(frozen=True)
class Compound:
    """An unsplittable unit: one GPU anchor plus its captive operators."""

    members: tuple[str, ...]
    anchor: str | None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members,
                                                         key=_natural_key)))


@dataclass(frozen=True)
class CompoundingResult:
    compounds: tuple[Compound, ...]
    orphans: tuple[str, ...]


@functools.lru_cache(maxsize=4096)
def _natural_key(text: str):
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", text))


def compound(flowline: Flowline) -> CompoundingResult:
    """GPU-task-guided compounding (fixpoint of the capture rule)."""
    compounds: list[Compound] = []
    captured: set[str] = set()
    for anchor in sorted(flowline.model_ids(), key=_natural_key):
        members = {anchor}
        changed = True
        while changed:
            changed = False
            frontier = sorted({s for m in members
                               for s in flowline.successors[m]
                               if s not in members}, key=_natural_key)
            for succ in frontier:
                node = flowline.node(succ)
                if node.is_model:
                    continue
                if set(flowline.predecessors[succ]) <= members:
                    members.add(succ)
                    changed = True
        compounds.append(Compound(tuple(members), anchor))
        captured |= members
    orphans = tuple(sorted((v.id for v in flowline.vertices
                            if v.id not in captured), key=_natural_key))
    return CompoundingResult(tuple(compounds), orphans)


def _unit_neighbors(flowline: Flowline, members: Sequence[str]) -> set[str]:
    sets = flowline._neighbor_sets
    out: set[str] = set()
    for m in members:
        out |= sets[m]
    return out.difference(members)


def need(flowline: Flowline, tasks: Collection[str]) -> tuple[int, int]:
    """(GPU cards, headroom cores) that ``tasks`` take on a VM: a model task
    takes one GPU card, an operator one core of CPU headroom."""
    models = flowline._model_set
    cards = 0
    for task in tasks:
        if task in models:
            cards += 1
        elif task not in flowline.by_id:
            raise FlowlineError(f"no such task: {task!r}")
    return cards, len(tasks) - cards


class Ledger:
    """GPU cards and headroom cores left on each VM of ``vms``; ``room``
    goes negative on a VM that was given more than it has."""

    def __init__(self, vms: Sequence[VmType]):
        self.room = [(vm.gpu_cards, vm.cpu_headroom) for vm in vms]

    def fits(self, i: int, demand: tuple[int, int]) -> bool:
        return demand[0] <= self.room[i][0] and demand[1] <= self.room[i][1]

    def take(self, i: int, demand: tuple[int, int]) -> None:
        cards, cores = self.room[i]
        self.room[i] = (cards - demand[0], cores - demand[1])


def greedy_partition(flowline: Flowline, compounding: CompoundingResult,
                     vms: Sequence[VmType]) -> dict[str, int]:
    """Assign every task to a VM index, maximizing neighbor overlap.

    ``vms`` must be sorted by GPU capacity descending (``ProcurementPlan.
    expand()`` does this). Placement order: compounds by anchor, then orphans
    by id; candidate VMs by descending overlap with lowest index breaking
    ties. Raises SchedulingError naming the unit when capacity runs out.
    """
    ledger = Ledger(vms)
    assignment: dict[str, int] = {}

    def place(members: Sequence[str]) -> bool:
        unit = need(flowline, members)
        overlap = [0] * len(vms)
        for task in _unit_neighbors(flowline, members):
            i = assignment.get(task)
            if i is not None:
                overlap[i] += 1
        best = -1
        for i in range(len(vms)):
            if ledger.fits(i, unit) and (best < 0 or overlap[i] > overlap[best]):
                best = i
        if best < 0:
            return False
        ledger.take(best, unit)
        for m in members:
            assignment[m] = best
        return True

    def no_room(members: Sequence[str], unit_name: str) -> SchedulingError:
        unit = need(flowline, members)
        return SchedulingError(
            f"no VM can host {unit_name} (needs {unit[0]} GPU card(s), "
            f"{unit[1]} CPU core(s); capacities "
            f"{[(vm.gpu_cards, vm.cpu_headroom) for vm in vms]})")

    for comp in compounding.compounds:
        if not place(comp.members):
            raise no_room(comp.members, f"compound[{comp.anchor}]")
    for orphan in compounding.orphans:
        if not place((orphan,)):
            raise no_room((orphan,), f"task {orphan!r}")
    return assignment


@dataclass(frozen=True)
class QualificationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SchedulePlan:
    """A procurement plus a task-to-VM assignment with predicted costs.

    ``vms`` is the expanded instance list sorted by GPU capacity descending;
    ``assignment`` maps task ids to 0-based indices into it.
    """

    procurement: ProcurementPlan
    vms: tuple[VmType, ...]
    assignment: Mapping[str, int]
    eta: float
    net: NetParams | None = None
    predictions: Mapping[str, float] = field(default_factory=dict)
    scheduler: str = "compound-greedy"

    @property
    def total_unit_price(self) -> float:
        return sum(vm.unit_price for vm in self.vms)


def check_qualification(plan: SchedulePlan,
                        flowline: Flowline) -> QualificationReport:
    """Per-VM resource feasibility and full assignment coverage.

    An assigned id the flowline lacks is reported, not charged to its VM.
    """
    ledger = Ledger(plan.vms)
    unknown = []
    foreign = []
    for task_id, idx in plan.assignment.items():
        if task_id not in flowline.by_id:
            foreign.append(task_id)
        elif 0 <= idx < len(plan.vms):
            ledger.take(idx, need(flowline, (task_id,)))
        else:
            unknown.append(task_id)
    uncovered = [v.id for v in flowline.vertices if v.id not in plan.assignment]
    violations = [f"task {t!r} assigned to unknown VM {plan.assignment[t]}"
                  for t in sorted(unknown, key=_natural_key)]
    violations += [f"task {t!r} is not in the flowline"
                   for t in sorted(foreign, key=_natural_key)]
    violations += [f"uncovered task {t!r}"
                   for t in sorted(uncovered, key=_natural_key)]
    for i, (vm, (cards, cores)) in enumerate(zip(plan.vms, ledger.room)):
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
                  corpus_size: float, slice_size: float, eta: float,
                  net: NetParams) -> dict[str, float]:
    delay = apply_partition(flowline, profile, plan.assignment, net)
    per_slice = makespan(flowline, profile, delay)
    cost_com = n_slices(corpus_size, slice_size) * per_slice
    cost_mon = plan.total_unit_price * cost_com / 3600.0
    return {
        "makespan_s": per_slice,
        "cost_com_s": cost_com,
        "cost_mon": cost_mon,
        "J": objective(cost_com, cost_mon, eta),
    }


def evaluate_plan(plan: SchedulePlan, flowline: Flowline, profile: TaskProfile,
                  corpus_size: float, slice_size: float, eta: float,
                  net: NetParams | None = None) -> dict[str, float]:
    """Analytic cost of an existing plan (must pass qualification)."""
    require_qualified(plan, flowline)
    if net is None:
        net = plan.net
    if net is None:
        raise SchedulingError("no network parameters: pass net= or use a "
                              "plan that records them")
    return predict_costs(plan, flowline, profile, corpus_size, slice_size,
                         eta, net)


def synthesize_observations(flowline: Flowline, profile: TaskProfile,
                            catalog: Sequence[VmType], net: NetParams
                            ) -> list[Observation]:
    """Warm-up-style (price, per-slice makespan) table.

    Enumerates procurement multisets of up to max(3, min(models, 4)) + 1
    instances, partitions the flowline onto each, and records the analytic
    per-slice makespan; combinations that cannot host the flowline become
    infeasible observations (they cap the fitted curve's pole).
    """
    max_instances = max(3, min(len(flowline.model_ids()), 4)) + 1
    types = sorted(catalog, key=lambda v: v.name)
    compounding = compound(flowline)
    observations: dict[tuple[float, float | None], Observation] = {}
    # The makespan depends only on the edges an assignment cuts, and the
    # enumerated procurements collapse onto a few distinct assignments.
    makespans: dict[tuple[tuple[str, int], ...], float] = {}

    def visit(combo: list[VmType]) -> None:
        if not combo:
            return
        price = sum(vm.unit_price for vm in combo)
        plan = _plan_from_instances(combo)
        vms = plan.expand()
        try:
            assignment = greedy_partition(flowline, compounding, vms)
        except SchedulingError:
            key = (round(price, 9), None)
            observations.setdefault(key, Observation(price, None))
            return
        placement = tuple(assignment.items())
        mk = makespans.get(placement)
        if mk is None:
            mk = makespans[placement] = makespan(
                flowline, profile,
                apply_partition(flowline, profile, assignment, net))
        key = (round(price, 9), round(mk, 12))
        observations.setdefault(key, Observation(price, mk))

    def walk(idx: int, chosen: list[VmType]) -> None:
        visit(list(chosen))
        if idx == len(types) or len(chosen) >= max_instances:
            return
        for j in range(idx, len(types)):
            chosen.append(types[j])
            walk(j, chosen)
            chosen.pop()

    walk(0, [])
    return [observations[k] for k in sorted(observations,
                                            key=lambda k: (k[0], k[1] is None,
                                                           k[1] or 0.0))]


def _plan_from_instances(instances: Iterable[VmType]) -> ProcurementPlan:
    counts: dict[str, int] = {}
    by_name: dict[str, VmType] = {}
    for vm in instances:
        counts[vm.name] = counts.get(vm.name, 0) + 1
        by_name[vm.name] = vm
    return ProcurementPlan(tuple((by_name[name], counts[name])
                                 for name in sorted(counts)))


def synthesized_fit(flowline: Flowline, profile: TaskProfile,
                    catalog: Sequence[VmType], net: NetParams
                    ) -> MakespanPriceFit | None:
    """The price-to-makespan curve ``schedule`` fits when given neither a
    fit nor observations; None for a CPU-only flowline, which needs none."""
    if not flowline.model_ids():
        return None
    return fit_price_makespan(synthesize_observations(flowline, profile,
                                                      catalog, net))


def schedule(flowline: Flowline, profile: TaskProfile,
             catalog: Sequence[VmType], eta: float, net: NetParams, *,
             fit: MakespanPriceFit | None = None,
             observations: Sequence[Observation] | None = None,
             corpus_size: float = 8000, slice_size: float = 200
             ) -> SchedulePlan:
    """Full scheduling pipeline; returns a qualified plan with predictions.

    The price-to-makespan curve comes from, in order of preference: an
    explicit ``fit``, explicit warm-up ``observations``, or observations
    synthesized from the profile by enumerating candidate procurements.
    """
    Preference(eta)
    profile.check_covers(flowline)
    cards, cores = need(flowline, flowline.by_id)

    if not cards:
        # CPU-only corner case: keep the flowline whole on one adequate VM.
        adequate = [vm for vm in catalog if vm.cpu_headroom >= cores]
        if not adequate:
            raise SchedulingError(
                f"no catalog VM has {cores} spare CPU cores for a CPU-only "
                "flowline")
        chosen = min(adequate, key=lambda v: (v.unit_price, v.name))
        procurement = ProcurementPlan(((chosen, 1),))
        assignment = {v.id: 0 for v in flowline.vertices}
        plan = SchedulePlan(procurement, procurement.expand(), assignment,
                            eta, net)
    else:
        if fit is None:
            fit = (fit_price_makespan(list(observations))
                   if observations is not None
                   else synthesized_fit(flowline, profile, catalog, net))
        x0 = optimal_unit_price(fit, Preference(eta))
        procurement = procure(catalog, x0, ResourceDemand(cards, cores))
        vms = procurement.expand()
        compounding = compound(flowline)
        assignment = greedy_partition(flowline, compounding, vms)
        plan = SchedulePlan(procurement, vms, assignment, eta, net)

    predictions = predict_costs(plan, flowline, profile, corpus_size,
                                slice_size, eta, net)
    plan = SchedulePlan(plan.procurement, plan.vms, plan.assignment, eta, net,
                        predictions, plan.scheduler)
    report = check_qualification(plan, flowline)
    if not report.ok:
        raise SchedulingError("scheduler produced an unqualified plan: "
                              + "; ".join(report.violations))
    return plan


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
    """Inverse of ``plan_to_dict``. A missing or non-numeric field, a count
    below 1, a type listed twice, a bad eta or VM row, or ``vms`` other than
    the expanded procurement raise SchedulingError naming the field."""
    try:
        vms = tuple(vm_type_from_dict(row) for row in doc["vms"])
        by_name = {vm.name: vm for vm in vms}
        items = {}
        for row in doc["procurement"]:
            name = row["type"]
            if name not in by_name:
                raise SchedulingError(f"procurement type {name!r} "
                                      "is not among the plan's vms")
            if name in items:
                raise SchedulingError(f"plan procurement lists {name!r} twice")
            count = _plan_number(row["count"], "procurement count")
            if count < 1:
                raise SchedulingError(f"plan procurement count of {name!r} "
                                      f"is below 1: {count}")
            items[name] = (by_name[name], count)
        net = None if "net" not in doc else NetParams(*(
            _plan_number(doc["net"][k], "net " + k, float)
            for k in ("latency_s", "bandwidth_Bps")))
        assignment = {task: _plan_number(idx, f"assignment of {task!r}")
                      for task, idx in doc["assignment"].items()}
    except KeyError as exc:
        raise SchedulingError(f"plan has no field {exc.args[0]!r}") from None
    except CostModelError as exc:
        raise SchedulingError(f"bad plan vms: {exc}") from None
    eta = _plan_number(doc.get("eta", 0.5), "eta", float)
    try:
        Preference(eta)
    except CostModelError as exc:
        raise SchedulingError(f"bad plan eta: {exc}") from None
    procurement = ProcurementPlan(tuple(items.values()))
    if procurement.expand() != vms:
        raise SchedulingError(
            f"plan vms {[vm.name for vm in vms]} are not the procurement "
            f"{procurement.describe()!r} expanded")
    return SchedulePlan(
        procurement, vms, assignment, eta, net,
        dict(doc.get("predictions", {})),
        doc.get("scheduler", "compound-greedy"))


def _plan_number(value: Any, what: str, kind: type = int):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise SchedulingError(f"plan {what} is not {noun}: {value!r}") from None


def plan_to_json(plan: SchedulePlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"

