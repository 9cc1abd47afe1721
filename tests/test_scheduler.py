"""Scheduler tests: compounding, earliest-finish-time placement,
qualification, pipeline.

The nine-task fixture mirrors the running two-branch NER/RE pipeline with
numeric ids (models: 1, 6, 7):

    1 -> {2, 3}; 2 -> 4 -> 6; 3 -> 5 -> 7; {6, 7} -> 8 -> 9
"""

import collections.abc
import copy
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import operator
import pkgutil
import re
import types
import typing
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import kgflow
from kgflow.costmodel import (
    CostModelError,
    MakespanPriceFit,
    Observation,
    ProcurementPlan,
    ResourceDemand,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    catalog_from_dict,
    fit_price_makespan,
    objective,
    observations_from_dict,
)
from kgflow.flowline import (
    Flowline,
    FlowlineError,
    NetParams,
    TaskNode,
    TaskProfile,
    apply_partition,
    makespan,
    natural_key,
)
from kgflow.scheduler import (
    Compound,
    Ledger,
    SchedulePlan,
    SchedulingError,
    check_qualification,
    compound,
    evaluate_plan,
    greedy_partition,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    predict_costs,
    predict_many,
    schedule,
    schedule_many,
    synthesize_observations,
)
from kgflow.sim import (
    baseline_list,
    baseline_random,
    baseline_random_many,
)
from kgflow.synth import EXPERIMENT_SHAPES, synthetic_flowline

PAPER_CURVE = MakespanPriceFit(4.17, 5.15, 23.96)
NET = NetParams(latency_s=0.05, bandwidth_Bps=1.0e7)


def op(tid, function="integrate"):
    return TaskNode(id=tid, kind="operator", config={"function": function})


def model(tid, function="BertNER", kind="model-CE"):
    return TaskNode(id=tid, kind=kind, config={"function": function})


def nine_task_flowline() -> Flowline:
    vertices = [
        model("1", "BertNER"),
        op("2", "filter"), op("3", "filter"),
        op("4", "permutate"), op("5", "permutate"),
        model("6", "BERTRE", kind="model-CC"),
        model("7", "LSTMRE", kind="model-CC"),
        op("8", "merge"), op("9", "triple"),
    ]
    edges = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "5"),
             ("4", "6"), ("5", "7"), ("6", "8"), ("7", "8"), ("8", "9")]
    return Flowline.build(vertices, edges)


def nine_task_profile() -> TaskProfile:
    weights = {"1": 1.0, "2": 0.05, "3": 0.05, "4": 0.05, "5": 0.05,
               "6": 0.8, "7": 0.9, "8": 0.05, "9": 0.05}
    fl = nine_task_flowline()
    payloads = {e: 5.0e5 for e in fl.edges}
    return TaskProfile(weights, payloads)


def qcloud_vms(*names):
    catalog = {vm.name: vm for vm in bundled_qcloud_catalog()}
    return [catalog[n] for n in names]


def reference_compound(flowline):
    """The per-anchor formulation ``compound`` replaced: one pass over the
    topological order for each model, taking an operator when it has
    precursors and all of them are members."""
    units, captured = [], set()
    for anchor in sorted(sorted(flowline.models), key=natural_key):
        members = {anchor}
        for task in flowline.topological_order:
            preds = flowline.predecessors[task]
            if (preds and task not in flowline.models
                    and all(p in members for p in preds)):
                members.add(task)
        units.append(Compound(tuple(members), anchor))
        captured |= members
    units += (Compound((task,), None)
              for task in sorted((v.id for v in flowline.vertices
                                  if v.id not in captured), key=natural_key))
    return tuple(units)


@st.composite
def unit_dags(draw):
    """A random DAG (edges from lower to higher index), then an operator
    merging 2-3 of its tasks and a chain of up to 3 operators after the
    merge: when two models feed it, the merge and its chain are orphans."""
    n = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(["model-CE", "model-CC",
                                           "operator"]),
                          min_size=n, max_size=n))
    edges = {(a, b)
             for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.integers(0, n - 1)),
                                       max_size=3 * n))
             if a < b}
    edges |= {(a, n) for a in draw(st.sets(st.integers(0, n - 1),
                                           min_size=2, max_size=3))}
    chain = draw(st.integers(0, 3))
    edges |= {(k, k + 1) for k in range(n, n + chain)}
    kinds += ["operator"] * (1 + chain)
    ids = [f"t{i}" for i in range(len(kinds))]
    return Flowline(tuple(TaskNode(id=t, kind=k) for t, k in zip(ids, kinds)),
                    tuple(sorted((ids[a], ids[b]) for a, b in edges)),
                    ids[0], ids[-1])


@st.composite
def fuzz_catalogs(draw, max_types=7):
    """1 to ``max_types`` VM types drawn as in ROADMAP item 18's fuzz: 0, 1,
    2, 4 or 8 GPU cards, 1-32 cores more than cards, and a price from
    U(0.1, 5) on a 1e-3 grid."""
    n = draw(st.integers(1, max_types))
    catalog = []
    for i in range(n):
        cards = draw(st.sampled_from([0, 1, 2, 4, 8]))
        catalog.append(VmType(f"t{i}", cards + draw(st.integers(1, 32)),
                              cards, draw(st.integers(100, 5000)) / 1000))
    return catalog


def assert_units_partition(fl):
    """The units are disjoint and cover the flowline; an orphan is one
    operator, and a compound holds its anchor, no other model, and only
    tasks it reaches through members."""
    seen: set[str] = set()
    for unit in compound(fl):
        members = set(unit.members)
        assert not members & seen, "units must be pairwise disjoint"
        seen |= members
        models = [m for m in members if fl.node(m).is_model]
        if unit.anchor is None:  # an orphan
            assert len(members) == 1 and not models
            continue
        assert models == [unit.anchor]
        # Every member reachable from the anchor through members only.
        frontier = {unit.anchor}
        reached = {unit.anchor}
        while frontier:
            nxt = {s for m in frontier for s in fl.successors[m]
                   if s in members and s not in reached}
            reached |= nxt
            frontier = nxt
        assert reached == members
    assert seen == {v.id for v in fl.vertices}


class TestCompound:
    def test_nine_task_fixture(self):
        units = compound(nine_task_flowline())
        groups = [set(u.members) for u in units]
        assert groups == [{"1", "2", "3", "4", "5"}, {"6"}, {"7"}, {"8"},
                          {"9"}]
        assert [u.anchor for u in units] == ["1", "6", "7", None, None]

    def test_single_model_no_operators(self):
        fl = Flowline.build([model("m")], [])
        assert compound(fl) == (Compound(("m",), "m"),)

    def test_linear_chain_fixpoint(self):
        fl = Flowline.build([model("m"), op("o1"), op("o2")],
                            [("m", "o1"), ("o1", "o2")])
        (unit,) = compound(fl)
        assert set(unit.members) == {"m", "o1", "o2"}

    def test_partition_property(self):
        assert_units_partition(nine_task_flowline())

    @settings(max_examples=300, deadline=None)
    @given(unit_dags())
    def test_partition_property_on_random_dags(self, fl):
        assert_units_partition(fl)

    @settings(max_examples=300, deadline=None)
    @given(unit_dags())
    def test_matches_the_per_anchor_reference(self, fl):
        assert compound(fl) == reference_compound(fl)

    def test_merge_of_two_models_heads_an_orphan_chain(self):
        # s has no precursor; m feeds a and j, n feeds j; j -> k -> z and
        # a -> z.
        fl = Flowline.build(
            [op("s", "data"), model("m"), model("n"), op("a"), op("j"),
             op("k"), op("z")],
            [("s", "m"), ("s", "n"), ("m", "a"), ("m", "j"), ("n", "j"),
             ("j", "k"), ("k", "z"), ("a", "z")])
        units = compound(fl)
        assert units == reference_compound(fl)
        assert [(u.members, u.anchor) for u in units] == [
            (("a", "m"), "m"), (("n",), "n"), (("j",), None),
            (("k",), None), (("s",), None), (("z",), None)]


class TestGreedyPartition:
    def test_nine_task_trace_on_5x_plus_2x(self):
        # Ranks put 7 before 6, and a cut edge costs 0.1 s. 7 takes VM 0's
        # second card (finish 2.0, against 2.1 on VM 1), so 6 goes to VM 1;
        # 8 finishes at 2.15 on either VM and takes the lower index.
        fl, profile = nine_task_flowline(), nine_task_profile()
        vms = qcloud_vms("5XLARGE80", "2XLARGE40")
        assignment = greedy_partition(fl, profile, vms, NET)
        vm0 = {t for t, i in assignment.items() if i == 0}
        vm1 = {t for t, i in assignment.items() if i == 1}
        assert vm0 == {"1", "2", "3", "4", "5", "7", "8", "9"}
        assert vm1 == {"6"}
        delay = apply_partition(fl, profile, assignment, NET)
        assert makespan(fl, profile, delay) == pytest.approx(2.2)

    def test_single_big_vm_colocates_everything(self):
        fl = nine_task_flowline()
        vms = qcloud_vms("10XLARGE160")
        assignment = greedy_partition(fl, nine_task_profile(), vms, NET)
        assert set(assignment.values()) == {0}

    def test_models_forced_apart_by_cards(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t", "integrate")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        profile = TaskProfile({"s": 0.0, "a": 1.0, "b": 1.0, "t": 0.1})
        vms = qcloud_vms("2XLARGE40", "2XLARGE40")
        assignment = greedy_partition(fl, profile, vms, NET)
        assert assignment["a"] != assignment["b"]

    def test_capacity_exhaustion_names_the_task(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t", "integrate")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        profile = TaskProfile({"s": 0.0, "a": 1.0, "b": 1.0, "t": 0.1})
        vms = qcloud_vms("2XLARGE40")
        with pytest.raises(SchedulingError) as err:
            greedy_partition(fl, profile, vms, NET)
        assert str(err.value) == ("no VM can host task 'b' (needs 1 GPU "
                                  "card(s), 0 CPU core(s); capacities "
                                  "[(1, 9)])")

    def test_output_always_qualifies(self):
        fl = nine_task_flowline()
        for names in [("5XLARGE80", "2XLARGE40"),
                      ("10XLARGE160",),
                      ("2XLARGE40", "2XLARGE40", "2XLARGE40")]:
            vms = qcloud_vms(*names)
            assignment = greedy_partition(fl, nine_task_profile(), vms, NET)
            plan = SchedulePlan(procurement=ProcurementPlan.of(vms),
                                assignment=assignment, eta=0.5)
            assert check_qualification(plan, fl).ok


class TestLedger:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                    min_size=1, max_size=6), st.data())
    def test_fitting_matches_a_scan_after_any_takes(self, shapes, data):
        # Takes may overdraw a VM, as check_qualification's do; a demand
        # first asked for after some takes must see them too.
        vms = [VmType(f"v{i}", max(cards + spare, 1), cards, 1.0)
               for i, (cards, spare) in enumerate(shapes)]
        ledger = Ledger(vms)
        room = [[vm.gpu_cards, vm.cpu_headroom] for vm in vms]
        demands = st.tuples(st.integers(0, 3), st.integers(0, 4))
        asked = set()
        for _ in range(data.draw(st.integers(0, 16))):
            if data.draw(st.booleans()):
                asked.add(data.draw(demands))
            else:
                i, (cards, cores) = (data.draw(st.integers(0, len(vms) - 1)),
                                     data.draw(demands))
                ledger.take(i, (cards, cores))
                room[i][0] -= cards
                room[i][1] -= cores
            assert ledger.room == [tuple(r) for r in room]
            for cards, cores in asked:
                assert ledger.fitting((cards, cores)) == [
                    i for i, (c, o) in enumerate(room)
                    if cards <= c and cores <= o]


class TestCheckQualification:
    def test_gpu_overflow(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms),
                            {"s": 0, "a": 0, "b": 0, "t": 0}, eta=0.5)
        report = check_qualification(plan, fl)
        assert any("GPU" in v for v in report.violations)

    def test_uncovered_task(self):
        fl = Flowline.build([model("a"), op("t")], [("a", "t")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms), {"a": 0}, eta=0.5)
        report = check_qualification(plan, fl)
        assert any("uncovered" in v for v in report.violations)

    def test_violations_in_natural_key_order(self):
        fl = Flowline.build(
            [model("m1"), model("m2"), op("o2"), op("o10"), op("o11")],
            [("m1", "m2"), ("m2", "o2"), ("o2", "o10"), ("o10", "o11")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms),
                            {"o11": -1, "o10": 3, "o2": 7, "m1": 0, "m2": 0},
                            eta=0.5)
        assert check_qualification(plan, fl).violations == (
            "task 'o2' assigned to unknown VM 7",
            "task 'o10' assigned to unknown VM 3",
            "task 'o11' assigned to unknown VM -1",
            "vm 0 (2XLARGE40): 2 model task(s) exceed 1 GPU card(s)",
        )
        vms = (VmType(name="tiny", cpu_cores=2, gpu_cards=1, unit_price=1.0),)
        plan = SchedulePlan(ProcurementPlan.of(vms),
                            {"o10": 0, "o2": 0, "m1": 0, "m2": 5}, eta=0.5)
        assert check_qualification(plan, fl).violations == (
            "task 'm2' assigned to unknown VM 5",
            "uncovered task 'o11'",
            "vm 0 (tiny): 2 operator task(s) exceed 1 spare CPU core(s)",
        )

    def test_tasks_missing_from_flowline_reported(self):
        fl = Flowline.build([model("a"), op("t")], [("a", "t")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms),
                            {"ghost10": 0, "t": 3, "ghost2": 0, "x": 9,
                             "a": 0}, eta=0.5)
        assert check_qualification(plan, fl).violations == (
            "task 't' assigned to unknown VM 3",
            "task 'ghost2' is not in the flowline",
            "task 'ghost10' is not in the flowline",
            "task 'x' is not in the flowline",
        )

    def test_tasks_missing_from_flowline_fail_evaluation(self):
        from kgflow.sim import SimConfig, simulate
        from kgflow.synth import synthetic_flowline
        fl, profile = synthetic_flowline(3, 11)
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        ghost = SchedulePlan(plan.procurement,
                             {**plan.assignment, "ghost": 0}, eta=0.5,
                             net=NET)
        message = ("plan fails qualification: "
                   "task 'ghost' is not in the flowline")
        with pytest.raises(SchedulingError, match=message):
            evaluate_plan(ghost, fl, profile, 8000, 200, 0.5)
        with pytest.raises(SchedulingError, match=message):
            simulate(ghost, fl, profile, SimConfig())

    def test_valid_plan_ok(self):
        fl = Flowline.build([model("a"), op("t")], [("a", "t")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms), {"a": 0, "t": 0},
                            eta=0.5)
        assert check_qualification(plan, fl).ok


def cpu_only_flowline():
    ops = [op(f"o{i}") for i in range(5)]
    edges = [(f"o{i}", f"o{i+1}") for i in range(4)]
    fl = Flowline.build(ops, edges)
    return fl, TaskProfile({v.id: 0.1 for v in fl.vertices},
                           {e: 1000.0 for e in fl.edges})


@st.composite
def cpu_only_dags(draw):
    """A random DAG of 1-20 operators, edges from lower to higher index, so
    tasks fan out and merge, with a profile that covers it."""
    n = draw(st.integers(1, 20))
    ids = [f"o{i}" for i in range(n)]
    edges = {(ids[a], ids[b])
             for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.integers(0, n - 1)),
                                       max_size=3 * n))
             if a < b}
    fl = Flowline(tuple(op(t) for t in ids), tuple(sorted(edges)),
                  ids[0], ids[-1])
    weights = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    return fl, TaskProfile({t: w / 8 for t, w in zip(ids, weights)},
                           {e: 1000.0 for e in fl.edges})


# CPU-only types, two of them alike but for the name; none has 17 cores.
CPU_ONLY_CATALOG = [VmType("c2", 2, 0, 0.1), VmType("c8b", 8, 0, 0.4),
                    VmType("c8a", 8, 0, 0.4), VmType("c16", 16, 0, 0.9)]

# Two different types named "a"; a plan could hold only one of them.
SAME_NAME = [VmType("a", 4, 1, 2.0), VmType("a", 16, 2, 4.0)]


class TestSchedule:
    def test_cpu_only_corner_case(self):
        fl, profile = cpu_only_flowline()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET)
        assert len(plan.vms) == 1
        assert plan.vms[0].cpu_cores >= 5
        assert set(plan.assignment.values()) == {0}

    def test_cpu_only_flowline_no_vm_can_hold(self):
        fl, profile = cpu_only_flowline()
        catalog = [VmType("small", 4, 0, 1.0), VmType("gpu", 4, 1, 2.0)]
        with pytest.raises(SchedulingError) as err:
            schedule(fl, profile, catalog, 0.5, NET)
        assert str(err.value) == ("no catalog VM has 5 spare CPU cores for a "
                                  "CPU-only flowline")

    @settings(max_examples=100, deadline=None)
    @given(cpu_only_dags(),
           st.sampled_from([bundled_qcloud_catalog, bundled_g4dn_catalog,
                            lambda: CPU_ONLY_CATALOG]),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_cpu_only_flowline_buys_one_cheapest_adequate_vm(
            self, case, make_catalog, eta):
        # Every task is an operator, so each is an orphan, and the one VM
        # bought, the cheapest with a core of headroom per task (then by
        # name), hosts them all.
        fl, profile = case
        catalog = make_catalog()
        adequate = [vm for vm in catalog
                    if vm.cpu_headroom >= len(fl.vertices)]
        if not adequate:
            with pytest.raises(SchedulingError, match="CPU-only flowline"):
                schedule(fl, profile, catalog, eta, NET)
            return
        plan = schedule(fl, profile, catalog, eta, NET)
        cheapest = min(adequate, key=lambda vm: (vm.unit_price, vm.name))
        assert plan.procurement.items == ((cheapest, 1),)
        assert plan.assignment == {v.id: 0 for v in fl.vertices}
        assert check_qualification(plan, fl).ok

    @pytest.mark.parametrize("shape", ["3m6o", "cpu-only"])
    @pytest.mark.parametrize("catalog, message", [
        ([], "empty catalog"),
        (SAME_NAME, "catalog lists VM type 'a' twice"),
    ], ids=["empty", "same-name"])
    def test_bad_catalog_raises_before_any_warm_up(self, monkeypatch, shape,
                                                   catalog, message):
        calls = []

        def counted(original):
            def call(*args):
                calls.append(args)
                return original(*args)
            return call

        # Synthesis places its candidates without greedy_partition.
        for name in ("greedy_partition", "synthesize_observations"):
            monkeypatch.setattr(f"kgflow.scheduler.{name}",
                                counted(getattr(kgflow.scheduler, name)))
        fl, profile = (synthetic_flowline(3, 6) if shape == "3m6o"
                       else cpu_only_flowline())
        with pytest.raises(CostModelError, match=re.escape(message)):
            schedule(fl, profile, catalog, 0.5, NET)
        assert calls == []

    def test_nine_task_qcloud_balanced_eta(self):
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 0.5, NET, fit=PAPER_CURVE)
        assert plan.procurement.describe() == "2XLARGE40 x1 + 5XLARGE80 x1"
        assert plan.procurement.total_price == pytest.approx(35.94)
        vm0 = {t for t, i in plan.assignment.items() if i == 0}
        assert vm0 == {"1", "2", "3", "4", "5", "7", "8", "9"}

    def test_eta_near_zero_buys_feasibility_floor(self):
        steep = MakespanPriceFit(4.17, 5.15, 23.96)
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 1e-9, NET, fit=steep)
        # x0 -> c drives the knapsack to the cheapest feasible price.
        assert plan.procurement.total_price == pytest.approx(35.94)

    def test_deterministic_byte_identical(self):
        args = (nine_task_flowline(), nine_task_profile(),
                bundled_qcloud_catalog(), 0.5, NET)
        one = plan_to_json(schedule(*args, fit=PAPER_CURVE))
        two = plan_to_json(schedule(*args, fit=PAPER_CURVE))
        assert one == two

    def test_schedule_from_synthesized_observations(self):
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 0.5, NET)
        assert plan.procurement.describe() == "2XLARGE40 x1 + 5XLARGE80 x1"

    def test_infeasible_catalog_propagates(self):
        catalog = [VmType("cpu_box", 16, 0, 3.0)]
        with pytest.raises((SchedulingError, CostModelError)):
            schedule(nine_task_flowline(), nine_task_profile(), catalog,
                     0.5, NET, fit=PAPER_CURVE)

    def test_quality_floor_against_exhaustive_partitions(self):
        # <= 6 tasks, 2 VM types: the heuristic's J must be within the best
        # 10% of every feasible partition under the same procurement.
        fl = Flowline.build(
            [model("1"), op("2", "filter"), model("3", "BERTRE", "model-CC"),
             op("4", "merge"), op("5", "triple")],
            [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("4", "5")])
        profile = TaskProfile(
            {"1": 0.9, "2": 0.05, "3": 0.7, "4": 0.05, "5": 0.05},
            {e: 4.0e5 for e in [("1", "2"), ("2", "3"), ("3", "4"),
                                ("1", "4"), ("4", "5")]})
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        mine = evaluate_plan(plan, fl, profile, 8000, 200, 0.5)["J"]
        ids = [v.id for v in fl.vertices]
        all_js = []
        for combo in itertools.product(range(len(plan.vms)), repeat=len(ids)):
            candidate = SchedulePlan(plan.procurement,
                                     dict(zip(ids, combo)), 0.5, NET)
            if not check_qualification(candidate, fl).ok:
                continue
            all_js.append(evaluate_plan(candidate, fl, profile, 8000, 200,
                                        0.5)["J"])
        assert all_js
        all_js.sort()
        rank = sum(1 for j in all_js if j < mine - 1e-12)
        assert rank <= 0.10 * len(all_js)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 23), st.integers(0, 9),
           st.sampled_from([bundled_qcloud_catalog, bundled_g4dn_catalog]),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_qualified_plan_or_fit_error(self, models, extra_ops, seed,
                                         make_catalog, eta):
        # Every procurement bought covers the demand, and the placement
        # hosts any such procurement, so only the fit may raise.
        fl, profile = synthetic_flowline(models, models + 1 + extra_ops, seed)
        try:
            plan = schedule(fl, profile, make_catalog(), eta, NET)
        except CostModelError:
            return
        assert check_qualification(plan, fl).ok
        assert plan.vms == plan.procurement.expand()


class TestScheduleMany:
    """``schedule_many`` is ``schedule`` at each eta, plan JSON for plan
    JSON, while each distinct procurement is placed and costed once."""

    @staticmethod
    def count_placements(monkeypatch):
        calls = []
        original = kgflow.scheduler.greedy_partition

        def counted(flowline, profile, vms, net):
            calls.append(tuple(vm.name for vm in vms))
            return original(flowline, profile, vms, net)

        monkeypatch.setattr(kgflow.scheduler, "greedy_partition", counted)
        return calls

    @pytest.mark.parametrize("shape, make_catalog, etas, placements", [
        ((6, 29), bundled_qcloud_catalog, (0.1, 0.3, 0.5, 0.7, 0.9), 1),
        ((3, 11), bundled_g4dn_catalog, (0.1, 0.3, 0.5, 0.7, 0.9), 1),
        ((4, 8), bundled_g4dn_catalog, (0.1, 0.3, 0.5, 0.7, 0.9), 2),
        # Two multisets, then the first one again at another eta.
        ((4, 8), bundled_g4dn_catalog, (0.1, 0.9, 0.3), 2),
        ((3, 6), bundled_g4dn_catalog, (0.9, 0.0, 0.9, 0.5), 1),
    ])
    def test_equals_schedule_eta_by_eta(self, monkeypatch, shape,
                                        make_catalog, etas, placements):
        fl, profile = synthetic_flowline(*shape)
        catalog = make_catalog()
        expected = [plan_to_json(schedule(fl, profile, catalog, eta, NET))
                    for eta in etas]
        calls = self.count_placements(monkeypatch)
        plans = schedule_many(fl, profile, catalog, etas, NET)
        assert [plan_to_json(plan) for plan in plans] == expected
        distinct = {plan.procurement for plan in plans}
        assert len(calls) == len(distinct) == placements

    def test_cpu_only_flowline(self):
        fl, profile = cpu_only_flowline()
        catalog = bundled_qcloud_catalog()
        etas = (0.2, 0.6)
        plans = schedule_many(fl, profile, catalog, etas, NET)
        assert [plan_to_json(plan) for plan in plans] == [
            plan_to_json(schedule(fl, profile, catalog, eta, NET))
            for eta in etas]

    def test_every_eta_is_checked_before_any_work(self, monkeypatch):
        calls = self.count_placements(monkeypatch)
        fl, profile = synthetic_flowline(3, 6)
        with pytest.raises(CostModelError, match="eta out of range"):
            schedule_many(fl, profile, bundled_qcloud_catalog(),
                          (0.5, 1.0), NET, fit=PAPER_CURVE)
        assert calls == []

    def test_no_etas_no_plans(self):
        fl, profile = synthetic_flowline(3, 6)
        assert schedule_many(fl, profile, bundled_qcloud_catalog(), (), NET,
                             fit=PAPER_CURVE) == []


class TestPredictMany:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(EXPERIMENT_SHAPES),
           st.sampled_from([bundled_qcloud_catalog, bundled_g4dn_catalog]),
           st.floats(0.0, 1.0), st.floats(1e5, 1e10),
           st.integers(0, 20_000), st.integers(1, 500), st.integers(0, 99))
    def test_equals_predict_costs_plan_by_plan(self, shape, catalog, latency,
                                               bandwidth, corpus, size, seed):
        fl, profile = synthetic_flowline(*shape, seed=seed)
        net = NetParams(latency, bandwidth)
        plans = [baseline_list(fl, profile, catalog(), net)]
        plans += [baseline_random(fl, catalog(), seed + i, net)
                  for i in range(8)]
        assert predict_many(plans, fl, profile, corpus, size, net) == [
            predict_costs(plan, fl, profile, corpus, size, net)
            for plan in plans]

    def test_single_task_and_no_plans(self):
        fl = Flowline.build([op("only")], [])
        profile = TaskProfile({"only": 0.25})
        plan = SchedulePlan(ProcurementPlan.of(qcloud_vms("2XLARGE40")),
                            {"only": 0}, 0.5)
        assert predict_many([plan, plan], fl, profile, 1000, 200, NET) == [
            predict_costs(plan, fl, profile, 1000, 200, NET)] * 2
        assert predict_many([], fl, profile, 1000, 200, NET) == []

    def test_uncovering_plan_raises_as_predict_costs_does(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        full = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET)
        short = dataclasses.replace(full, assignment={
            t: i for t, i in full.assignment.items() if t not in ("3", "8")})
        with pytest.raises(FlowlineError) as expected:
            predict_costs(short, fl, profile, 1000, 200, NET)
        with pytest.raises(FlowlineError) as err:
            predict_many([full, short], fl, profile, 1000, 200, NET)
        assert str(err.value) == str(expected.value)


class TestEvaluatePlan:
    def test_single_vm_observation_cost(self):
        fl = Flowline.build([op("w")], [])
        profile = TaskProfile({"w": 4.65})
        vms = tuple(qcloud_vms("5XLARGE80", "2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms), {"w": 0}, 0.5, NET)
        result = evaluate_plan(plan, fl, profile, 200, 200, 0.5)
        assert result["cost_mon"] == pytest.approx(0.0464, abs=5e-4)
        assert round(result["cost_mon"], 3) == 0.046

    def test_costs_linear_in_corpus_size(self):
        fl = nine_task_flowline()
        profile = nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        small = evaluate_plan(plan, fl, profile, 4000, 200, 0.5)
        big = evaluate_plan(plan, fl, profile, 8000, 200, 0.5)
        assert big["cost_com_s"] == pytest.approx(2 * small["cost_com_s"])
        assert big["cost_mon"] == pytest.approx(2 * small["cost_mon"])
        assert big["J"] == pytest.approx(2 * small["J"])

    def test_dominance_implies_lower_objective(self):
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
            a = eta * 10.0 + (1 - eta) * 3.0
            b = eta * 12.0 + (1 - eta) * 4.0
            assert a < b

    def test_plan_without_a_network_rejected(self):
        fl = Flowline.build([op("w")], [])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms), {"w": 0}, 0.5)
        with pytest.raises(SchedulingError) as err:
            evaluate_plan(plan, fl, TaskProfile({"w": 1.0}), 200, 200, 0.5)
        assert str(err.value) == ("no network parameters: pass net= or use a "
                                  "plan that records them")

    def test_j_weights_the_predicted_costs_by_eta(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        costs = predict_costs(plan, fl, profile, 8000, 200, NET)
        assert list(costs) == ["makespan_s", "cost_com_s", "cost_mon"]
        assert costs["cost_mon"] == (plan.procurement.total_price
                                     * costs["cost_com_s"] / 3600.0)
        for eta in (0.1, 0.5, 0.9):
            assert evaluate_plan(plan, fl, profile, 8000, 200, eta) == {
                **costs, "J": objective(costs["cost_com_s"],
                                        costs["cost_mon"], eta)}
        assert list(plan.predictions) == [*costs, "J"]

    def test_unqualified_plan_rejected(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        profile = TaskProfile({"s": 0.0, "a": 1.0, "b": 1.0, "t": 0.1})
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(ProcurementPlan.of(vms),
                            {"s": 0, "a": 0, "b": 0, "t": 0}, 0.5, NET)
        with pytest.raises(SchedulingError, match="qualification"):
            evaluate_plan(plan, fl, profile, 200, 200, 0.5)


class TestSynthesizeObservations:
    def test_includes_infeasible_and_feasible_points(self):
        obs = synthesize_observations(nine_task_flowline(),
                                      nine_task_profile(),
                                      bundled_qcloud_catalog(), NET)
        assert any(not o.feasible for o in obs)
        assert sum(1 for o in obs if o.feasible) >= 3

    def test_fit_succeeds_on_synthesized_table(self):
        obs = synthesize_observations(nine_task_flowline(),
                                      nine_task_profile(),
                                      bundled_qcloud_catalog(), NET)
        fit = fit_price_makespan(obs)
        assert fit.a > 0 and fit.b > 0 and fit.c > 0
        assert fit.c < 35.94

    def test_bigger_procurement_never_slower_on_frontier(self):
        obs = synthesize_observations(nine_task_flowline(),
                                      nine_task_profile(),
                                      bundled_qcloud_catalog(), NET)
        from kgflow.costmodel import pareto_frontier
        frontier = pareto_frontier(obs)
        makespans = [o.makespan_s for o in frontier]
        assert makespans == sorted(makespans, reverse=True)


class TestPlanSerialization:
    def test_round_trip(self):
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 0.5, NET, fit=PAPER_CURVE)
        doc = json.loads(plan_to_json(plan))
        plan2 = plan_from_dict(doc)
        assert plan2.assignment == dict(plan.assignment)
        assert plan2.procurement.total_price == pytest.approx(
            plan.procurement.total_price)
        assert plan_to_dict(plan2)["procurement"] == doc["procurement"]
        assert plan_to_json(plan2) == plan_to_json(plan)

    @staticmethod
    def plan_doc():
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 0.5, NET, fit=PAPER_CURVE)
        return json.loads(plan_to_json(plan))

    def test_procurement_type_missing_from_vms(self):
        doc = self.plan_doc()
        doc["procurement"][0]["type"] = "ghost"
        with pytest.raises(SchedulingError, match="'ghost' is not among"):
            plan_from_dict(doc)

    def test_vm_row_without_cores(self):
        doc = self.plan_doc()
        del doc["vms"][0]["cpu_cores"]
        with pytest.raises(SchedulingError, match="'cpu_cores'"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("edit", ["count", "drop-row", "swap"])
    def test_vms_must_be_the_expanded_procurement(self, edit):
        doc = self.plan_doc()
        assert len(doc["vms"]) == len(doc["procurement"]) == 2
        if edit == "count":
            doc["procurement"][0]["count"] = 2
        elif edit == "drop-row":
            doc["procurement"].pop()
        else:
            doc["vms"].reverse()
        with pytest.raises(SchedulingError, match="are not the procurement"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("vms"), "plan {doc!r} has no 'vms' field"),
        (lambda doc: doc.pop("procurement"),
         "plan {doc!r} has no 'procurement' field"),
        (lambda doc: doc.pop("assignment"),
         "plan {doc!r} has no 'assignment' field"),
        (lambda doc: doc["procurement"][0].pop("count"),
         "plan procurement row {doc[procurement][0]!r} has no 'count' field"),
        (lambda doc: doc["net"].pop("bandwidth_Bps"),
         "plan net {doc[net]!r} has no 'bandwidth_Bps' field"),
        (lambda doc: doc["procurement"][0].update(count="x"),
         "plan procurement row {doc[procurement][0]!r} has a non-numeric "
         "count: 'x'"),
        (lambda doc: doc["assignment"].update({"9": "x"}),
         "plan assignment {doc[assignment]!r} has a non-numeric 9: 'x'"),
        (lambda doc: doc["procurement"][0].update(count=0),
         "bad plan procurement: procurement count of "
         "{doc[procurement][0][type]!r} must be an integer >= 1: 0"),
        (lambda doc: doc["procurement"].append(
            {"type": doc["procurement"][0]["type"], "count": -1}),
         "bad plan procurement: procurement lists "
         "{doc[procurement][0][type]!r} twice"),
        (lambda doc: doc.update(eta=3.0),
         "bad plan eta: eta out of range [0, 1): 3.0"),
        (lambda doc: doc.update(eta="x"),
         "plan {doc!r} has a non-numeric eta: 'x'"),
        (lambda doc: doc["net"].update(latency_s="x"),
         "plan net {doc[net]!r} has a non-numeric latency_s: 'x'"),
        (lambda doc: doc["vms"][0].update(unit_price=None),
         "bad plan vms: VM row {doc[vms][0]!r} has a non-numeric "
         "unit_price: None"),
        (lambda doc: doc["net"].update(latency_s=-1),
         "bad plan net: latency_s must be finite and >= 0: -1.0"),
    ], ids=["no-vms", "no-procurement", "no-assignment", "no-count",
            "no-bandwidth", "count-x", "index-x", "count-0", "type-twice",
            "eta-3", "eta-x", "latency-x", "price-null", "latency-negative"])
    def test_missing_or_non_integer_field_is_named(self, edit, message):
        doc = self.plan_doc()
        edit(doc)
        with pytest.raises(SchedulingError,
                           match=re.escape(message.format(doc=doc))):
            plan_from_dict(doc)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(EXPERIMENT_SHAPES),
           st.sampled_from([bundled_qcloud_catalog, bundled_g4dn_catalog]),
           st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2 ** 16))
    def test_json_round_trip_keeps_text_and_costs(self, shape, make_catalog,
                                                  eta, seed):
        fl, profile = synthetic_flowline(*shape)
        catalog = make_catalog()
        plans = [baseline_list(fl, profile, catalog, NET),
                 baseline_random(fl, catalog, seed)]  # the latter has no net
        try:
            plans.append(schedule(fl, profile, catalog, eta, NET))
        except (CostModelError, SchedulingError):
            pass

        def costs(plan):
            return evaluate_plan(plan, fl, profile, 8000, 200, plan.eta,
                                 None if plan.net else NET)

        for plan in plans:
            text = plan_to_json(plan)
            loaded = plan_from_dict(json.loads(text))
            assert plan_to_json(loaded) == text
            assert costs(loaded) == costs(plan)


def _edited_plan(edit):
    def make():  # built when the case runs, not when it is collected
        doc = TestPlanSerialization.plan_doc()
        edit(doc)
        return doc
    return make


class TestLoadersRaiseTypedErrors:
    """A malformed document raises its module's error naming the field,
    never a bare TypeError, AttributeError or ValueError, and a whole-number
    field never truncates a fraction."""

    @pytest.mark.parametrize("load, doc, error, message", [
        (plan_from_dict, 5, SchedulingError, "plan 5 has no 'vms' field"),
        (plan_from_dict, _edited_plan(lambda d: d.update(vms=5)),
         SchedulingError, "plan field 'vms' must be a list: 5"),
        (plan_from_dict, _edited_plan(lambda d: d.update(vms=[5])),
         SchedulingError, "bad plan vms: VM row 5 has no 'name' field"),
        (plan_from_dict, _edited_plan(lambda d: d.update(procurement=5)),
         SchedulingError, "plan field 'procurement' must be a list: 5"),
        (plan_from_dict, _edited_plan(lambda d: d.update(procurement=[5])),
         SchedulingError, "plan procurement row 5 has no 'type' field"),
        (plan_from_dict, _edited_plan(lambda d: d.update(assignment=5)),
         SchedulingError, "plan field 'assignment' must be a Mapping: 5"),
        (plan_from_dict, _edited_plan(lambda d: d.update(assignment=[])),
         SchedulingError, "plan field 'assignment' must be a Mapping: []"),
        (plan_from_dict, _edited_plan(lambda d: d.update(net=5)),
         SchedulingError, "plan field 'net' must be a Mapping: 5"),
        (plan_from_dict, _edited_plan(lambda d: d.update(predictions=5)),
         SchedulingError, "plan field 'predictions' must be a Mapping: 5"),
        (plan_from_dict,
         _edited_plan(lambda d: d["procurement"][0].update(count=1.7)),
         SchedulingError, "plan procurement row {doc[procurement][0]!r} has a "
         "non-integral count: 1.7"),
        (plan_from_dict, _edited_plan(lambda d: d["assignment"].update(
            {"1": 1.7})),
         SchedulingError, "plan assignment {doc[assignment]!r} has a "
         "non-integral 1: 1.7"),
        (plan_from_dict, _edited_plan(lambda d: d["vms"][0].update(
            cpu_cores=4.7)),
         SchedulingError, "has a non-integral cpu_cores: 4.7"),
        (catalog_from_dict, 5, CostModelError,
         "catalog 5 has no 'vm_types' field"),
        (catalog_from_dict, [], CostModelError,
         "catalog [] has no 'vm_types' field"),
        (catalog_from_dict, {"vm_types": [{"name": "vm", "cpu_cores": 4.7,
                                           "gpu_cards": 1,
                                           "unit_price": 1.0}]},
         CostModelError, "has a non-integral cpu_cores: 4.7"),
        (observations_from_dict, 5, CostModelError,
         "observation document 5 has no 'observations' field"),
        (plan_from_dict, _edited_plan(lambda d: d["predictions"].update(J="x")),
         SchedulingError,
         "plan predictions {doc[predictions]!r} has a non-numeric J: 'x'"),
        (plan_from_dict, _edited_plan(lambda d: d["predictions"].update(
            makespan_s=None)),
         SchedulingError, "plan predictions {doc[predictions]!r} has a "
         "non-numeric makespan_s: None"),
        (plan_from_dict, _edited_plan(lambda d: d.update(scheduler=5)),
         SchedulingError, "plan field 'scheduler' must be a str: 5"),
    ], ids=["plan-5", "vms-5", "vms-[5]", "procurement-5", "procurement-[5]",
            "assignment-5", "assignment-[]", "net-5", "predictions-5",
            "count-1.7", "index-1.7", "plan-cores-4.7", "catalog-5",
            "catalog-[]", "catalog-cores-4.7", "observations-5",
            "predictions-J-x", "predictions-None", "scheduler-5"])
    def test_field_is_named(self, load, doc, error, message):
        doc = doc() if callable(doc) else doc
        with pytest.raises(error, match=re.escape(message.format(doc=doc))):
            load(doc)

    def test_every_public_loader_is_covered(self):
        assert set(LOADERS) == set(_valid_documents())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edited_document_loads_typed_or_raises_its_error(self, data):
        name = data.draw(st.sampled_from(sorted(LOADERS)), label="loader")
        load, error = LOADERS[name]
        doc = copy.deepcopy(data.draw(st.sampled_from(
            _valid_documents()[name])))
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        value = data.draw(st.sampled_from(_EDITS), label="value")
        if not path:
            doc = copy.deepcopy(value)
        else:
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        try:
            loaded = load(doc)
        except Exception as exc:
            assert type(exc) is error, f"{name}: {type(exc).__name__}: {exc}"
        else:
            hint = typing.get_type_hints(load)["return"]
            assert _conforms(loaded, hint), f"{name} returned {loaded!r}"


def _catalog_entry_points():
    """Every public function defined in a kgflow module that takes a
    ``catalog`` parameter."""
    found = {}
    for info in pkgutil.iter_modules(kgflow.__path__):
        module = importlib.import_module(f"kgflow.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if (fn.__module__ == module.__name__ and not name.startswith("_")
                    and "catalog" in inspect.signature(fn).parameters):
                found[name] = fn
    return found


CATALOG_ENTRY_POINTS = _catalog_entry_points()


class TestEveryCatalogEntryPointChecksTheCatalog:
    """Each public function that takes a catalog refuses an empty one and
    one that names a type twice, so a new entry point cannot skip the
    catalog rule."""

    @staticmethod
    def arguments(fn, catalog, shape):
        fl, profile = (synthetic_flowline(3, 6) if shape == "3m6o"
                       else cpu_only_flowline())
        pool = {"flowline": fl, "profile": profile, "catalog": catalog,
                "net": NET, "eta": 0.5, "etas": [0.5], "seed": 0,
                "seeds": [0], "x0": 5.0, "demand": ResourceDemand(1, 1)}
        params = inspect.signature(fn).parameters.values()
        missing = [p.name for p in params
                   if p.default is p.empty and p.name not in pool]
        assert not missing, f"{fn.__name__}: no test value for {missing}"
        return {p.name: pool[p.name] for p in params if p.name in pool}

    def test_known_entry_points_are_found(self):
        assert {"catalog_types", "procure", "synthesize_observations",
                "schedule", "baseline_random", "baseline_random_many",
                "baseline_list", "sweep_eta"} <= set(CATALOG_ENTRY_POINTS)

    @pytest.mark.parametrize("name", sorted(CATALOG_ENTRY_POINTS))
    @pytest.mark.parametrize("shape", ["3m6o", "cpu-only"])
    @pytest.mark.parametrize("catalog, message", [
        ([], "empty catalog"),
        (SAME_NAME, "catalog lists VM type 'a' twice"),
    ], ids=["empty", "same-name"])
    def test_bad_catalog_raises(self, name, shape, catalog, message):
        fn = CATALOG_ENTRY_POINTS[name]
        with pytest.raises(CostModelError, match=re.escape(message)):
            fn(**self.arguments(fn, catalog, shape))

    @pytest.mark.parametrize("catalog, message", [
        ([], "empty catalog"),
        (SAME_NAME, "catalog lists VM type 'a' twice"),
    ], ids=["empty", "same-name"])
    def test_random_baselines_check_the_catalog_without_seeds(
            self, catalog, message):
        fl, _ = synthetic_flowline(3, 6)
        with pytest.raises(CostModelError, match=re.escape(message)):
            baseline_random_many(fl, catalog, [], NET)


def _public_loaders():
    """Every public ``*_from_dict`` defined in a kgflow module, with the one
    exception class that module defines."""
    found = {}
    for info in pkgutil.iter_modules(kgflow.__path__):
        module = importlib.import_module(f"kgflow.{info.name}")
        own = [obj for _, obj in inspect.getmembers(module)
               if getattr(obj, "__module__", None) == module.__name__]
        loaders = [fn for fn in own if inspect.isfunction(fn)
                   and fn.__name__.endswith("_from_dict")
                   and not fn.__name__.startswith("_")]
        errors = [cls for cls in own if inspect.isclass(cls)
                  and issubclass(cls, Exception)]
        for fn in loaders:
            (error,) = errors
            found[fn.__name__] = (fn, error)
    return found


LOADERS = _public_loaders()
_DELETE = object()
_EDITS = [_DELETE, None, True, 1.5, -1, "x", [], {}, [5]]


@functools.cache
def _valid_documents():
    """JSON documents every loader accepts, keyed by loader name."""
    def bundled(name):
        data = resources.files("kgflow").joinpath("data", name)
        return json.loads(data.read_text("utf-8"))

    fl, profile = synthetic_flowline(3, 11)
    catalog = bundled_qcloud_catalog()
    plans = [schedule(fl, profile, catalog, 0.5, NET),
             baseline_random(fl, catalog, 0)]  # the latter has no net
    catalogs = [bundled("g4dn_catalog.json"), bundled("qcloud_catalog.json")]
    return {
        "vm_type_from_dict": [c["vm_types"][0] for c in catalogs],
        "catalog_from_dict": catalogs,
        "observations_from_dict": [bundled("qcloud_observations.json")],
        "plan_from_dict": [json.loads(plan_to_json(p)) for p in plans],
    }


def _paths(doc, path=()):
    """The path of every value nested in ``doc``, its own () included."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _conforms(value, hint) -> bool:
    """Whether ``value`` holds ``hint``'s types all the way down, dataclass
    fields included; a bool is no int and an int no float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is typing.Any:
        return True
    if hint is type(None):
        return value is None
    if hint in (int, float):
        return type(value) is hint
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin in (list, tuple):
        if not isinstance(value, origin):
            return False
        if origin is tuple and args[-1] is not Ellipsis:
            return len(value) == len(args) and all(
                map(_conforms, value, args))
        return all(_conforms(item, args[0]) for item in value)
    if origin in (dict, collections.abc.Mapping):
        return isinstance(value, collections.abc.Mapping) and all(
            _conforms(k, args[0]) and _conforms(v, args[1])
            for k, v in value.items())
    if dataclasses.is_dataclass(hint):
        fields = typing.get_type_hints(hint)
        return isinstance(value, hint) and all(
            _conforms(getattr(value, f.name), fields[f.name])
            for f in dataclasses.fields(hint))
    return isinstance(value, hint)
