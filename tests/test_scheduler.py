"""Scheduler tests: compounding, greedy partition, qualification, pipeline.

The nine-task fixture mirrors the running two-branch NER/RE pipeline with
numeric ids (models: 1, 6, 7):

    1 -> {2, 3}; 2 -> 4 -> 6; 3 -> 5 -> 7; {6, 7} -> 8 -> 9
"""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from kgflow.costmodel import (
    CostModelError,
    MakespanPriceFit,
    Observation,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    fit_price_makespan,
)
from kgflow.flowline import Flowline, NetParams, TaskNode, TaskProfile
from kgflow.scheduler import (
    SchedulePlan,
    SchedulingError,
    check_qualification,
    compound,
    evaluate_plan,
    greedy_partition,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    schedule,
    synthesize_observations,
)
from kgflow.sim import baseline_list, baseline_random
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


class TestCompound:
    def test_nine_task_fixture(self):
        result = compound(nine_task_flowline())
        groups = [set(c.members) for c in result.compounds]
        assert groups == [{"1", "2", "3", "4", "5"}, {"6"}, {"7"}]
        assert [c.anchor for c in result.compounds] == ["1", "6", "7"]
        assert result.orphans == ("8", "9")

    def test_single_model_no_operators(self):
        fl = Flowline.build([model("m")], [])
        result = compound(fl)
        assert [set(c.members) for c in result.compounds] == [{"m"}]
        assert result.orphans == ()

    def test_linear_chain_fixpoint(self):
        fl = Flowline.build([model("m"), op("o1"), op("o2")],
                            [("m", "o1"), ("o1", "o2")])
        result = compound(fl)
        assert set(result.compounds[0].members) == {"m", "o1", "o2"}
        assert result.orphans == ()

    def test_partition_property(self):
        fl = nine_task_flowline()
        result = compound(fl)
        seen: set[str] = set()
        for comp in result.compounds:
            members = set(comp.members)
            assert not members & seen, "compounds must be pairwise disjoint"
            seen |= members
            models = [m for m in members if fl.node(m).is_model]
            assert models == [comp.anchor]
            # Every member reachable from the anchor through members only.
            frontier = {comp.anchor}
            reached = {comp.anchor}
            while frontier:
                nxt = {s for m in frontier for s in fl.successors[m]
                       if s in members and s not in reached}
                reached |= nxt
                frontier = nxt
            assert reached == members
        assert seen | set(result.orphans) == {v.id for v in fl.vertices}


class TestGreedyPartition:
    def test_nine_task_trace_on_5x_plus_2x(self):
        fl = nine_task_flowline()
        vms = qcloud_vms("5XLARGE80", "2XLARGE40")
        assignment = greedy_partition(fl, compound(fl), vms)
        vm0 = {t for t, i in assignment.items() if i == 0}
        vm1 = {t for t, i in assignment.items() if i == 1}
        assert vm0 == {"1", "2", "3", "4", "5", "6", "8", "9"}
        assert vm1 == {"7"}

    def test_single_big_vm_colocates_everything(self):
        fl = nine_task_flowline()
        vms = qcloud_vms("10XLARGE160")
        assignment = greedy_partition(fl, compound(fl), vms)
        assert set(assignment.values()) == {0}

    def test_disconnected_compounds_forced_apart(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t", "integrate")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        vms = qcloud_vms("2XLARGE40", "2XLARGE40")
        assignment = greedy_partition(fl, compound(fl), vms)
        assert assignment["a"] != assignment["b"]

    def test_capacity_exhaustion_names_unit(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t", "integrate")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        vms = qcloud_vms("2XLARGE40")
        with pytest.raises(SchedulingError, match="compound"):
            greedy_partition(fl, compound(fl), vms)

    def test_output_always_qualifies(self):
        fl = nine_task_flowline()
        for names in [("5XLARGE80", "2XLARGE40"),
                      ("10XLARGE160",),
                      ("2XLARGE40", "2XLARGE40", "2XLARGE40")]:
            vms = qcloud_vms(*names)
            assignment = greedy_partition(fl, compound(fl), vms)
            plan = SchedulePlan(
                procurement=_procurement_of(vms), vms=tuple(vms),
                assignment=assignment, eta=0.5)
            assert check_qualification(plan, fl).ok


def _procurement_of(vms):
    from kgflow.scheduler import _plan_from_instances
    return _plan_from_instances(vms)


class TestCheckQualification:
    def test_gpu_overflow(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(_procurement_of(vms), vms,
                            {"s": 0, "a": 0, "b": 0, "t": 0}, eta=0.5)
        report = check_qualification(plan, fl)
        assert any("GPU" in v for v in report.violations)

    def test_uncovered_task(self):
        fl = Flowline.build([model("a"), op("t")], [("a", "t")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(_procurement_of(vms), vms, {"a": 0}, eta=0.5)
        report = check_qualification(plan, fl)
        assert any("uncovered" in v for v in report.violations)

    def test_violations_in_natural_key_order(self):
        fl = Flowline.build(
            [model("m1"), model("m2"), op("o2"), op("o10"), op("o11")],
            [("m1", "m2"), ("m2", "o2"), ("o2", "o10"), ("o10", "o11")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(_procurement_of(vms), vms,
                            {"o11": -1, "o10": 3, "o2": 7, "m1": 0, "m2": 0},
                            eta=0.5)
        assert check_qualification(plan, fl).violations == (
            "task 'o2' assigned to unknown VM 7",
            "task 'o10' assigned to unknown VM 3",
            "task 'o11' assigned to unknown VM -1",
            "vm 0 (2XLARGE40): 2 model task(s) exceed 1 GPU card(s)",
        )
        vms = (VmType(name="tiny", cpu_cores=2, gpu_cards=1, unit_price=1.0),)
        plan = SchedulePlan(_procurement_of(vms), vms,
                            {"o10": 0, "o2": 0, "m1": 0, "m2": 5}, eta=0.5)
        assert check_qualification(plan, fl).violations == (
            "task 'm2' assigned to unknown VM 5",
            "uncovered task 'o11'",
            "vm 0 (tiny): 2 operator task(s) exceed 1 spare CPU core(s)",
        )

    def test_tasks_missing_from_flowline_reported(self):
        fl = Flowline.build([model("a"), op("t")], [("a", "t")])
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(_procurement_of(vms), vms,
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
        ghost = SchedulePlan(plan.procurement, plan.vms,
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
        plan = SchedulePlan(_procurement_of(vms), vms, {"a": 0, "t": 0},
                            eta=0.5)
        assert check_qualification(plan, fl).ok


class TestSchedule:
    def test_cpu_only_corner_case(self):
        ops = [op(f"o{i}") for i in range(5)]
        edges = [(f"o{i}", f"o{i+1}") for i in range(4)]
        fl = Flowline.build(ops, edges)
        profile = TaskProfile({v.id: 0.1 for v in fl.vertices},
                              {e: 1000.0 for e in fl.edges})
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET)
        assert len(plan.vms) == 1
        assert plan.vms[0].cpu_cores >= 5
        assert set(plan.assignment.values()) == {0}

    def test_nine_task_qcloud_balanced_eta(self):
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 0.5, NET, fit=PAPER_CURVE)
        assert plan.procurement.describe() == "2XLARGE40 x1 + 5XLARGE80 x1"
        assert plan.total_unit_price == pytest.approx(35.94)
        vm0 = {t for t, i in plan.assignment.items() if i == 0}
        assert vm0 == {"1", "2", "3", "4", "5", "6", "8", "9"}

    def test_eta_near_zero_buys_feasibility_floor(self):
        steep = MakespanPriceFit(4.17, 5.15, 23.96)
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 1e-9, NET, fit=steep)
        # x0 -> c drives the knapsack to the cheapest feasible price.
        assert plan.total_unit_price == pytest.approx(35.94)

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
            candidate = SchedulePlan(plan.procurement, plan.vms,
                                     dict(zip(ids, combo)), 0.5, NET)
            if not check_qualification(candidate, fl).ok:
                continue
            all_js.append(evaluate_plan(candidate, fl, profile, 8000, 200,
                                        0.5)["J"])
        assert all_js
        all_js.sort()
        rank = sum(1 for j in all_js if j < mine - 1e-12)
        assert rank <= 0.10 * len(all_js)


class TestEvaluatePlan:
    def test_single_vm_observation_cost(self):
        fl = Flowline.build([op("w")], [])
        profile = TaskProfile({"w": 4.65})
        vms = tuple(qcloud_vms("5XLARGE80", "2XLARGE40"))
        plan = SchedulePlan(_procurement_of(vms), vms, {"w": 0}, 0.5, NET)
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

    def test_unqualified_plan_rejected(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        profile = TaskProfile({"s": 0.0, "a": 1.0, "b": 1.0, "t": 0.1})
        vms = tuple(qcloud_vms("2XLARGE40"))
        plan = SchedulePlan(_procurement_of(vms), vms,
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
        assert plan2.total_unit_price == pytest.approx(plan.total_unit_price)
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

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc.pop("vms"), "no field 'vms'"),
        (lambda doc: doc.pop("procurement"), "no field 'procurement'"),
        (lambda doc: doc.pop("assignment"), "no field 'assignment'"),
        (lambda doc: doc["procurement"][0].pop("count"), "no field 'count'"),
        (lambda doc: doc["net"].pop("bandwidth_Bps"),
         "no field 'bandwidth_Bps'"),
        (lambda doc: doc["procurement"][0].update(count="x"),
         "procurement count is not an integer: 'x'"),
        (lambda doc: doc["assignment"].update({"9": "x"}),
         "assignment of '9' is not an integer: 'x'"),
        (lambda doc: doc["procurement"][0].update(count=0),
         "procurement count of '.*' is below 1: 0"),
        (lambda doc: doc["procurement"].append(
            {"type": doc["procurement"][0]["type"], "count": -1}),
         "procurement lists '.*' twice"),
        (lambda doc: doc.update(eta=3.0), r"bad plan eta: .*\[0, 1\): 3.0"),
        (lambda doc: doc.update(eta="x"), "plan eta is not a number: 'x'"),
        (lambda doc: doc["net"].update(latency_s="x"),
         "plan net latency_s is not a number: 'x'"),
        (lambda doc: doc["vms"][0].update(unit_price=None),
         "bad plan vms: .*non-numeric unit_price: None"),
    ], ids=["no-vms", "no-procurement", "no-assignment", "no-count",
            "no-bandwidth", "count-x", "index-x", "count-0", "type-twice",
            "eta-3", "eta-x", "latency-x", "price-null"])
    def test_missing_or_non_integer_field_is_named(self, edit, match):
        doc = self.plan_doc()
        edit(doc)
        with pytest.raises(SchedulingError, match=match):
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
