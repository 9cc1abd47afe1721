"""Cost model tests: curve fit, optimal price, procurement.

Expected values for the curve fit were derived by an independent check:
profiling out (a, b) by linear least squares on a dense grid of pole
positions c and polishing the best start (see the frozen constants below).
"""

import math
import re

import numpy as np
import pytest

from kgflow.costmodel import (
    CostModelError,
    MakespanPriceFit,
    Observation,
    Preference,
    ProcurementPlan,
    ResourceDemand,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    bundled_qcloud_observations,
    catalog_from_dict,
    catalog_types,
    fit_price_makespan,
    normalized_objectives,
    objective,
    observations_from_dict,
    optimal_unit_price,
    pareto_frontier,
    procure,
    vm_type_from_dict,
)

PAPER_CURVE = (4.17, 5.15, 23.96)


class TestParetoFrontier:
    def test_qcloud_frontier(self):
        frontier = pareto_frontier(bundled_qcloud_observations())
        assert [(o.unit_price, o.makespan_s) for o in frontier] == [
            (35.94, 4.65), (47.92, 4.26), (95.84, 4.25), (191.68, 4.25)]

    def test_dominated_points_removed(self):
        points = [Observation(10, 5.0), Observation(20, 6.0),
                  Observation(30, 4.0)]
        frontier = pareto_frontier(points)
        assert [(o.unit_price, o.makespan_s) for o in frontier] == [
            (10, 5.0), (30, 4.0)]

    def test_infeasible_points_excluded(self):
        points = [Observation(5, None), Observation(10, 3.0),
                  Observation(12, math.inf)]
        assert len(pareto_frontier(points)) == 1


class TestFitPriceMakespan:
    def test_qcloud_fit_recovers_reference_parameters(self):
        fit = fit_price_makespan(bundled_qcloud_observations())
        for got, want in zip((fit.a, fit.b, fit.c), PAPER_CURVE):
            assert abs(got - want) / want < 0.15

    def test_noiseless_synthetic_exact_recovery(self):
        a, b, c = 2.0, 10.0, 5.0
        xs = [6.0, 8.0, 12.0, 20.0, 40.0]
        obs = [Observation(x, a + b / (x - c)) for x in xs]
        fit = fit_price_makespan(obs)
        assert max(abs(r) for r in fit.residuals) < 1e-9
        assert fit.a == pytest.approx(a, abs=1e-6)
        assert fit.b == pytest.approx(b, abs=1e-6)
        assert fit.c == pytest.approx(c, abs=1e-6)

    def test_too_few_frontier_points(self):
        obs = [Observation(10, 5.0), Observation(20, 4.0)]
        with pytest.raises(CostModelError, match="frontier"):
            fit_price_makespan(obs)

    def test_non_monotone_noise_is_pareto_reduced(self):
        a, b, c = 2.0, 10.0, 5.0
        xs = [6.0, 8.0, 12.0, 20.0, 40.0]
        obs = [Observation(x, a + b / (x - c)) for x in xs]
        # A dominated, off-curve point must not perturb the fit.
        obs.insert(2, Observation(9.0, 9.99))
        fit = fit_price_makespan(obs)
        assert fit.a == pytest.approx(a, abs=1e-6)

    def test_flat_frontier_raises_typed_error(self):
        obs = [Observation(x, 2.3334) for x in (47.92, 59.9, 71.88, 83.86)]
        with pytest.raises(CostModelError,
                           match="makespan does not fall with price"):
            fit_price_makespan(obs)

    def test_near_flat_frontier_raises_typed_error(self):
        # Falls, but so little that the best start has b below the bound.
        xs = [6.0, 8.0, 12.0, 20.0, 40.0]
        obs = [Observation(x, 2.0 + 1e-14 / (x - 5.0)) for x in xs]
        with pytest.raises(CostModelError,
                           match="makespan does not fall with price"):
            fit_price_makespan(obs)

    def test_curve_is_decreasing_and_convex(self):
        fit = fit_price_makespan(bundled_qcloud_observations())
        xs = [fit.c + 0.5 + i * 2.0 for i in range(40)]
        ys = [fit.makespan_at(x) for x in xs]
        assert all(y1 >= y2 for y1, y2 in zip(ys, ys[1:]))
        # Discrete convexity: second differences non-negative.
        second = [ys[i - 1] - 2 * ys[i] + ys[i + 1] for i in range(1, len(ys) - 1)]
        assert all(s >= -1e-12 for s in second)


class TestOptimalUnitPrice:
    def test_reference_curve_balanced_eta(self):
        fit = MakespanPriceFit(*PAPER_CURVE)
        x0 = optimal_unit_price(fit, Preference(0.5))
        assert x0 == pytest.approx(25.07, abs=0.02)

    def test_eta_to_zero_approaches_pole(self):
        fit = MakespanPriceFit(1.0, 1.0, 7.0)
        assert optimal_unit_price(fit, Preference(1e-12)) == pytest.approx(7.0)

    def test_sqrt_shape(self):
        fit = MakespanPriceFit(1.0, 1.0, 1e-9)
        assert optimal_unit_price(fit, Preference(0.8)) == pytest.approx(2.0)

    def test_grid_minimum_matches_closed_form(self):
        # The closed form minimizes the objective whose monetary term prices
        # the spend above the pole: eta*g(x) + (1-eta)*(x-c)*g(x). A dense
        # grid over that objective must bracket x0 within one step.
        fit = MakespanPriceFit(*PAPER_CURVE)
        for eta in (0.2, 0.5, 0.8):
            x0 = optimal_unit_price(fit, Preference(eta))
            xs = [fit.c + 0.01 + i * 0.01 for i in range(1, 20000)]
            js = [objective(fit.makespan_at(x), (x - fit.c) * fit.makespan_at(x),
                            eta) for x in xs]
            best_x = xs[js.index(min(js))]
            assert abs(best_x - x0) <= 0.011
            assert x0 > fit.c


class TestProcure:
    def test_qcloud_three_gpu_plan(self):
        catalog = bundled_qcloud_catalog()
        plan = procure(catalog, 25.08, ResourceDemand(gpus=3, cpus=6))
        assert plan.describe() == "2XLARGE40 x1 + 5XLARGE80 x1"
        assert plan.total_price == pytest.approx(35.94)

    def test_high_end_tie_break_beats_low_end_stack(self):
        catalog = bundled_qcloud_catalog()
        plan = procure(catalog, 25.08, ResourceDemand(gpus=3, cpus=6))
        # Equal-priced alternative: 2XLARGE40 x3; fewer instances win.
        assert sum(n for _, n in plan.items) == 2

    def test_cpu_only_demand_picks_cheapest(self):
        catalog = bundled_qcloud_catalog()
        plan = procure(catalog, 0.0, ResourceDemand(gpus=0, cpus=1))
        assert plan.describe() == "2XLARGE40 x1"

    def test_exhaustive_small_catalog(self):
        catalog = [VmType("one", 4, 1, 10.0), VmType("two", 8, 2, 19.0)]
        plan = procure(catalog, 25.0, ResourceDemand(gpus=2, cpus=0))
        assert plan.total_price == pytest.approx(29.0)
        assert {vm.name for vm, _ in plan.items} == {"one", "two"}

    def test_matches_brute_force_distance(self):
        catalog = [VmType("one", 4, 1, 10.0), VmType("two", 8, 2, 19.0)]
        x0 = 25.0
        demand = ResourceDemand(gpus=2, cpus=0)
        best = None
        for n1 in range(6):
            for n2 in range(4):
                gpus = n1 + 2 * n2
                price = 10.0 * n1 + 19.0 * n2
                if gpus >= demand.gpus and price <= 2 * x0:
                    d = abs(price - x0)
                    if best is None or d < best:
                        best = d
        plan = procure(catalog, x0, demand)
        assert abs(plan.total_price - x0) == pytest.approx(best)

    def test_infeasible_demand_raises(self):
        catalog = [VmType("cpuonly", 8, 0, 5.0)]
        with pytest.raises(CostModelError, match="infeasible"):
            procure(catalog, 10.0, ResourceDemand(gpus=1, cpus=1))

    def test_demand_always_met(self):
        catalog = bundled_qcloud_catalog()
        for gpus in range(0, 12, 2):
            for x0 in (5.0, 30.0, 120.0):
                plan = procure(catalog, x0, ResourceDemand(gpus=gpus, cpus=4))
                assert sum(vm.gpu_cards for vm in plan.expand()) >= gpus
                assert sum(vm.cpu_headroom for vm in plan.expand()) >= 4


# Two different types named "a"; a plan could hold only one of them.
SAME_NAME = [VmType("a", 4, 1, 2.0), VmType("a", 16, 2, 4.0)]


class TestCatalogTypes:
    def test_sorted_by_name(self):
        catalog = bundled_g4dn_catalog()
        assert catalog_types(reversed(catalog)) == tuple(
            sorted(catalog, key=lambda v: v.name))

    def test_loaded_catalog_keeps_file_order(self):
        rows = [{"name": name, "cpu_cores": 4, "gpu_cards": 1,
                 "unit_price": 1.0} for name in "ba"]
        assert [vm.name for vm in catalog_from_dict({"vm_types": rows})] == [
            "b", "a"]


class TestProcurementPlanIsWellFormed:
    """A procurement lists each VM type once, with a count of at least 1."""

    A = VmType("a", 4, 1, 2.0)

    @pytest.mark.parametrize("items, message", [
        (((A, 1), (A, 2)), "procurement lists 'a' twice"),
        (tuple((vm, 1) for vm in SAME_NAME), "procurement lists 'a' twice"),
        (((A, 0),), "procurement count of 'a' must be an integer >= 1: 0"),
        (((A, -1),), "procurement count of 'a' must be an integer >= 1: -1"),
        (((A, True),),
         "procurement count of 'a' must be an integer >= 1: True"),
        (((A, 1.0),), "procurement count of 'a' must be an integer >= 1: 1.0"),
    ], ids=["type-twice", "name-twice", "count-0", "count--1", "count-True",
            "count-1.0"])
    def test_bad_items_raise(self, items, message):
        with pytest.raises(CostModelError, match=re.escape(message)):
            ProcurementPlan(items)

    def test_of_rejects_two_types_sharing_a_name(self):
        with pytest.raises(CostModelError,
                           match="two VM types are named 'a'"):
            ProcurementPlan.of(SAME_NAME)

    def test_of_merges_equal_instances(self):
        b = VmType("b", 8, 1, 3.0)
        plan = ProcurementPlan.of([b, VmType("a", 4, 1, 2.0), self.A])
        assert plan.items == ((self.A, 2), (b, 1))
        assert plan.expand() == (b, self.A, self.A)

    def test_numpy_integers_are_counts(self):
        vm = VmType("x", np.int64(4), np.int32(1), 1.0)
        plan = ProcurementPlan(((vm, np.int64(2)),))
        assert plan.expand() == (vm, vm)
        assert sum(v.cpu_headroom for v in plan.expand()) == 6


class TestObjective:
    def test_raw_weighting(self):
        assert objective(10.0, 2.0, 0.5) == pytest.approx(6.0)

    def test_eta_zero_is_pure_money(self):
        assert objective(10.0, 2.0, 0.0) == pytest.approx(2.0)

    def test_eta_one_rejected(self):
        with pytest.raises(CostModelError):
            objective(1.0, 1.0, 1.0)

    def test_cost_mon_consistency_with_observation_table(self):
        # 4.65 s at 35.94/h over one slice window.
        cost_mon = 35.94 * 4.65 / 3600.0
        assert cost_mon == pytest.approx(0.0464, abs=5e-4)
        assert round(cost_mon, 3) == 0.046

    def test_normalized_dominance_preserved(self):
        costs = [(10.0, 5.0), (20.0, 9.0), (15.0, 2.0)]
        for eta in (0.1, 0.5, 0.9):
            js = normalized_objectives(costs, eta)
            # Plan 0 dominates plan 1 in both axes.
            assert js[0] < js[1]

    def test_normalized_degenerate_axis(self):
        js = normalized_objectives([(5.0, 1.0), (5.0, 2.0)], 0.5)
        assert js[0] == 0.0 and js[1] == 0.5


class TestBundledData:
    def test_g4dn_row_count(self):
        assert len(bundled_g4dn_catalog()) == 7

    def test_qcloud_row_count_and_currency(self):
        catalog = bundled_qcloud_catalog()
        assert len(catalog) == 4
        assert all(vm.currency == "CNY" for vm in catalog)

    def test_observations_include_infeasible_row(self):
        obs = bundled_qcloud_observations()
        assert len(obs) == 7
        assert sum(1 for o in obs if not o.feasible) == 1


class TestVmTypeFromDict:
    @pytest.mark.parametrize("key", ["cpu_cores", "gpu_cards", "unit_price"])
    @pytest.mark.parametrize("value", ["x", None, True])
    def test_non_numeric_field_is_named(self, key, value):
        row = {"name": "vm", "cpu_cores": 4, "gpu_cards": 1,
               "unit_price": 0.5, key: value}
        with pytest.raises(CostModelError,
                           match=f"non-numeric {key}: {value!r}"):
            vm_type_from_dict(row)


def _row(price):
    return {"name": "vm", "cpu_cores": 4, "gpu_cards": 1, "unit_price": price}


class TestNonFinitePrice:
    @pytest.mark.parametrize("price", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda p: VmType("vm", 4, 1, p),
        lambda p: vm_type_from_dict(_row(p)),
        lambda p: procure(catalog_from_dict({"vm_types": [_row(p)]}), 10.0,
                          ResourceDemand(1, 1)),
    ], ids=["VmType", "vm_type_from_dict", "procure"])
    def test_rejected_naming_the_field(self, make, price):
        with pytest.raises(CostModelError,
                           match=f"vm: unit_price must be finite and > 0: "
                                 f"{price}"):
            make(price)


class TestLoaderErrors:
    @pytest.mark.parametrize("load, doc, message", [
        (catalog_from_dict, {}, "catalog {} has no 'vm_types' field"),
        (observations_from_dict, {},
         "observation document {} has no 'observations' field"),
        (observations_from_dict, {"observations": [{"makespan_s": 1.0}]},
         "has no 'unit_price' field"),
        (observations_from_dict, {"observations": [{"unit_price": "x"}]},
         "has a non-numeric unit_price: 'x'"),
        (observations_from_dict,
         {"observations": [{"unit_price": 5, "makespan_s": "x"}]},
         "has a non-numeric makespan_s: 'x'"),
        (observations_from_dict,
         {"observations": [{"unit_price": 5, "makespan_s": math.nan}]},
         "makespan_s must be >= 0, inf or None: nan"),
        (catalog_from_dict, {"vm_types": 5},
         "catalog field 'vm_types' must be a list: 5"),
        (catalog_from_dict, {"vm_types": [5]},
         "VM row 5 has no 'name' field"),
        (observations_from_dict, {"observations": 5},
         "observation document field 'observations' must be a list: 5"),
        (observations_from_dict, {"observations": [[35.94, 4.65]]},
         "observation [35.94, 4.65] has no 'unit_price' field"),
        (catalog_from_dict, {"vm_types": [{**_row(1.0), "name": 5}]},
         "VM row field 'name' must be a str: 5"),
        (catalog_from_dict, {"vm_types": [{**_row(1.0), "currency": 7}]},
         "VM row field 'currency' must be a str: 7"),
        (catalog_from_dict, {"currency": [1], "vm_types": [_row(1.0)]},
         "catalog field 'currency' must be a str: [1]"),
        (catalog_from_dict, {"vm_types": [{**_row(1.0), "cpu_cores": True}]},
         "VM row {'name': 'vm', 'cpu_cores': True, 'gpu_cards': 1, "
         "'unit_price': 1.0} has a non-numeric cpu_cores: True"),
        (catalog_from_dict, {"vm_types": [
            _row(2.0), {**_row(4.0), "cpu_cores": 8, "gpu_cards": 2}]},
         "catalog lists VM type 'vm' twice"),
        # Two types named "a" once bought "a x1 + a x1".
        (lambda catalog: procure(catalog, 6.0, ResourceDemand(3, 6)),
         [VmType("a", 4, 1, 2.0), VmType("a", 8, 2, 4.0)],
         "catalog lists VM type 'a' twice"),
        (catalog_from_dict, {"vm_types": []}, "empty catalog"),
        (catalog_types, [VmType("b", 4, 1, 2.0), *SAME_NAME],
         "catalog lists VM type 'a' twice"),
        # A count that is no integer once raised a bare TypeError.
        (lambda args: VmType(*args), ("x", "4", 1, 1.0),
         "x: cpu_cores must be an integer >= 1: '4'"),
        (lambda args: VmType(*args), ("x", True, 0, 1.0),
         "x: cpu_cores must be an integer >= 1: True"),
        (lambda args: VmType(*args), ("x", 4, 1.5, 1.0),
         "x: gpu_cards must be an integer >= 0: 1.5"),
        (lambda args: VmType(*args), ("x", 4, -1, 1.0),
         "x: gpu_cards must be an integer >= 0: -1"),
        (lambda args: ResourceDemand(*args), (1, "2"),
         "demand cpus must be an integer >= 0: '2'"),
        (lambda args: procure(bundled_g4dn_catalog(), 5.0,
                              ResourceDemand(*args)), (1.5, 2),
         "demand gpus must be an integer >= 0: 1.5"),
    ])
    def test_field_is_named(self, load, doc, message):
        with pytest.raises(CostModelError, match=re.escape(message)):
            load(doc)

    @pytest.mark.parametrize("price", [math.nan, math.inf, 0, -1.0])
    def test_observation_price_must_be_finite_and_positive(self, price):
        with pytest.raises(CostModelError,
                           match="unit_price must be finite and > 0"):
            Observation(price, 1.0)

    @pytest.mark.parametrize("makespan", [math.nan, -1.0])
    def test_observation_makespan_must_be_non_negative(self, makespan):
        assert Observation(10.0, 0.0).feasible  # zero stays legal
        with pytest.raises(CostModelError, match="makespan_s must be >= 0"):
            Observation(10.0, makespan)
