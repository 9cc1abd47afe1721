"""Cost model tests: pricing fit, curve fit, optimal price, procurement.

Expected values for the curve fit were derived by an independent check:
profiling out (a, b) by linear least squares on a dense grid of pole
positions c and polishing the best start (see the frozen constants below).
"""

import math

import pytest

from kgflow.costmodel import (
    CostModelError,
    MakespanPriceFit,
    Observation,
    Preference,
    PriceFit,
    ProcurementPlan,
    ResourceDemand,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    bundled_qcloud_observations,
    fit_price_linear,
    fit_price_makespan,
    normalized_objectives,
    objective,
    optimal_unit_price,
    pareto_frontier,
    procure,
    relative_errors,
    vm_price,
)

PAPER_THETA = (0.0565, 0.3)
PAPER_CURVE = (4.17, 5.15, 23.96)


class TestVmPrice:
    def test_xlarge_shape(self):
        fit = PriceFit(*PAPER_THETA)
        assert vm_price(4, 1, fit) == pytest.approx(0.526)

    def test_12xlarge_shape(self):
        fit = PriceFit(*PAPER_THETA)
        assert vm_price(48, 4, fit) == pytest.approx(3.912)

    def test_empty_machine(self):
        assert vm_price(0, 0, PriceFit(*PAPER_THETA)) == 0.0

    def test_linearity(self):
        fit = PriceFit(*PAPER_THETA)
        for alpha in (2, 3, 10):
            assert vm_price(4 * alpha, 1 * alpha, fit) == pytest.approx(
                alpha * vm_price(4, 1, fit))


class TestFitPriceLinear:
    def test_exact_two_point_catalog(self):
        catalog = [VmType("a", 4, 1, 0.526), VmType("b", 8, 1, 0.752)]
        fit = fit_price_linear(catalog)
        assert fit.theta1 == pytest.approx(0.0565, abs=1e-12)
        assert fit.theta2 == pytest.approx(0.3, abs=1e-12)

    def test_full_catalog_near_reference_coefficients(self):
        fit = fit_price_linear(bundled_g4dn_catalog())
        assert abs(fit.theta1 - PAPER_THETA[0]) / PAPER_THETA[0] < 0.10
        assert abs(fit.theta2 - PAPER_THETA[1]) / PAPER_THETA[1] < 0.10

    def test_error_column_at_reference_theta(self):
        errors = relative_errors(bundled_g4dn_catalog(), *PAPER_THETA)
        expected = {
            "g4dn.xlarge": 0.0, "g4dn.2xlarge": 0.0, "g4dn.4xlarge": 0.0,
            "g4dn.8xlarge": 0.0313, "g4dn.16xlarge": 0.1002,
            "g4dn.12xlarge": 0.0, "g4dn.metal": 0.0,
        }
        for name, want in expected.items():
            assert errors[name] == pytest.approx(want, abs=5e-4), name

    def test_single_row_rejected(self):
        with pytest.raises(CostModelError):
            fit_price_linear([VmType("a", 4, 1, 0.526)])

    def test_rank_deficient_rejected(self):
        catalog = [VmType("a", 4, 1, 0.5), VmType("b", 8, 2, 1.0)]
        with pytest.raises(CostModelError, match="dependent"):
            fit_price_linear(catalog)

    def test_recovers_exact_generated_prices(self):
        theta = (0.05, 0.4)
        shapes = [(4, 1), (8, 1), (16, 2), (32, 4), (10, 0)]
        catalog = [VmType(f"vm{i}", c, g, theta[0] * c + theta[1] * g)
                   for i, (c, g) in enumerate(shapes)]
        fit = fit_price_linear(catalog)
        assert fit.theta1 == pytest.approx(theta[0], abs=1e-10)
        assert fit.theta2 == pytest.approx(theta[1], abs=1e-10)


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
        assert plan.instance_count == 2

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
                assert plan.total_gpus >= gpus
                assert plan.total_cpu_headroom >= 4


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
