"""Procurement search: the integer-price DP against a brute-force oracle.

``oracle_procure`` enumerates every multiset priced up to the search bound
and keeps the best under the tie key. It is exponential in x0 and serves
only as the reference the dynamic program in ``costmodel.procure`` must
agree with, plan for plan.
"""

import gc
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kgflow.costmodel import (
    CostModelError,
    MakespanPriceFit,
    PlanTable,
    ProcurementPlan,
    ResourceDemand,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    procure,
)
from kgflow.costmodel import _price_floor, _reachable_prices
from kgflow.flowline import NetParams
from kgflow.scheduler import schedule
from kgflow.synth import synthetic_flowline


def oracle_procure(catalog, x0, demand):
    types = sorted(catalog, key=lambda v: v.name)
    bound = max(2.0 * x0, max(v.unit_price for v in types))
    for _ in range(16):
        best = _oracle_search(types, x0, demand, bound)
        if best is not None:
            return best
        bound *= 2.0
    raise CostModelError(f"demand {demand} infeasible")


def _oracle_search(types, x0, demand, bound):
    best_key = None
    best_counts = None
    counts = [0] * len(types)

    def consider():
        nonlocal best_key, best_counts
        gpus = sum(v.gpu_cards * n for v, n in zip(types, counts))
        cpus = sum(v.cpu_headroom * n for v, n in zip(types, counts))
        if gpus < demand.gpus or cpus < demand.cpus:
            return
        price = sum(v.unit_price * n for v, n in zip(types, counts))
        max_gpu = max((v.gpu_cards for v, n in zip(types, counts) if n > 0),
                      default=0)
        names = tuple(v.name for v, n in zip(types, counts) for _ in range(n))
        key = (round(abs(price - x0), 9), sum(counts), -max_gpu, names)
        if best_key is None or key < best_key:
            best_key = key
            best_counts = tuple(counts)

    def walk(idx, price_left):
        if idx == len(types):
            consider()
            return
        vm = types[idx]
        max_n = int(price_left // vm.unit_price)
        for n in range(max_n + 1):
            counts[idx] = n
            walk(idx + 1, price_left - n * vm.unit_price)
        counts[idx] = 0

    walk(0, bound)
    if best_counts is None:
        return None
    return ProcurementPlan(tuple((vm, n) for vm, n in zip(types, best_counts)
                                 if n > 0))


GRID_DEMANDS = [(0, 1), (1, 0), (3, 7), (4, 8), (6, 29)]
GRID_X0 = [("g4dn", x0) for x0 in (0.0, 0.6, 1.5, 2.6, 4.0, 5.5, 7.9, 10.0)] + [
    ("qcloud", x0) for x0 in (0.0, 11.98, 25.08, 60.0, 150.0, 275.5, 400.0)]
CATALOGS = {"g4dn": bundled_g4dn_catalog, "qcloud": bundled_qcloud_catalog}


@pytest.mark.parametrize("catalog_name,x0", GRID_X0)
def test_bundled_catalogs_match_oracle(catalog_name, x0):
    catalog = CATALOGS[catalog_name]()
    for gpus, cpus in GRID_DEMANDS:
        demand = ResourceDemand(gpus, cpus)
        assert procure(catalog, x0, demand) == oracle_procure(
            catalog, x0, demand), (x0, demand)


def edge_targets(catalog, demand):
    """Targets at the edges of the search's first bound, x0 + cheapest:
    below zero, below the cheapest unit price, at it, and x0 = the
    cheapest feasible plan's price less cheapest, where that plan is the
    best one and priced exactly at the bound, and just either side."""
    cheapest = min(v.unit_price for v in catalog)
    at_bound = procure(catalog, 0.0, demand).total_price - cheapest
    return [-5.0, -0.6, -cheapest, 0.0, cheapest / 2, cheapest * 0.999,
            cheapest, at_bound - 1e-7, at_bound, at_bound + 1e-7]


@pytest.mark.parametrize("catalog_name,fallback_x0",
                         [("g4dn", [4.0]), ("qcloud", [25.08, 60.0])])
def test_bundled_catalogs_match_oracle_at_the_bound_edges(catalog_name,
                                                          fallback_x0):
    # Demand (9, 9) costs 8.35 USD or 9 units of 11.98 CNY at least, so at
    # the fallback targets no plan fits in x0 + cheapest, and only the
    # bounds from max(2*x0, dearest unit price) on find one.
    catalog = CATALOGS[catalog_name]()
    for gpus, cpus in GRID_DEMANDS + [(9, 9)]:
        demand = ResourceDemand(gpus, cpus)
        for x0 in edge_targets(catalog, demand) + fallback_x0:
            assert procure(catalog, x0, demand) == oracle_procure(
                catalog, x0, demand), (x0, demand)


def test_best_plan_priced_at_the_short_bound():
    # 9 cards cost 9 units of 11.98 CNY at least, so at x0 = 8 units the
    # best plan is priced exactly at x0 + cheapest, the first bound.
    catalog = bundled_qcloud_catalog()
    demand = ResourceDemand(9, 9)
    plan = procure(catalog, 95.84, demand)
    assert plan.total_price == pytest.approx(95.84 + 11.98)
    assert plan == oracle_procure(catalog, 95.84, demand)


@st.composite
def small_catalogs(draw):
    size = draw(st.integers(1, 4))
    catalog = []
    for i in range(size):
        cores = draw(st.integers(1, 12))
        cards = draw(st.integers(0, min(cores, 4)))
        cents = draw(st.integers(1, 3000))
        catalog.append(VmType(f"t{i}", cores, cards, cents / 100))
    return catalog


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalog=small_catalogs(), gpus=st.integers(0, 4),
       cpus=st.integers(0, 8), x0_steps=st.integers(0, 1200))
def test_random_catalogs_match_oracle(catalog, gpus, cpus, x0_steps):
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    # x0 up to 6 cheapest units, on a grid that lands on exact price ties.
    cheapest = min(v.unit_price for v in catalog)
    x0 = round(cheapest * x0_steps / 200, 4)
    demand = ResourceDemand(gpus, cpus)
    plan = procure(catalog, x0, demand)
    # The oracle's last bound is below this; skip cases where the box of
    # multisets under it is too large to enumerate quickly.
    bound = max(2 * x0, 2 * plan.total_price,
                max(v.unit_price for v in catalog))
    assume(math.prod(bound / v.unit_price + 1 for v in catalog) <= 20_000)
    assert plan == oracle_procure(catalog, x0, demand)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(catalog=small_catalogs(), gpus=st.integers(0, 3),
       cpus=st.integers(0, 6), x0_steps=st.integers(0, 600))
def test_plan_does_not_depend_on_how_far_the_search_looks(catalog, gpus,
                                                          cpus, x0_steps):
    # A search up to four times the bound procure stops at finds the same
    # plan, so a table filled further than one call needs reads the same.
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    types = sorted(catalog, key=lambda v: v.name)
    x0 = round(min(v.unit_price for v in types) * x0_steps / 200, 4)
    demand = ResourceDemand(gpus, cpus)
    # procure's first bound, doubled until the cheapest feasible plan fits.
    cheapest = procure(catalog, 0.0, demand).total_price
    bound = max(2.0 * x0, max(v.unit_price for v in types))
    while bound < cheapest:
        bound *= 2.0
    assume(math.prod(4 * bound / v.unit_price + 1 for v in types) <= 20_000)
    assert procure(catalog, x0, demand) == _oracle_search(types, x0, demand,
                                                          4 * bound)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalog=small_catalogs(), gpus=st.integers(0, 4),
       cpus=st.integers(0, 8), data=st.data())
def test_random_catalogs_match_oracle_at_the_bound_edges(catalog, gpus, cpus,
                                                         data):
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    demand = ResourceDemand(gpus, cpus)
    x0 = data.draw(st.sampled_from(edge_targets(catalog, demand)))
    plan = procure(catalog, x0, demand)
    bound = max(2 * x0, 2 * plan.total_price,
                max(v.unit_price for v in catalog))
    assume(math.prod(bound / v.unit_price + 1 for v in catalog) <= 20_000)
    assert plan == oracle_procure(catalog, x0, demand)


def _first_bound_limit(table, x0):
    """The price limit a search up to max(2*x0, dearest unit price),
    doubled until a plan fits, reaches."""
    def limit(price):
        return int(price * 1e6 / table._unit + 1e-9)

    cheapest_plan = procure(table.types, 0.0, table.demand).total_price
    bound = max(2.0 * x0, max(v.unit_price for v in table.types))
    while limit(bound) < round(cheapest_plan * 1e6 / table._unit):
        bound *= 2.0
    return limit(bound)


def _first_bound_rows(table, x0):
    """The rows the search of ``_first_bound_limit`` fills: the most a
    fresh ``closest(x0)`` may fill."""
    return len(_reachable_prices(table._weights, _first_bound_limit(table, x0),
                                 table._max_rows))


@settings(max_examples=150, deadline=None)
@given(catalog=st.one_of(small_catalogs(),
                         st.sampled_from(sorted(CATALOGS)).map(
                             lambda name: CATALOGS[name]())),
       gpus=st.integers(0, 9), cpus=st.integers(0, 30),
       x0_steps=st.integers(-100, 2000))
# x0 + cheapest is one price unit past 2 * x0, where a + b is priced.
@example(catalog=[VmType("a", 2, 0, 1.0), VmType("b", 2, 0, 1.01)],
         gpus=0, cpus=1, x0_steps=100)
def test_closest_fills_no_more_rows_than_the_first_bound(catalog, gpus, cpus,
                                                         x0_steps):
    # Keeps the table-size cap and peak memory where the doubling search
    # alone had them: the short bound is tried only below the first one.
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    x0 = min(v.unit_price for v in catalog) * x0_steps / 100
    table = PlanTable(catalog, ResourceDemand(gpus, cpus))
    table.closest(x0)
    assert len(table._prices) <= _first_bound_rows(table, x0)


@settings(max_examples=150, deadline=None)
@given(catalog=st.one_of(small_catalogs(),
                         st.sampled_from(sorted(CATALOGS)).map(
                             lambda name: CATALOGS[name]())),
       gpus=st.integers(0, 9), cpus=st.integers(0, 30),
       x0_steps=st.integers(-300, 99))
# The list baseline's x0 = 0 on g4dn for the 3m11o flowline's demand.
@example(catalog=CATALOGS["g4dn"](), gpus=3, cpus=11, x0_steps=0)
def test_closest_below_the_cheapest_price_doubles_up_from_it(catalog, gpus,
                                                             cpus, x0_steps):
    # Every plan but the empty one is dearer than such an x0, so the search
    # stops at the first of f, 2f, 4f, ... that reaches the cheapest
    # feasible plan, f >= the cheapest unit price a price no feasible plan
    # but the empty one is below, when at most half the first bound
    # max(2 * x0, dearest unit price), and is that search if not. The plan
    # is the one the rows up to the first bound give.
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    x0 = min(v.unit_price for v in catalog) * x0_steps / 100
    table = PlanTable(catalog, ResourceDemand(gpus, cpus))
    plan = table.closest(x0)
    fresh = PlanTable(catalog, table.demand)
    fresh._fill(_first_bound_limit(fresh, x0))
    assert plan == fresh._best(len(fresh._prices), x0)
    price = round(procure(catalog, 0.0, table.demand).total_price * 1e6
                  / table._unit)
    floor = _price_floor(table.types, table._weights, table.demand)
    assert min(table._weights) <= floor <= max(price, min(table._weights))
    limit = floor
    while limit < price:
        limit *= 2
    first = max(2.0 * x0, max(v.unit_price for v in catalog))
    rows = len(table._prices)
    if 2 * limit <= int(first * 1e6 / table._unit + 1e-9):
        assert rows == len(_reachable_prices(table._weights, limit,
                                             table._max_rows))
    else:  # a bound past half the first one is not worth a fill of its own
        assert rows == _first_bound_rows(table, x0)


@settings(max_examples=100, deadline=None)
@given(catalog=st.one_of(small_catalogs(),
                         st.sampled_from(sorted(CATALOGS)).map(
                             lambda name: CATALOGS[name]())),
       gpus=st.integers(0, 9), cpus=st.integers(0, 30),
       steps=st.lists(st.integers(0, 800), min_size=2, max_size=5,
                      unique=True))
def test_a_grown_table_equals_a_fresh_fill(catalog, gpus, cpus, steps):
    # A row depends only on lower prices, so growing keeps the rows it has
    # and computes the rest; the result is the table one fill would make.
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    demand = ResourceDemand(gpus, cpus)
    grown, fresh = PlanTable(catalog, demand), PlanTable(catalog, demand)
    weight = max(grown._weights)
    limits = [weight * s // 100 for s in sorted(steps)]
    assume(len(set(limits)) == len(limits))
    for limit in limits:
        grown._fill(limit)
    fresh._fill(limits[-1])
    assert np.array_equal(grown._prices, fresh._prices)
    assert np.array_equal(grown._table, fresh._table)
    assert len(grown._preds) == len(fresh._preds)
    for ours, theirs in zip(grown._preds, fresh._preds):
        assert np.array_equal(ours, theirs)


def _shared_table_plans(catalog, demand, targets):
    """procure's plan at each target in turn, all from one table."""
    table = PlanTable(catalog, demand)
    return [procure(catalog, x0, demand, table=table) for x0 in targets]


@settings(max_examples=40, deadline=None)
@given(catalog_name=st.sampled_from(sorted(CATALOGS)), data=st.data())
def test_shared_table_matches_fresh_procure_on_bundled_catalogs(catalog_name,
                                                               data):
    # Any order of the oracle-checked targets: large before small reads a
    # prefix of the table, small before large grows it, and on qcloud the
    # (9, 9) demand doubles the bound of a small target before a plan fits.
    catalog = CATALOGS[catalog_name]()
    targets = data.draw(st.permutations(
        [x0 for name, x0 in GRID_X0 if name == catalog_name]))
    demand = ResourceDemand(*data.draw(st.sampled_from(GRID_DEMANDS
                                                       + [(9, 9)])))
    assert _shared_table_plans(catalog, demand, targets) == [
        procure(catalog, x0, demand) for x0 in targets]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalog=small_catalogs(), gpus=st.integers(0, 4),
       cpus=st.integers(0, 8),
       x0_steps=st.lists(st.integers(0, 1200), min_size=1, max_size=5))
def test_shared_table_matches_fresh_procure_on_random_catalogs(
        catalog, gpus, cpus, x0_steps):
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    cheapest = min(v.unit_price for v in catalog)
    targets = [round(cheapest * steps / 200, 4) for steps in x0_steps]
    demand = ResourceDemand(gpus, cpus)
    assert _shared_table_plans(catalog, demand, targets) == [
        procure(catalog, x0, demand) for x0 in targets]


def _count_fills(table):
    """The row count after each fill ``table`` makes from here on."""
    fills = []
    fill = table._fill

    def counted(limit):
        fill(limit)
        fills.append(len(table._prices))
    table._fill = counted
    return fills


def _dearest_feasible_price(table):
    """The price of the dearest filled row that meets the demand, or -inf
    before any fill."""
    if table._table is None:
        return -math.inf
    demand = table.demand
    counts = table._table[:len(table._prices), demand.gpus, demand.cpus]
    feasible = table._prices[counts < 2 ** 30]
    return feasible.max() * table._unit / 1e6 if len(feasible) else -math.inf


def test_targets_the_filled_rows_answer_fill_nothing():
    # The 3m11o sweep cell on g4dn: the list baseline's x0 = 0 fills to
    # 3.156 USD (29 rows), and the fitted targets of eta 0.1-0.5 lie below
    # its 1.804 USD plan, so they read those rows. Their short bounds,
    # x0 + 0.526, hold no feasible row, and the search from max(2 * x0,
    # dearest) would fill 268 rows up to 7.824 USD.
    catalog = bundled_g4dn_catalog()
    demand = ResourceDemand(3, 11)
    table = PlanTable(catalog, demand)
    fills = _count_fills(table)
    targets = (0.0, 0.89, 0.997, 1.112, 1.288, 1.778)
    plans = [table.closest(x0) for x0 in targets]
    assert fills == [8, 29]
    assert plans == [procure(catalog, x0, demand) for x0 in targets]
    assert {plan.total_price for plan in plans} == {1.804}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalog=small_catalogs(), gpus=st.integers(0, 4),
       cpus=st.integers(0, 8),
       x0_steps=st.lists(st.integers(-200, 1200), min_size=2, max_size=6))
def test_targets_the_filled_rows_answer_fill_nothing_on_random_catalogs(
        catalog, gpus, cpus, x0_steps):
    assume(gpus == 0 or any(v.gpu_cards for v in catalog))
    assume(cpus == 0 or any(v.cpu_headroom for v in catalog))
    cheapest = min(v.unit_price for v in catalog)
    targets = [round(cheapest * steps / 200, 4) for steps in x0_steps]
    demand = ResourceDemand(gpus, cpus)
    table = PlanTable(catalog, demand)
    fills = _count_fills(table)
    for x0 in targets:
        # A row priced within 1e-9 of x0 may read as either side of it.
        answered = x0 + 1e-9 <= _dearest_feasible_price(table)
        made = len(fills)
        assert table.closest(x0) == procure(catalog, x0, demand)
        if answered:
            assert len(fills) == made, x0


def test_table_for_another_catalog_or_demand_is_refused():
    catalog = bundled_g4dn_catalog()
    table = PlanTable(catalog, ResourceDemand(3, 7))
    with pytest.raises(CostModelError, match="cannot serve demand"):
        procure(catalog, 2.0, ResourceDemand(3, 8), table=table)
    with pytest.raises(CostModelError, match="cannot serve demand"):
        procure(catalog[1:], 2.0, ResourceDemand(3, 7), table=table)
    # The catalog's row order does not matter: a table holds it by name.
    assert (procure(catalog[::-1], 2.0, ResourceDemand(3, 7), table=table)
            == procure(catalog, 2.0, ResourceDemand(3, 7)))


@pytest.mark.parametrize("x0", [0.0, 2.0, 5.0, 9.0])
def test_micro_unit_catalog_matches_oracle(x0):
    # The prices' gcd is 1e-6 USD, so the bound spans ~10**7 price units,
    # but only the few hundred sums some multiset reaches get a row.
    catalog = [VmType("a", 4, 1, 0.526), VmType("b", 8, 1, 0.752001)]
    demand = ResourceDemand(3, 7)
    tracemalloc.start()
    try:
        plan = procure(catalog, x0, demand)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan == oracle_procure(catalog, x0, demand)
    assert peak <= 1 << 20


def test_oversized_table_raises_naming_the_unit():
    # ~10**8 distinct plan prices up to x0 plus the cheapest unit price at
    # a 1e-6 USD unit: the search gives up once they outgrow its table
    # budget, and names that limit, not the outer bound 2 * x0.
    catalog = [VmType("a", 64, 8, 0.001), VmType("b", 64, 8, 0.001001)]
    with pytest.raises(CostModelError, match="price unit of 1e-06 USD") as err:
        procure(catalog, 100.0, ResourceDemand(3, 7))
    assert "up to 100.001" in str(err.value)


def test_unsupplied_demand_raises_before_searching():
    # No type has a spare core, so no bound fits; doubling the bound 16
    # times would size the table at ~10**9 price rows.
    with pytest.raises(CostModelError, match="infeasible"):
        procure([VmType("gpu", 1, 1, 0.002)], 10.0, ResourceDemand(1, 1))
    # GPUs and cores from different types still combine.
    catalog = [VmType("cpuonly", 8, 0, 0.001), VmType("gpu", 1, 1, 0.002)]
    plan = procure(catalog, 0.0, ResourceDemand(2, 9))
    assert sum(vm.gpu_cards for vm in plan.expand()) >= 2
    assert sum(vm.cpu_headroom for vm in plan.expand()) >= 9


def test_off_grid_price_rejected_by_name():
    catalog = [VmType("fine", 4, 1, 0.526), VmType("odd", 4, 1, 0.1234567)]
    with pytest.raises(CostModelError, match="odd"):
        procure(catalog, 1.0, ResourceDemand(1, 1))


@pytest.mark.parametrize("x0", [float("inf"), float("nan")])
def test_non_finite_target_rejected(x0):
    with pytest.raises(CostModelError, match="finite"):
        procure(bundled_qcloud_catalog(), x0, ResourceDemand(1, 1))


@pytest.mark.parametrize("x0, message", [
    (1e300, "outgrows 128 MB"),
    (1e300, "up to 1e+300"),
    (1e303, "target price x0 1e+303 is too large"),
    (sys.float_info.max, "target price x0 1.79769e+308 is too large"),
])
@pytest.mark.parametrize("through", ["procure", "schedule"])
def test_huge_target_raises_naming_x0(x0, message, through):
    # Past ~1e302 the price bound in 10**-6 units overflows a float.
    with pytest.raises(CostModelError, match=re.escape(message)):
        if through == "procure":
            procure(bundled_g4dn_catalog(), x0, ResourceDemand(1, 1))
        else:  # x0 = sqrt(b / a) + c at eta 0.5
            schedule(*synthetic_flowline(3, 6), bundled_g4dn_catalog(), 0.5,
                     NetParams(), fit=MakespanPriceFit(1.0, 1.0, x0))


def test_total_price_folds_left_to_right():
    # A compensated sum, as Python 3.12's builtin sum makes, gives 1.0.
    plan = ProcurementPlan(((VmType("tenth", 4, 1, 0.1), 10),))
    assert plan.total_price == 0.9999999999999999


def test_more_gpus_than_cores_rejected():
    with pytest.raises(CostModelError, match="gpu_cards"):
        VmType("lopsided", 2, 4, 1.0)


def test_repeated_calls_free_their_tables():
    # A reference cycle through the DP table would keep every table alive
    # until the cyclic collector runs; with it off, memory would climb by
    # about 0.6 MB a call here.
    catalog = bundled_g4dn_catalog()
    demand = ResourceDemand(3, 7)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        procure(catalog, 10.0, demand)
        start, _ = tracemalloc.get_traced_memory()
        for _ in range(50):
            procure(catalog, 10.0, demand)
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert end - start <= 1 << 20
