"""Economic models for cloud procurement.

One fitted relation drives scheduling decisions: the price-to-minimum-
makespan curve ``g(x) = a + b / (x - c)``, fitted over (unit price, measured
makespan) observations. ``c`` acts as the infeasibility threshold: below it
no procurement can run the workload, so any observation with an
infinite/absent makespan caps ``c`` from above.

From a fitted curve and a preference ``eta`` the optimal unit price point is
closed-form: ``x0 = sqrt((b / a) * (eta / (1 - eta))) + c``. Procurement then
picks the instance multiset whose total unit price is closest to ``x0``:
an unbounded knapsack with a target price, solved exactly by a dynamic
program over integer price units (the gcd of the catalog prices on a 10**-6
grid). Its table has a row per plan price that some multiset reaches under
a price bound that ``PlanTable.closest`` chooses: at most bound/unit rows,
and never more than there are multisets. It costs
O(rows * (gpus + 1) * (cpus + 1)) per VM type for a demand of that many
GPU cards and cores, and stops with an error past a fixed memory budget.
A ``PlanTable`` keeps that table for one catalog and demand, so that
procuring at several targets, as an eta sweep does, fills it once, reads
a target from the rows already filled whenever they hold a feasible plan
priced at the target or more, and fills it again only when they do not
and the target needs a larger bound.

Unit warning: processing time is in seconds and money in currency units, so
the weighted objective mixes incommensurate quantities. ``objective`` applies
the raw weights; when ranking a candidate set use
``normalized_objectives``, which min-max normalizes both cost axes over the
candidates first so that ``eta`` acts as a meaningful dial.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import _fields


class CostModelError(ValueError):
    """Bad input data or a fit that cannot be carried out."""


_field = functools.partial(_fields.field, CostModelError)
_count = functools.partial(_fields.count, CostModelError)


@dataclass(frozen=True)
class VmType:
    """One priced machine shape from a vendor catalog."""

    name: str
    cpu_cores: int
    gpu_cards: int
    unit_price: float
    currency: str = "USD"

    def __post_init__(self):
        _count(f"{self.name}: cpu_cores", self.cpu_cores, 1)
        _count(f"{self.name}: gpu_cards", self.gpu_cards, 0)
        if not 0 < self.unit_price < math.inf:
            raise CostModelError(f"{self.name}: unit_price must be finite "
                                 f"and > 0: {self.unit_price}")
        if self.gpu_cards > self.cpu_cores:
            raise CostModelError(
                f"{self.name}: gpu_cards ({self.gpu_cards}) exceed cpu_cores "
                f"({self.cpu_cores}); each GPU needs a data-loader core")

    @property
    def cpu_headroom(self) -> int:
        """Cores left for operators once each GPU's data loader takes one."""
        return self.cpu_cores - self.gpu_cards


@dataclass(frozen=True)
class MakespanPriceFit:
    """Coefficients of g(x) = a + b/(x - c) plus per-point residuals."""

    a: float  # seconds, asymptotic makespan
    b: float  # seconds * price
    c: float  # price, infeasibility threshold
    residuals: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.a, self.b, self.c)):
            raise CostModelError(
                f"curve coefficients must be finite and positive, got "
                f"a={self.a}, b={self.b}, c={self.c}")

    def makespan_at(self, unit_price: float) -> float:
        if unit_price <= self.c:
            return math.inf
        return self.a + self.b / (unit_price - self.c)


@dataclass(frozen=True)
class Preference:
    """Trade-off dial between processing time (eta) and money (1 - eta)."""

    eta: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise CostModelError(f"eta out of range [0, 1): {self.eta}")


@dataclass(frozen=True)
class ResourceDemand:
    gpus: int
    cpus: int

    def __post_init__(self):
        _count("demand gpus", self.gpus, 0)
        _count("demand cpus", self.cpus, 0)

    def check_supplied(self, types: Sequence[VmType]) -> None:
        """Raise CostModelError unless some multiset of ``types`` meets the
        demand: some type has GPU cards if any are asked for, and some has
        headroom cores if any are."""
        if ((self.gpus and not any(v.gpu_cards for v in types))
                or (self.cpus and not any(v.cpu_headroom for v in types))):
            raise CostModelError(
                f"demand {self} infeasible with catalog "
                f"{[v.name for v in types]}: no VM type supplies it")


@dataclass(frozen=True)
class ProcurementPlan:
    """A purchased multiset of VM types, each listed once with a count >= 1."""

    items: tuple[tuple[VmType, int], ...]

    def __post_init__(self):
        # One pass checks the items and expands them once for ``expand``.
        names: set[str] = set()
        vms: list[VmType] = []
        for vm, n in self.items:
            if vm.name in names:
                raise CostModelError(f"procurement lists {vm.name!r} twice")
            names.add(vm.name)
            if type(n) is not int or n < 1:  # no f-string for a good count
                _count(f"procurement count of {vm.name!r}", n, 1)
            vms += [vm] * n
        object.__setattr__(self, "_vms", tuple(sorted(
            vms, key=lambda v: (-v.gpu_cards, -v.cpu_cores, v.name))))

    @classmethod
    def of(cls, instances: Iterable[VmType]) -> ProcurementPlan:
        """The multiset of ``instances``, one item per type, in name order;
        two different types that share a name raise CostModelError."""
        counts: dict[str, int] = {}
        by_name: dict[str, VmType] = {}
        for vm in instances:
            first = by_name.setdefault(vm.name, vm)
            if first is not vm and first != vm:
                raise CostModelError(f"two VM types are named {vm.name!r}")
            counts[vm.name] = counts.get(vm.name, 0) + 1
        return cls(tuple((by_name[name], counts[name])
                         for name in sorted(counts)))

    @property
    def total_price(self) -> float:
        """The unit prices of the VMs of ``expand()``, folded left to right
        (``_fold``)."""
        return _fold(vm.unit_price for vm in self._vms)

    def expand(self) -> tuple[VmType, ...]:
        """Individual VMs, sorted by GPU capacity descending (stable)."""
        return self._vms

    def describe(self) -> str:
        return " + ".join(f"{vm.name} x{n}" for vm, n in self.items)


def _fold(prices: Iterable[float]) -> float:
    """``prices`` added left to right, the float the builtin ``sum`` gives
    before Python 3.12, which compensates its float sums."""
    return functools.reduce(operator.add, prices, 0)


def _bounded_ab(u: np.ndarray, y: np.ndarray, lo: float) -> tuple[
        tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Minimise ||a + b * u - y|| for a batch of designs u broadcast to
    (..., n), first freely, then over a, b >= lo; returns both solutions,
    each as (a, b) on a last axis and the residual sums of squares. The
    free solution centres u. Where it breaks the bound, the better edge (one
    coefficient held at lo, the other fitted and clipped) is the exact
    optimum (Lawson & Hanson 1974)."""
    def dot(p, q):
        return np.einsum("...i,...i->...", p, q)

    def ssr(a, b):
        r = b[..., None] * u
        r += a[..., None]
        r -= y
        return dot(r, r)

    # Sums as dot products with ones: u.sum(-1) rounds differently.
    ones = np.ones(u.shape[-1])
    n, su, sy = dot(ones, ones), dot(ones, u), dot(ones, y)
    centred = u - (su / n)[..., None]
    b = dot(centred, y) / dot(centred, centred)
    a = (sy - b * su) / n
    free = np.stack([a, b], -1), ssr(a, b)
    inside = (a >= lo) & (b >= lo)
    if np.all(inside):
        return free, free
    held = np.full_like(a, lo)
    fit_b = np.maximum(dot(u, y - lo) / dot(u, u), lo)
    fit_a = np.maximum((sy - lo * su) / n, lo)
    edge_b, edge_a = ssr(held, fit_b), ssr(fit_a, held)
    on_b = edge_b <= edge_a  # a held at lo
    a = np.where(inside, a, np.where(on_b, lo, fit_a))
    b = np.where(inside, b, np.where(on_b, fit_b, lo))
    return free, (np.stack([a, b], -1),
                  np.where(inside, free[1], np.where(on_b, edge_b, edge_a)))


@dataclass(frozen=True)
class Observation:
    """One (unit price, measured makespan) point; makespan None or inf =
    infeasible."""

    unit_price: float
    makespan_s: float | None = None

    def __post_init__(self):
        if not 0 < self.unit_price < math.inf:
            raise CostModelError("observation unit_price must be finite and "
                                 f"> 0: {self.unit_price}")
        if self.makespan_s is not None and not self.makespan_s >= 0:
            raise CostModelError("observation makespan_s must be >= 0, inf "
                                 f"or None: {self.makespan_s}")

    @property
    def feasible(self) -> bool:
        return self.makespan_s is not None and math.isfinite(self.makespan_s)


def pareto_frontier(observations: Iterable[Observation]) -> list[Observation]:
    """Minimum-makespan frontier: per-price minima, dominated points dropped,
    in ascending price.

    A point is dominated when a cheaper (or equally cheap) point achieves a
    strictly smaller makespan. Prices are compared exactly, as floats, not
    at the 9 decimals at which ``synthesize_observations`` merges its
    observations, so two prices one ulp apart are two points.
    """
    x, y = _frontier(*_columns(observations))
    return [Observation(p, m) for p, m in zip(x.tolist(), y.tolist())]


def _columns(observations: Iterable[Observation]
             ) -> tuple[np.ndarray, np.ndarray]:
    """The unit prices and makespans of ``observations`` as float columns;
    an absent makespan reads as NaN, so only feasible points are finite."""
    observations = list(observations)
    return (np.array([o.unit_price for o in observations], dtype=float),
            np.array([o.makespan_s for o in observations], dtype=float))


def _frontier(price: np.ndarray, makespan: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """``pareto_frontier`` of the feasible points of two columns, as
    sorted price and makespan arrays."""
    feasible = np.isfinite(makespan)
    price, makespan = price[feasible], makespan[feasible]
    order = np.lexsort((makespan, price))
    price, makespan = price[order], makespan[order]
    # The first point at each price has its least makespan.
    first = np.ones(len(price), dtype=bool)
    first[1:] = price[1:] != price[:-1]
    price, makespan = price[first], makespan[first]
    # Kept unless a cheaper point's makespan is strictly smaller.
    kept = np.ones(len(price), dtype=bool)
    kept[1:] = makespan[1:] <= np.minimum.accumulate(makespan)[:-1]
    return price[kept], makespan[kept]


def fit_price_makespan(observations: Sequence[Observation]) -> MakespanPriceFit:
    """Fit g(x) = a + b/(x - c) to the Pareto frontier of the observations.

    Variable projection (Golub & Pereyra, 1973): for a fixed pole c the
    model is linear in (a, b), solved exactly with a, b >= 1e-12 by
    ``_bounded_ab``, so the fit is a 1-D search over c. The best of 64
    poles from c_cap * 1e-3 up to c_cap, spaced evenly in log(c_cap - c) so
    that narrow basins near c_cap are seen, is bracketed by its neighbours;
    the bracket is re-gridded evenly and narrowed, never widened, to
    1e-13 * c_cap. c_cap lies just under the cheapest feasible price, and
    at most at the largest infeasible one: the curve must blow up there.
    """
    price, makespan = _columns(observations)
    x, y = _frontier(price, makespan)
    if len(x) < 3:
        raise CostModelError(
            f"need >= 3 Pareto-frontier points to fit the curve, "
            f"got {len(x)}")

    c_cap = float(x[0]) * (1.0 - 1e-9)
    infeasible = price[~np.isfinite(makespan)]
    if len(infeasible) and infeasible.max() < x[0]:
        c_cap = min(c_cap, float(infeasible.max()))

    tiny = 1e-12

    def profile(poles: np.ndarray):
        return _bounded_ab(1.0 / (x - poles[:, None]), y, tiny)

    poles = c_cap - np.geomspace(c_cap * (1 - 1e-3), c_cap * 1e-9, 64)
    # The typed errors come from the plain least-squares (a, b).
    (free_ab, free_ssr), (ab, ssr) = profile(poles)
    free_ssr = np.where((free_ab > 0).all(-1), free_ssr, np.inf)
    start = int(free_ssr.argmin())
    # The frontier never rises with price; a flat one fits b = 0 at best.
    if not y[-1] < y[0] or (np.isfinite(free_ssr[start])
                            and free_ab[start].min() < tiny):
        raise CostModelError(
            "makespan does not fall with price, so no curve a + b/(x - c) "
            f"with a, b >= {tiny} fits; frontier x={x.tolist()}, "
            f"y={y.tolist()}")
    if not np.isfinite(free_ssr[start]):
        raise CostModelError(
            "divergent fit: no initialization with positive coefficients; "
            f"frontier x={x.tolist()}, y={y.tolist()}")

    lo, hi = tiny, c_cap
    best = int(ssr.argmin())
    for _ in range(12):
        if hi - lo < 1e-13 * c_cap:
            break
        lo = poles[best - 1] if best > 0 else lo
        hi = poles[best + 1] if best + 1 < len(poles) else hi
        poles = np.linspace(lo, hi, 64)
        _, (ab, ssr) = profile(poles)
        best = int(ssr.argmin())
    a, b = (float(v) for v in ab[best])
    c = float(poles[best])
    return MakespanPriceFit(a, b, c, tuple((a + b / (x - c) - y).tolist()))


def optimal_unit_price(fit: MakespanPriceFit, preference: Preference) -> float:
    """Closed-form minimizer of J(x) = eta*g(x) + (1-eta)*(x-c)*g(x), whose
    money term prices only the spend above the pole c.

    ``objective`` and ``sweep_eta`` weigh a different J: a plan's predicted
    seconds against its money, total price times the hours it runs, raw or
    min-max normalised over a sweep cell.
    """
    eta = preference.eta
    return math.sqrt((fit.b / fit.a) * (eta / (1.0 - eta))) + fit.c


def objective(cost_com: float, cost_mon: float, eta: float) -> float:
    """Raw weighted objective J = eta*cost_com + (1-eta)*cost_mon.

    The two terms carry different units (seconds vs currency); prefer
    ``normalized_objectives`` when comparing plans against each other.
    """
    Preference(eta)
    return eta * cost_com + (1.0 - eta) * cost_mon


def normalized_objectives(costs: Sequence[tuple[float, float]],
                          eta: float) -> list[float]:
    """Min-max normalize both cost axes over a candidate set, then weight."""
    Preference(eta)
    if not costs:
        return []

    def norm(values):
        lo, hi = min(values), max(values)
        if hi == lo:
            return [0.0 for _ in values]
        return [(v - lo) / (hi - lo) for v in values]

    coms = norm([c for c, _ in costs])
    mons = norm([m for _, m in costs])
    return [eta * c + (1.0 - eta) * m for c, m in zip(coms, mons)]


def procure(catalog: Sequence[VmType], x0: float, demand: ResourceDemand,
            table: PlanTable | None = None) -> ProcurementPlan:
    """Instance multiset closest in total unit price to x0 meeting demand.

    Feasibility: total GPU cards >= demand.gpus and total CPU headroom
    (cores minus one per GPU card) >= demand.cpus. Ties on |price - x0| fall
    to the plan with fewer instances, then the larger single-instance GPU
    count (high-end instances beat stacks of divided low-end ones), then
    lexicographic names.

    The search, and the price bounds it fills, are ``PlanTable.closest``'s.
    Callers that procure for one catalog and demand at several targets pass
    one ``table`` to every call, so its dynamic program is filled once, a
    target that the rows already filled answer is read from them, and the
    table is refilled only when a target needs a larger bound; a table
    built for another catalog or demand raises CostModelError. Without
    one, each call fills its own.
    """
    if table is None:
        return PlanTable(catalog, demand).closest(x0)
    types = catalog_types(catalog)
    if table.types != types or table.demand != demand:
        raise CostModelError(
            f"procurement table for demand {table.demand} and catalog "
            f"{[v.name for v in table.types]} cannot serve demand {demand} "
            f"with catalog {[v.name for v in types]}")
    return table.closest(x0)


class PlanTable:
    """The procurement search of one catalog and demand, kept between
    targets: an exact unbounded-knapsack dynamic program over integer
    prices.

    The price unit is the gcd of the catalog prices, which must lie on a
    10**-6 grid: 0.002 USD for g4dn, 11.98 CNY for qCloud. The table has one
    row per plan price that some multiset reaches, so it never has more
    rows than there are price units up to its bound, nor more than there
    are multisets. Entry ``[r, g, c]`` holds the fewest instances priced
    exactly at row r's price with at least ``g`` GPU cards and ``c``
    headroom cores, g and c capped at the demand, and one predecessor row
    per VM type leads back from it. A row and its predecessors depend only
    on the prices below it, never on the bound, so a table filled to a
    bound holds, in its rows up to any smaller bound, exactly the table a
    fresh fill to that bound makes. A fill to a larger bound recomputes
    every row, and the rows below the old bound keep their index and
    entries. ``closest`` reads a target from the rows filled so far when
    they hold a feasible row priced at the target or more, and otherwise
    chooses the bounds the target fills. A fill costs
    O(rows * (demand.gpus + 1) * (demand.cpus + 1)) per VM type; one whose
    table would outgrow ``_MAX_TABLE_BYTES`` raises ``CostModelError``.
    """

    def __init__(self, catalog: Iterable[VmType], demand: ResourceDemand):
        self.types = types = catalog_types(catalog)
        self.demand = demand
        demand.check_supplied(types)
        micros = _micro_prices(types)
        self._unit = math.gcd(*micros)
        self._weights = [m // self._unit for m in micros]
        # A table row: its entries plus one predecessor index per VM type.
        row_bytes = 4 * (demand.gpus + 1) * (demand.cpus + 1) + 8 * len(types)
        self._max_rows = _MAX_TABLE_BYTES // row_bytes
        self._limit = -1  # the bound filled so far, in price units
        self._prices = np.zeros(0, dtype=np.int64)
        self._table = self._preds = None
        # Per row, the optimal multisets priced there; a fill to a larger
        # bound keeps every row's index and entries, so they stay valid.
        self._multisets: dict[int, list[tuple[int, ...]]] = {}

    def closest(self, x0: float) -> ProcurementPlan:
        """``procure``'s plan for target x0, read from the rows up to a
        price bound; the table is refilled only when a bound passes what
        it holds.

        First, if the rows filled so far hold a feasible row priced at x0
        or more, every filled row is read and nothing is filled. A plan
        that beats or ties that row on the price gap is priced no higher,
        so its row is in the table already. This spares a sweep its
        refills: the list baseline's fill for x0 = 0 often reaches past
        the targets of the etas read after it.

        Otherwise the bounds are tried in three steps, with cheapest and
        dearest the catalog's extreme unit prices and B = max(2*x0,
        dearest):

        1. For x0 >= cheapest, x0 + cheapest, if that is below B. Adding an
           instance never makes a plan infeasible, so a feasible plan
           priced at most x0, padded with cheapest instances until one more
           would pass x0, is less than cheapest below it: the best gap is
           below cheapest, and every plan that ties on it is inside the
           bound. With no feasible plan priced at most x0 the best is the
           cheapest feasible one, inside the bound whenever any feasible
           plan is.
        2. For x0 < cheapest, f, 2f, 4f, ... while at most half of B, f the
           ``_price_floor``. Every plan but the empty one costs more than
           x0, so the best is the cheapest feasible plan (with nothing
           demanded, the empty plan or a cheapest instance), and the first
           of these bounds that holds a feasible plan holds it. A bound is
           worth a fill of its own only while it halves B: a fill costs
           about as much at a few rows as at many.
        3. If neither step found a feasible plan, B, doubled while nothing
           fits. That ends with a plan or an error: ``check_supplied``
           found some finite multiset that meets the demand, and the
           doubling reaches its price unless the table first outgrows
           ``_MAX_TABLE_BYTES`` or the bound the 10**-6 price grid, each
           of which raises."""
        if not math.isfinite(x0):
            raise CostModelError(f"target price x0 must be finite, got {x0}")
        if self._table is not None and x0 <= self._dearest_feasible():
            return self._best(len(self._prices), x0)
        types, unit = self.types, self._unit
        bound = max(2.0 * x0, max(v.unit_price for v in types))

        def best_within(limit: int) -> ProcurementPlan | None:
            if limit > self._limit:
                self._fill(limit)
            return self._best(int(np.searchsorted(self._prices, limit,
                                                  "right")), x0)

        def units(price: float) -> int:
            # The epsilon keeps a plan priced exactly at a bound in range.
            scaled = price * 1e6 / unit + 1e-9
            if scaled == math.inf:
                raise CostModelError(
                    f"target price x0 {x0:g} is too large: price bound "
                    f"{bound:g} overflows the 10**-6 price grid; lower x0")
            return int(scaled)

        # The short limit's extra unit covers the rounding of x0 in units.
        first, cheapest = units(bound), min(self._weights)
        if x0 < min(v.unit_price for v in types):
            floor = _price_floor(types, self._weights, self.demand)
            limits = [floor << k for k in range(first.bit_length())
                      if 2 * (floor << k) <= first]
        else:
            limits = [units(x0) + cheapest + 1]
        for limit in limits:
            if limit >= first:
                break
            best = best_within(limit)
            if best is not None:
                return best
        while (best := best_within(units(bound))) is None:
            bound *= 2.0
        return best

    def _dearest_feasible(self) -> float:
        """The price, as ``_best`` reads it, of the dearest filled row that
        meets the demand; -inf when none does."""
        demand = self.demand
        feasible = np.flatnonzero(
            self._table[:len(self._prices), demand.gpus, demand.cpus]
            < _UNREACHED)
        if not len(feasible):
            return -math.inf
        return float(self._prices[feasible[-1]] * (self._unit / 1e6))

    def _best(self, rows: int, x0: float) -> ProcurementPlan | None:
        """The best plan priced at one of the first ``rows`` rows; None when
        none of them meets the demand. A row's optimal multisets do not
        depend on x0, so each row is walked back once."""
        demand, types = self.demand, self.types
        counts = self._table[:rows, demand.gpus, demand.cpus]
        feasible = np.flatnonzero(counts < _UNREACHED)
        if not len(feasible):
            return None
        gaps = np.abs(self._prices[feasible] * (self._unit / 1e6) - x0)
        # Rows whose rounded gap can tie the smallest one.
        near = feasible[gaps <= gaps.min() + 2e-9]
        best_key = best_counts = None
        for r in near.tolist():
            if r not in self._multisets:
                self._multisets[r] = _optimal_multisets(
                    self._table, self._preds, types, demand, r,
                    int(counts[r]))
            for plan_counts in self._multisets[r]:
                plan_key = _plan_key(types, plan_counts, x0)
                if best_key is None or plan_key < best_key:
                    best_key, best_counts = plan_key, plan_counts
        return ProcurementPlan(tuple((vm, n) for vm, n in
                                     zip(types, best_counts) if n > 0))

    def _fill(self, limit: int) -> None:
        prices = _reachable_prices(self._weights, limit, self._max_rows)
        if prices is None:
            raise CostModelError(
                f"procurement table for demand {self.demand} outgrows "
                f"{_MAX_TABLE_BYTES >> 20} MB: more than {self._max_rows} "
                f"distinct plan prices up to {limit * self._unit / 1e6:g} "
                f"at a price unit of {self._unit / 1e6:g} "
                f"{self.types[0].currency}; lower x0 or quote prices on a "
                "coarser grid")
        self._table, self._preds = _fewest_instances(
            self.types, self._weights, self.demand, prices)
        self._prices, self._limit = prices, limit


def _price_floor(types: Sequence[VmType], weights: Sequence[int],
                 demand: ResourceDemand) -> int:
    """A price, in price units, below which no plan meeting ``demand`` but
    the empty one lies: the cheapest unit price, or if more, what the
    demand's GPU cards or cores cost at the lowest price per card or per
    headroom core."""
    floor = min(weights)
    for need, have in ((demand.gpus, [v.gpu_cards for v in types]),
                       (demand.cpus, [v.cpu_headroom for v in types])):
        if need:
            floor = max(floor, min(-(-need * w // h)
                                   for w, h in zip(weights, have) if h > 0))
    return floor


def catalog_types(catalog: Iterable[VmType]) -> tuple[VmType, ...]:
    """The catalog's types by name; CostModelError unless there are some and
    each name is listed once, as plans and plan JSON name a type by it."""
    types = tuple(sorted(catalog, key=lambda v: v.name))
    if not types:
        raise CostModelError("empty catalog")
    for prev, vm in zip(types, types[1:]):
        if prev.name == vm.name:
            raise CostModelError(f"catalog lists VM type {vm.name!r} twice")
    return types


def _micro_prices(types: Sequence[VmType]) -> list[int]:
    """Prices in millionths of the currency; a price off that grid is
    rejected, since the search prices plans exactly."""
    micros = [v.unit_price * 1e6 for v in types]
    off = [v.name for v, m in zip(types, micros)
           if abs(m - round(m)) > 1e-12 * m]
    if off:
        raise CostModelError(f"unit_price of {off} is not a multiple of 1e-6")
    return [round(m) for m in micros]


_UNREACHED = 2 ** 30
# Memory budget of one search pass: its table and predecessor rows.
_MAX_TABLE_BYTES = 1 << 27


def _reachable_prices(weights: Sequence[int], limit: int,
                      max_rows: int) -> np.ndarray | None:
    """Sorted distinct sums of weights, each used any number of times, up
    to ``limit``; None once there are more than ``max_rows`` of them."""
    sums = np.zeros(1, dtype=np.int64)
    for w in weights:
        # Sums using up to k copies of w become sums using up to 2k + 1.
        step = w
        while step <= limit:
            shifted = sums[:np.searchsorted(sums, limit - step, "right")]
            merged = np.concatenate([sums, shifted + step])
            merged.sort(kind="stable")  # a merge of two sorted runs
            sums = merged[np.concatenate([[True], merged[1:] != merged[:-1]])]
            if len(sums) > max_rows:
                return None
            step *= 2
    return sums


def _fewest_instances(types: Sequence[VmType], weights: Sequence[int],
                      demand: ResourceDemand, prices: np.ndarray
                      ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The (rows + 1, gpus + 1, cpus + 1) fewest-instances table and, per
    VM type, the row of each price minus that type's price.

    The extra last row is never reached; it is the predecessor of a price
    from which no multiset reaches back by that type. Every row is
    computed, so a larger bound's table is a refill, not an extension.
    """
    rows = len(prices)
    table = np.full((rows + 1, demand.gpus + 1, demand.cpus + 1),
                    _UNREACHED, dtype=np.int32)
    table[0, 0, 0] = 0
    flat = table.reshape(rows + 1, -1)
    gpu_levels = np.arange(demand.gpus + 1)
    cpu_levels = np.arange(demand.cpus + 1)
    preds = []
    for vm, w in zip(types, weights):
        pred = np.searchsorted(prices, prices - w)
        pred[prices[np.minimum(pred, rows - 1)] != prices - w] = rows
        preds.append(pred)
        # Flat (g, c) cell of the requirement left after adding one
        # instance of this type.
        need_g = np.maximum(gpu_levels - vm.gpu_cards, 0)[:, None]
        need_c = np.maximum(cpu_levels - vm.cpu_headroom, 0)[None, :]
        need = (need_g * (demand.cpus + 1) + need_c).ravel()
        # Rows priced in [k*w, (k+1)*w) only read rows priced in
        # [(k-1)*w, k*w), which are final.
        edges = np.searchsorted(prices, w * np.arange(1, prices[-1] // w + 2))
        for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
            if lo == hi:
                continue
            block = flat[lo:hi]
            src = flat.take(pred[lo:hi], axis=0).take(need, axis=1)
            np.minimum(block, src + 1, out=block)
    return table, preds


def _optimal_multisets(table: np.ndarray, preds: Sequence[np.ndarray],
                       types: Sequence[VmType], demand: ResourceDemand,
                       row: int, size: int) -> list[tuple[int, ...]]:
    """Per-type counts of every multiset of ``size`` instances priced at
    ``row`` that meets the demand.

    Walks back from the table entry with an explicit stack, adding types in
    non-increasing index order so each multiset appears once. A prefix of an
    optimal multiset is itself optimal for what it covers, so a step is
    taken only onto an entry equal to the instances still to place.
    """
    found = []
    stack = [(row, demand.gpus, demand.cpus, size, len(types) - 1, ())]
    while stack:
        r, g, c, left, top, picked = stack.pop()
        if left == 0:
            found.append(tuple(picked.count(t) for t in range(len(types))))
            continue
        for t in range(top + 1):
            q = int(preds[t][r])
            g2 = max(g - types[t].gpu_cards, 0)
            c2 = max(c - types[t].cpu_headroom, 0)
            if table[q, g2, c2] == left - 1:
                stack.append((q, g2, c2, left - 1, t, picked + (t,)))
    return found


def _plan_key(types: Sequence[VmType], counts: Sequence[int], x0: float):
    """The tie key: price gap, instance count, -largest GPU count, names."""
    price = _fold(v.unit_price * n for v, n in zip(types, counts))
    max_gpu = max((v.gpu_cards for v, n in zip(types, counts) if n > 0),
                  default=0)
    names = tuple(v.name for v, n in zip(types, counts) for _ in range(n))
    # Gaps rounded so float ulps in equal-priced sums cannot mask a tie.
    return (round(abs(price - x0), 9), sum(counts), -max_gpu, names)


# --- catalog / observation I/O -------------------------------------------------

def vm_type_from_dict(row: Mapping[str, Any],
                      currency: str = "USD") -> VmType:
    """One catalog row; a missing or malformed field is a CostModelError
    naming it."""
    return VmType(_field(row, "name", "VM row", str),
                  _field(row, "cpu_cores", "VM row", int),
                  _field(row, "gpu_cards", "VM row", int),
                  _field(row, "unit_price", "VM row", float),
                  _field(row, "currency", "VM row", str, currency))


def catalog_from_dict(doc: Mapping[str, Any]) -> list[VmType]:
    rows = _field(doc, "vm_types", "catalog", list)
    currency = _field(doc, "currency", "catalog", str, "USD")
    vms = [vm_type_from_dict(row, currency) for row in rows]
    catalog_types(vms)  # rows stay in file order
    return vms


def observations_from_dict(doc: Mapping[str, Any]) -> list[Observation]:
    return [Observation(_field(row, "unit_price", "observation", float),
                        _field(row, "makespan_s", "observation", float, None))
            for row in _field(doc, "observations", "observation document",
                              list)]


def _bundled(name: str) -> dict:
    blob = resources.files("kgflow").joinpath("data", name).read_text("utf-8")
    return json.loads(blob)


def bundled_g4dn_catalog() -> list[VmType]:
    """The 7-row AWS g4dn on-demand catalog."""
    return catalog_from_dict(_bundled("g4dn_catalog.json"))


def bundled_qcloud_catalog() -> list[VmType]:
    """The 4-row qCloud GN10Xp catalog."""
    return catalog_from_dict(_bundled("qcloud_catalog.json"))


def bundled_qcloud_observations() -> list[Observation]:
    """Price/makespan measurements of the example pipeline on qCloud."""
    return observations_from_dict(_bundled("qcloud_observations.json"))

