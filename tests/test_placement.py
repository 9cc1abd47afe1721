"""Oracle tests for the greedy placement and the observation table.

``greedy_partition`` counts neighbour overlap once per unit and scans the
VMs by index; the oracle below is the sort-and-intersect formulation it
replaced (overlap = |tasks placed on the VM & unit neighbours|, candidates
sorted by (-overlap, index), the first that fits wins). The observation
oracle expands every enumerated procurement into its plan, partitions it
with that oracle and times it, without the compiled units or the
per-placement makespan memo. ``reference_synthesize`` is the scalar
synthesis that the columnar ``_place_many`` pass replaced: each multiset
placed through a ``Ledger``, its price a ``sum``, an ``Observation`` built
for each multiset.
"""

from itertools import chain, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgflow import scheduler
from kgflow.costmodel import (
    Observation,
    ProcurementPlan,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    catalog_types,
)
from kgflow.flowline import (
    Flowline,
    NetParams,
    TaskNode,
    TaskProfile,
    apply_partition,
    makespan,
)
from kgflow.scheduler import (
    Ledger,
    SchedulingError,
    _assignment,
    _compile,
    _place,
    _place_many,
    compound,
    greedy_partition,
    synthesize_observations,
)
from kgflow.synth import EXPERIMENT_SHAPES, synthetic_flowline

from test_scheduler import (
    fuzz_catalogs,
    nine_task_flowline,
    nine_task_profile,
    unit_dags,
)

NET = NetParams(latency_s=0.05, bandwidth_Bps=1.0e7)


def oracle_partition(flowline, units, vms):
    room = [[vm.gpu_cards, vm.cpu_headroom] for vm in vms]
    placed = [set() for _ in vms]
    assignment = {}

    def place(members, unit_name):
        cards = sum(1 for m in members if flowline.node(m).is_model)
        cores = len(members) - cards
        neighborhood = set()
        for m in members:
            neighborhood |= set(flowline.successors[m])
            neighborhood |= set(flowline.predecessors[m])
        neighborhood -= set(members)
        overlaps = [len(placed[i] & neighborhood) for i in range(len(vms))]
        for i in sorted(range(len(vms)), key=lambda i: (-overlaps[i], i)):
            if cards <= room[i][0] and cores <= room[i][1]:
                room[i][0] -= cards
                room[i][1] -= cores
                placed[i].update(members)
                for m in members:
                    assignment[m] = i
                return
        raise SchedulingError(
            f"no VM can host {unit_name} (needs {cards} GPU card(s), "
            f"{cores} CPU core(s); capacities "
            f"{[(vm.gpu_cards, vm.cpu_headroom) for vm in vms]})")

    compounds = [unit for unit in units if unit.anchor is not None]
    orphans = [unit.members[0] for unit in units if unit.anchor is None]
    for comp in compounds:
        place(comp.members, f"compound[{comp.anchor}]")
    for orphan in orphans:
        place([orphan], f"task {orphan!r}")
    return assignment


def oracle_combos(flowline, catalog):
    """Every multiset of up to max(3, min(models, 4)) + 1 catalog types,
    each a list in lexicographic order of the name-sorted types."""
    max_instances = max(3, min(len(flowline.models), 4)) + 1
    types = sorted(catalog, key=lambda v: v.name)
    combos = []

    def walk(idx, chosen):
        if chosen:
            combos.append(list(chosen))
        if idx == len(types) or len(chosen) >= max_instances:
            return
        for j in range(idx, len(types)):
            chosen.append(types[j])
            walk(j, chosen)
            chosen.pop()

    walk(0, [])
    return combos


def oracle_observations(flowline, profile, catalog, net):
    units = compound(flowline)
    observations = {}
    for combo in oracle_combos(flowline, catalog):
        price = sum(vm.unit_price for vm in combo)
        vms = ProcurementPlan.of(combo).expand()
        try:
            assignment = oracle_partition(flowline, units, vms)
        except SchedulingError:
            observations.setdefault((round(price, 9), None),
                                    Observation(price, None))
            continue
        mk = makespan(flowline, profile,
                      apply_partition(flowline, profile, assignment, net))
        observations.setdefault((round(price, 9), round(mk, 12)),
                                Observation(price, mk))
    return [observations[k] for k in sorted(
        observations, key=lambda k: (k[0], k[1] is None, k[1] or 0.0))]


def reference_synthesize(flowline, profile, catalog, net):
    """``synthesize_observations`` as it was before ``_place_many``."""
    max_instances = max(3, min(len(flowline.models), 4)) + 1
    types = catalog_types(catalog)
    compiled = _compile(flowline)
    by_rank = [types.index(vm) for vm in ProcurementPlan.of(types).expand()]
    # Type indices in expand order, smallest multisets first -> placement.
    placements = {}
    for vms in chain.from_iterable(combinations_with_replacement(by_rank, k)
                                   for k in range(1, max_instances + 1)):
        placed = placements.get(vms[:-1]) or tuple(
            _place(compiled, Ledger([types[i] for i in vms])))
        placements[vms] = placed if len(placed) == len(compiled) else None
    observations = {}
    makespans = {}
    # Lexicographic order, so each key keeps its first-seen observation.
    for combo, placed in sorted((tuple(sorted(vms)), placed)
                                for vms, placed in placements.items()):
        price = sum(types[i].unit_price for i in combo)
        if placed is None:
            observations.setdefault((round(price, 9), None),
                                    Observation(price, None))
            continue
        mk = makespans.get(placed)
        if mk is None:
            delay = apply_partition(flowline, profile,
                                    _assignment(compiled, placed), net)
            mk = makespans[placed] = makespan(flowline, profile, delay)
        observations.setdefault((round(price, 9), round(mk, 12)),
                                Observation(price, mk))
    return [observations[k] for k in sorted(observations,
                                            key=lambda k: (k[0], k[1] is None,
                                                           k[1] or 0.0))]


def random_profile(fl, data):
    return TaskProfile(
        {v.id: data.draw(st.integers(0, 40)) / 8 for v in fl.vertices},
        {e: float(data.draw(st.integers(0, 4000))) for e in fl.edges})


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SchedulingError as exc:
        return "error", str(exc)


@st.composite
def placement_cases(draw):
    n = draw(st.integers(1, 14))
    ids = [f"t{i}" for i in range(n)]
    kinds = draw(st.lists(st.sampled_from(["model-CE", "model-CC",
                                           "operator"]),
                          min_size=n, max_size=n))
    edges = {(ids[a], ids[b])
             for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.integers(0, n - 1)),
                                       max_size=3 * n))
             if a < b}
    fl = Flowline(tuple(TaskNode(id=t, kind=k) for t, k in zip(ids, kinds)),
                  tuple(sorted(edges)), ids[0], ids[-1])
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)),
                           min_size=1, max_size=6))
    vms = sorted((VmType(f"v{i}", max(gpus + spare, 1), gpus, 1.0)
                  for i, (gpus, spare) in enumerate(shapes)),
                 key=lambda vm: -vm.gpu_cards)
    return fl, vms


class TestGreedyPartitionOracle:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(placement_cases())
    def test_matches_sort_and_intersect(self, case):
        fl, vms = case
        units = compound(fl)
        assert (outcome(greedy_partition, fl, vms)
                == outcome(oracle_partition, fl, units, vms))

    def test_neighbour_of_two_members_counts_once(self):
        # Compound c = {c, o} meets a (on v1) through two edges and b (on
        # v0) through one: overlap 1 on each VM, so the lower index wins.
        fl = Flowline(
            tuple(TaskNode(id=t, kind=k) for t, k in (
                ("a", "model-CE"), ("b", "model-CE"), ("c", "model-CE"),
                ("o", "operator"), ("p", "operator"), ("q", "operator"))),
            (("c", "o"), ("c", "a"), ("o", "a"), ("o", "b"), ("a", "p"),
             ("a", "q")), "c", "p")
        vms = [VmType("v0", 3, 2, 1.0), VmType("v1", 5, 2, 1.0)]
        units = compound(fl)
        assert [unit.members for unit in units] == [
            ("a", "p", "q"), ("b",), ("c", "o")]
        assignment = greedy_partition(fl, vms)
        assert assignment == oracle_partition(fl, units, vms)
        assert (assignment["a"], assignment["b"], assignment["c"]) == (1, 0, 0)

    @pytest.mark.parametrize("shape", [(3, 11), (6, 29)])
    @pytest.mark.parametrize("catalog", [bundled_qcloud_catalog,
                                         bundled_g4dn_catalog])
    def test_experiment_shapes_on_catalog_pairs(self, shape, catalog):
        fl, _ = synthetic_flowline(*shape)
        units = compound(fl)
        types = sorted(catalog(), key=lambda v: v.name)
        for a in types:
            for b in types:
                for copies in (1, 2, 3):
                    vms = ProcurementPlan.of([a] * copies + [b]).expand()
                    assert (outcome(greedy_partition, fl, vms)
                            == outcome(oracle_partition, fl, units, vms))


class TestSynthesizeObservations:
    def test_nine_task_fixture_matches_unmemoised(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        catalog = bundled_qcloud_catalog()
        assert (synthesize_observations(fl, profile, catalog, NET)
                == oracle_observations(fl, profile, catalog, NET))

    @pytest.mark.parametrize("shape", EXPERIMENT_SHAPES,
                             ids=lambda shape: "%dm%do" % shape)
    @pytest.mark.parametrize("catalog", [bundled_qcloud_catalog,
                                         bundled_g4dn_catalog])
    def test_experiment_shapes_match_unmemoised(self, shape, catalog):
        fl, profile = synthetic_flowline(*shape)
        assert (synthesize_observations(fl, profile, catalog(), NET)
                == oracle_observations(fl, profile, catalog(), NET))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(placement_cases(), st.data())
    def test_random_catalogs_match_unmemoised(self, case, data):
        # Shared prices make observations collide, so the first-seen rule
        # and the placement reuse across multisets are both exercised.
        fl, vms = case
        catalog = [VmType(vm.name, vm.cpu_cores, vm.gpu_cards,
                          data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
                   for vm in vms]
        profile = random_profile(fl, data)
        assert (synthesize_observations(fl, profile, catalog, NET)
                == oracle_observations(fl, profile, catalog, NET))

    def test_one_makespan_per_distinct_assignment(self, monkeypatch):
        fl, profile = synthetic_flowline(6, 29)
        catalog = bundled_qcloud_catalog()
        units = compound(fl)
        assignments = set()
        for combo in oracle_combos(fl, catalog):
            vms = ProcurementPlan.of(combo).expand()
            kind, assignment = outcome(oracle_partition, fl, units, vms)
            if kind == "ok":
                assignments.add(tuple(sorted(assignment.items())))
        makespans = 0

        def counting_makespan(*args):
            nonlocal makespans
            makespans += 1
            return makespan(*args)

        monkeypatch.setattr(scheduler, "makespan", counting_makespan)
        observations = synthesize_observations(fl, profile, catalog, NET)
        assert observations and assignments
        assert makespans <= len(assignments)


class TestPlaceMany:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(unit_dags(), fuzz_catalogs(), st.data())
    def test_rows_equal_place(self, fl, catalog, data):
        # Each list in any order, as _place takes it; a shorter one padded.
        lists = data.draw(st.lists(st.lists(st.sampled_from(catalog),
                                            min_size=1, max_size=6),
                                   min_size=1, max_size=8))
        width = max(map(len, lists))
        room = np.array([[(vm.gpu_cards, vm.cpu_headroom) for vm in vms]
                         + [(0, 0)] * (width - len(vms)) for vms in lists])
        compiled = _compile(fl)
        rows = _place_many(compiled, room)
        assert rows.shape == (len(lists), len(compiled))
        for vms, row in zip(lists, rows.tolist()):
            placed = _place(compiled, Ledger(vms))
            # Equal where _place places a unit, -1 from where it stops.
            assert row == placed + [-1] * (len(compiled) - len(placed))

    def test_room_is_not_changed(self):
        fl, _ = synthetic_flowline(3, 11)
        room = np.array([[(1, 3), (1, 7), (0, 0)], [(4, 44), (1, 3), (1, 3)]])
        before = room.copy()
        _place_many(_compile(fl), room)
        assert (room == before).all()


class TestSynthesizeEqualsReference:
    """The columnar synthesis gives the scalar one's observations, prices
    and makespans equal as floats."""

    @pytest.mark.parametrize("shape", EXPERIMENT_SHAPES,
                             ids=lambda shape: "%dm%do" % shape)
    @pytest.mark.parametrize("catalog", [bundled_qcloud_catalog,
                                         bundled_g4dn_catalog])
    def test_experiment_shapes(self, shape, catalog):
        fl, profile = synthetic_flowline(*shape)
        assert (synthesize_observations(fl, profile, catalog(), NET)
                == reference_synthesize(fl, profile, catalog(), NET))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 99),
           fuzz_catalogs())
    def test_synthetic_shapes_on_random_catalogs(self, models, extra, seed,
                                                 catalog):
        fl, profile = synthetic_flowline(models, models + extra, seed)
        assert (synthesize_observations(fl, profile, catalog, NET)
                == reference_synthesize(fl, profile, catalog, NET))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(unit_dags(), fuzz_catalogs(max_types=4), st.data())
    def test_random_dags_on_random_catalogs(self, fl, catalog, data):
        # Few distinct prices, so observations collide on their keys.
        catalog = [VmType(vm.name, vm.cpu_cores, vm.gpu_cards,
                          data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
                   for vm in catalog]
        profile = random_profile(fl, data)
        assert (synthesize_observations(fl, profile, catalog, NET)
                == reference_synthesize(fl, profile, catalog, NET))
