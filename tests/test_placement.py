"""Oracle tests for the greedy placement and the observation table.

``greedy_partition`` counts neighbour overlap once per unit and scans the
VMs by index; the oracle below is the sort-and-intersect formulation it
replaced (overlap = |tasks placed on the VM & unit neighbours|, candidates
sorted by (-overlap, index), the first that fits wins). The observation
oracle partitions and times every enumerated procurement without the
per-assignment makespan memo.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgflow import scheduler
from kgflow.costmodel import (
    Observation,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
)
from kgflow.flowline import (
    Flowline,
    NetParams,
    TaskNode,
    apply_partition,
    makespan,
)
from kgflow.scheduler import (
    SchedulingError,
    _plan_from_instances,
    compound,
    greedy_partition,
    synthesize_observations,
)
from kgflow.synth import synthetic_flowline

from test_scheduler import nine_task_flowline, nine_task_profile

NET = NetParams(latency_s=0.05, bandwidth_Bps=1.0e7)


def oracle_partition(flowline, compounding, vms):
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

    for comp in compounding.compounds:
        place(comp.members, f"compound[{comp.anchor}]")
    for orphan in compounding.orphans:
        place([orphan], f"task {orphan!r}")
    return assignment


def oracle_observations(flowline, profile, catalog, net):
    max_instances = max(3, min(len(flowline.model_ids()), 4)) + 1
    types = sorted(catalog, key=lambda v: v.name)
    compounding = compound(flowline)
    observations = {}

    def visit(combo):
        price = sum(vm.unit_price for vm in combo)
        vms = _plan_from_instances(combo).expand()
        try:
            assignment = oracle_partition(flowline, compounding, vms)
        except SchedulingError:
            observations.setdefault((round(price, 9), None),
                                    Observation(price, None))
            return
        mk = makespan(flowline, profile,
                      apply_partition(flowline, profile, assignment, net))
        observations.setdefault((round(price, 9), round(mk, 12)),
                                Observation(price, mk))

    def walk(idx, chosen):
        if chosen:
            visit(list(chosen))
        if idx == len(types) or len(chosen) >= max_instances:
            return
        for j in range(idx, len(types)):
            chosen.append(types[j])
            walk(j, chosen)
            chosen.pop()

    walk(0, [])
    return [observations[k] for k in sorted(
        observations, key=lambda k: (k[0], k[1] is None, k[1] or 0.0))]


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
        compounding = compound(fl)
        assert (outcome(greedy_partition, fl, compounding, vms)
                == outcome(oracle_partition, fl, compounding, vms))

    @pytest.mark.parametrize("shape", [(3, 11), (6, 29)])
    @pytest.mark.parametrize("catalog", [bundled_qcloud_catalog,
                                         bundled_g4dn_catalog])
    def test_experiment_shapes_on_catalog_pairs(self, shape, catalog):
        fl, _ = synthetic_flowline(*shape)
        compounding = compound(fl)
        types = sorted(catalog(), key=lambda v: v.name)
        for a in types:
            for b in types:
                for copies in (1, 2, 3):
                    vms = _plan_from_instances([a] * copies + [b]).expand()
                    assert (outcome(greedy_partition, fl, compounding, vms)
                            == outcome(oracle_partition, fl, compounding,
                                       vms))


class TestSynthesizeObservations:
    def test_nine_task_fixture_matches_unmemoised(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        catalog = bundled_qcloud_catalog()
        assert (synthesize_observations(fl, profile, catalog, NET)
                == oracle_observations(fl, profile, catalog, NET))

    def test_3m11o_g4dn_matches_unmemoised(self):
        fl, profile = synthetic_flowline(3, 11)
        catalog = bundled_g4dn_catalog()
        assert (synthesize_observations(fl, profile, catalog, NET)
                == oracle_observations(fl, profile, catalog, NET))

    def test_one_makespan_per_distinct_assignment(self, monkeypatch):
        fl, profile = synthetic_flowline(6, 29)
        assignments = set()
        makespans = 0

        def recording_partition(*args):
            assignment = greedy_partition(*args)
            assignments.add(tuple(sorted(assignment.items())))
            return assignment

        def counting_makespan(*args):
            nonlocal makespans
            makespans += 1
            return makespan(*args)

        monkeypatch.setattr(scheduler, "greedy_partition",
                            recording_partition)
        monkeypatch.setattr(scheduler, "makespan", counting_makespan)
        observations = synthesize_observations(fl, profile,
                                               bundled_qcloud_catalog(), NET)
        assert observations and assignments
        assert makespans <= len(assignments)
