"""Property tests for the earliest-finish-time placement and the warm-up
table it gives.

``reference_list_partition`` is the list baseline's own loop as it was
before ``greedy_partition`` became the one placement rule: tasks by upward
rank with ties broken by natural id order, a precursor not yet placed left
out of the ready time, each task on the VM with room where it finishes
earliest. The rank order now breaks ties by topological order, so the two
agree wherever no two tasks tie in rank. ``oracle_observations`` places
every enumerated procurement with ``greedy_partition`` and times it with
``makespan``, one multiset at a time, which the columnar ``_place_many``
pass inside ``synthesize_observations`` must equal.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kgflow import scheduler
from kgflow.costmodel import (
    Observation,
    ProcurementPlan,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
)
from kgflow.flowline import (
    NetParams,
    TaskProfile,
    apply_partition,
    makespan,
    natural_key,
)
from kgflow.scheduler import (
    Ledger,
    SchedulePlan,
    SchedulingError,
    _place_many,
    _upward_ranks,
    check_qualification,
    greedy_partition,
    need,
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


def slow(examples):
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def reference_list_partition(flowline, profile, vms, net):
    """``sim.baseline_list``'s placement loop before it moved to
    ``greedy_partition``."""
    ranks = _upward_ranks(flowline, profile, net)
    tasks = sorted((v.id for v in flowline.vertices),
                   key=lambda t: (-ranks[t], natural_key(t)))
    ledger = Ledger(vms)
    assignment, finish = {}, {}
    for task in tasks:
        unit = Ledger.CARD if task in flowline.models else Ledger.CORE
        best = None
        for i in ledger.fitting(unit):
            ready = 0.0
            for pred in flowline.predecessors[task]:
                if pred not in assignment:  # rank order is not topological
                    continue
                delay = 0.0 if assignment[pred] == i else net.transfer_time(
                    profile.payload((pred, task)))
                ready = max(ready, finish[pred] + delay)
            eft = ready + profile.weight(task)
            if best is None or (eft, i) < best:
                best = (eft, i)
        if best is None:
            raise SchedulingError(f"list baseline cannot place {task!r}")
        finish[task], assignment[task] = best
        ledger.take(best[1], unit)
    return assignment


def oracle_observations(flowline, profile, catalog, net):
    """Every multiset of up to max(3, min(models, 4)) + 1 catalog types, in
    lexicographic order of the name-sorted types, placed and timed one at
    a time; each (price, makespan) key keeps its first observation."""
    most = max(3, min(len(flowline.models), 4)) + 1
    types = sorted(catalog, key=lambda v: v.name)
    observations = {}

    def walk(start, chosen):
        if chosen:
            price = sum(vm.unit_price for vm in chosen)
            try:
                assignment = greedy_partition(
                    flowline, profile, ProcurementPlan.of(chosen).expand(),
                    net)
            except SchedulingError:
                observations.setdefault((round(price, 9), None),
                                        Observation(price, None))
            else:
                mk = makespan(flowline, profile,
                              apply_partition(flowline, profile, assignment,
                                              net))
                observations.setdefault((round(price, 9), round(mk, 12)),
                                        Observation(price, mk))
        if len(chosen) < most:
            for j in range(start, len(types)):
                walk(j, chosen + [types[j]])

    walk(0, [])
    return [observations[k] for k in sorted(
        observations, key=lambda k: (k[0], k[1] is None, k[1] or 0.0))]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SchedulingError:
        return "error", None


def vm_lists(max_vms=6):
    """A procurement expanded, of VMs with 0-3 cards and 0-6 headroom
    cores each."""
    shapes = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)),
                      min_size=1, max_size=max_vms)
    return shapes.map(lambda shapes: ProcurementPlan.of([
        VmType(f"v{i}", max(cards + spare, 1), cards, 1.0)
        for i, (cards, spare) in enumerate(shapes)]).expand())


@st.composite
def profiles(draw, fl, zeros=True):
    """Weights and payloads for ``fl``; with ``zeros``, a coarse grid that
    holds 0, so ranks tie along edges, else a fine one where ties are
    rare. The network is drawn with it, latency 0 allowed."""
    if zeros:
        weight, size = st.integers(0, 8).map(lambda w: w / 8), st.sampled_from(
            [0.0, 1e5, 5e5])
    else:
        weight = st.integers(1, 10 ** 6).map(lambda w: w / 1e5)
        size = st.integers(0, 10 ** 6).map(float)
    profile = TaskProfile({v.id: draw(weight) for v in fl.vertices},
                          {e: draw(size) for e in fl.edges})
    net = NetParams(draw(st.sampled_from([0.0, 0.05])),
                    draw(st.sampled_from([1e7, 1e9])))
    return profile, net


class TestGreedyPartition:
    @slow(300)
    @given(unit_dags(), vm_lists(), st.data())
    def test_equals_the_list_loop_where_no_ranks_tie(self, fl, vms, data):
        profile, net = data.draw(profiles(fl, zeros=False))
        ranks = _upward_ranks(fl, profile, net)
        assume(len(set(ranks.values())) == len(ranks))
        assert (outcome(greedy_partition, fl, profile, vms, net)
                == outcome(reference_list_partition, fl, profile, vms, net))

    @slow(300)
    @given(unit_dags(), vm_lists(), st.data())
    def test_qualifies_exactly_when_the_list_covers_the_demand(self, fl, vms,
                                                               data):
        profile, net = data.draw(profiles(fl))
        demand = need(fl)
        covers = (sum(vm.gpu_cards for vm in vms) >= demand.gpus
                  and sum(vm.cpu_headroom for vm in vms) >= demand.cpus)
        kind, assignment = outcome(greedy_partition, fl, profile, vms, net)
        assert (kind == "ok") == covers
        if covers:
            plan = SchedulePlan(ProcurementPlan.of(vms), assignment, 0.5)
            assert check_qualification(plan, fl).ok

    @pytest.mark.parametrize("shape", EXPERIMENT_SHAPES,
                             ids=lambda shape: "%dm%do" % shape)
    @pytest.mark.parametrize("catalog", [bundled_qcloud_catalog,
                                         bundled_g4dn_catalog])
    def test_experiment_shapes_equal_the_list_loop(self, shape, catalog):
        # These shapes have no rank tie, so list plans kept their bytes.
        fl, profile = synthetic_flowline(*shape)
        ranks = _upward_ranks(fl, profile, NET)
        assert len(set(ranks.values())) == len(ranks)
        types = sorted(catalog(), key=lambda v: v.name)
        for a, b in product(types, repeat=2):
            for copies in (1, 2, 3):
                vms = ProcurementPlan.of([a] * copies + [b]).expand()
                assert (outcome(greedy_partition, fl, profile, vms, NET)
                        == outcome(reference_list_partition, fl, profile,
                                   vms, NET))


class TestPlaceMany:
    @slow(300)
    @given(unit_dags(), fuzz_catalogs(), st.data())
    def test_rows_are_the_makespan_of_greedy_partition(self, fl, catalog,
                                                       data):
        profile, net = data.draw(profiles(fl))
        lists = data.draw(st.lists(st.lists(st.sampled_from(catalog),
                                            min_size=1, max_size=6),
                                   min_size=1, max_size=8))
        lists = [ProcurementPlan.of(vms).expand() for vms in lists]
        width = max(map(len, lists))
        room = np.array([[(vm.gpu_cards, vm.cpu_headroom) for vm in vms]
                         + [(0, 0)] * (width - len(vms)) for vms in lists])
        rows = _place_many(fl, profile, room, net).tolist()
        for vms, row in zip(lists, rows):
            kind, assignment = outcome(greedy_partition, fl, profile, vms, net)
            if kind == "error":
                assert row == math.inf
            else:  # bit for bit
                assert row == makespan(fl, profile, apply_partition(
                    fl, profile, assignment, net))

    def test_room_is_not_changed(self):
        fl, profile = synthetic_flowline(3, 11)
        room = np.array([[(1, 3), (1, 7), (0, 0)], [(4, 44), (1, 3), (1, 3)]])
        before = room.copy()
        _place_many(fl, profile, room, NET)
        assert (room == before).all()


class TestSynthesizeObservations:
    def test_nine_task_fixture_matches_the_oracle(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        catalog = bundled_qcloud_catalog()
        assert (synthesize_observations(fl, profile, catalog, NET)
                == oracle_observations(fl, profile, catalog, NET))

    @pytest.mark.parametrize("shape", EXPERIMENT_SHAPES,
                             ids=lambda shape: "%dm%do" % shape)
    @pytest.mark.parametrize("catalog", [bundled_qcloud_catalog,
                                         bundled_g4dn_catalog])
    def test_experiment_shapes_match_the_oracle(self, shape, catalog):
        fl, profile = synthetic_flowline(*shape)
        assert (synthesize_observations(fl, profile, catalog(), NET)
                == oracle_observations(fl, profile, catalog(), NET))

    def test_no_placement_is_timed_again(self, monkeypatch):
        # The columnar pass's exit finishes are the makespans.
        def unused(*args):
            raise AssertionError("synthesis timed a placement again")

        for name in ("makespan", "apply_partition"):
            monkeypatch.setattr(scheduler, name, unused)
        fl, profile = synthetic_flowline(6, 29)
        assert synthesize_observations(fl, profile, bundled_qcloud_catalog(),
                                       NET)

    @slow(80)
    @given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 99),
           fuzz_catalogs())
    def test_synthetic_shapes_on_random_catalogs(self, models, extra, seed,
                                                 catalog):
        fl, profile = synthetic_flowline(models, models + extra, seed)
        assert (synthesize_observations(fl, profile, catalog, NET)
                == oracle_observations(fl, profile, catalog, NET))

    @slow(80)
    @given(unit_dags(), fuzz_catalogs(max_types=4), st.data())
    def test_random_dags_on_random_catalogs(self, fl, catalog, data):
        # Few distinct prices, so observations collide on their keys.
        catalog = [VmType(vm.name, vm.cpu_cores, vm.gpu_cards,
                          data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
                   for vm in catalog]
        profile, net = data.draw(profiles(fl))
        assert (synthesize_observations(fl, profile, catalog, net)
                == oracle_observations(fl, profile, catalog, net))
