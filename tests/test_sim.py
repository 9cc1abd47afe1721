"""Simulator tests: analytic agreement, determinism, causality, baselines.

``reference_simulate`` is the simulator as it was before it timed every
slice at once: a dict recurrence per slice, each slice admitted at the
previous one's exit (or, overlapping, each task after its own previous
slice). The columnar ``simulate`` must agree with it event by event.
``reference_baseline_random`` is the random baseline as it was before its
assignment stopped calling the ``Ledger`` per task and its draws were read
off ``getrandbits``; every plan it returns must come out byte for byte the
same, from ``baseline_random`` and, seed by seed, ``baseline_random_many``.
"""

import functools
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgflow.costmodel import (
    CostModelError,
    ProcurementPlan,
    VmType,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    catalog_types,
    procure,
)
from kgflow.flowline import (
    Flowline,
    FlowlineError,
    NetParams,
    TaskNode,
    TaskProfile,
    apply_partition,
    makespan,
    n_slices,
    natural_key,
)
from kgflow.scheduler import (
    Ledger,
    MakespanPriceFit,
    SchedulePlan,
    SchedulingError,
    _rank_order,
    _upward_ranks,
    check_qualification,
    evaluate_plan,
    need,
    plan_to_json,
    schedule,
)
import kgflow
from kgflow import scheduler, sim
from kgflow.sim import (
    SimConfig,
    SweepConfig,
    baseline_list,
    baseline_random,
    baseline_random_many,
    simulate,
    sweep_eta,
    sweep_to_csv,
    timeline_to_chrome_trace,
)
from kgflow.synth import EXPERIMENT_SHAPES, synthetic_flowline

from test_flowline import random_dag
from test_scheduler import (  # fixtures shared with the scheduler suite
    NET,
    PAPER_CURVE,
    fuzz_catalogs,
    model,
    nine_task_flowline,
    nine_task_profile,
    op,
    qcloud_vms,
    unit_dags,
)


def single_task_plan(weight=4.65, vm_names=("5XLARGE80", "2XLARGE40")):
    fl = Flowline.build([op("w")], [])
    profile = TaskProfile({"w": weight})
    vms = tuple(qcloud_vms(*vm_names))
    plan = SchedulePlan(ProcurementPlan.of(vms), {"w": 0}, 0.5, NET)
    return plan, fl, profile


class TestSimulate:
    def test_forty_slices_closed_form(self):
        plan, fl, profile = single_task_plan(weight=4.65)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=200, corpus_size=8000)
        result = simulate(plan, fl, profile, config)
        assert result.total_time == pytest.approx(186.0, rel=1e-12)
        assert len(result.per_slice_makespan) == 40

    def test_cost_accounting_single_window(self):
        plan, fl, profile = single_task_plan(weight=5.10)
        config = SimConfig(slice_size=200, corpus_size=200)
        result = simulate(plan, fl, profile, config)
        assert result.monetary_cost == pytest.approx(0.0509, abs=5e-5)
        assert round(result.monetary_cost, 2) == 0.05
        plan465, fl465, profile465 = single_task_plan(weight=4.65)
        result465 = simulate(plan465, fl465, profile465, config)
        assert result465.monetary_cost == pytest.approx(0.0464, abs=5e-5)
        assert round(result465.monetary_cost, 3) == 0.046

    def test_zero_jitter_constant_per_slice(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=200, corpus_size=2000)
        result = simulate(plan, fl, profile, config)
        # Each slice is timed relative to its own admission, so every one
        # is the analytic makespan exactly; only the total accumulates.
        per_slice = makespan(fl, profile, apply_partition(
            fl, profile, plan.assignment, NET))
        assert result.per_slice_makespan == (per_slice,) * 10
        assert result.total_time == pytest.approx(10 * per_slice, rel=1e-12)

    def test_matches_analytic_model(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=200, corpus_size=8000)
        result = simulate(plan, fl, profile, config)
        delay = apply_partition(fl, profile, plan.assignment, NET)
        per_slice = makespan(fl, profile, delay)
        expected = n_slices(8000, 200) * per_slice
        assert result.total_time == pytest.approx(expected, rel=1e-9)
        assert result.per_slice_makespan[0] == pytest.approx(per_slice,
                                                             rel=1e-12)

    def test_determinism_with_jitter(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=200, corpus_size=1000,
                           jitter=0.2, seed=7)
        a = simulate(plan, fl, profile, config)
        b = simulate(plan, fl, profile, config)
        assert a == b
        c = simulate(plan, fl, profile,
                     SimConfig(latency_s=NET.latency_s,
                               bandwidth_Bps=NET.bandwidth_Bps,
                               slice_size=200, corpus_size=1000,
                               jitter=0.2, seed=8))
        assert c.total_time != a.total_time

    def test_causality_and_monotone_starts(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=200, corpus_size=1000,
                           jitter=0.3, seed=3)
        result = simulate(plan, fl, profile, config)
        events = {(ev.task, ev.slice_index): ev for ev in result.timeline}
        for (task, s), ev in events.items():
            for pred in fl.predecessors[task]:
                pe = events[(pred, s)]
                delay = 0.0
                if plan.assignment[pred] != plan.assignment[task]:
                    delay = NET.transfer_time(profile.payload((pred, task)))
                assert ev.start >= pe.end + delay - 1e-12
            if s > 0:
                assert ev.start >= events[(task, s - 1)].start - 1e-12

    def test_overlap_mode_is_faster(self):
        fl, profile = nine_task_flowline(), nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        base = SimConfig(latency_s=NET.latency_s,
                         bandwidth_Bps=NET.bandwidth_Bps,
                         slice_size=200, corpus_size=2000)
        serial = simulate(plan, fl, profile, base)
        pipelined = simulate(plan, fl, profile,
                             SimConfig(latency_s=NET.latency_s,
                                       bandwidth_Bps=NET.bandwidth_Bps,
                                       slice_size=200, corpus_size=2000,
                                       overlap=True))
        assert pipelined.total_time < serial.total_time

    def test_chrome_trace_export(self):
        plan, fl, profile = single_task_plan()
        result = simulate(plan, fl, profile,
                          SimConfig(slice_size=200, corpus_size=400))
        trace = timeline_to_chrome_trace(result)
        assert len(trace) == 2
        assert all(ev["ph"] == "X" for ev in trace)


class TestSimConfig:
    def test_bad_bandwidth_is_rejected_by_the_net_check(self):
        with pytest.raises(FlowlineError, match="bandwidth_Bps"):
            SimConfig(bandwidth_Bps=0.0)
        with pytest.raises(FlowlineError, match="latency_s"):
            SimConfig(latency_s=-5.0)

    @pytest.mark.parametrize("call, error, field", [
        (lambda: SimConfig(jitter=math.nan), FlowlineError, "jitter"),
        (lambda: SimConfig(jitter=-0.1), FlowlineError, "jitter"),
        (lambda: SimConfig(jitter=math.inf), FlowlineError, "jitter"),
        (lambda: SimConfig(corpus_size=-1), FlowlineError, "corpus_size"),
        (lambda: SimConfig(corpus_size=math.inf), FlowlineError,
         "corpus_size"),
        (lambda: SimConfig(corpus_size=math.nan), FlowlineError,
         "corpus_size"),
        (lambda: SimConfig(slice_size=0), FlowlineError, "slice_size"),
        (lambda: SweepConfig(corpus_size=-1), FlowlineError, "corpus_size"),
        (lambda: SweepConfig(slice_size=-5), FlowlineError, "slice_size"),
        (lambda: SweepConfig(random_plans=0), FlowlineError, "random_plans"),
        (lambda: SweepConfig(random_plans=2.5), FlowlineError,
         "random_plans must be an integer >= 1: 2.5"),
        (lambda: SimConfig(jitter=0.1, seed=-1), FlowlineError,
         "seed must be an integer >= 0: -1"),
        (lambda: SimConfig(seed=1.5), FlowlineError,
         "seed must be an integer >= 0: 1.5"),
        (lambda: SimConfig(seed=True), FlowlineError,
         "seed must be an integer >= 0: True"),
        (lambda: SweepConfig(seed=-1), FlowlineError,
         "seed must be an integer >= 0: -1"),
        (lambda: SweepConfig(latency_s=math.nan), FlowlineError, "latency_s"),
        (lambda: sweep_eta(nine_task_flowline(), nine_task_profile(),
                           bundled_qcloud_catalog(), []),
         CostModelError, "eta"),
    ])
    def test_bad_run_input_raises_typed_error(self, call, error, field):
        with pytest.raises(error, match=field):
            call()

    def test_defaults_kept(self):
        assert (SimConfig().net, SimConfig().n_slices) == (NetParams(), 40)
        sweep = SweepConfig()
        assert sweep.net == NetParams(0.05, 1.0e7)
        assert (sweep.corpus_size, sweep.slice_size, sweep.random_plans,
                sweep.seed) == (8000, 200, 50, 0)
        assert SimConfig(seed=np.int64(3)).seed == 3


def reference_finish_times(order, preds, duration, delay, start=0.0,
                           after=None):
    """One slice's start and finish times, starting no earlier than
    ``start`` and each task no earlier than ``after[task]``."""
    st, ft = {}, {}
    for v in order:
        ready = start if after is None else max(start, after[v])
        for u in preds[v]:
            ready = max(ready, ft[u] + delay.get((u, v), 0.0))
        st[v] = ready
        ft[v] = ready + duration[v]
    return st, ft


def jitter_factors(config, tasks):
    """The (slices, tasks) duration factors ``simulate`` draws."""
    shape = (config.n_slices, tasks)
    if not config.jitter:
        return np.ones(shape)
    sigma = config.jitter
    return np.random.Generator(np.random.PCG64(config.seed)).lognormal(
        -0.5 * sigma * sigma, sigma, shape)


def reference_simulate(plan, fl, profile, config):
    """(total_time, per_slice_makespan, events) by one recurrence a slice."""
    order = fl.topological_order
    delay = apply_partition(fl, profile, plan.assignment, config.net)
    factors = jitter_factors(config, len(order))
    events, per_slice = [], []
    admitted = total = 0.0
    finish = None
    for s in range(config.n_slices):
        duration = {t: profile.weight(t) * factors[s, j]
                    for j, t in enumerate(order)}
        if config.overlap:
            start, finish = reference_finish_times(
                order, fl.predecessors, duration, delay, after=finish)
            admitted = min(start.values())
        else:
            start, finish = reference_finish_times(
                order, fl.predecessors, duration, delay, start=admitted)
        events += [(t, s, plan.assignment[t], start[t], finish[t])
                   for t in order]
        total = finish[fl.exit]
        per_slice.append(total - admitted)
        admitted = total
    return total, per_slice, events


@functools.lru_cache(maxsize=None)
def random_dag_plan(dag_seed, plan_seed):
    fl, profile = random_dag(random.Random(dag_seed))
    return fl, profile, baseline_random(fl, bundled_qcloud_catalog(),
                                        plan_seed, NET)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(dag_seed=st.integers(0, 2**32), plan_seed=st.integers(0, 1000),
           corpus=st.integers(0, 3000), slice_size=st.integers(10, 700),
           jitter=st.sampled_from([0.0, 0.3]), overlap=st.booleans(),
           latency=st.sampled_from([0.0, 0.125]))
    @example(dag_seed=0, plan_seed=0, corpus=0, slice_size=200, jitter=0.0,
             overlap=True, latency=0.125)
    def test_every_event_agrees(self, dag_seed, plan_seed, corpus,
                                slice_size, jitter, overlap, latency):
        fl, profile, plan = random_dag_plan(dag_seed, plan_seed)
        config = SimConfig(latency_s=latency, bandwidth_Bps=8000.0,
                           slice_size=slice_size, corpus_size=corpus,
                           jitter=jitter, overlap=overlap, seed=plan_seed)
        result = simulate(plan, fl, profile, config)
        total, per_slice, events = reference_simulate(plan, fl, profile,
                                                      config)
        tol = 1e-12 * total
        assert math.isclose(result.total_time, total, rel_tol=1e-12,
                            abs_tol=0.0)
        assert len(result.per_slice_makespan) == len(per_slice)
        for got, want in zip(result.per_slice_makespan, per_slice):
            assert abs(got - want) <= tol
        assert len(result.timeline) == len(events)
        for ev, (task, s, vm, start, end) in zip(result.timeline, events):
            assert (ev.task, ev.slice_index, ev.vm) == (task, s, vm)
            assert abs(ev.start - start) <= tol
            assert abs(ev.end - end) <= tol


class TestJitter:
    @pytest.mark.parametrize("jitter, seed", [(0.05, 0), (0.2, 1), (0.5, 2)])
    def test_factors_have_mean_one_and_std_jitter(self, jitter, seed):
        plan, fl, profile = single_task_plan(weight=2.0)
        config = SimConfig(slice_size=1, corpus_size=8000, jitter=jitter,
                           seed=seed)
        factors = np.array(simulate(plan, fl, profile,
                                    config).per_slice_makespan) / 2.0
        assert len(factors) == 8000
        assert abs(factors.mean() - 1.0) <= 0.01
        assert abs(factors.std() / jitter - 1.0) <= 0.1

    def test_stream_is_numpy_pcg64(self):
        plan, fl, profile = single_task_plan(weight=1.0)
        config = SimConfig(slice_size=1, corpus_size=50, jitter=0.1, seed=4)
        per_slice = simulate(plan, fl, profile, config).per_slice_makespan
        assert per_slice == tuple(jitter_factors(config, 1)[:, 0].tolist())


class TestTimeline:
    def result(self, corpus=600, **options):
        fl, profile = nine_task_flowline(), nine_task_profile()
        plan = schedule(fl, profile, bundled_qcloud_catalog(), 0.5, NET,
                        fit=PAPER_CURVE)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps, slice_size=200,
                           corpus_size=corpus, **options)
        return plan, fl, simulate(plan, fl, profile, config)

    def test_reads_slice_by_slice_in_topological_order(self):
        plan, fl, result = self.result()
        timeline = result.timeline
        order = fl.topological_order
        assert len(timeline) == 3 * len(order)
        events = list(timeline)
        assert [(ev.task, ev.slice_index) for ev in events] == [
            (t, s) for s in range(3) for t in order]
        assert all(ev.vm == plan.assignment[ev.task] for ev in events)
        assert [timeline[i] for i in range(len(timeline))] == events
        assert timeline[-1] == events[-1]
        assert timeline[2:5] == tuple(events[2:5])
        assert events[-1].end == result.total_time
        with pytest.raises(IndexError):
            timeline[len(timeline)]

    def test_columns_are_read_only(self):
        _, _, result = self.result()
        with pytest.raises(ValueError):
            result.timeline.start[0, 0] = 1.0

    def test_equality_follows_the_columns(self):
        _, _, a = self.result(jitter=0.2, seed=1)
        _, _, b = self.result(jitter=0.2, seed=1)
        _, _, c = self.result(jitter=0.2, seed=2)
        assert a.timeline == b.timeline and a == b
        assert a.timeline != c.timeline and a != c

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_empty_corpus(self, overlap, jitter):
        _, _, result = self.result(corpus=0, overlap=overlap, jitter=jitter)
        assert result.total_time == 0.0
        assert result.monetary_cost == 0.0
        assert result.per_slice_makespan == ()
        assert len(result.timeline) == 0 and list(result.timeline) == []
        assert timeline_to_chrome_trace(result) == []


def reference_chrome_trace(result):
    """The export as it was when it sorted the events themselves."""
    events = []
    for ev in sorted(result.timeline, key=lambda e: (e.start, natural_key(e.task),
                                                    e.slice_index)):
        events.append({
            "name": f"{ev.task}#{ev.slice_index}",
            "cat": "task",
            "ph": "X",
            "ts": ev.start * 1e6,
            "dur": (ev.end - ev.start) * 1e6,
            "pid": ev.vm,
            "tid": ev.task,
        })
    return events


class TestChromeTrace:
    def fan_out(self, **options):
        # a1/a01 tie on natural key and x2/x10 sort apart from their
        # topological order; on one VM all four start together.
        middle = ["a1", "a01", "x2", "x10"]
        fl = Flowline.build([op(t) for t in ["src", *middle, "sink"]],
                            [("src", t) for t in middle]
                            + [(t, "sink") for t in middle])
        profile = TaskProfile({v.id: 0.25 for v in fl.vertices})
        vms = (VmType("big", 16, 0, 1.0),)
        plan = SchedulePlan(ProcurementPlan.of(vms),
                            {v.id: 0 for v in fl.vertices}, 0.5, NET)
        config = SimConfig(slice_size=200, corpus_size=2000, **options)
        return simulate(plan, fl, profile, config)

    def nine_task(self, corpus=2000, **options):
        return TestTimeline().result(corpus=corpus, **options)[2]

    @pytest.mark.parametrize("run", [
        lambda self: self.fan_out(),
        lambda self: self.fan_out(jitter=0.3, seed=5),
        lambda self: self.nine_task(jitter=0.2, seed=3),
        lambda self: self.nine_task(overlap=True, jitter=0.2, seed=4),
        lambda self: self.nine_task(corpus=0),
    ], ids=["ties", "ties-jittered", "jittered", "overlap", "empty"])
    def test_matches_the_event_sort(self, run):
        result = run(self)
        trace = timeline_to_chrome_trace(result)
        assert trace == reference_chrome_trace(result)
        assert len(trace) == len(result.timeline)
        assert all(type(ev["ts"]) is float and type(ev["dur"]) is float
                   and type(ev["pid"]) is int for ev in trace)

    def test_ties_keep_timeline_order(self):
        trace = timeline_to_chrome_trace(self.fan_out())
        assert [ev["name"] for ev in trace[1:5]] == [
            "a01#0", "a1#0", "x2#0", "x10#0"]


class TestMemoryBudget:
    def test_huge_run_is_refused_before_allocating(self):
        plan, fl, profile = single_task_plan()
        config = SimConfig(corpus_size=1e15, slice_size=1e-3)
        assert config.n_slices == 10**18
        tracemalloc.start()
        try:
            with pytest.raises(FlowlineError,
                               match=r"corpus_size 1e\+15 at slice_size 0\.001 "
                                     r"is 10+ slices"):
                simulate(plan, fl, profile, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_is_the_limit(self, monkeypatch):
        plan, fl, profile = single_task_plan()
        config = SimConfig(corpus_size=1000, slice_size=10)
        needed = 100 * sim._EVENT_BYTES
        monkeypatch.setattr(sim, "_MAX_SIM_BYTES", needed)
        assert len(simulate(plan, fl, profile, config).timeline) == 100
        monkeypatch.setattr(sim, "_MAX_SIM_BYTES", needed - 1)
        with pytest.raises(FlowlineError, match="slice_size"):
            simulate(plan, fl, profile, config)


def reference_baseline_random(flowline, catalog, seed, net=None):
    """``baseline_random`` with a ``Ledger.fitting`` and a ``Ledger.take``
    call per task, raising where its draws run out."""
    types = catalog_types(catalog)
    rng = random.Random(seed)
    tasks = list(flowline.natural_order)
    demand = need(flowline)
    n_models, n_operators = demand.gpus, demand.cpus
    k_cap = max(2, n_models + 1, 1 + math.ceil(
        n_models / (max(vm.gpu_cards for vm in types) or 1)) + math.ceil(
        n_operators / (max(vm.cpu_headroom for vm in types) or 1)))
    for _ in range(10000):
        k = rng.randint(1, k_cap)
        drawn = [types[rng.randrange(len(types))] for _ in range(k)]
        if (sum(vm.gpu_cards for vm in drawn) >= n_models
                and sum(vm.cpu_headroom for vm in drawn) >= n_operators):
            break
    else:
        raise CostModelError("could not sample a feasible procurement; "
                             "catalog cannot host the flowline")
    procurement = ProcurementPlan.of(drawn)
    ledger = Ledger(procurement.expand())
    assignment = {}
    rng.shuffle(tasks)
    for task in tasks:
        unit = Ledger.CARD if task in flowline.models else Ledger.CORE
        options = ledger.fitting(unit)
        if not options:
            raise SchedulingError(f"random assignment stuck at {task!r}")
        pick = options[rng.randrange(len(options))]
        ledger.take(pick, unit)
        assignment[task] = pick
    return SchedulePlan(procurement, assignment, eta=0.5, net=net,
                        scheduler="random")


def hostable(flowline, catalog):
    demand = need(flowline)
    return ((not demand.gpus or any(vm.gpu_cards for vm in catalog))
            and (not demand.cpus or any(vm.cpu_headroom for vm in catalog)))


# 20 CPU-only types and one GPU type, which only some sampled plans hold.
CPU_TYPES = [VmType(f"cpu{i:02d}", 32, 0, round(0.10 + 0.01 * i, 2))
             for i in range(20)]
ONE_GPU = VmType("gpu1", 8, 1, 1.0)


# sha256 of the plan JSON of the two topped-up draws below, taken before
# the draws were read off getrandbits: the stream must not move.
TOP_UP_PLANS = {
    "gpu1": "3ef7443f7f82194b680ca074b5af2b4ec6cb35cf797c6e41d1a0cab0c514cc0f",
    "two-core":
        "03fbe50218c4312b7172963cd13fc248d75afb4acf90f883a749156dc8f207df",
}


class TestBaselineRandom:
    def test_seed_reproducibility(self):
        fl = nine_task_flowline()
        catalog = bundled_qcloud_catalog()
        a = baseline_random(fl, catalog, seed=5)
        b = baseline_random(fl, catalog, seed=5)
        assert a.assignment == b.assignment
        assert a.procurement.describe() == b.procurement.describe()

    def test_hundred_seeds_all_qualify(self):
        fl = nine_task_flowline()
        catalog = bundled_qcloud_catalog()
        for seed in range(100):
            plan = baseline_random(fl, catalog, seed)
            assert check_qualification(plan, fl).ok, seed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_types_sharing_a_name_are_refused(self, seed):
        # Once every sampled plan bought only the 16-core "a".
        fl, _ = synthetic_flowline(3, 6)
        catalog = [VmType("a", 4, 1, 2.0), VmType("a", 16, 2, 4.0)]
        with pytest.raises(CostModelError,
                           match="catalog lists VM type 'a' twice"):
            baseline_random(fl, catalog, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cores_can_bound_the_instance_count(self, seed):
        # 29 operators need 10 one-GPU, three-spare-core instances; once only
        # the 6 GPUs bounded the sample, so no draw could host the flowline.
        fl, _ = synthetic_flowline(6, 29)
        catalog = [vm for vm in bundled_g4dn_catalog()
                   if vm.name == "g4dn.xlarge"]
        plan = baseline_random(fl, catalog, seed)
        assert sum(n for _, n in plan.procurement.items) >= 10
        assert check_qualification(plan, fl).ok

    @settings(max_examples=150, deadline=None)
    @given(unit_dags(), fuzz_catalogs(), st.integers(0, 10_000))
    def test_plans_keep_their_bytes(self, fl, catalog, seed):
        try:
            expected = reference_baseline_random(fl, catalog, seed, NET)
        except CostModelError:  # no draw hosted it: the fallback's case
            return
        assert (plan_to_json(baseline_random(fl, catalog, seed, NET))
                == plan_to_json(expected))

    @settings(max_examples=120, deadline=None)
    @given(unit_dags(), fuzz_catalogs(),
           st.lists(st.integers(0, 30), min_size=1, max_size=10))
    def test_many_equals_the_reference_per_seed(self, fl, catalog, seeds):
        # Seeds from a short range, half of them repeated, so that plans
        # often buy the same multiset; each must get its own room lists.
        seeds += seeds[:len(seeds) // 2]
        if not hostable(fl, catalog):
            with pytest.raises(CostModelError,
                               match="no VM type supplies it"):
                baseline_random_many(fl, catalog, seeds, NET)
            return
        plans = baseline_random_many(fl, catalog, seeds, NET)
        assert len(plans) == len(seeds)
        for seed, plan in zip(seeds, plans):
            try:
                expected = reference_baseline_random(fl, catalog, seed, NET)
            except CostModelError:  # no draw hosted it: the top-up's case
                continue
            assert plan_to_json(plan) == plan_to_json(expected)

    def test_seeds_that_buy_one_multiset_keep_their_own_room(self):
        # Only g4dn.xlarge: 3 to 6 of them, and 3 drain every card.
        fl, _ = synthetic_flowline(3, 6)
        catalog = [vm for vm in bundled_g4dn_catalog()
                   if vm.name == "g4dn.xlarge"]
        seeds = list(range(20)) + [5, 0, 5]
        plans = baseline_random_many(fl, catalog, seeds, NET)
        assert len({plan.procurement for plan in plans}) <= 4
        for seed, plan in zip(seeds, plans):
            assert plan_to_json(plan) == plan_to_json(
                reference_baseline_random(fl, catalog, seed, NET))

    @pytest.mark.parametrize("shape", EXPERIMENT_SHAPES)
    @pytest.mark.parametrize("make_catalog", [bundled_qcloud_catalog,
                                              bundled_g4dn_catalog])
    def test_experiment_shapes_keep_their_bytes(self, shape, make_catalog):
        fl, _ = synthetic_flowline(*shape)
        for seed in range(50, 90):
            assert (plan_to_json(baseline_random(fl, make_catalog(), seed))
                    == plan_to_json(reference_baseline_random(
                        fl, make_catalog(), seed)))

    def test_hostable_catalog_beyond_the_draw_budget(self):
        # Hosting 6 models takes 6 gpu1 among the <= 8 instances of a draw
        # from 21 types: no draw does, and the last one is topped up.
        fl, _ = synthetic_flowline(6, 18)
        catalog = CPU_TYPES + [ONE_GPU]
        assert procure(catalog, 0.0, need(fl)).describe() == "gpu1 x6"
        with pytest.raises(CostModelError, match="could not sample"):
            reference_baseline_random(fl, catalog, 0)
        plan = baseline_random(fl, catalog, 0)
        assert check_qualification(plan, fl).ok
        assert dict(plan.procurement.items)[ONE_GPU] == 6
        assert (hashlib.sha256(plan_to_json(plan).encode()).hexdigest()
                == TOP_UP_PLANS["gpu1"])
        assert plan_to_json(plan) == plan_to_json(
            baseline_random(fl, catalog, 0))
        assert plan_to_json(plan) != plan_to_json(
            baseline_random(fl, catalog, 1))

    def test_top_up_adds_cores_after_cards(self):
        # The GPU type brings no spare core, so the top-up's cards leave
        # the cores short until the two-core types make them up.
        fl, _ = synthetic_flowline(6, 29)
        catalog = ([VmType(f"cpu{i:02d}", 2, 0, 0.5) for i in range(40)]
                   + [VmType("gpu0", 1, 1, 1.0)])
        with pytest.raises(CostModelError, match="could not sample"):
            reference_baseline_random(fl, catalog, 3)
        plan = baseline_random(fl, catalog, 3)
        assert check_qualification(plan, fl).ok
        assert (hashlib.sha256(plan_to_json(plan).encode()).hexdigest()
                == TOP_UP_PLANS["two-core"])

    def test_unhostable_catalog_raises_before_any_draw(self, monkeypatch):
        draws = 0

        class Counting(random.Random):
            def getrandbits(self, k):
                nonlocal draws
                draws += 1
                return super().getrandbits(k)

        fl, _ = synthetic_flowline(6, 18)
        monkeypatch.setattr(sim.random, "Random", Counting)
        with pytest.raises(CostModelError, match=re.escape(
                "demand ResourceDemand(gpus=6, cpus=18) infeasible with "
                "catalog ") + ".*no VM type supplies it"):
            baseline_random(fl, CPU_TYPES, 0)
        assert draws == 0
        baseline_random(fl, CPU_TYPES + [ONE_GPU], 0)
        assert draws > 10_000

    def test_sweep_on_a_catalog_beyond_the_draw_budget(self):
        # The baselines are planned; the warm-up's 5 instances cannot hold
        # 6 gpu1, so the curve fit is what fails (ROADMAP item 18).
        fl, profile = synthetic_flowline(6, 18)
        with pytest.raises(CostModelError, match="Pareto-frontier points"):
            sweep_eta(fl, profile, CPU_TYPES + [ONE_GPU], [0.5],
                      SweepConfig(random_plans=2))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 99),
           fuzz_catalogs(), st.integers(0, 10_000))
    def test_hostable_plans_unhostable_raises_the_demand_error(
            self, models, extra, shape_seed, catalog, seed):
        fl, _ = synthetic_flowline(models, models + extra, shape_seed)
        if not hostable(fl, catalog):
            with pytest.raises(CostModelError,
                               match="no VM type supplies it"):
                baseline_random(fl, catalog, seed)
            return
        plan = baseline_random(fl, catalog, seed)
        assert check_qualification(plan, fl).ok
        assert plan_to_json(plan) == plan_to_json(
            baseline_random(fl, catalog, seed))

    def test_single_type_catalog_colocates_when_possible(self):
        fl = Flowline.build([model("m"), op("o", "integrate")], [("m", "o")])
        catalog = qcloud_vms("20XLARGE320")
        plan = baseline_random(fl, catalog, seed=1)
        # Either one or more instances, but every task must land somewhere.
        assert set(plan.assignment) == {"m", "o"}


@pytest.mark.parametrize("catalog_name", ["qcloud", "g4dn"])
@pytest.mark.parametrize("shape", EXPERIMENT_SHAPES)
def test_baselines_build_qualified_plans(shape, catalog_name):
    # sweep_eta costs these plans without qualifying them again.
    fl, profile = synthetic_flowline(*shape)
    catalog = {"qcloud": bundled_qcloud_catalog,
               "g4dn": bundled_g4dn_catalog}[catalog_name]()
    plans = [baseline_list(fl, profile, catalog, NET)]
    plans += [baseline_random(fl, catalog, seed, NET) for seed in range(50)]
    for plan in plans:
        assert check_qualification(plan, fl).ok, (plan.scheduler, plan.assignment)


def enumerate_paths_rank(fl, profile, net, task):
    """Oracle: the heaviest task -> exit path, every edge paying its
    transfer time."""
    tail = max((net.transfer_time(profile.payload((task, s)))
                + enumerate_paths_rank(fl, profile, net, s)
                for s in fl.successors[task]), default=0.0)
    return profile.weight(task) + tail


class TestBaselineList:
    def test_upward_ranks_match_path_enumeration(self):
        rng = random.Random(11)
        net = NetParams(0.125, 8000.0)
        for _ in range(40):
            fl, profile = random_dag(rng, max_vertices=9)
            assert _upward_ranks(fl, profile, net) == {
                v.id: enumerate_paths_rank(fl, profile, net, v.id)
                for v in fl.vertices}

    def test_chain_stays_on_one_vm(self):
        fl = Flowline.build(
            [model("m"), op("o1", "filter"), op("o2", "integrate")],
            [("m", "o1"), ("o1", "o2")])
        profile = TaskProfile({"m": 1.0, "o1": 0.1, "o2": 0.1},
                              {e: 1e5 for e in fl.edges})
        plan = baseline_list(fl, profile, bundled_qcloud_catalog(), NET)
        assert len(set(plan.assignment.values())) == 1

    def test_parallel_gpu_branches_split(self):
        fl = Flowline.build(
            [op("s", "data"), model("a"), model("b"), op("t", "integrate")],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        profile = TaskProfile({"s": 0.0, "a": 1.0, "b": 1.0, "t": 0.05},
                              {e: 1e4 for e in fl.edges})
        catalog = qcloud_vms("2XLARGE40")
        plan = baseline_list(fl, profile, catalog, NET)
        assert plan.assignment["a"] != plan.assignment["b"]

    def test_models_only(self):
        fl = Flowline.build([model("a"), model("b", "BERTRE", "model-CC")],
                            [("a", "b")])
        profile = TaskProfile({"a": 1.0, "b": 1.0}, {("a", "b"): 1e5})
        plan = baseline_list(fl, profile, bundled_qcloud_catalog(), NET)
        assert check_qualification(plan, fl).ok

    def test_rank_ties_go_in_topological_order(self):
        # a ties b's rank and sorts first by id, but b is a's precursor, so
        # b is placed first.
        fl = Flowline.build([model("m0"), op("b", "filter"), op("a", "merge")],
                            [("m0", "b"), ("b", "a")])
        profile = TaskProfile({"m0": 1.0, "b": 0.0, "a": 0.0})
        net = NetParams(0.0, 1e9)
        ranks = _upward_ranks(fl, profile, net)
        assert ranks["a"] == ranks["b"]
        assert _rank_order(fl, profile, net) == ["m0", "b", "a"]
        plan = baseline_list(fl, profile, bundled_qcloud_catalog(), net)
        assert check_qualification(plan, fl).ok


def outcome(call):
    """What ``call`` returns, or the type and message of the typed error
    it raises."""
    try:
        return call()
    except (CostModelError, SchedulingError) as exc:
        return type(exc).__name__, str(exc)


class TestIdenticalInputs:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(EXPERIMENT_SHAPES), st.sampled_from(["qcloud", "g4dn"]),
           st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2 ** 16))
    def test_equal_inputs_give_equal_outputs(self, shape, catalog_name, eta,
                                             seed):
        def run():  # every input built afresh
            fl, profile = synthetic_flowline(*shape)
            catalog = {"qcloud": bundled_qcloud_catalog,
                       "g4dn": bundled_g4dn_catalog}[catalog_name]()
            net = NetParams(latency_s=0.05, bandwidth_Bps=1.0e7)
            plan = outcome(lambda: plan_to_json(
                schedule(fl, profile, catalog, eta, net)))
            table = outcome(lambda: sweep_to_csv(sweep_eta(
                fl, profile, catalog, [eta],
                SweepConfig(random_plans=3, seed=seed))))
            config = SimConfig(latency_s=0.05, bandwidth_Bps=1.0e7,
                               corpus_size=4000, jitter=0.2, seed=seed)
            result = simulate(baseline_list(fl, profile, catalog, net), fl,
                              profile, config)
            return plan, table, result

        assert run() == run()


class TestSweep:
    def test_three_etas_nine_rows(self):
        fl, profile = synthetic_flowline(3, 6, seed=1)
        rows = sweep_eta(fl, profile, bundled_qcloud_catalog(),
                         [0.2, 0.5, 0.8],
                         SweepConfig(random_plans=12, corpus_size=2000))
        assert len(rows) == 9
        assert {r.scheduler for r in rows} == {"compound-greedy", "list",
                                               "random"}

    def test_singleton_eta_three_rows(self):
        fl, profile = synthetic_flowline(3, 6, seed=1)
        rows = sweep_eta(fl, profile, bundled_qcloud_catalog(), [0.5],
                         SweepConfig(random_plans=8, corpus_size=2000))
        assert len(rows) == 3

    def test_heuristic_beats_random_median(self):
        fl, profile = synthetic_flowline(3, 6, seed=1)
        rows = sweep_eta(fl, profile, bundled_qcloud_catalog(),
                         [0.2, 0.5, 0.8],
                         SweepConfig(random_plans=20, corpus_size=2000))
        by_cell = {}
        for r in rows:
            by_cell.setdefault(r.eta, {})[r.scheduler] = r
        for eta, cell in by_cell.items():
            assert cell["compound-greedy"].J <= cell["random"].J, eta

    def test_cpu_only_flowline_converges(self):
        ops = [op(f"o{i}", "integrate") for i in range(4)]
        fl = Flowline.build(ops, [(f"o{i}", f"o{i+1}") for i in range(3)])
        profile = TaskProfile({v.id: 0.05 for v in fl.vertices},
                              {e: 1e4 for e in fl.edges})
        rows = sweep_eta(fl, profile, bundled_qcloud_catalog(), [0.5],
                         SweepConfig(random_plans=6, corpus_size=1000))
        makespans = {round(r.makespan_s, 9) for r in rows}
        assert len(makespans) == 1

    @pytest.mark.parametrize("corpus", [0, 150, 2100])
    def test_makespan_column_does_not_depend_on_corpus(self, corpus):
        fl, profile = synthetic_flowline(3, 6, seed=1)
        catalog = bundled_qcloud_catalog()
        rows = sweep_eta(fl, profile, catalog, [0.5],
                         SweepConfig(random_plans=4, corpus_size=corpus))
        list_plan = baseline_list(fl, profile, catalog,
                                  SweepConfig().net)
        delay = apply_partition(fl, profile, list_plan.assignment,
                                SweepConfig().net)
        per_slice = makespan(fl, profile, delay)
        (row,) = [r for r in rows if r.scheduler == "list"]
        assert row.makespan_s == per_slice
        assert row.cost_com_s == n_slices(corpus, 200) * per_slice

    def test_bad_eta_is_refused_before_any_warm_up(self, monkeypatch):
        calls = 0

        def counting_random(*args):
            nonlocal calls
            calls += 1
            return baseline_random_many(*args)

        monkeypatch.setattr(sim, "baseline_random_many", counting_random)
        fl, profile = synthetic_flowline(3, 11)
        with pytest.raises(CostModelError, match="eta out of range"):
            sweep_eta(fl, profile, bundled_g4dn_catalog(),
                      (0.5, float("nan")))
        assert calls == 0

    @pytest.mark.parametrize("shape, catalog_name, placements",
                             [((6, 29), "qcloud", 1), ((3, 11), "g4dn", 1)])
    def test_places_each_distinct_procurement_once(
            self, monkeypatch, shape, catalog_name, placements):
        # ... and synthesizes the warm-up once, in schedule_many.
        calls = {"greedy_partition": 0, "synthesize_observations": 0}

        def counting(name):
            original = getattr(scheduler, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(scheduler, name, counting(name))
        fl, profile = synthetic_flowline(*shape)
        catalog = {"qcloud": bundled_qcloud_catalog,
                   "g4dn": bundled_g4dn_catalog}[catalog_name]()
        csv = sweep_to_csv(sweep_eta(fl, profile, catalog,
                                     (0.1, 0.3, 0.5, 0.7, 0.9)))
        assert calls == {"greedy_partition": placements,
                         "synthesize_observations": 1}
        assert (hashlib.sha256(csv.encode()).hexdigest()
                == PINNED[shape, catalog_name][0])

    def test_a_procurement_bought_again_after_another(self, monkeypatch):
        # 0.1 and 0.3 buy four g4dn.xlarge, 0.9 g4dn.2xlarge + 3 xlarge.
        fl, profile = synthetic_flowline(4, 8)
        catalog = bundled_g4dn_catalog()
        config = SweepConfig(random_plans=6)
        alone = [sweep_eta(fl, profile, catalog, [eta], config)
                 for eta in (0.1, 0.9, 0.3)]
        calls = []
        original = scheduler.greedy_partition

        def counting_partition(flowline, profile, vms, net):
            calls.append(ProcurementPlan.of(vms).describe())
            return original(flowline, profile, vms, net)

        monkeypatch.setattr(scheduler, "greedy_partition", counting_partition)
        rows = sweep_eta(fl, profile, catalog, (0.1, 0.9, 0.3), config)
        assert calls == ["g4dn.xlarge x4",
                         "g4dn.2xlarge x1 + g4dn.xlarge x3"]
        assert rows == [row for cell in alone for row in cell]

    def test_csv_shape(self):
        fl, profile = synthetic_flowline(3, 6, seed=1)
        rows = sweep_eta(fl, profile, bundled_qcloud_catalog(), [0.5],
                         SweepConfig(random_plans=4, corpus_size=1000))
        csv = sweep_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("eta,")
        assert len(lines) == 4


@functools.lru_cache(maxsize=None)
def agreement_case(shape, catalog_name, scheduler):
    fl, profile = synthetic_flowline(*shape)
    catalog = {"qcloud": bundled_qcloud_catalog,
               "g4dn": bundled_g4dn_catalog}[catalog_name]()
    if scheduler == "list":
        plan = baseline_list(fl, profile, catalog, NET)
    else:
        plan = baseline_random(fl, catalog, 0, NET)
    return fl, profile, plan


class TestSimulatorAgreementSuite:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(EXPERIMENT_SHAPES),
           catalog_name=st.sampled_from(["qcloud", "g4dn"]),
           scheduler=st.sampled_from(["list", "random"]),
           corpus=st.integers(0, 5000), slice_size=st.integers(10, 700))
    @example(shape=(3, 6), catalog_name="qcloud", scheduler="list",
             corpus=150, slice_size=200)  # below one slice
    @example(shape=(6, 29), catalog_name="g4dn", scheduler="random",
             corpus=8100, slice_size=200)
    @example(shape=(4, 8), catalog_name="qcloud", scheduler="list",
             corpus=0, slice_size=200)
    def test_zero_jitter_equals_analytic_cost(self, shape, catalog_name,
                                              scheduler, corpus, slice_size):
        fl, profile, plan = agreement_case(shape, catalog_name, scheduler)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=slice_size, corpus_size=corpus)
        result = simulate(plan, fl, profile, config)
        analytic = evaluate_plan(plan, fl, profile, corpus, slice_size, 0.5,
                                 NET)
        assert math.isclose(result.total_time, analytic["cost_com_s"],
                            rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(result.monetary_cost, analytic["cost_mon"],
                            rel_tol=1e-12, abs_tol=0.0)

    def test_ten_plans_match_analytic(self):
        catalog = bundled_qcloud_catalog()
        fixtures = []
        for shape_seed, (m, o) in enumerate([(3, 6), (3, 11), (4, 8)]):
            fl, profile = synthetic_flowline(m, o, seed=shape_seed)
            fixtures.append((fl, profile,
                             schedule(fl, profile, catalog, 0.5, NET,
                                      fit=PAPER_CURVE)))
            fixtures.append((fl, profile, baseline_list(fl, profile, catalog,
                                                        NET)))
            for seed in range(2):
                fixtures.append((fl, profile,
                                 baseline_random(fl, catalog, seed, NET)))
        assert len(fixtures) >= 10
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=200, corpus_size=2000)
        for fl, profile, plan in fixtures:
            result = simulate(plan, fl, profile, config)
            delay = apply_partition(fl, profile, plan.assignment, NET)
            expected = n_slices(2000, 200) * makespan(fl, profile, delay)
            assert result.total_time == pytest.approx(expected, rel=1e-9)


# sha256 of each sweep pair's outputs: the sweep CSV, taken when schedule's
# placement became earliest-finish-time, and 50 random plans' JSON, which
# that change left byte-identical.
PINNED = {
    ((6, 29), "qcloud"): (
        "a91e4d3983262c5941669a6f49838f2fd6f196c5baa88854e0ff642536dcac5a",
        "b2f31fbb259fabec58f6543250c430c56f71361e4ee705f2975099aa0d9c15fb"),
    ((3, 11), "g4dn"): (
        "92be66bfe291fa10e0b8c39e564519db96a3b4f367a9898135778ad95111c96b",
        "b3d3f437bd30d0e178b291f4dd45f8a772a18709496222d50e0052f262a4fb61"),
}


@pytest.mark.parametrize("shape, catalog_name", sorted(PINNED))
class TestPinnedOutputs:
    def case(self, shape, catalog_name):
        fl, profile = synthetic_flowline(*shape)
        catalog = {"qcloud": bundled_qcloud_catalog,
                   "g4dn": bundled_g4dn_catalog}[catalog_name]()
        return fl, profile, catalog

    def test_sweep_csv(self, shape, catalog_name):
        fl, profile, catalog = self.case(shape, catalog_name)
        csv = sweep_to_csv(sweep_eta(fl, profile, catalog,
                                     (0.1, 0.3, 0.5, 0.7, 0.9)))
        assert (hashlib.sha256(csv.encode()).hexdigest()
                == PINNED[shape, catalog_name][0])

    def test_random_plans_json(self, shape, catalog_name):
        fl, _, catalog = self.case(shape, catalog_name)
        text = "".join(plan_to_json(baseline_random(fl, catalog, seed))
                       for seed in range(50))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == PINNED[shape, catalog_name][1])


# sha256 of each sweep pair's eta-0.5 plan simulated in each mode over
# corpora of 0, 200 and 80000 rows (total time, per-slice makespans, cost
# and the timeline's start and end bytes), taken before the simulator timed
# its slices in one start/finish array pair and re-taken when schedule's
# placement became earliest-finish-time: a faster simulator must leave them
# byte-identical.
SIM_MODES = {"zero-jitter": {}, "jitter-0.1": {"jitter": 0.1},
             "overlap": {"overlap": True},
             "overlap-jitter-0.3": {"overlap": True, "jitter": 0.3}}
PINNED_SIM = {
    ((3, 11), "g4dn"): {
        "jitter-0.1":
            "df6c3701c501d5ab77aa1adecad0a37e2ee0e9568a4405457947d3028042e272",
        "overlap":
            "40ba3c1495b33b57afcf30715ce46a8933ee1b1572ba3f68d15f9b1b542696e7",
        "overlap-jitter-0.3":
            "76b06b4cb1a02c6999b6b06cf003b867381fc7a1033b6c3aeb18063b64020182",
        "zero-jitter":
            "a7541de1a18a9814eac9451a908c0a5b858c86101bf6bbab032f78c794163885",
    },
    ((6, 29), "qcloud"): {
        "jitter-0.1":
            "2ea6ad81192bc7941be19692085125c37a354bcd370a77775627cfccddfb36c6",
        "overlap":
            "ded383659e3c77dc8751bf74d38a525d9a4f4017d557ed4b4ce45b19dd672813",
        "overlap-jitter-0.3":
            "c99365dd17ed20cd343aaafea481445a37abc787f92f64d705430cdede101332",
        "zero-jitter":
            "07988fe72bc6ee983a6fcdc09c211b80e06285fa24c57c2dab0445c943bec4f3",
    },
}


@functools.lru_cache(maxsize=None)
def sweep_pair_plan(shape, catalog_name):
    fl, profile = synthetic_flowline(*shape)
    catalog = {"qcloud": bundled_qcloud_catalog,
               "g4dn": bundled_g4dn_catalog}[catalog_name]()
    return fl, profile, schedule(fl, profile, catalog, 0.5, NET)


def simulate_digest(shape, catalog_name, mode):
    fl, profile, plan = sweep_pair_plan(shape, catalog_name)
    digest = hashlib.sha256()
    for corpus in (0, 200, 80_000):
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           corpus_size=corpus, seed=7, **SIM_MODES[mode])
        result = simulate(plan, fl, profile, config)
        digest.update(repr((result.total_time, result.per_slice_makespan,
                            result.monetary_cost)).encode())
        digest.update(result.timeline.start.tobytes())
        digest.update(result.timeline.end.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mode", sorted(SIM_MODES))
@pytest.mark.parametrize("shape, catalog_name", sorted(PINNED))
def test_pinned_simulate(shape, catalog_name, mode):
    assert (simulate_digest(shape, catalog_name, mode)
            == PINNED_SIM[shape, catalog_name][mode])


# Prints the sha256 of schedule's plan JSON, the sweep CSV and a jittered
# simulate of the list plan, per sweep shape and bundled catalog.
DIGEST_SCRIPT = """
import hashlib
from kgflow.costmodel import bundled_g4dn_catalog, bundled_qcloud_catalog
from kgflow.flowline import NetParams
from kgflow.scheduler import plan_to_json, schedule
from kgflow.sim import (SimConfig, baseline_list, simulate, sweep_eta,
                        sweep_to_csv)
from kgflow.synth import synthetic_flowline

net = NetParams(0.05, 1e7)
config = SimConfig(latency_s=0.05, bandwidth_Bps=1e7, jitter=0.1, seed=7)
for shape in ((3, 11), (6, 29)):
    for catalog in (bundled_qcloud_catalog(), bundled_g4dn_catalog()):
        fl, profile = synthetic_flowline(*shape)
        run = simulate(baseline_list(fl, profile, catalog, net), fl, profile,
                       config)
        outputs = [
            plan_to_json(schedule(fl, profile, catalog, 0.5, net)).encode(),
            sweep_to_csv(sweep_eta(fl, profile, catalog,
                                   (0.1, 0.3, 0.5, 0.7, 0.9))).encode(),
            repr((run.total_time, run.per_slice_makespan,
                  run.monetary_cost)).encode() + run.timeline.start.tobytes()
            + run.timeline.end.tobytes()]
        print(shape, catalog[0].currency,
              *(hashlib.sha256(out).hexdigest() for out in outputs))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    # Set and dict orders of strings follow the hash seed, which is fixed
    # for a process, so only two processes can show an output that
    # depends on it.
    src = Path(kgflow.__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        outputs.append(subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
