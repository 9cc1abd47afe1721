"""Simulator tests: analytic agreement, determinism, causality, baselines."""

import functools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from kgflow.costmodel import (
    CostModelError,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
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
)
from kgflow.scheduler import (
    MakespanPriceFit,
    SchedulePlan,
    _plan_from_instances,
    check_qualification,
    evaluate_plan,
    schedule,
)
from kgflow.sim import (
    SimConfig,
    SweepConfig,
    _upward_ranks,
    baseline_list,
    baseline_random,
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
    model,
    nine_task_flowline,
    nine_task_profile,
    op,
    qcloud_vms,
)


def single_task_plan(weight=4.65, vm_names=("5XLARGE80", "2XLARGE40")):
    fl = Flowline.build([op("w")], [])
    profile = TaskProfile({"w": weight})
    vms = tuple(qcloud_vms(*vm_names))
    plan = SchedulePlan(_plan_from_instances(vms), vms, {"w": 0}, 0.5, NET)
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
        plan = schedule(nine_task_flowline(), nine_task_profile(),
                        bundled_qcloud_catalog(), 0.5, NET, fit=PAPER_CURVE)
        config = SimConfig(latency_s=NET.latency_s,
                           bandwidth_Bps=NET.bandwidth_Bps,
                           slice_size=200, corpus_size=2000)
        result = simulate(plan, nine_task_flowline(), nine_task_profile(),
                          config)
        # Constant modulo float accumulation in absolute event times.
        assert len({round(m, 9) for m in result.per_slice_makespan}) == 1

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

    def test_single_type_catalog_colocates_when_possible(self):
        fl = Flowline.build([model("m"), op("o", "integrate")], [("m", "o")])
        catalog = qcloud_vms("20XLARGE320")
        plan = baseline_random(fl, catalog, seed=1)
        # Either one or more instances, but every task must land somewhere.
        assert set(plan.assignment) == {"m", "o"}


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
        total = simulate(plan, fl, profile, config).total_time
        analytic = evaluate_plan(plan, fl, profile, corpus, slice_size, 0.5,
                                 NET)["cost_com_s"]
        assert math.isclose(total, analytic, rel_tol=1e-12, abs_tol=0.0)

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
