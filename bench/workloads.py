"""The benchmark's workloads: inputs made from a seed, timed calls, checks.

Each workload is a list of cells. One pass runs every cell once; a cell's
``run`` is the timed call into kgflow and its ``check`` inspects the output
afterwards, raising ``CheckFailed`` or returning a digest of the output that
must be the same on every pass. Every kgflow function is reached through its
module attribute, so that a tracer can swap it.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable

from kgflow import costmodel, flowline, gfl, scheduler, sim, synth
from kgflow.costmodel import MakespanPriceFit
from kgflow.flowline import NetParams, TaskProfile

# Bound before any tracer is installed, so checks are never traced.
_check_qualification = scheduler.check_qualification
_evaluate_plan = scheduler.evaluate_plan

NET = NetParams(0.05, 1.0e7)
CATALOGS = {"qcloud": costmodel.bundled_qcloud_catalog,
            "g4dn": costmodel.bundled_g4dn_catalog}
GRID_ETAS = (0.1, 0.5, 0.9)
SWEEP_ETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
PAIRS = (((6, 29), "qcloud"), ((3, 11), "g4dn"))
MEASURED_X0 = (("g4dn", (2, 5, 8, 10)), ("qcloud", (50, 100, 200, 300, 400)))
MEASURED_ETA = 0.5
SIM_CORPUS = 80_000
SIM_MODES = (("zero-jitter", {}), ("jitter-0.1", {"jitter": 0.1}),
             ("overlap", {"overlap": True}))
# Relative noise applied to the synthetic shapes' task weights and payloads,
# as a re-profiling run would give; the seed draws it.
PROFILE_NOISE = 0.01

# The paper's running two-branch NER/RE pipeline.
PIPELINE_GFL = """\
filtered_ent := []
:data
    | model.BertNER -> ent, ent_t
        | opt.filter[f_bert](ent_t in filtered_ent)
            | opt.permutate[p1] -> ent_p, ent_t_p
                | model.BERTRE -> rel, ent_p, ent_t_p
        | opt.filter[f_lstm](ent_t not in filtered_ent)
            | opt.permutate[p2] -> ent_p, ent_t_p
                | model.LSTMRE -> rel, ent_p, ent_t_p
    | model.BERTRE
        | opt.merge[re]
    | model.LSTMRE
        | opt.merge[re]
            | opt.triple:
"""
# Its seconds per slice; operators take 0.03 s and every edge carries 500 kB.
PIPELINE_MODEL_S = {"BertNER": 1.0, "BERTRE": 0.8, "LSTMRE": 0.9}


class CheckFailed(Exception):
    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


@dataclass
class Cell:
    labels: dict[str, Any]
    run: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    cells: list[Cell]
    # greedy_J_norm from one pass's kept outputs (None where a cell raised).
    quality: Callable[[list[Any]], float]
    # What of an output the warm-up pass keeps for ``quality``.
    keep: Callable[[Any], Any] = lambda out: out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _noisy(profile: TaskProfile, rng: random.Random) -> TaskProfile:
    def jitter(values):
        return {k: v * (1.0 + PROFILE_NOISE * rng.uniform(-1.0, 1.0))
                for k, v in sorted(values.items())}

    return TaskProfile(jitter(profile.vertex_weights),
                       jitter(profile.edge_payloads))


def _noisy_shape(m: int, o: int, rng: random.Random):
    fl, profile = synth.synthetic_flowline(m, o)
    return fl, _noisy(profile, rng)


def _check_plan(plan, fl) -> str:
    report = _check_qualification(plan, fl)
    if not report.ok:
        raise CheckFailed("qualified", "; ".join(report.violations))
    return _digest(scheduler.plan_to_json(plan))


def _greedy_j_norm(plan, fl, profile, catalog, eta, baselines) -> float:
    """The plan's min-max-normalised J among the list and random baselines,
    weighted as one ``sweep_eta`` cell weights the compound-greedy row."""
    config = sim.SweepConfig()
    costs = []
    for p in [plan] + baselines:
        metrics = _evaluate_plan(p, fl, profile, config.corpus_size,
                                 config.slice_size, eta, config.net)
        costs.append((metrics["cost_com_s"], metrics["cost_mon"]))
    return costmodel.normalized_objectives(costs, eta)[0]


def _sweep_baselines(fl, profile, catalog) -> list:
    config = sim.SweepConfig()
    return ([sim.baseline_list(fl, profile, catalog, config.net)]
            + [sim.baseline_random(fl, catalog, config.seed + i, config.net)
               for i in range(config.random_plans)])


def _plan_quality(cells: list[Cell], inputs: list[tuple]) -> Callable:
    """greedy_J_norm over the plans of the cells that succeeded."""

    def quality(outputs):
        baselines: dict[tuple, list] = {}
        values = []
        for cell, (fl, profile, catalog), plan in zip(cells, inputs, outputs):
            if plan is None:
                continue
            key = (cell.labels["shape"], cell.labels["catalog"])
            if key not in baselines:
                baselines[key] = _sweep_baselines(fl, profile, catalog)
            values.append(_greedy_j_norm(plan, fl, profile, catalog,
                                         cell.labels["eta"], baselines[key]))
        return statistics.fmean(values)

    return quality


def plan_grid(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    shapes = synth.EXPERIMENT_SHAPES[:2] if tiny else synth.EXPERIMENT_SHAPES
    etas = (0.5,) if tiny else GRID_ETAS
    cells, inputs = [], []
    for m, o in shapes:
        fl, profile = _noisy_shape(m, o, rng)
        for cat_name, load in CATALOGS.items():
            catalog = load()
            for eta in etas:
                def run(fl=fl, profile=profile, catalog=catalog, eta=eta):
                    return scheduler.schedule(fl, profile, catalog, eta, NET)
                cells.append(Cell({"shape": f"{m}m{o}o", "catalog": cat_name,
                                   "eta": eta}, run,
                                  lambda plan, fl=fl: _check_plan(plan, fl)))
                inputs.append((fl, profile, catalog))
    return Workload("plan-grid", cells, _plan_quality(cells, inputs))


def plan_measured(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    fl = gfl.parse(PIPELINE_GFL)
    profile = _noisy(TaskProfile(
        {v.id: PIPELINE_MODEL_S.get(v.id, 0.03) for v in fl.vertices},
        {e: 5.0e5 for e in fl.edges}), rng)
    curves = []
    for cat_name, x0s in MEASURED_X0:
        for x0 in x0s[:1] if tiny else x0s:
            # g(x) = a + b/(x - c) with x0 = sqrt(b/a) + c at eta = 0.5.
            a = rng.uniform(3.0, 6.0)
            c = x0 * rng.uniform(0.2, 0.6)
            curves.append((cat_name, f"x0={x0}",
                           {"fit": MakespanPriceFit(a, a * (x0 - c) ** 2, c)}))
    curves.append(("qcloud", "bundled-observations",
                   {"observations": costmodel.bundled_qcloud_observations()}))

    def check(out) -> str:
        report, plan = out
        if not report.ok:
            raise CheckFailed("validates", str(report).splitlines()[0])
        return _check_plan(plan, fl)

    cells, inputs = [], []
    for cat_name, curve, curve_kw in curves:
        catalog = CATALOGS[cat_name]()

        def run(catalog=catalog, curve_kw=curve_kw):
            parsed = gfl.parse(PIPELINE_GFL)
            report = flowline.validate(parsed, profile)
            return report, scheduler.schedule(parsed, profile, catalog,
                                              MEASURED_ETA, NET, **curve_kw)
        cells.append(Cell({"shape": "ner-re", "catalog": cat_name,
                           "eta": MEASURED_ETA, "curve": curve}, run, check))
        inputs.append((fl, profile, catalog))
    return Workload("plan-measured", cells, _plan_quality(cells, inputs),
                    keep=lambda out: out and out[1])


def sweep(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    pairs = PAIRS[1:] if tiny else PAIRS
    etas = SWEEP_ETAS[::2] if tiny else SWEEP_ETAS
    cells = []
    for (m, o), cat_name in pairs:
        fl, profile = _noisy_shape(m, o, rng)
        catalog = CATALOGS[cat_name]()

        def run(fl=fl, profile=profile, catalog=catalog):
            return sim.sweep_eta(fl, profile, catalog, etas)
        cells.append(Cell({"shape": f"{m}m{o}o", "catalog": cat_name,
                           "etas": list(etas)}, run, _check_sweep(etas)))

    def quality(outputs):
        return statistics.fmean(r.J for rows in outputs if rows is not None
                                for r in rows
                                if r.scheduler == "compound-greedy")

    return Workload("sweep", cells, quality)


def _check_sweep(etas) -> Callable[[list], str]:
    def check(rows) -> str:
        for eta in etas:
            names = sorted(r.scheduler for r in rows if r.eta == eta)
            if names != ["compound-greedy", "list", "random"]:
                raise CheckFailed("three_rows_per_eta",
                                  f"eta {eta}: rows {names}")
        bad = [(r.eta, r.scheduler, r.J) for r in rows if not 0.0 <= r.J <= 1.0]
        if bad:
            raise CheckFailed("J_in_unit_interval", f"out of range: {bad}")
        return _digest(sim.sweep_to_csv(rows))
    return check


def simulate(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    pairs = PAIRS[1:] if tiny else PAIRS
    corpus = SIM_CORPUS // 10 if tiny else SIM_CORPUS
    cells, inputs, plans = [], [], []
    for (m, o), cat_name in pairs:
        fl, profile = _noisy_shape(m, o, rng)
        catalog = CATALOGS[cat_name]()
        plan = scheduler.schedule(fl, profile, catalog, MEASURED_ETA, NET)
        _check_plan(plan, fl)
        for mode, options in SIM_MODES:
            config = sim.SimConfig(latency_s=NET.latency_s,
                                   bandwidth_Bps=NET.bandwidth_Bps,
                                   corpus_size=corpus, seed=seed, **options)

            def run(plan=plan, fl=fl, profile=profile, config=config):
                return sim.simulate(plan, fl, profile, config)
            cells.append(Cell({"shape": f"{m}m{o}o", "catalog": cat_name,
                               "eta": MEASURED_ETA, "mode": mode}, run,
                              _check_sim(plan, fl, config)))
            inputs.append((fl, profile, catalog))
            plans.append(plan)

    # The plans come from set-up, so the simulation results are not kept.
    quality = _plan_quality(cells, inputs)
    return Workload("simulate", cells, lambda outputs: quality(plans),
                    keep=lambda result: None)


def _check_sim(plan, fl, config) -> Callable[[Any], str]:
    events = config.n_slices * len(fl.vertices)
    # schedule() predicts cost_com_s for its default 8000-row corpus.
    analytic = plan.predictions["cost_com_s"] * config.corpus_size / 8000

    def check(result) -> str:
        if len(result.timeline) != events:
            raise CheckFailed("event_count",
                              f"{len(result.timeline)} events, want {events}")
        if (config.jitter == 0 and not config.overlap
                and abs(result.total_time - analytic) > 1e-9 * analytic):
            raise CheckFailed("matches_analytic",
                              f"total {result.total_time!r} != {analytic!r}")
        return _digest(repr((result.total_time, result.per_slice_makespan)))
    return check


WORKLOADS = {"plan-grid": plan_grid, "plan-measured": plan_measured,
             "sweep": sweep, "simulate": simulate}
