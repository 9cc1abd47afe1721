"""The numpy curve fit: the bounded solve for a + b * u, the
variable-projection fit of g(x) = a + b/(x - c), and the plans it leads to.

The pinned plans below come from warm-up tables placed by the
earliest-finish-time rule; a change to the fit must buy the same instances.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import kgflow
from kgflow import scheduler, synth
from kgflow.costmodel import (
    CostModelError,
    Observation,
    _bounded_ab,
    bundled_g4dn_catalog,
    bundled_qcloud_catalog,
    bundled_qcloud_observations,
    fit_price_makespan,
    pareto_frontier,
)
from kgflow.flowline import NetParams, TaskProfile

NET = NetParams(0.05, 1.0e7)
CATALOGS = {"qcloud": bundled_qcloud_catalog, "g4dn": bundled_g4dn_catalog}


def _brute_force(design, y, lo):
    """Best SSR of the optima on each face of {theta >= lo}: free, one
    coefficient held at lo, both held."""
    faces = [np.linalg.lstsq(design, y, rcond=None)[0]]
    for held in (0, 1):
        free = 1 - held
        rest = y - lo * design[:, held]
        theta = np.full(2, lo)
        col = design[:, free]
        theta[free] = col @ rest / (col @ col)
        faces.append(theta)
    faces.append(np.full(2, lo))
    feasible = [t for t in faces if (t >= lo).all()]
    return min(float(np.sum((design @ t - y) ** 2)) for t in feasible)


class TestBoundedLstsq2:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 7),
           st.sampled_from([0.0, 1e-12, -0.5, 2.0]),
           st.data())
    def test_matches_brute_force_over_active_sets(self, batch, rows, lo,
                                                  data):
        values = st.floats(-10, 10, allow_nan=False)
        design = np.array(data.draw(st.lists(
            values, min_size=batch * rows * 2,
            max_size=batch * rows * 2))).reshape(batch, rows, 2)
        design[..., 0] = 1.0
        y = np.array(data.draw(st.lists(values, min_size=rows,
                                        max_size=rows)))
        assume(all(np.linalg.cond(d) < 1e6 for d in design))
        (free, free_ssr), (theta, ssr) = _bounded_ab(design[..., 1], y, lo)
        assert free.shape == theta.shape == (batch, 2)
        assert free_ssr.shape == ssr.shape == (batch,)
        for d, f, fs, t, s in zip(design, free, free_ssr, theta, ssr):
            want = np.linalg.lstsq(d, y, rcond=None)[0]
            assert f == pytest.approx(want, rel=1e-6, abs=1e-6)
            assert fs == pytest.approx(np.sum((d @ want - y) ** 2),
                                       rel=1e-9, abs=1e-9)
            assert (t >= lo).all()
            assert s == pytest.approx(np.sum((d @ t - y) ** 2),
                                      rel=1e-9, abs=1e-9)
            assert s == pytest.approx(_brute_force(d, y, lo),
                                      rel=1e-9, abs=1e-9)

    def test_single_design_is_plain_nnls(self):
        # y = -1 + 2 * u: the free fit has a = -1, so a is held at 0 and b
        # refitted alone.
        design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([1.0, 3.0, 5.0])
        _, (theta, ssr) = _bounded_ab(design[:, 1], y, 0.0)
        assert theta[0] == 0.0
        assert theta[1] == pytest.approx(22.0 / 14.0)
        assert ssr == pytest.approx(_brute_force(design, y, 0.0))

    @pytest.mark.parametrize("lo", [0.0, 2.0])
    def test_free_solution_is_plain_least_squares(self, lo):
        rng = np.random.default_rng(7)
        design = rng.normal(size=(5, 2))
        design[:, 0] = 1.0
        y = rng.normal(size=5)
        (theta, ssr), _ = _bounded_ab(design[:, 1], y, lo)
        want = np.linalg.lstsq(design, y, rcond=None)[0]
        assert theta == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert ssr == pytest.approx(np.sum((design @ want - y) ** 2),
                                    rel=1e-12)

    def test_inside_the_bound_both_solutions_are_the_free_one(self):
        design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([3.0, 5.0, 7.1])
        free, bounded = _bounded_ab(design[:, 1], y, 0.0)
        assert free[0].min() > 0
        assert all((f == b).all() for f, b in zip(free, bounded))


def _c_cap(observations):
    frontier = pareto_frontier(observations)
    x_min = min(o.unit_price for o in frontier)
    cap = x_min * (1.0 - 1e-9)
    infeasible = [o.unit_price for o in observations if not o.feasible]
    if infeasible and max(infeasible) < x_min:
        cap = min(cap, max(infeasible))
    return cap


def _ssr(fit, observations):
    frontier = pareto_frontier(observations)
    return sum((fit.makespan_at(o.unit_price) - o.makespan_s) ** 2
               for o in frontier)


def _dense_profile_minimum(observations, poles=20001):
    frontier = pareto_frontier(observations)
    x = np.array([o.unit_price for o in frontier])
    y = np.array([o.makespan_s for o in frontier])
    cap = _c_cap(observations)
    u = 1.0 / (x - np.linspace(cap * 1e-3, cap, poles)[:, None])
    _, (_, ssr) = _bounded_ab(u, y, 1e-12)
    return float(ssr.min())


def _shape_observations(m, o, cat_name, seed):
    """Synthesized observations for a shape, its task weights and payloads
    jittered by up to 1% (seed None: the plain profile)."""
    fl, profile = synth.synthetic_flowline(m, o)
    if seed is not None:
        rng = random.Random(seed)

        def jitter(values):
            return {k: v * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
                    for k, v in sorted(values.items())}

        profile = TaskProfile(jitter(profile.vertex_weights),
                              jitter(profile.edge_payloads))
    return scheduler.synthesize_observations(fl, profile,
                                             CATALOGS[cat_name](), NET)


# Shapes whose frontier is flat at every seed below, so the fit raises
# (pinned below and in PINNED_PLANS).
FLAT_CASES = {(3, 6, "qcloud"), (4, 8, "qcloud"), (6, 18, "qcloud"),
              (6, 18, "g4dn")}
FIT_CASES = [(m, o, cat, seed)
             for m, o in synth.EXPERIMENT_SHAPES
             for cat in CATALOGS
             for seed in (None, 1, 32)
             if (m, o, cat) not in FLAT_CASES]

# Frontiers whose residual profile over c has close local minima: a bracket
# that widens again when the best pole sits at its edge ends in the worse
# one (as does 6m29o/qcloud at seed 32).
CLOSE_MINIMA = [
    ([12.361924189384073, 14.498640340423906, 83.58301311909092,
      87.46618596424071],
     [32.70665298896359, 21.090421240885718, 0.7437945331250363,
      0.6539787622664927]),
    ([42.02082970821501, 43.202789754709514, 45.7718373083088,
      63.1755170870145, 81.6905659773977, 91.1891806998146],
     [46.213296523729234, 38.75314284126718, 35.305282137150655,
      30.010420436106337, 19.24910498713438, 14.571818089264132]),
]


class TestFitPriceMakespanOptimal:
    def test_bundled_observations_beat_dense_grid(self):
        observations = bundled_qcloud_observations()
        fit = fit_price_makespan(observations)
        assert (_ssr(fit, observations)
                <= (1 + 1e-9) * _dense_profile_minimum(observations))

    @pytest.mark.parametrize("m,o,cat_name,seed", FIT_CASES)
    def test_synthesized_observations_beat_dense_grid(self, m, o, cat_name,
                                                      seed):
        observations = _shape_observations(m, o, cat_name, seed)
        fit = fit_price_makespan(observations)
        assert (_ssr(fit, observations)
                <= (1 + 1e-9) * _dense_profile_minimum(observations))
        assert min(fit.a, fit.b) >= 1e-12
        assert 1e-12 <= fit.c <= _c_cap(observations)
        assert len(fit.residuals) == len(pareto_frontier(observations))

    @pytest.mark.parametrize("m,o,cat_name", sorted(FLAT_CASES))
    @pytest.mark.parametrize("seed", [None, 1, 32])
    def test_flat_frontiers_raise(self, m, o, cat_name, seed):
        observations = _shape_observations(m, o, cat_name, seed)
        with pytest.raises(CostModelError,
                           match="makespan does not fall with price"):
            fit_price_makespan(observations)

    @pytest.mark.parametrize("xs,ys", CLOSE_MINIMA)
    def test_close_minima_beat_dense_grid(self, xs, ys):
        observations = [Observation(x, y) for x, y in zip(xs, ys)]
        fit = fit_price_makespan(observations)
        assert (_ssr(fit, observations)
                <= (1 + 1e-9) * _dense_profile_minimum(observations))

    def test_narrow_basin_near_the_cap(self):
        # The best basin, at c = 11.709 just under c_cap = 12.138, is
        # narrower than an even 64-pole grid's spacing; such a grid ends
        # near c = 0 with SSR 96.738.
        xs = [12.138004935688908, 12.483324945007858, 23.434457894900795,
              38.19013506751483, 61.680386401022055]
        ys = [41.91882233862563, 27.540141867504556, 20.832184941460287,
              10.332937719172849, 6.684886418964925]
        observations = [Observation(x, y) for x, y in zip(xs, ys)]
        fit = fit_price_makespan(observations)
        assert fit.c == pytest.approx(11.709, abs=1e-3)
        assert _ssr(fit, observations) == pytest.approx(96.408, abs=1e-3)
        assert (_ssr(fit, observations)
                <= (1 + 1e-9) * _dense_profile_minimum(observations))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 20), st.floats(0.5, 100), st.floats(0.5, 50),
           st.lists(st.integers(1, 400), min_size=3, max_size=8,
                    unique=True))
    def test_recovers_exact_curves(self, a, b, c, offsets):
        # Prices c * (1 + k/20): from 5% to 20x the pole above it.
        observations = [Observation(c * (1 + k / 20), a + b / (c * k / 20))
                        for k in offsets]
        fit = fit_price_makespan(observations)
        assert fit.a == pytest.approx(a, rel=1e-6)
        assert fit.b == pytest.approx(b, rel=1e-6)
        assert fit.c == pytest.approx(c, rel=1e-6)

    def test_optimum_on_the_a_bound(self):
        # The free optimum is a = -1, b = 10, c = 5; with a held at its
        # bound the best pole moves up to about 5.378.
        observations = [Observation(x, -1 + 10 / (x - 5)) for x in (6, 8, 12)]
        fit = fit_price_makespan(observations)
        assert fit.a == pytest.approx(1e-12, abs=1e-16)
        assert fit.b == pytest.approx(5.6032, abs=1e-4)
        assert fit.c == pytest.approx(5.3779, abs=1e-4)

    def test_no_positive_start_is_a_divergent_fit(self):
        observations = [Observation(x, y)
                        for x, y in ((10, 1.0), (20, 0.0), (30, 0.0))]
        with pytest.raises(CostModelError,
                           match="divergent fit: no initialization with "
                                 "positive coefficients"):
            fit_price_makespan(observations)


def _flat(first_price):
    return ("CostModelError", "makespan does not fall with price, so no "
            "curve a + b/(x - c) with a, b >= 1e-12 fits; frontier "
            f"x=[{first_price}, ")


# schedule(...).procurement.describe(), or the error type and the start of
# its message, per (shape, catalog, eta) on the plain synthetic profiles.
PINNED_PLANS = {
    ("3m6o", "qcloud", 0.1): _flat("35.94"),
    ("3m6o", "qcloud", 0.5): _flat("35.94"),
    ("3m6o", "qcloud", 0.9): _flat("35.94"),
    ("3m6o", "g4dn", 0.1): "g4dn.xlarge x3",
    ("3m6o", "g4dn", 0.5): "g4dn.xlarge x3",
    ("3m6o", "g4dn", 0.9): "g4dn.xlarge x3",
    ("3m11o", "qcloud", 0.1): "2XLARGE40 x1 + 5XLARGE80 x1",
    ("3m11o", "qcloud", 0.5): "2XLARGE40 x1 + 5XLARGE80 x1",
    ("3m11o", "qcloud", 0.9): "2XLARGE40 x1 + 5XLARGE80 x1",
    ("3m11o", "g4dn", 0.1): "g4dn.2xlarge x1 + g4dn.xlarge x2",
    ("3m11o", "g4dn", 0.5): "g4dn.2xlarge x1 + g4dn.xlarge x2",
    ("3m11o", "g4dn", 0.9): "g4dn.2xlarge x1 + g4dn.xlarge x2",
    ("4m8o", "qcloud", 0.1): _flat("47.92"),
    ("4m8o", "qcloud", 0.5): _flat("47.92"),
    ("4m8o", "qcloud", 0.9): _flat("47.92"),
    ("4m8o", "g4dn", 0.1): "g4dn.xlarge x4",
    ("4m8o", "g4dn", 0.5): "g4dn.xlarge x4",
    ("4m8o", "g4dn", 0.9): "g4dn.2xlarge x1 + g4dn.xlarge x3",
    ("6m18o", "qcloud", 0.1): _flat("71.88000000000001"),
    ("6m18o", "qcloud", 0.5): _flat("71.88000000000001"),
    ("6m18o", "qcloud", 0.9): _flat("71.88000000000001"),
    ("6m18o", "g4dn", 0.1): _flat("4.9639999999999995"),
    ("6m18o", "g4dn", 0.5): _flat("4.9639999999999995"),
    ("6m18o", "g4dn", 0.9): _flat("4.9639999999999995"),
    ("6m29o", "qcloud", 0.1): "10XLARGE160 x1 + 5XLARGE80 x1",
    ("6m29o", "qcloud", 0.5): "10XLARGE160 x1 + 5XLARGE80 x1",
    ("6m29o", "qcloud", 0.9): "10XLARGE160 x1 + 5XLARGE80 x1",
    ("6m29o", "g4dn", 0.1): "g4dn.2xlarge x3 + g4dn.xlarge x3",
    ("6m29o", "g4dn", 0.5): "g4dn.2xlarge x3 + g4dn.xlarge x3",
    ("6m29o", "g4dn", 0.9): "g4dn.2xlarge x3 + g4dn.xlarge x3",
}


@pytest.mark.parametrize("m,o", synth.EXPERIMENT_SHAPES)
@pytest.mark.parametrize("cat_name", CATALOGS)
def test_schedule_buys_the_pinned_plans(m, o, cat_name):
    fl, profile = synth.synthetic_flowline(m, o)
    catalog = CATALOGS[cat_name]()
    for eta in (0.1, 0.5, 0.9):
        want = PINNED_PLANS[(f"{m}m{o}o", cat_name, eta)]
        try:
            got = scheduler.schedule(fl, profile, catalog, eta,
                                     NET).procurement.describe()
        except (CostModelError, scheduler.SchedulingError) as exc:
            assert isinstance(want, tuple), f"eta {eta}: {exc}"
            assert type(exc).__name__ == want[0]
            assert str(exc).startswith(want[1])
        else:
            assert got == want, f"eta {eta}"


def test_kgflow_imports_without_scipy():
    code = ("import importlib, json, pkgutil, sys\n"
            "import kgflow\n"
            "names = [m.name for m in pkgutil.iter_modules(kgflow.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('kgflow.' + name)\n"
            "print(json.dumps([names, sorted(m for m in sys.modules\n"
            "      if m == 'scipy' or m.startswith('scipy.'))]))\n")
    # The source tree of the kgflow under test (src/ in a checkout).
    src = Path(kgflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    names, scipy_modules = json.loads(out)
    assert {"costmodel", "scheduler", "sim"} <= set(names)
    assert scipy_modules == []
