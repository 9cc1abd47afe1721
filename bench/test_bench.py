"""Self-test of the benchmark: every workload, tiny, traced and untraced.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def wrappers_installed() -> bool:
    return any(hasattr(value, tracer.WRAPPER_MARK)
               for mod in tracer.kgflow_modules()
               for value in vars(mod).values())


@pytest.fixture
def probe(monkeypatch):
    """Record, at every benchmark call, whether any wrapper is installed."""
    seen = []

    def probed(builder):
        def build(seed, tiny):
            workload = builder(seed, tiny)
            for cell in workload.cells:
                def call(inner=cell.run):
                    seen.append(wrappers_installed())
                    return inner()
                cell.run = call
            return workload
        return build

    for name, builder in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, probed(builder))
    return seen


def tiny_run(name, trace):
    return run.run(run.parse_args(["--workload", name, "--seed", "3",
                                   "--seconds", "0", "--trace", str(trace),
                                   "--tiny"]))


def assert_metrics(report, spec_metrics):
    expected = {m["name"]: (m["unit"], m["better"]) for m in spec_metrics}
    got = {name: (m["unit"], m["better"])
           for name, m in report["metrics"].items()}
    assert got == expected
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for name, (unit, _) in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and value == value, name
        assert result["metrics"][name]["unit"] == unit


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_end_to_end_without_wrappers(name, probe):
    report = tiny_run(name, 0)
    assert_metrics(report, SPEC["end_to_end"])
    assert probe and not any(probe)
    assert report["result"]["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_per_layer_and_restores(name, probe):
    before = tracer.layer_bindings()
    report = tiny_run(name, 1)
    assert_metrics(report, SPEC["per_layer"])
    # Warm-up and the first half run untraced, the second half traced.
    assert probe == sorted(probe) and not probe[0] and probe[-1]
    for _, mod, attr, fn in before:
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr}"
    assert not wrappers_installed()


def test_plan_grid_reports_failures_by_cell():
    report = tiny_run("plan-grid", 0)
    failed = report["result"]["failed"]
    assert failed == sum(f["count"] for f in report["failures"]) > 0
    for failure in report["failures"]:
        assert {"workload", "shape", "catalog", "eta", "error",
                "message"} <= set(failure)
    digests = [c["digest"] for c in report["cells"]]
    assert any(d is None for d in digests)
    assert all(len(d) == 64 for d in digests if d is not None)


def test_traced_layer_counts_cover_the_call():
    report = tiny_run("sweep", 1)
    m = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    assert m["sim.sweep_eta.calls"] == 1
    assert m["scheduler.evaluate_plan.calls"] > 0
    assert 0.9 < sum(v for k, v in m.items() if k.endswith(".share")
                     and k.count(".") == 2) <= 1.0 + 1e-9


def test_without_sources_exits_nonzero():
    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""
