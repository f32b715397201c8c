"""Smoke tests of the benchmark harness, with tiny task counts.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-large", "blind-critical", "face-lattice", "cli-mix")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared_units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--max-tasks", "4")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 4
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == declared_units("per_layer" if trace else "end_to_end")


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("--workload", "solve-large", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing

    return tracing


def test_tracer_wraps_every_binding_site_and_restores_them(tracing):
    import pomdp_geometry
    from pomdp_geometry import critical, freq, rational

    original = freq.reward_of
    tracer = tracing.Tracer()
    assert tracer.missing == []
    _, sites, _ = tracer.run_task(lambda: (freq.reward_of, critical.reward_of,
                                           rational.reward_of, pomdp_geometry.reward_of))
    assert sites[0] is not original
    assert all(site is sites[0] for site in sites)
    assert critical.reward_of is original and pomdp_geometry.reward_of is original


def test_tracer_counts_spans_and_errors(tracing):
    import numpy as np
    import pomdp_geometry as pg
    from pomdp_geometry import fixtures

    model = fixtures.two_state_model()
    tracer = tracing.Tracer()
    elapsed, result, error = tracer.run_task(lambda: pg.reward_of(
        model, pg.Policy.uniform(2, 2)))
    assert error is None and np.isfinite(result)
    _, _, error = tracer.run_task(lambda: pg.policy_gradient(
        model.replace(gamma=1.0), pg.Policy.uniform(2, 2)))
    assert isinstance(error, ValueError)
    metrics = tracer.metrics(2, elapsed, elapsed, 0)
    assert metrics["freq.reward_of.calls"]["value"] == 1
    assert metrics["model.Policy.calls"]["value"] == 2
    assert metrics["linalg.solve.calls"]["value"] == 1
    assert metrics["freq.errors"]["value"] == 1
    assert metrics["linalg.solve.flops"]["value"] == pytest.approx(2.0 / 3.0 * 4 ** 3)


def test_tracer_reports_a_removed_function_as_missing(tracing, monkeypatch):
    gone = ("freq.gone", "freq", "no_such_function", None, None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer()
    assert tracer.missing == ["freq.no_such_function"]
    metrics = tracer.metrics(1, 1.0, 1.0, 0)
    assert "freq.gone.calls" not in metrics
    assert "freq.reward_of.calls" in metrics


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    return run, workloads


def test_only_declared_known_failures_keep_the_run_verified(harness):
    run, workloads = harness

    def raises():
        raise ValueError("eta must sum to 1")

    def outcome(task):
        outcomes = run.Outcomes()
        run.run_tasks([task], outcomes, lambda done: False)
        return outcomes.failed, outcomes.ok_frac(1), outcomes.verified

    def passes(out):
        return None

    Task = workloads.Task
    assert outcome(Task(lambda: 1, passes)) == (0, 1.0, True)
    assert outcome(Task(raises, passes, may_raise=True)) == (0, 0.0, True)
    assert outcome(Task(raises, passes)) == (1, 0.0, False)
    assert outcome(Task(lambda: 1, lambda out: "flat", known_miss="flat")) == (0, 0.0, True)
    assert outcome(Task(lambda: 1, lambda out: "other", known_miss="flat")) == (1, 0.0, False)
    assert outcome(Task(lambda: {}, lambda out: out["missing"], known_miss="flat")) == (1, 0.0, False)


def test_host_speed_scales_each_task_by_the_probes_around_it(harness):
    run, workloads = harness
    host = run.HostSpeed(workloads.interpreter_reference())
    host.probe()
    assert len(host.times) == 1 and host.times[0] > 0
    host.times = [1.0] * 10 + [2.0] * 11  # the host halves its speed after task 9
    factors = host.factors(20)
    assert factors[0] == 1.0 and factors[19] == 0.5
    assert factors[5] < 1.0 and factors[14] == 0.5


def test_blind_check_tells_a_flat_labelled_extremum_from_a_wrong_count(harness):
    _, workloads = harness
    roots = SimpleNamespace(interior_roots=((0.2, "max"), (0.6, "saddle/flat")))
    assert workloads._check_extrema(roots, 1) is None
    assert workloads._check_extrema(roots, 2) == workloads.FLAT_EXTREMUM
    for expected in (0, 3):
        reason = workloads._check_extrema(roots, expected)
        assert reason not in (None, workloads.FLAT_EXTREMUM)
