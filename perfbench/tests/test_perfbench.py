"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Clock returning scripted instants, one per call."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_of_a_nested_span_tree():
    # phase t0=0, root [0, 10]; a [1, 4] holding b [2, 3]; a [5, 6]; c [7, 9]
    # holding a [7.5, 8.5].  Each span reads the clock at entry and exit.
    clock = FakeClock([0, 0, 1, 2, 3, 4, 5, 6, 7, 7.5, 8.5, 9, 10, 10])
    tracer = tracing.Tracer(clock=clock)
    with tracer.phase("run", "root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
        with tracer.span("c"):
            with tracer.span("a"):
                pass
    stats = tracer.phases["run"]
    assert stats["root"].self_s == pytest.approx(10 - 3 - 1 - 2)
    assert stats["a"].self_s == pytest.approx(2 + 1 + 1)
    assert stats["a"].calls == 3
    assert stats["b"].self_s == pytest.approx(1)
    assert stats["c"].self_s == pytest.approx(1)
    assert sorted(stats["a"].durations) == pytest.approx([1, 1, 3])
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10)
    assert tracer.walls["run"] == pytest.approx(10)


def test_spans_outside_a_phase_are_not_recorded():
    tracer = tracing.Tracer()
    assert not tracer.recording()
    with tracer.phase("run", "root"):
        assert tracer.recording()
    assert not tracer.recording()


def _installed_attributes():
    inst = tracing.Instrumentation(tracing.Tracer())
    tracing.install_repro_layers(inst)
    saved = list(inst._saved)
    inst.restore()
    return saved


def test_wrappers_are_restored_on_exit():
    saved = _installed_attributes()
    assert len(saved) > 20
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in saved]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert all(owner.__dict__[name] is not orig for owner, name, orig in originals)
    assert all(owner.__dict__[name] is orig for owner, name, orig in originals)

    with pytest.raises(RuntimeError):
        with tracing.Instrumentation(tracer):
            raise RuntimeError("boom")
    assert all(owner.__dict__[name] is orig for owner, name, orig in originals)


def test_wrappers_time_a_real_fit_without_changing_it():
    import numpy as np
    from repro.gp import GaussianProcessRegressor

    rng = np.random.default_rng(0)
    X = rng.uniform(size=(30, 2))
    y = np.sin(X.sum(axis=1))
    plain = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y).predict(X)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        with tracer.phase("run", "root"):
            traced = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y).predict(X)
    assert np.array_equal(plain, traced)
    stats = tracer.phases["run"]
    assert stats["gp.gpr.fit"].calls == 1
    assert stats["gp.gpr.lml"].calls > 1
    assert stats["gp.kernels.call"].calls >= stats["gp.gpr.lml"].calls
    assert stats["gp.gpr.predict"].units["points"] == 30
    total = sum(s.self_s for s in stats.values())
    assert total == pytest.approx(tracer.walls["run"], rel=0.05)


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert tracing.percentile_with_tail(values, 50) == pytest.approx(50.5)
    assert tracing.percentile_with_tail(values, 90) is not None
    assert tracing.percentile_with_tail(values, 99) is None


def test_per_step_median_is_taken_step_by_step_over_repeats():
    episodes = [
        workloads.Episode(run_s=0.0, step_s=steps, outputs={}, registry=None)
        for steps in ([3.0, 1.0], [2.0, 4.0], [5.0, 2.0])
    ]
    assert run.per_step_median(episodes) == [3.0, 2.0]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def short_campaign(monkeypatch):
    """campaign_serve cut to a few rounds so the full command runs quickly.

    Three rounds cannot reach the quality floor, so that one check is off.
    """
    monkeypatch.setattr(workloads.CampaignServe, "n_rounds", 3)
    monkeypatch.setattr(workloads.CampaignServe, "setup_reps", 1)
    monkeypatch.setattr(workloads.CampaignServe, "max_rmse", float("inf"))


@pytest.mark.parametrize("trace", [0, 1])
def test_result_names_match_benchmark_json(trace, short_campaign, capsys):
    assert run.main(
        ["--workload", "campaign_serve", "--seed", "3", "--seconds", "0",
         "--trace", str(trace)]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        metrics = result["metrics"]
        assert metrics["parallel.map.calls"]["value"] == 0
        assert metrics["campaign_serve.unattributed_s"]["value"] > 0
        assert metrics["sharded_process.unattributed_s"]["value"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
