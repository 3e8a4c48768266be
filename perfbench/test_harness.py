"""Tests of the benchmark harness itself, on the seconds-long smoke workload.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, expected_calls, sweep_config, sweep_seeds  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_train_methods_match_package():
    from gseat.training import TRAIN_METHODS
    assert tracing.TRAIN_METHODS == TRAIN_METHODS


def test_expected_calls_follow_config():
    gse = expected_calls(sweep_config("desk-at-gse", 0))
    assert gse["spectral.full_svd"] == 2 * 2 * 30
    assert gse["gnn.loss_and_grads"] == 420
    large = expected_calls(sweep_config("large-natural-rbcd", 0))
    assert all(v == 0 for k, v in large.items() if k.startswith("spectral."))


def test_install_replaces_every_binding():
    import gseat.attack
    import gseat.gnn
    import gseat.training

    original = gseat.gnn.loss_and_grads
    t = tracing.Tracer()
    t.install()
    try:
        for module in (gseat, gseat.gnn, gseat.attack, gseat.training):
            assert module.loss_and_grads is not original
        assert gseat.attack.loss_and_grads is gseat.training.loss_and_grads
    finally:
        t.uninstall()
    assert gseat.training.loss_and_grads is original


def test_self_time_excludes_children():
    spans = [["cli.run_experiment", 0.0, 10.0, -1, None],
             ["attack.rbcd_attack", 1.0, 5.0, 0, {"iterations": 4, "flips": 3, "budget": 4}],
             ["gnn.loss_and_grads", 2.0, 3.0, 1, None]]
    out = tracing.layer_metrics(spans)
    assert out["cli.run_experiment.self_s"] == pytest.approx(6.0)
    assert out["attack.rbcd_attack.self_s"] == pytest.approx(3.0)
    assert out["gnn.loss_and_grads.attack_s"] == pytest.approx(1.0)
    assert out["attack.rbcd_attack.iter_ms"] == pytest.approx(1000.0)
    assert out["attack.rbcd_attack.fill_ratio"] == pytest.approx(0.75)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(trace):
    proc = _bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    assert list(result["metrics"]) == [entry[0] for entry in names]
    if trace == "1":
        assert result["metrics"]["spectral.full_svd.calls"]["value"] == 12


def test_changed_output_fails_the_check():
    seed = 7
    first = _bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1")
    assert first.returncode == 0, first.stderr
    refs = ROOT / ".perfbench_out" / "ref" / "smoke"
    ref, = refs.glob(f"seed{sweep_seeds('smoke', seed)[0]}-*.csv")
    saved = ref.read_bytes()
    try:
        ref.write_bytes(saved.replace(b",ok,", b",ok ,", 1))
        proc = _bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1")
        assert proc.returncode == 1
        assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    finally:
        ref.write_bytes(saved)


def test_wrong_call_count_fails_the_check():
    bench = run.Run.__new__(run.Run)
    bench.workload = "smoke"
    calls = expected_calls(sweep_config("smoke", 0))
    bench._check_calls(0, calls)
    with pytest.raises(run.RunFailure):
        bench._check_calls(0, {**calls, "spectral.full_svd": 0})


def test_refuses_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "smoke", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
