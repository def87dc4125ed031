"""Tests of the benchmark itself, at tiny scale (Fattree(4), VL2(4,4,2), BCube(4,1))."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_pass(workload, seed, **extra):
    spec = {"workload": workload, "seed": seed, "seconds": 1, "scale": "tiny",
            "traced": False, "rounds": 1, **extra}
    return run.run_pass(spec, time.monotonic() + 120)


def test_declared_workloads_and_metrics_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    from workloads import LAYER_METRICS

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--scale", "tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    # Tiny fabrics give gray failures too few probe paths to be found every
    # time, so a miss is counted but not an error at this scale.
    assert out["correct"] is True and 0 <= out["failed"] <= out["attempted"]
    assert out["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = out["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_layers_with_consistent_self_times(workload):
    out = result_line(bench("--workload", workload, "--seed", "4", "--seconds", "1",
                            "--trace", "1", "--scale", "tiny"))
    assert out["correct"] is True
    assert {name: entry["unit"] for name, entry in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    report = json.loads((BENCH / "out" / f"trace-{workload}-seed4.json").read_text())
    self_times = [stage["self_s"] for stage in report["stages"].values()]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= report["traced_wall_s"]
    assert all(entry["moves"] for entry in report["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_deterministic_outputs(workload):
    first = tiny_pass(workload, 5)
    second = tiny_pass(workload, 5, traced=True)
    assert first["deterministic"] == second["deterministic"]


def test_other_seed_moves_fault_placement():
    first = tiny_pass("monitor-storm", 5)["deterministic"]["placement"]
    other = tiny_pass("monitor-storm", 6)["deterministic"]["placement"]
    assert first and other and first != other


def test_plan_check_flags_broken_plans():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.probe_matrix import ProbeMatrix
    from repro.monitor import Controller, ControllerConfig
    from repro.topology import build_fattree
    from workloads import plan_errors

    plan = Controller(build_fattree(4), ControllerConfig(alpha=2, beta=1)).run_cycle().probe_matrix
    assert plan_errors(plan, "plan") == []
    thin = ProbeMatrix(plan.topology, plan.paths[:1], link_ids=plan.link_ids)
    assert plan_errors(thin, "thin")
    down = frozenset(sorted(plan.paths[0].link_ids)[:1])
    assert "crosses a link known to be down" in plan_errors(plan, "stale", down)[0]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "plan-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
