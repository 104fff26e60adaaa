"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench

Runs every workload in both trace modes with `--tiny` and checks that each
metric named in BENCHMARK.json is emitted with its unit, that the outputs
pass their checks, and that the benchmark refuses to run without sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: ensemble-oracle runs, but is left out of BENCHMARK.json as unsteady
MEASURED = ("mc-verify", "verify-sweep", "synth-scale")
WORKLOADS = MEASURED + ("ensemble-oracle",)
END_TO_END = ("setup_s", "pass_cpu_s", "request_p50_cpu_s",
              "request_p90_cpu_s", "fail_share", "peak_rss_mb")
COMPUTED = ("_kernels.terminal_state_covariance.path_steps",
            "_kernels.terminal_state_covariance.flops",
            "linalg.solve_lyapunov.kron_bytes",
            "linalg.solve_sylvester.kron_bytes",
            "synthesis.solve_phi_psi.system_side")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    benchmark = _benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in benchmark["workloads"]] == list(MEASURED)
    assert list(workloads.WORKLOADS) == list(WORKLOADS)
    for entry in benchmark["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in benchmark["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] \
        == run.per_layer_metrics()
    names = [m["name"] for m in benchmark["per_layer"]]
    assert len(names) == len(set(names)) <= 128
    for span in spans.SPAN_NAMES:
        assert f"{span}.calls" in names and f"{span}.self_s" in names
    assert set(COMPUTED) <= set(names)
    assert "trace_overhead_s" in names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    record, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    assert record["passes"] >= run.MIN_PASSES
    expected = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(record["environment"]) >= {
        "nproc", "blas_threads", "python", "numpy", "scipy", "numpy_blas",
        "use_numba"}
    assert 1 <= record["environment"]["blas_threads"] \
        <= record["environment"]["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(workload):
    record, result = _run(workload, 1)
    assert result["correct"], record["problems"]
    expected = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "synth-scale":
        assert metrics["linalg.solve_are.calls"] \
            == 8 * metrics["synthesis.optimal_controller.calls"] > 0
        assert metrics["linalg.solve_lyapunov.calls"] == 0
        assert metrics["linalg.solve_are.errors"] >= 1
        (refusal,) = record["stress_refusals"]
        assert refusal["stage"] == "synthesis.solve_four_ares"
        assert refusal["first_raised"] == "linalg.solve_are"
    if workload == "mc-verify":
        assert metrics["_kernels.terminal_state_covariance.path_steps"] > 0
    if workload == "verify-sweep":
        assert metrics["linalg.solve_lyapunov.kron_bytes"] > 0
        assert metrics["_kernels.terminal_state_covariance.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
