"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())["values"]


def _run_cli(*argv: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload_passes(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.0, trace=1, smoke=True)
    record = run.measure(args)
    digests = {True: [], False: []}
    for p in record["passes"]:
        digests[p["traced"]].append({j["key"]: j["stdout_sha256"] for j in p["jobs"]})
    assert digests[True] and digests[False]
    for traced in digests[True]:
        for plain in digests[False]:
            assert traced == plain


def test_trace_run_reports_layers_where_they_run():
    args = argparse.Namespace(workload="verify-sweep", seed=1, seconds=0.0, trace=1, smoke=True)
    m = run.measure(args)["metrics"]
    assert m["oracle.instances"] == 61 and m["oracle.mismatches"] == 0
    assert m["cli.calls"] == 12
    assert m["chain.vector_sweeps"] > 0 and m["compat.push_calls"] > 0
    assert m["chain.cylinder_check_s"] > 0
    assert m["spectral.calls"] == 0 and m["bounds.calls"] == 0


def test_checker_accepts_reference_outputs():
    check.check("count/quadratic/torus/3x4", json.dumps({"count": REFERENCE["count/quadratic/torus/3x4"]}), REFERENCE)
    check.check("bounds/aztec/p2/q4/k5", json.dumps(REFERENCE["bounds/aztec/p2/q4/k5"]), REFERENCE)


def test_checker_rejects_corrupted_count():
    true = int(REFERENCE["count/quadratic/plane/12x100"])
    with pytest.raises(check.CheckError):
        check.check("count/quadratic/plane/12x100", json.dumps({"count": str(true + 1)}), REFERENCE)


def test_checker_rejects_interval_missing_baxter():
    key = "bounds/quadratic/p2/q6/k6"
    moved = dict(REFERENCE[key])
    moved["normalized_upper"] = check.BAXTER_HARD_SQUARE - 1e-6
    # Even a reference that agrees with the interval does not save it.
    reference = {key: moved}
    with pytest.raises(check.CheckError, match="Baxter"):
        check.check(key, json.dumps(moved), reference)


def test_checker_rejects_verify_with_missing_instance():
    key = "verify/aztec/torus/N12"
    rows = [{"m": int(name.split("x")[0]), "n": int(name.split("x")[1]), "transfer": c,
             "brute": c, "match": True} for name, c in REFERENCE[key].items()]
    check.check(key, json.dumps({"results": rows, "ok": True}), REFERENCE)
    with pytest.raises(check.CheckError):
        check.check(key, json.dumps({"results": rows[1:], "ok": True}), REFERENCE)
    with pytest.raises(check.CheckError):
        check.check(key, json.dumps({"results": rows, "ok": False}), REFERENCE)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_permutes_but_keeps_the_instances(workload):
    a, b = workloads.jobs(workload, 1), workloads.jobs(workload, 2)
    assert a == workloads.jobs(workload, 1)
    assert a != b
    assert sorted(j.key for j in a) == sorted(j.key for j in b)
    if workload != "exact-count":  # its largest job always runs first
        assert a[0] == b[0]
    assert all(j.key in REFERENCE for j in a + workloads.jobs(workload, 1, smoke=True))


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None, 0.0],
        ["chain.count_lattice", 1.0, 9.0, 0, {"topology": "cylinder"}, 0.0],
        ["chain.count_cyclic", 1.0, 4.0, 1, {"sweeps": 5}, 0.0],
        ["chain.count_open", 4.0, 8.0, 1, {"sweeps": 1}, 0.0],
    ]
    m = layers.layer_metrics(spans, (3, 1))
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["chain.count_cyclic_s"] == 3.0 and m["chain.count_open_s"] == 4.0
    assert m["chain.cylinder_check_s"] == 4.0 and m["chain.vector_sweeps"] == 6
    assert m["bounds.root_cache_hit_ratio"] == 0.75


def test_note_time_is_not_charged_to_enclosing_spans():
    tracer = layers.Tracer()
    step = tracer.wrap("compat.build_step", lambda: None, lambda a, k, r: time.sleep(0.2) or {})
    chain = tracer.wrap("chain.transfer_chain", lambda: step())
    tracer.wrap("cli.main", chain)()
    m = layers.layer_metrics(tracer.spans, (0, 0))
    assert m["chain.transfer_chain_self_s"] < 0.1
    assert m["cli.self_s"] < 0.1


def test_calibrator_samples_in_its_own_process():
    with calibrate.Calibrator() as calibrator:
        samples = [calibrator.sample() for _ in range(3)]
        pid = calibrator._proc.pid
    assert all(0 < s < 10 for s in samples)
    assert calibrator.wait_s >= sum(samples) and pid != os.getpid()
    assert calibrator._proc.returncode == 0


def test_yardstick_check_refuses_threads_busy_during_calibration():
    spare = len(os.sched_getaffinity(0)) - 1 + run.IDLE_CPU_SLACK
    run._check_yardstick({"idle_cpu_s": 0.0, "cal_wait_s": 1.0}, 0)
    with pytest.raises(run.RunError, match="calibration"):
        run._check_yardstick({"idle_cpu_s": spare + 0.1, "cal_wait_s": 1.0}, 0)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("--workload", "exact-count", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
