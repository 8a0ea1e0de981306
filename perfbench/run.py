"""latticegas benchmark runner (standard library only).

Run from the repository root:

    python3 perfbench/run.py --workload exact-count --seed 1 --seconds 40 --trace 0

A run is a series of passes, each in a fresh interpreter (worker.py),
until the next pass would end past ``--seconds``; there are at least
``MIN_PASSES``.  Each pass runs the workload's whole job list, checking
every job's output, and the run reports medians over its passes:

* ``wall_ref_s``   first job issued to last output checked, each job's
                   time rescaled to the reference host speed of
                   calibrate.py;
* ``setup_s``      interpreter launch to first job issued (imports,
                   numpy, job generation): the median over
                   ``SETUP_SAMPLES`` launches that stop there, each
                   rescaled like a job by the calibration samples
                   taken before and after it;
* ``peak_rss_mb``  ru_maxrss of the pass's process.

The unscaled ``wall_s`` and the calibration loop's time ``cal_s`` are
printed and recorded beside them.  A pass whose leftover threads took
more CPU than the spare CPUs while a calibration sample was being taken
ends the run with an error, since its rescaled times would be
flattered.

With ``--trace 1`` the passes alternate untraced and traced, starting
untraced, and the run reports the per-layer metrics of layers.py (the
median over traced passes), then ``run.cpu_s``, ``run.wall_s`` and
``run.cal_s`` over untraced passes, and ``trace.overhead_frac`` from the
two medians of ``wall_ref_s``.

Jobs that raise, exit nonzero or print a wrong output are counted as
failed; ``failed_frac`` = failed / attempted is printed with the other
figures.  The full record (machine, seed, every pass and per-job time)
is written to perfbench/out/, and the last line of stdout is the result
as one JSON object.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# Set-up is a fraction of a second and noisy, so each run samples it from
# this many launches that stop before the first job.
SETUP_SAMPLES = 20
# CPUs' worth of the worker's own time, beyond the spare ones, that pipe
# traffic may take while it waits for a calibration sample.
IDLE_CPU_SLACK = 0.25
# Every run must be over within 180 s, however slow its passes.
RUN_DEADLINE_S = 170.0

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    """A pass did not produce a record; the run has no result."""


def _version(dist: str) -> "str | None":
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> "str | None":
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_pass(args, traced: bool, index: int, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        spans = OUT / f"{_stem(args)}-pass{index}-spans.json"
        cmd += ["--trace", "--spans", str(spans)]
    launched = time.monotonic()
    cmd += ["--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise RunError(f"pass {index} ran past the run's {RUN_DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["pass_s"] = time.monotonic() - launched
    return record


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")


def _check_yardstick(record: dict, index: int) -> None:
    """Refuse a pass whose own threads competed with the calibration loop.

    The worker only waits while the loop runs, so its CPU time then was
    spent by threads the program left running.  Once they take more than
    the CPUs the loop does not need, they slow the loop, and with it the
    rescaled times.
    """
    spare = len(os.sched_getaffinity(0)) - 1 + IDLE_CPU_SLACK
    if record["idle_cpu_s"] > spare * record["cal_wait_s"]:
        raise RunError(
            f"pass {index}: threads left running by the program used {record['idle_cpu_s']:.3f} s "
            f"of CPU over the {record['cal_wait_s']:.3f} s of calibration, more than the spare "
            "CPUs, so the calibration loop and wall_ref_s cannot be trusted")


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(args) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups = []
    if not args.trace:
        with calibrate.Calibrator() as calibrator:
            cal = [calibrator.sample()]
            for _ in range(SETUP_SAMPLES):
                seconds = run_pass(args, False, -1, deadline, setup_only=True)["setup_s"]
                cal.append(calibrator.sample())
                setups.append({"s": seconds, "cal_s": (cal[-2] + cal[-1]) / 2})
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args, traced, len(passes), deadline))
        _check_yardstick(passes[-1], len(passes) - 1)
        longest = max(p["pass_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + longest > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(not j["ok"] for j in jobs)
    metrics: dict[str, float] = {}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        for name in ("cpu_s", "wall_s", "cal_s"):
            metrics[f"run.{name}"] = _median(plain, name)
        metrics["trace.overhead_frac"] = _median(traced, "wall_ref_s") / _median(plain, "wall_ref_s") - 1
    else:
        metrics["wall_ref_s"] = _median(plain, "wall_ref_s")
        metrics["setup_s"] = statistics.median(s["s"] * calibrate.CAL_REF_S / s["cal_s"] for s in setups)
        metrics["peak_rss_mb"] = _median(plain, "peak_rss_mb")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(),
        "attempted": len(jobs),
        "failed": failed,
        "failed_frac": failed / len(jobs),
        "metrics": metrics,
        "setup_only_s": setups,
        "passes": passes,
    }


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def report(record: dict, path: Path, units: dict[str, str]) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {len(record['passes'])}  python {m['python']}  numpy {m['numpy']}  "
          f"nproc {m['nproc']}  git {m['git_sha']}")
    for name, value in record["metrics"].items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    if not record["trace"]:
        for name in ("wall_s", "cal_s"):
            print(f"  {name + ' (not gated)':32s} {_median(record['passes'], name):.6g} s")
    print(f"  {'failed_frac':32s} {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} jobs)")
    for p in record["passes"]:
        for j in p["jobs"]:
            if not j["ok"]:
                print(f"  FAILED {' '.join(j['argv'])}: {j['why']}")
    print(f"  record {path.relative_to(ROOT)}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job lists, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latticegas" / "__init__.py").is_file():
        print(f"no latticegas sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        record = measure(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{_stem(args)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    units = _units()
    report(record, path, units)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
