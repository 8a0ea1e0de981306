"""One pass of a workload, in a fresh interpreter.

run.py starts this script once per pass, so every pass imports
latticegas anew and starts with empty ``lru_cache``s and its own peak
RSS.  The pass is a closed loop with one client: each job calls
``latticegas.cli.main(argv)``, and the next job is issued only after the
previous job's stdout has been checked against reference.json.

Between jobs, and before the first, the pass asks a calibrate.Calibrator
child for the time of its loop.  Each job's time is rescaled by the mean
of the two samples around it to what it would have taken with the loop
at ``CAL_REF_S``; their sum is ``wall_ref_s``.  ``wall_s`` is the plain
sum of job times, issue to checked output, with the calibration left
out.  ``idle_cpu_s`` is the CPU time this process spent over the
``cal_wait_s`` it waited for samples, when it had nothing of its own to
do.

The last line of stdout is the pass record as one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_job(cli, check, job, reference) -> dict:
    out, err = io.StringIO(), io.StringIO()
    why = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code
    except Exception:
        rc, why = None, "raised " + traceback.format_exc(limit=-1).strip()
    stdout = out.getvalue()
    if why is None and rc != 0:
        why = f"exit {rc}: {err.getvalue().strip()[-500:]}"
    if why is None:
        try:
            check.check(job.key, stdout, reference)
        except check.CheckError as exc:
            why = str(exc)[:500]
    elapsed = time.perf_counter() - start
    record = {"key": job.key, "argv": list(job.argv), "s": elapsed, "ok": why is None,
              "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if why is not None:
        record["why"] = why
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first job would be issued")
    parser.add_argument("--spans", help="file for the span list of a traced pass")
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() just before this interpreter was started")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import latticegas
    import latticegas.cli as cli
    if Path(latticegas.__file__).resolve().parent != SRC / "latticegas":
        print(f"imported latticegas from {latticegas.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import check
    import workloads
    from calibrate import CAL_REF_S, Calibrator

    reference = json.loads((HERE / "reference.json").read_text())["values"]
    job_list = workloads.jobs(args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)

    cpu0 = _cpu_s()
    first_issued = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": first_issued - args.launched}))
        return 0
    with Calibrator() as calibrator:
        cal = [calibrator.sample()]
        results = []
        for job in job_list:
            results.append(_run_job(cli, check, job, reference))
            cal.append(calibrator.sample())
            results[-1]["cal_s"] = (cal[-2] + cal[-1]) / 2
    cpu = _cpu_s() - cpu0
    wall = sum(r["s"] for r in results)

    record = {
        "traced": args.trace,
        "setup_s": first_issued - args.launched,
        "wall_s": wall,
        "wall_ref_s": sum(r["s"] * CAL_REF_S / r["cal_s"] for r in results),
        "cal_s": statistics.median(cal),
        "cal_wait_s": calibrator.wait_s,
        "idle_cpu_s": calibrator.idle_cpu_s,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        from latticegas import bounds
        infos = (bounds.strip_root.cache_info(), bounds.ring_root.cache_info())
        cache = (sum(i.hits for i in infos), sum(i.misses for i in infos))
        record["layers"] = layers.layer_metrics(tracer.spans, cache)
        record["spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "note", "excluded"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
