"""One pass of a workload, in a fresh single-threaded interpreter.

Run by ``run.py``, never by hand.  Set-up (interpreter start, importing
``exthh``, parsing every job's arguments and, when tracing, installing the
tracer) ends at the ``setup_end`` timestamp.  The timed region runs the
jobs one at a time in the given order and ends at the last job's answer.
A set-up-only child times the reference work (``reference.py``) instead.
The pass record goes to stdout as one JSON object; checking the answers
is left to the parent, after the timed region.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--size", required=True, choices=workloads.SIZES)
    parser.add_argument("--order", required=True, help="comma-separated job indices")
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("--trace-out", help="trace this pass and write its spans here")
    parser.add_argument("--reference", type=float, metavar="SECONDS",
                        help="after set-up, time the reference work for SECONDS instead of the jobs")
    args = parser.parse_args()

    from exthh import cli, verify

    jobs = workloads.jobs(args.workload, args.size)
    order = [jobs[int(i)] for i in args.order.split(",")]
    specs = [cli.parse_args(list(job.args)) if job.kind == "cli" else None for job in order]
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    setup_end = time.monotonic()
    if args.reference is not None:
        import reference

        ref = reference.sample(args.reference)
        print(json.dumps({"pass_id": args.pass_id, "traced": False, "setup_end": setup_end,
                          "ref_s": ref, "jobs": []}))
        return 0

    results = []
    start = time.perf_counter()
    for job, spec in zip(order, specs):
        record = {"id": job.id, "exit": 0, "output": "", "error": None}
        t0 = time.perf_counter()
        try:
            if job.kind == "cli":
                out = io.StringIO()
                record["exit"] = cli.run(spec, out)
                record["output"] = out.getvalue()
            else:
                checks = getattr(verify, job.kind)(*job.args)
                checks = checks if isinstance(checks, list) else [checks]
                record["output"] = "".join(
                    json.dumps(c.to_json(), sort_keys=True) + "\n" for c in checks
                )
        except Exception as e:  # a failed job is counted, the pass goes on
            record["error"] = f"{type(e).__name__}: {e}"
        record["seconds"] = time.perf_counter() - t0
        results.append(record)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "pass_id": args.pass_id,
        "traced": tracer is not None,
        "setup_end": setup_end,
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "jobs": results,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
