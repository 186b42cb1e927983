"""Record the digest of every job's output, at both sizes, into expected.json.

    python3 perfbench/record_expected.py

Run once on a commit whose answers are known to be right (the closed
forms, certifications and oracle agreement are checked before a digest is
kept).  Later runs of the benchmark compare against these digests, so a
change to the byte-exact CLI output shows up as a failed job.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    expected = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            jobs = workloads.jobs(workload, size)
            record = run.run_pass(workload, size, list(range(len(jobs))), 0)
            digests = {r["id"]: run.sha256(r["output"]) for r in record["jobs"]}
            _, failed, messages = run.check([record], workload, size, digests)
            if failed:
                print("\n".join(messages), file=sys.stderr)
                return 1
            expected.update(digests)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
