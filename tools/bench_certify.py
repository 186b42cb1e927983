"""Time and trace the matching certifications on fixed cases.

Each case is one call: ``verify.koszul_matching_checks`` (both parity
matchings, Q and halved Z) or ``hochschild.certify_bar_matching`` (the
streamed bar matching).  A case is run ``REPEAT`` times untraced for its
time (the median and the least), then, after a full garbage collection
so that the peak does not follow the collector's timing, once more under
``tracemalloc`` for its traced peak, the most memory Python held during
the call.  Its result is hashed into a digest (the ``CheckResult``s, or
the report's cell and pair counts and critical labels), so two trees
that agree on every case agree on the digests.

Usage, from the repository root:

    python3 tools/bench_certify.py --label after
    python3 tools/bench_certify.py --label before --src /path/to/other/checkout/src

``--src`` names the ``src`` directory ``exthh`` is imported from (this
tree's by default).  The results are stored under the label in the JSON
file (``BENCH_certify.json`` by default), keeping the other labels in
it, and when both ``before`` and ``after`` are there the digests are
compared.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEAT = 5  # untraced, timed runs of each case


def cases() -> dict:
    """The fixed cases, by name: a call and the digest of its result."""
    from exthh.hochschild import certify_bar_matching
    from exthh.verify import koszul_matching_checks

    def koszul(n, d):
        return lambda: koszul_matching_checks(n, d), lambda results: [r.to_json() for r in results]

    def bar(n, d):
        def digest(report):
            return [report.cells, report.matched_pairs, report.critical]

        return lambda: certify_bar_matching(n, d), digest

    return {
        "koszul_matching_checks(5, 4)": koszul(5, 4),
        "koszul_matching_checks(6, 5)": koszul(6, 5),
        "certify_bar_matching(4, 4)": bar(4, 4),
        "certify_bar_matching(5, 3)": bar(5, 3),
        "certify_bar_matching(3, 5)": bar(3, 5),
        "certify_bar_matching(6, 3)": bar(6, 3),
    }


def measure(call, digest, repeat: int) -> dict:
    times, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
        del result
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "traced_peak_mb": round(peak / 2**20, 3),
        "digest": hashlib.sha256(repr(digest(result)).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of these results in the JSON file, e.g. before or after")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory to import exthh from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_certify.json"), help="JSON file to update")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    results = {}
    for name, (call, digest) in cases().items():
        results[name] = measure(call, digest, REPEAT)
        row = results[name]
        print(
            f"{name:30} {row['median_s']:8.4f} s median {row['traced_peak_mb']:8.3f} MB traced  {row['digest'][:12]}",
            flush=True,
        )

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["harness"] = "tools/bench_certify.py"
    report.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "cases": results,
    }
    runs = report["runs"]
    if "before" in runs and "after" in runs:
        before, after = runs["before"]["cases"], runs["after"]["cases"]
        report["same_digests"] = all(before[k]["digest"] == after[k]["digest"] for k in before.keys() & after.keys())
        print("digests equal before and after:", report["same_digests"])
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
