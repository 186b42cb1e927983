"""Time ``linalg.smith_normal_form`` alone on fixed sets of integer matrices.

Each set is built once, before any timing: the differentials of the orbit
blocks of a bar or reduced complex (both variants unless named), or of a
whole complex.  A repeat runs the Smith normal form of every matrix of the
set; the set's time is the median (and the least) of the repeats.  The
``(divisors, rank)`` results of a set are hashed in order into one
digest, so two trees that agree on every matrix agree on the digest.

Usage, from the repository root:

    python3 tools/bench_snf.py --label after
    python3 tools/bench_snf.py --label before --src /path/to/other/checkout/src

``--src`` names the ``src`` directory ``exthh`` is imported from (this
tree's by default).  The results are stored under the label in the JSON
file (``BENCH_snf.json`` by default), keeping the other labels in it, and
when both ``before`` and ``after`` are there the digests are compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEAT = 5  # Smith normal forms of each set per run


def _blocks(stream) -> list:
    return [m for _, block in stream for m in block.diffs.values()]


def matrix_sets() -> dict[str, list]:
    """The fixed matrix sets, by name."""
    from exthh.hochschild import (
        bar_orbit_blocks,
        build_bar_hochschild_chain,
        build_bar_hochschild_cochain,
        build_reduced_chain,
        reduced_orbit_blocks,
    )

    def both(blocks, n, k):
        return _blocks(blocks(n, k, False)) + _blocks(blocks(n, k, True))

    def whole(build, n, k):
        return list(build(n, k).diffs.values())

    return {
        "bar_orbit_blocks(3, 4)": both(bar_orbit_blocks, 3, 4),
        "reduced_orbit_blocks(8, 6)": both(reduced_orbit_blocks, 8, 6),
        "bar_orbit_blocks(4, 4)": both(bar_orbit_blocks, 4, 4),
        "build_reduced_chain(6, 6)": whole(build_reduced_chain, 6, 6),
        "build_bar_hochschild_chain(3, 4)": whole(build_bar_hochschild_chain, 3, 4),
        "build_bar_hochschild_cochain(3, 4)": whole(build_bar_hochschild_cochain, 3, 4),
    }


def measure(matrices: list, repeat: int) -> dict:
    from exthh.linalg import smith_normal_form

    times, results = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = [smith_normal_form(m) for m in matrices]
        times.append(time.perf_counter() - t0)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    largest = max(matrices, key=lambda m: m.rows * m.cols)
    return {
        "matrices": len(matrices),
        "largest": f"{largest.rows}x{largest.cols}",
        "nnz": sum(m.nnz() for m in matrices),
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "digest": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of these results in the JSON file, e.g. before or after")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory to import exthh from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_snf.json"), help="JSON file to update")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    sets = {}
    for name, matrices in matrix_sets().items():
        sets[name] = measure(matrices, REPEAT)
        print(f"{name:36} {sets[name]['median_s']:8.4f} s median  {sets[name]['digest'][:12]}", flush=True)

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["harness"] = "tools/bench_snf.py"
    report.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "sets": sets,
    }
    runs = report["runs"]
    if "before" in runs and "after" in runs:
        before, after = runs["before"]["sets"], runs["after"]["sets"]
        report["same_digests"] = all(before[k]["digest"] == after[k]["digest"] for k in before.keys() & after.keys())
        print("digests equal before and after:", report["same_digests"])
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
