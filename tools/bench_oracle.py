"""Time the bar oracle's orbit blocks: their build, and their homology per ring.

For each case ``bar_orbit_blocks(n, top)`` and each variant (chains,
cochains), a repeat draws the whole stream into a list (the build time),
and then, for each ring, draws it again untimed and times
``homology_sums`` on those fresh blocks at degrees 0..top-1 (the homology
time: the d.d checks and the eliminations of that ring alone, with no
cache filled by another ring).  Each time is the median (and the least)
of the repeats.  The groups of every ring and degree are hashed in order
into one digest per variant, so two trees that agree on every group
agree on the digest.

Usage, from the repository root:

    python3 tools/bench_oracle.py --label after
    python3 tools/bench_oracle.py --label before --src /path/to/other/checkout/src

``--src`` names the ``src`` directory ``exthh`` is imported from (this
tree's by default).  The results are stored under the label in the JSON
file (``BENCH_oracle.json`` by default), keeping the other labels in it,
and when both ``before`` and ``after`` are there the digests are
compared.
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
REPEAT = 5  # builds, and homology passes of each ring, per variant
CASES = ((3, 4), (4, 4))  # bar_orbit_blocks(n, top)
RINGS = ("Z", "Q", "F2", "F3")


def _seconds(times: list[float]) -> dict:
    return {"median_s": round(statistics.median(times), 4), "min_s": round(min(times), 4)}


def measure(n: int, top: int, cohomology: bool, repeat: int) -> dict:
    from exthh.complexes import homology_sums
    from exthh.hochschild import bar_orbit_blocks
    from exthh.rings import parse_ring

    builds = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        blocks = list(bar_orbit_blocks(n, top, cohomology))
        builds.append(time.perf_counter() - t0)
    homology, groups = {}, []
    for name in RINGS:
        ring = parse_ring(name)
        keys = [(ring, k) for k in range(top)]
        times = []
        for _ in range(repeat):
            blocks = list(bar_orbit_blocks(n, top, cohomology))
            t0 = time.perf_counter()
            result = homology_sums(blocks, keys)
            times.append(time.perf_counter() - t0)
        homology[name] = _seconds(times)
        groups += [(name, k, str(result[ring, k])) for k in range(top)]
    return {
        "blocks": len(blocks),
        "cells": sum(block.dim(k) for _orbit, block in blocks for k in range(top + 1)),
        "nnz": sum(m.nnz() for _orbit, block in blocks for m in block.diffs.values()),
        "build": _seconds(builds),
        "homology": homology,
        "digest": hashlib.sha256(repr(groups).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of these results in the JSON file, e.g. before or after")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory to import exthh from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_oracle.json"), help="JSON file to update")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    cases = {}
    for n, top in CASES:
        for cohomology in (False, True):
            name = f"bar_orbit_blocks({n}, {top}) {'cochains' if cohomology else 'chains'}"
            case = cases[name] = measure(n, top, cohomology, REPEAT)
            rings = "  ".join(f"{r} {case['homology'][r]['median_s']:.4f}" for r in RINGS)
            print(f"{name:38} build {case['build']['median_s']:.4f} s  {rings}  {case['digest'][:12]}", flush=True)

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["harness"] = "tools/bench_oracle.py"
    report.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "cases": cases,
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
