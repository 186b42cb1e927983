"""Repeat the benchmark over ten seeds and summarise its spread.

    python3 perfbench/repeat.py [--out perfbench/baseline.json]

For every workload, runs ``run.py`` once per seed 1..10, with
``run_seconds`` from BENCHMARK.json, and reports for each end-to-end
metric the median, the quartiles (``statistics.quantiles``, n=4) and the
spread: the distance between the quartiles as a share of the median.  A
spread wider than a third of the metric's bound is flagged.  Each median
is also compared with the one in ``baseline.json``, an earlier set of the
same runs, and a median worse than that by more than the bound is flagged.
The raw ``wall_s`` and ``ref_s`` that each run prints are summarised too,
unflagged.  The exit code is 1 if anything was flagged.  With ``--out``,
one traced run per workload is added and everything is written there as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BASELINE = run.BENCH / "baseline.json"
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0])["env"]
    result["lines"] = lines[1:-1]
    return result


def printed_seconds(lines: list[str]) -> dict[str, float]:
    """The raw ``wall_s`` and ``ref_s`` that an untraced run prints."""
    return {
        line.split(":")[0]: float(line.split()[1])
        for line in lines
        if line.startswith(("wall_s: ", "ref_s: "))
    }


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "samples": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary and one traced run per workload here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    before = json.loads(BASELINE.read_text())["workloads"] if BASELINE.exists() else {}
    summary = {"run_seconds": SPEC["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    steady = True
    for workload in workloads.WORKLOADS:
        results = []
        for seed in SEEDS:
            results.append(run_once(workload, seed, 0))
            values = {k: round(m["value"], 4) for k, m in results[-1]["metrics"].items()}
            results[-1]["printed"] = printed_seconds(results[-1]["lines"])
            print(f"{workload:8} seed {seed}: {values} {results[-1]['printed']}", flush=True)
        env = {k: v for k, v in results[0]["env"].items() if k not in ("workload", "seed")}
        summary.setdefault("env", env)
        entry = {"seeds": SEEDS, "end_to_end": {}, "printed": {
            name: summarise([r["printed"][name] for r in results]) for name in ("wall_s", "ref_s")
        }}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flags = []
            if stats["spread"] > bound / 3:
                flags.append("SPREAD TOO WIDE")
            old = before.get(workload, {}).get("end_to_end", {}).get(name)
            shift = ""
            if old is not None:
                change = stats["median"] / old["median"] - 1
                shift = f" vs baseline {change:+.3f}"
                if change > bound:
                    flags.append("WORSE THAN BASELINE")
            steady = steady and not flags
            print(
                f"{workload:8} {name:12} median {stats['median']:.4f} {stats['unit']:3} "
                f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread {stats['spread']:.3f}"
                f"{shift} (bound {bound}){'  ' + ', '.join(flags) if flags else ''}",
                flush=True,
            )
        if args.out:
            traced = run_once(workload, SEEDS[0], 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            line = next(line for line in traced["lines"] if line.startswith("tracing overhead: "))
            entry["tracing_overhead"] = {"value": float(line.split()[2]), "line": line}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
