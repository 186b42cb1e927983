"""Benchmark for exthh: time to an exact answer on four fixed workloads.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 32 --trace 0

Run from the repository root.  Load model: a closed loop with one client
and one job at a time.  A run repeats passes of the workload for about
``--seconds`` seconds; each pass runs every job of the workload once, in
a fresh single-threaded child interpreter (``child.py``), and the seed
only shuffles the job order of each pass.  After the last pass every
answer is checked: output digests recorded from a known-good commit
(``expected.json``), ``table`` groups against the closed forms, every
certification ``ok`` and the cup-product oracle agreement.

With ``--trace 0`` the run reports the end-to-end metrics (medians over
the passes).  Pass time is reported in units of a fixed reference work
(``reference.py``) timed between the passes, because the speed of a
shared machine changes within minutes.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (``tracing.py``), plus the tracing overhead.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is nonzero if any job failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
TRACES = BENCH / "traces"

HASH_SEED = "0"
CHILD_TIMEOUT_S = 150
# Each pass is preceded by a set-up-only child, which adds a sample to
# the pass's own set-up and then times the reference work for REF_SHARE
# of the previous pass's time (FIRST_REF_S before the first pass).  So
# the run samples set-up and the machine's speed all along.  The
# reference runs in a child because a child's ru_maxrss starts from the
# peak of the process that started it.
REF_SHARE = 0.2
FIRST_REF_S = 1.0
END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    env.pop("EXTHH_SIZE_LIMIT", None)
    return env


def run_pass(
    workload: str, size: str, order: list[int], pass_id: int, trace_out=None, ref_seconds=None
) -> dict:
    """Run one pass in a child interpreter and return its record.  A child
    that crashes or times out yields a record in which every job failed.
    With ``ref_seconds`` the child runs no job: after set-up it times the
    reference work for that long."""
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload, "--size", size,
        "--order", ",".join(map(str, order)), "--pass-id", str(pass_id),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if ref_seconds is not None:
        cmd += ["--reference", str(ref_seconds)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        problem = None if proc.returncode == 0 else f"child exit {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        problem = f"child timed out after {CHILD_TIMEOUT_S} s"
    pass_s = time.monotonic() - start
    if problem is None:
        record = json.loads(proc.stdout.splitlines()[-1])
        record["setup_s"] = record.pop("setup_end") - start
    else:
        jobs = workloads.jobs(workload, size)
        record = {
            "pass_id": pass_id,
            "traced": trace_out is not None,
            "crashed": problem,
            "jobs": [{"id": jobs[i].id, "exit": None, "output": "", "error": problem} for i in order],
        }
    record["pass_s"] = pass_s
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> list[dict]:
    """Run passes, each preceded by a set-up-only child that times the
    reference work, until the next pass would overrun ``seconds`` (at least
    one pass; two when tracing, the second traced).  Returns the records
    in the order they ran."""
    n_jobs = len(workloads.jobs(workload, size))
    rng = random.Random(seed)
    start = time.monotonic()
    records: list[dict] = []
    n_passes, longest, ref_seconds = 0, 0.0, FIRST_REF_S
    while True:
        step_start = time.monotonic()
        order = rng.sample(range(n_jobs), n_jobs)
        records.append(run_pass(workload, size, order, -1, ref_seconds=ref_seconds))
        if "crashed" in records[-1]:
            break
        traced = trace and n_passes % 2 == 1
        trace_out = None
        if traced:
            TRACES.mkdir(exist_ok=True)
            trace_out = TRACES / f"{workload}-{size}-seed{seed}-pass{n_passes}.jsonl.gz"
        records.append(run_pass(workload, size, order, n_passes, trace_out))
        n_passes += 1
        if "crashed" in records[-1]:
            break
        ref_seconds = REF_SHARE * records[-1]["pass_s"]
        longest = max(longest, time.monotonic() - step_start)
        if n_passes >= (2 if trace else 1) and time.monotonic() - start + longest > seconds:
            break
    return records


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _table_mismatch(output: str) -> str | None:
    """Compare every table row with the closed forms, which share no code
    with the oracle or reduced routes that produced it."""
    from exthh.hochschild import closed_form_cohomology, closed_form_homology
    from exthh.rings import parse_ring

    rows = [json.loads(line) for line in output.splitlines()]
    if len(rows) != 8:
        return f"expected 8 table rows (degrees 0..3, both variants), got {len(rows)}"
    for row in rows:
        closed = closed_form_cohomology if row["variant"] == "cohomology" else closed_form_homology
        group = closed(row["n"], row["k"], parse_ring(row["ring"])).group
        if (row["free"], tuple(row["torsion"])) != (group.free_rank, group.torsion):
            return f"{row['variant']} k={row['k']}: got {row['free']}+{row['torsion']}, closed form {group}"
    return None


def job_failure(result: dict, job: workloads.Job, expected: dict[str, str]) -> str | None:
    """Why a job's answer is wrong, or None when it is right."""
    if result["error"]:
        return result["error"]
    if result["exit"] != 0:
        return f"exit code {result['exit']}"
    output = result["output"]
    if sha256(output) != expected.get(job.id):
        return "output differs from the recorded digest"
    if job.kind != "cli":
        bad = [c["name"] for c in map(json.loads, output.splitlines()) if not c["ok"]]
        return f"checks not ok: {bad}" if bad else None
    if job.args[0] == "table":
        return _table_mismatch(output)
    if "oracle agreement: True" not in output.splitlines():
        return "cup products disagree with the bar oracle"
    return None


def check(passes: list[dict], workload: str, size: str, expected: dict[str, str]):
    """(attempted, failed, failure messages) over every job of every pass."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    by_id = {job.id: job for job in workloads.jobs(workload, size)}
    attempted, messages = 0, []
    for p in passes:
        for result in p["jobs"]:
            attempted += 1
            reason = job_failure(result, by_id[result["id"]], expected)
            if reason:
                messages.append(f"pass {p['pass_id']} job {result['id']}: {reason}")
    return attempted, len(messages), messages


def end_to_end_metrics(passes: list[dict]) -> dict[str, float]:
    """Medians over the untraced passes; set-up also over the set-up-only
    children.  ``wall_ref`` is the median pass wall time in units of the
    median time of the reference work; ``wall_s`` and ``ref_s`` are those
    medians."""
    untraced = [p for p in passes if "crashed" not in p and not p["traced"]]
    full = [p for p in untraced if p["jobs"]]
    wall = statistics.median(p["wall_s"] for p in full)
    ref = statistics.median(t for p in untraced if not p["jobs"] for t in p["ref_s"])
    return {
        "wall_ref": wall / ref,
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in full),
        "wall_s": wall,
        "ref_s": ref,
    }


def layer_metrics(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced passes: medians for times, the
    first pass's value for counts, which must repeat in every pass."""
    traced = [p["layers"] for p in passes if p["traced"]]
    problems = [
        f"count {name} differs between traced passes"
        for name in tracing.COUNT_METRICS
        if len({t[name] for t in traced}) > 1
    ]
    out = {
        name: statistics.median(t[name] for t in traced) if unit == "s" else traced[0][name]
        for name, unit in tracing.LAYER_UNITS.items()
    }
    return out, problems


def tracing_overhead(passes: list[dict]) -> tuple[float, int]:
    """Median over adjacent (untraced, traced) pass pairs of traced wall
    time / untraced wall time - 1, and the number of pairs.  Pairing keeps
    both passes of a ratio in the same stretch of machine speed."""
    full = [p for p in passes if p["jobs"]]
    pairs = [(a, b) for a, b in zip(full[::2], full[1::2]) if not a["traced"] and b["traced"]]
    return statistics.median(b["wall_s"] / a["wall_s"] - 1 for a, b in pairs), len(pairs)


def environment(workload: str, seed: int, size: str, seconds: float, trace: bool) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "exthh").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "pythonhashseed": HASH_SEED,
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs every workload at n=2, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "exthh" / "__init__.py").is_file():
        print(f"perfbench: no exthh package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())

    trace = bool(args.trace)
    passes = measure(args.workload, args.seed, args.seconds, trace, args.size)
    attempted, failed, messages = check(passes, args.workload, args.size, expected)
    for message in messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    print(json.dumps({"env": environment(args.workload, args.seed, args.size, args.seconds, trace)}))
    metrics: dict[str, dict] = {}
    if not any("crashed" in p for p in passes):
        if trace:
            values, problems = layer_metrics(passes)
            units = tracing.LAYER_UNITS
            for problem in problems:
                print(f"perfbench: WARNING {problem}", file=sys.stderr)
            overhead, pairs = tracing_overhead(passes)
            print(f"tracing overhead: {overhead:+.4f} of untraced wall time "
                  f"(median over {pairs} paired passes)")
        else:
            values, units = end_to_end_metrics(passes), END_TO_END_UNITS
            print(f"wall_s: {values['wall_s']} s (median pass wall time)")
            print(f"ref_s: {values['ref_s']} s (median reference time)")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    n_traced = sum(1 for p in passes if p["traced"])
    n_probes = sum(1 for p in passes if not p["jobs"])
    print(f"passes: {len(passes) - n_traced - n_probes} untraced, {n_traced} traced; "
          f"{n_probes} set-up-only children")
    print(f"failed_frac: {failed / attempted} ratio ({failed} of {attempted} jobs failed)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
