"""Tests of the benchmark itself, at tiny size (n=2), through the same code
path as a full run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def tiny(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    result["lines"] = lines[:-1]
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_the_end_to_end_metrics(workload):
    result = tiny(workload, 0)
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    seconds = {line.split(":")[0]: float(line.split()[1]) for line in result["lines"]
               if line.startswith(("wall_s:", "ref_s:"))}
    assert metrics["wall_ref"]["value"] == pytest.approx(seconds["wall_s"] / seconds["ref_s"])


def test_traced_run_prints_the_per_layer_metrics():
    result = tiny("oracle", 1)
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert any(line.startswith("tracing overhead: ") for line in result["lines"])
    assert metrics["linalg.elim_calls"]["value"] > 0
    assert metrics["morse.stream_check_s"]["value"] == 0


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_job_order():
    orders = [
        [[j["id"] for j in p["jobs"]] for p in run.measure("certify", 5, 0, True, "tiny")]
        for _ in range(2)
    ]
    assert orders[0] == orders[1]


def test_wrong_expected_answer_counts_as_failed():
    passes = run.measure("oracle", 1, 0, False, "tiny")
    expected = json.loads(run.EXPECTED.read_text())
    assert run.check(passes, "oracle", "tiny", expected)[1] == 0

    result = passes[-1]["jobs"][0]
    wrong_digest = {**expected, result["id"]: run.sha256("not the answer")}
    attempted, failed, _ = run.check(passes, "oracle", "tiny", wrong_digest)
    assert failed / attempted > 0

    # A forged group whose digest is recorded still fails the closed forms.
    rows = [json.loads(line) for line in result["output"].splitlines()]
    rows[1]["free"] += 1
    result["output"] = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    forged = {**expected, result["id"]: run.sha256(result["output"])}
    attempted, failed, messages = run.check(passes, "oracle", "tiny", forged)
    assert failed == 1 and "closed form" in messages[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_answers_and_counts_repeat(workload, tmp_path):
    order = list(range(len(workloads.jobs(workload, "tiny"))))
    plain = run.run_pass(workload, "tiny", order, 0)
    traced = [
        run.run_pass(workload, "tiny", order[::step], i, tmp_path / f"pass{i}.jsonl.gz")
        for i, step in ((1, 1), (2, -1))
    ]
    answers = [{j["id"]: j["output"] for j in p["jobs"]} for p in (plain, *traced)]
    assert answers[0] == answers[1] == answers[2]
    counts = [{k: p["layers"][k] for k in tracing.COUNT_METRICS} for p in traced]
    assert counts[0] == counts[1]

    with gzip.open(tmp_path / "pass1.jsonl.gz", "rt") as f:
        spans = [json.loads(line) for line in f]
    assert spans and set(spans[0]) == {"id", "name", "start", "end", "parent", "pass"}
    assert all(s["start"] <= s["end"] and s["pass"] == 1 for s in spans)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
