"""The four fixed workloads: the jobs of one pass, at full or tiny size.

A job is either an ``exthh`` command line, run through ``exthh.cli``, or a
call of one ``exthh.verify`` check.  The workload seed never changes a
job; it only shuffles the order of the jobs within a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("oracle", "reduced", "certify", "cup")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``kind`` is ``"cli"`` (``args`` is an argv for
    ``exthh.cli.parse_args``) or the name of an ``exthh.verify`` function
    (``args`` are its positional arguments)."""

    id: str
    kind: str
    args: tuple


def _table(method: str, n: int, ring: str) -> Job:
    argv = (
        "table", "--n", str(n), "--method", method, "--max-degree", "3",
        "--variant", "both", "--ring", ring, "--format", "json",
    )
    return Job(f"table-{method}-n{n}-{ring}", "cli", argv)


def jobs(workload: str, size: str = "full") -> list[Job]:
    """The jobs of one pass of a workload, in their canonical order."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    tiny = size == "tiny"
    if workload == "oracle":
        # A few large blocks: bar builders, integer pivot search, field
        # elimination and the d.d check.
        return [_table("oracle", 2 if tiny else 3, ring) for ring in ("Z", "F3")]
    if workload == "reduced":
        # Thousands of tiny blocks: the block split dominates, pivot
        # search is negligible; Q repeats the work in Fraction arithmetic.
        return [_table("reduced", 2 if tiny else 6, ring) for ring in ("Z", "Q")]
    if workload == "certify":
        # Matching certification only, no elimination.  Every full bar
        # case is above the materialize limit, so it streams; the tiny one
        # passes materialize_limit=0 to stream too.  The parity checks
        # certify materialized complexes.
        bar = [(2, 4, 0)] if tiny else [(4, 4), (5, 3), (3, 5)]
        koszul = (2, 3) if tiny else (5, 4)
        return [
            Job(f"bar_matching_check-n{args[0]}-d{args[1]}", "bar_matching_check", args)
            for args in bar
        ] + [Job(f"koszul_matching_checks-n{koszul[0]}-d{koszul[1]}", "koszul_matching_checks", koszul)]
    if workload == "cup":
        # Kernels and membership solves in Fraction arithmetic, products
        # and the pushforward.
        n = 2 if tiny else 3
        argv = ("cup", "--n", str(n), "--ring", "Q", "--max-degree", "3")
        return [Job(f"cup-n{n}-Q", "cli", argv)]
    raise ValueError(f"unknown workload {workload!r}")
