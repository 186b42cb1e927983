"""Command line front end.

Subcommands: ``table`` (per-degree homology and cohomology), ``verify``
(the cross-validation suites, nonzero exit on any mismatch),
``resolution`` (the multiset resolution with its minimality certificate)
and ``cup`` (cohomology ring structure and generator span).  Output is
deterministic: sorted keys, canonical term order, and no timestamps
unless timing is requested explicitly.

Output formats.  ``--format json`` emits one JSON object per line.
Exterior algebra elements render as e.g. ``x1^x3 - 2*x2``; enveloping
algebra elements as ``x1|1 - 1|x1`` with ``|`` separating the two tensor
factors.  CSV tables carry the columns
``n,k,ring,free_rank,torsion_divisors,method,elapsed_ms,variant`` with
torsion divisors joined by ``;`` and ``elapsed_ms`` empty unless
``--timing`` is passed.  JSON and CSV rows list every torsion divisor, so
the size limit also bounds the length of a row's divisor list: a table
with a row over it is refused (exit 3) before any line is written.  Text
rows print the torsion as runs, ``(Z_2)^m``, and are never refused for
it.  A table holding a number longer than Python prints (4300 decimal
digits by default, ``sys.get_int_max_str_digits``) is refused the same
way; the closed forms refuse it before computing one when 2^(n-1) is
already too long.  With ``--timing``, ``elapsed_ms`` is the measured
homology time of the row; JSON rows also carry ``build_ms``, the time to
build the complex the row was computed from (0 for closed forms).  The
reduced and the oracle complexes are streamed as one block per S_n-orbit
of multidegrees, each read in every degree and dropped before the next is
built: ``build_ms`` sums the builds of a variant's blocks, and each row's
``elapsed_ms`` sums the homology of its degree over those blocks.

Exit codes: 0 on success, 1 on a mismatch, 2 on a usage error, 3 over the
size limit, and 141 (128 + SIGPIPE) when the reader of stdout closes it
early; that last one prints nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

from .complexes import complex_to_json, homology_sums, render_complex_text
from .hochschild import (
    DEFAULT_SIZE_LIMIT,
    SizeLimit,
    bar_orbit_blocks,
    build_reduced_resolution,
    closed_forms,
    minimality_certificate,
    reduced_orbit_blocks,
)
from .products import StructureCheckFailed, generator_span_check, ring_structure_constants
from .rings import Domain, parse_ring
from .verify import run_verification

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_BROKEN_PIPE = 141


@dataclass
class JobSpec:
    """A parsed invocation: what to compute and how to print it."""

    subcommand: str
    n: int
    max_degree: int
    ring: Domain
    rings: tuple[Domain, ...]
    fmt: str
    method: str
    variant: str
    size_limit: int
    timing: bool
    verbose: bool


def _json_line(obj, out) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")), file=out)


def _table_row(spec: JobSpec, variant: str, k: int, group, flags, elapsed: float, build: float):
    row = {
        "n": spec.n,
        "k": k,
        "ring": spec.ring.name,
        "variant": variant,
        "method": spec.method,
        "free": group.free_rank,
    }
    if flags:
        row["flags"] = list(flags)
    if spec.timing:
        row["elapsed_ms"] = int(elapsed * 1000)
        row["build_ms"] = int(build * 1000)
    return row


def _digits_limit() -> int:
    """The most decimal digits Python prints of an int
    (``sys.get_int_max_str_digits``; 4300, its default, where that is
    unlimited or unknown)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _too_long(degree: int, bits: int, limit: int) -> SizeLimit:
    """The refusal of a number of the given bits that has more than
    ``limit`` decimal digits."""
    # a number of b bits has at least (b - 1) log10(2) + 1 digits
    digits = max((bits - 1) * 301 // 1000 + 1, limit + 1)
    return SizeLimit(degree, digits, limit, what="decimal digits or more in one number")


def _table_rows(spec: JobSpec):
    variants = ("homology", "cohomology") if spec.variant == "both" else (spec.variant,)
    degrees = range(spec.max_degree + 1)
    if spec.method == "closed":
        # every closed-form rank is at least 2^(n-1), of n bits: refuse
        # before computing one that is too long to print
        limit = _digits_limit()
        if spec.n > (10**limit).bit_length():
            raise _too_long(0, spec.n, limit)
        for variant in variants:
            forms = closed_forms(spec.n, spec.ring, variant == "cohomology")
            for k in degrees:
                t0 = time.perf_counter()
                cf = next(forms)
                elapsed = time.perf_counter() - t0
                yield _table_row(spec, variant, k, cf.group, cf.flags, elapsed, 0.0), cf.group
        return
    build = reduced_orbit_blocks if spec.method == "reduced" else bar_orbit_blocks
    # every variant's size guard runs before any block is built
    top = spec.max_degree + 1
    streams = [
        (v, build(spec.n, top, v == "cohomology", size_limit=spec.size_limit)) for v in variants
    ]
    for variant, stream in streams:
        seconds: dict = {}
        groups = homology_sums(stream, [(spec.ring, k) for k in degrees], seconds)
        for k in degrees:
            group = groups[spec.ring, k]
            elapsed, build_s = seconds[spec.ring, k], seconds[None]
            yield _table_row(spec, variant, k, group, (), elapsed, build_s), group


def _run_table(spec: JobSpec, out) -> int:
    rows = list(_table_rows(spec))
    limit = _digits_limit()
    for row, group in rows:
        top = max((group.free_rank, *(x for run in group.runs for x in run)))
        if top >= 10**limit:
            raise _too_long(row["k"], top.bit_length(), limit)
    if spec.fmt == "text":
        header = f"{'variant':<12} {'k':>3}  group  (n={spec.n}, ring={spec.ring.name}, method={spec.method})"
        print(header, file=out)
        for row, group in rows:
            note = f"   [{','.join(row['flags'])}]" if "flags" in row else ""
            print(f"{row['variant']:<12} {row['k']:>3}  {group}{note}", file=out)
        return EXIT_OK
    # JSON and CSV list every torsion divisor: a row whose list would pass
    # the size limit is refused before any line is written
    for row, group in rows:
        count = sum(m for _, m in group.runs)
        if count > spec.size_limit:
            raise SizeLimit(row["k"], count, spec.size_limit, what="torsion divisors")
    if spec.fmt == "json":
        for row, group in rows:
            # the row with an empty list, its divisors written into the gap
            row["torsion"] = []
            head, tail = json.dumps(row, sort_keys=True, separators=(",", ":")).split('"torsion":[]')
            out.write(f'{head}"torsion":[')
            _write_divisors(group.runs, ",", out)
            out.write(f"]{tail}\n")
    else:
        print("n,k,ring,free_rank,torsion_divisors,method,elapsed_ms,variant", file=out)
        for row, group in rows:
            elapsed = str(row["elapsed_ms"]) if spec.timing else ""
            out.write(f"{row['n']},{row['k']},{row['ring']},{row['free']},")
            _write_divisors(group.runs, ";", out)
            out.write(f",{row['method']},{elapsed},{row['variant']}\n")
    return EXIT_OK


_DIVISORS_PER_WRITE = 4096


def _write_divisors(runs, sep: str, out) -> None:
    """Write the divisors of (divisor, multiplicity) runs one per summand,
    joined by ``sep``, a long run in pieces of ``_DIVISORS_PER_WRITE``:
    the list itself is never built."""
    first = True
    for d, m in runs:
        item = str(d)
        while m:
            piece = min(m, _DIVISORS_PER_WRITE)
            out.write(("" if first else sep) + sep.join(repeat(item, piece)))
            first = False
            m -= piece


def _run_verify(spec: JobSpec, out) -> int:
    report = run_verification(
        spec.n, spec.max_degree, rings=spec.rings, size_limit=spec.size_limit
    )
    if spec.fmt == "json":
        for check in report.checks:
            _json_line(check.to_json(), out)
        _json_line({"summary": report.ok, "checks": len(report.checks)}, out)
    else:
        for line in report.lines():
            print(line, file=out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _run_resolution(spec: JobSpec, out) -> int:
    resolution = build_reduced_resolution(spec.n, spec.max_degree, size_limit=spec.size_limit)
    minimal = minimality_certificate(resolution)
    if spec.fmt == "json":
        payload = complex_to_json(resolution)
        payload["minimal"] = minimal
        _json_line(payload, out)
    else:
        print(render_complex_text(resolution), file=out)
        print(f"minimal (all entries in the augmentation ideal): {minimal}", file=out)
    return EXIT_OK if minimal else EXIT_MISMATCH


def _run_cup(spec: JobSpec, out) -> int:
    if not spec.ring.is_field:
        print("cup: ring must be a field (Q or Fp)", file=sys.stderr)
        return EXIT_USAGE
    try:
        table = ring_structure_constants(
            spec.n, spec.ring, spec.max_degree, size_limit=spec.size_limit
        )
    except StructureCheckFailed as e:
        print(f"cup: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    span = None
    if spec.ring.char != 2:
        span = generator_span_check(spec.n, spec.ring, spec.max_degree, solvers=table.solvers)
    # each basis cell rendered once, for the sort keys and the printed terms
    name = {c: str(c) for cells in table.basis.values() for c in cells}
    products = sorted(
        table.reduced_products.items(), key=lambda item: (name[item[0][0]], name[item[0][1]])
    )
    if spec.fmt == "json":
        for k in sorted(table.basis):
            _json_line(
                {"type": "basis", "degree": k, "cells": [c.to_json() for c in table.basis[k]]},
                out,
            )
        for (a, b), result in products:
            _json_line(
                {
                    "type": "product",
                    "a": a.to_json(),
                    "b": b.to_json(),
                    "result": sorted(
                        (
                            {"cell": c.to_json(), "coeff": spec.ring.to_json(v)}
                            for c, v in result.items()
                        ),
                        key=lambda d: json.dumps(d, sort_keys=True),
                    ),
                },
                out,
            )
        verdict = {"type": "verdict", "oracle_agreement": table.agree}
        if span is not None:
            verdict["generator_span"] = span.passes
            verdict["span_ranks"] = {str(k): list(v) for k, v in sorted(span.per_degree.items())}
        _json_line(verdict, out)
    else:
        for k in sorted(table.basis):
            cells = ", ".join(name[c] for c in table.basis[k])
            print(f"degree {k} classes: {cells}", file=out)
        for (a, b), result in products:
            ordered = sorted(result.items(), key=lambda cv: name[cv[0]])
            terms = " + ".join(f"({v})*{name[c]}" for c, v in ordered) or "0"
            print(f"{name[a]} . {name[b]} = {terms}", file=out)
        print(f"oracle agreement: {table.agree}", file=out)
        if span is not None:
            print(
                f"generator span: {'ok' if span.passes else 'FAIL'} "
                + str({k: f"{r}/{m}" for k, (r, m) in sorted(span.per_degree.items())}),
                file=out,
            )
        else:
            print("generator span: skipped (characteristic 2)", file=out)
    ok = table.agree and (span is None or span.passes)
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exthh",
        description=(
            "Hochschild (co)homology of exterior algebras over Z, Q and prime "
            "fields, by closed forms, reduced complexes and brute force."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, summary: str, max_degree_default: int):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--n", type=int, required=True, help="number of generators (>= 1)")
        p.add_argument("--max-degree", type=int, default=max_degree_default)
        formats = ("text", "json", "csv") if name == "table" else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument(
            "--size-limit",
            type=int,
            help="per-degree basis bound for every built complex, and for the "
            "torsion divisors a JSON or CSV table row lists "
            f"(default: EXTHH_SIZE_LIMIT, else {DEFAULT_SIZE_LIMIT})",
        )
        p.add_argument("--verbose", action="store_true")
        return p

    p_table = command("table", "per-degree homology and cohomology groups", 4)
    p_table.add_argument("--ring", default="Z", help="Z, Q or Fp (e.g. F2)")
    p_table.add_argument("--variant", choices=("homology", "cohomology", "both"), default="both")
    p_table.add_argument("--method", choices=("closed", "reduced", "oracle"), default="closed")
    p_table.add_argument("--timing", action="store_true", help="include elapsed_ms in output")

    p_verify = command("verify", "cross-validation suites; exit 1 on mismatch", 3)
    p_verify.add_argument(
        "--rings", default="Z,Q,F2,F3", help="comma-separated ring list for the agreements"
    )

    command("resolution", "the multiset resolution and its certificate", 3)

    p_cup = command("cup", "cohomology ring structure constants", 3)
    p_cup.add_argument("--ring", default="Q", help="field: Q or Fp")

    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> JobSpec:
    parser = build_parser()
    args = parser.parse_args(argv)
    size_limit, source = args.size_limit, "--size-limit"
    if size_limit is None:
        raw, source = os.environ.get("EXTHH_SIZE_LIMIT"), "EXTHH_SIZE_LIMIT"
        try:
            size_limit = DEFAULT_SIZE_LIMIT if raw is None else int(raw)
        except ValueError:
            parser.error(f"EXTHH_SIZE_LIMIT must be an integer, got {raw!r}")
    if size_limit < 1:
        parser.error(f"{source} must be >= 1, got {size_limit}")
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.max_degree < 0:
        parser.error("--max-degree must be >= 0")
    try:
        ring = parse_ring(getattr(args, "ring", "Z"))
        rings = tuple(
            parse_ring(r) for r in getattr(args, "rings", "Z,Q,F2,F3").split(",") if r.strip()
        )
    except ValueError as e:
        parser.error(str(e))
    if not rings:
        parser.error("--rings must name at least one ring")
    repeated = next((r for i, r in enumerate(rings) if r in rings[:i]), None)
    if repeated is not None:
        parser.error(f"--rings names {repeated.name} twice")
    return JobSpec(
        subcommand=args.subcommand,
        n=args.n,
        max_degree=args.max_degree,
        ring=ring,
        rings=rings,
        fmt=args.format,
        method=getattr(args, "method", "closed"),
        variant=getattr(args, "variant", "both"),
        size_limit=size_limit,
        timing=getattr(args, "timing", False),
        verbose=args.verbose,
    )


def run(spec: JobSpec, out=None) -> int:
    out = out if out is not None else sys.stdout
    t0 = time.perf_counter()
    if spec.verbose:
        print(
            f"exthh {spec.subcommand}: n={spec.n} max_degree={spec.max_degree} "
            f"ring={spec.ring.name} size_limit={spec.size_limit}",
            file=sys.stderr,
        )
    handlers = {
        "table": _run_table,
        "verify": _run_verify,
        "resolution": _run_resolution,
        "cup": _run_cup,
    }
    handler = handlers.get(spec.subcommand)
    if handler is None:
        raise SystemExit(f"unknown subcommand {spec.subcommand}")
    try:
        code = handler(spec, out)
    except SizeLimit as e:
        print(f"size limit exceeded: {e}", file=sys.stderr)
        return EXIT_SIZE
    if spec.verbose:
        print(
            f"exthh {spec.subcommand}: done in {time.perf_counter() - t0:.2f}s, exit {code}",
            file=sys.stderr,
        )
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = parse_args(argv)
    try:
        code = run(spec)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; stdout now points at devnull, so the
        # interpreter's last flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
