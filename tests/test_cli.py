import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
import sympy

import exthh
from exthh import cli
from exthh.cli import EXIT_MISMATCH, EXIT_OK, EXIT_SIZE, EXIT_USAGE, main, parse_args, run
from exthh.rings import PRIME_LIMIT, is_prime, parse_ring


def capture(argv):
    out = io.StringIO()
    code = run(parse_args(argv), out=out)
    return code, out.getvalue()


def test_table_json_matches_closed_forms():
    code, text = capture(["table", "--n", "2", "--ring", "Z", "--max-degree", "3", "--format", "json"])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in text.strip().splitlines()]
    hom = {r["k"]: r for r in rows if r["variant"] == "homology"}
    coh = {r["k"]: r for r in rows if r["variant"] == "cohomology"}
    assert hom[1] == {
        "free": 4,
        "k": 1,
        "method": "closed",
        "n": 2,
        "ring": "Z",
        "torsion": [2, 2, 2],
        "variant": "homology",
    }
    assert coh[1]["free"] == 4 and coh[1]["torsion"] == [2, 2]


def test_table_methods_agree():
    outputs = []
    for method in ("closed", "reduced", "oracle"):
        code, text = capture(
            ["table", "--n", "1", "--ring", "Z", "--max-degree", "3", "--format", "json", "--method", method]
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in text.strip().splitlines()]
        outputs.append(
            {(r["variant"], r["k"]): (r["free"], tuple(r["torsion"])) for r in rows}
        )
    assert outputs[0] == outputs[1] == outputs[2]


def test_table_factors_each_differential_once(monkeypatch):
    # the reduced route builds one integer block per S_n-orbit of
    # multidegrees, never the whole complex, and eliminates each block
    # differential once in the requested ring: Z and Q through the Smith
    # normal form (Q reads its rank), F3 through field_rank mod 3
    from exthh import hochschild, linalg
    from exthh.rings import F3

    assert not hasattr(cli, "build_reduced_chain")

    def whole(*args, **kwargs):
        raise AssertionError("the whole reduced complex was built")

    monkeypatch.setattr(hochschild, "_base_change", whole)
    eliminated = {"smith_normal_form": [], "field_rank": []}
    for name, seen in eliminated.items():
        def counting(m, *field, original=getattr(linalg, name), seen=seen):
            # field_rank reads an integer block in the field it is given
            seen.append((m.map_domain(*field) if field else m).nnz())
            return original(m, *field)

        monkeypatch.setattr(linalg, name, counting)
    built = []

    def build(*args, original=cli.reduced_orbit_blocks, **kwargs):
        # the blocks are streamed: note each one's domain and entries in
        # the ring as it passes
        stream, blocks = original(*args, **kwargs), []
        built.append(blocks)

        def noting():
            for orbit, block in stream:
                diffs = [d.map_domain(F3) if ring == "F3" else d for d in block.diffs.values()]
                blocks.append((block.domain.name, sum(d.nnz() for d in diffs)))
                yield orbit, block

        return noting()

    monkeypatch.setattr(cli, "reduced_orbit_blocks", build)
    for ring, used, unused in (
        ("Z", "smith_normal_form", "field_rank"),
        ("Q", "smith_normal_form", "field_rank"),
        ("F3", "field_rank", "smith_normal_form"),
    ):
        for seen in eliminated.values():
            seen.clear()
        built.clear()
        code, _ = capture(
            ["table", "--n", "3", "--method", "reduced", "--max-degree", "3",
             "--variant", "homology", "--ring", ring]
        )
        assert code == EXIT_OK
        (blocks,) = built
        assert blocks and all(domain == "Z" for domain, _nnz in blocks)
        nnz = sum(block_nnz for _domain, block_nnz in blocks)
        assert eliminated[used] and sum(eliminated[used]) == nnz, ring
        assert eliminated[unused] == [], ring


def test_oracle_table_builds_bar_orbit_blocks_once(monkeypatch):
    # the oracle route builds one integer bar block per S_n-orbit of
    # multidegrees per variant, never the whole bar complex, and reads
    # each block in the requested ring: Z and Q through the Smith normal
    # form, F3 through field_rank mod 3
    from exthh import hochschild, linalg

    assert not hasattr(cli, "build_bar_hochschild_chain")
    assert not hasattr(cli, "build_bar_hochschild_cochain")

    def whole(*args, **kwargs):
        raise AssertionError("the whole bar complex was built")

    monkeypatch.setattr(hochschild, "_base_change", whole)
    eliminated = {"smith_normal_form": 0, "field_rank": 0}
    for name in eliminated:
        def counting(m, *field, original=getattr(linalg, name), name=name):
            eliminated[name] += 1
            return original(m, *field)

        monkeypatch.setattr(linalg, name, counting)
    built = []

    def build(*args, original=cli.bar_orbit_blocks, **kwargs):
        # the blocks are streamed: note each one's domain as it passes
        stream, domains = original(*args, **kwargs), []
        built.append(domains)

        def noting():
            for orbit, block in stream:
                domains.append(block.domain.name)
                yield orbit, block

        return noting()

    monkeypatch.setattr(cli, "bar_orbit_blocks", build)
    for ring, used, unused in (
        ("Z", "smith_normal_form", "field_rank"),
        ("Q", "smith_normal_form", "field_rank"),
        ("F3", "field_rank", "smith_normal_form"),
    ):
        eliminated.update(dict.fromkeys(eliminated, 0))
        built.clear()
        code, _ = capture(
            ["table", "--n", "3", "--method", "oracle", "--max-degree", "2", "--ring", ring]
        )
        assert code == EXIT_OK
        assert len(built) == 2  # homology and cohomology
        assert all(domains and set(domains) == {"Z"} for domains in built)
        assert eliminated[used] and not eliminated[unused], ring


def test_table_field_dimension():
    code, text = capture(["table", "--n", "1", "--ring", "F2", "--max-degree", "0", "--format", "json"])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert all(r["free"] == 2 and r["torsion"] == [] for r in rows)


def test_table_flags_on_odd_n_cohomology():
    code, text = capture(["table", "--n", "1", "--ring", "Z", "--max-degree", "1", "--format", "json"])
    rows = [json.loads(line) for line in text.strip().splitlines()]
    flagged = [r for r in rows if r.get("flags")]
    assert flagged and all(r["variant"] == "cohomology" and r["k"] == 0 for r in flagged)


def test_output_deterministic():
    for argv in (
        ["table", "--n", "2", "--ring", "Q", "--max-degree", "4", "--format", "csv"],
        ["resolution", "--n", "2", "--max-degree", "3", "--format", "json"],
        ["cup", "--n", "1", "--ring", "F2", "--max-degree", "2", "--format", "json"],
        ["verify", "--n", "1", "--max-degree", "2", "--format", "json"],
    ):
        _code1, first = capture(argv)
        _code2, second = capture(argv)
        assert first == second


def test_csv_columns():
    code, text = capture(["table", "--n", "1", "--ring", "Z", "--max-degree", "2", "--format", "csv"])
    lines = text.strip().splitlines()
    assert lines[0] == "n,k,ring,free_rank,torsion_divisors,method,elapsed_ms,variant"
    assert lines[1] == "1,0,Z,2,,closed,,homology"
    assert lines[2] == "1,1,Z,1,2,closed,,homology"


def test_verify_exit_zero_and_summary():
    code, text = capture(["verify", "--n", "1", "--max-degree", "3"])
    assert code == EXIT_OK
    assert "summary" in text and "FAIL" not in text


def test_verify_json_records():
    code, text = capture(["verify", "--n", "1", "--max-degree", "2", "--format", "json"])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert rows[-1]["summary"] is True
    assert all(r["ok"] for r in rows[:-1])


def test_resolution_reports_minimality():
    code, text = capture(["resolution", "--n", "2", "--max-degree", "3"])
    assert code == EXIT_OK
    assert "minimal (all entries in the augmentation ideal): True" in text
    code, text = capture(["resolution", "--n", "2", "--max-degree", "2", "--format", "json"])
    payload = json.loads(text)
    assert payload["minimal"] is True
    assert payload["degrees"]["1"]["basis"] == [{"tau": [1]}, {"tau": [2]}]


def test_cup_text_and_verdict():
    code, text = capture(["cup", "--n", "1", "--ring", "Q", "--max-degree", "2"])
    assert code == EXIT_OK
    assert "oracle agreement: True" in text
    assert "generator span: ok" in text
    code, text = capture(["cup", "--n", "1", "--ring", "F2", "--max-degree", "2"])
    assert code == EXIT_OK
    assert "generator span: skipped (characteristic 2)" in text


def test_cup_json_verdict_record():
    code, text = capture(["cup", "--n", "2", "--ring", "Q", "--max-degree", "2", "--format", "json"])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in text.strip().splitlines()]
    verdict = rows[-1]
    assert verdict["type"] == "verdict"
    assert verdict["oracle_agreement"] is True and verdict["generator_span"] is True


def test_size_limit_exit_code():
    code, _text = capture(
        ["table", "--n", "3", "--ring", "Z", "--max-degree", "6", "--method", "oracle", "--size-limit", "1000"]
    )
    assert code == EXIT_SIZE


def test_reduced_table_refuses_large_n_at_once():
    code, text = capture(["table", "--n", "40", "--method", "reduced", "--max-degree", "1"])
    assert code == EXIT_SIZE and text == ""


def test_oracle_table_refuses_large_n_at_once():
    code, text = capture(["table", "--n", "40", "--method", "oracle", "--max-degree", "1"])
    assert code == EXIT_SIZE and text == ""


def test_closed_table_answers_large_n_in_text():
    # the torsion stays one run (Z_2)^m, so a text row never lists its
    # summands however many there are
    code, text = capture(["table", "--n", "20", "--method", "closed", "--max-degree", "8", "--ring", "Z"])
    assert code == EXIT_OK
    assert "homology       8  Z^1163958681600 + (Z_2)^893584408575" in text.splitlines()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_json_and_csv_refuse_a_divisor_list_over_the_limit(fmt):
    # JSON and CSV list every divisor: refused before any line, exit 3
    argv = ["table", "--n", "20", "--method", "closed", "--max-degree", "8", "--ring", "Z"]
    proc = subprocess.run(
        [sys.executable, "-m", "exthh.cli", *argv, "--format", fmt],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(exthh.__file__).resolve().parents[1])},
        timeout=60,
    )
    assert proc.returncode == EXIT_SIZE
    assert proc.stdout == ""
    assert proc.stderr.startswith("size limit exceeded: ") and "torsion divisors" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_json_refusal_checks_every_row_before_the_first_line(capsys):
    # n=2: homology degree 3 has 5 divisors, cohomology degree 3 has 4;
    # the limit 4 lets every row but one through, and still nothing is
    # written
    argv = ["table", "--n", "2", "--ring", "Z", "--max-degree", "3", "--format", "json"]
    assert main(argv + ["--size-limit", "4"]) == EXIT_SIZE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "size limit exceeded: degree 3 needs 5 torsion divisors, over the limit 4\n"
    assert main(argv + ["--size-limit", "5"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 8
    # text rows print runs and are not refused for their torsion
    code, text = capture(["table", "--n", "2", "--ring", "Z", "--max-degree", "3", "--size-limit", "4"])
    assert code == EXIT_OK and "(Z_2)^5" in text


def test_closed_table_refuses_numbers_too_long_to_print(capsys):
    # Python prints an int of at most 4300 decimal digits by default;
    # 2^14284 has 4300 and 2^14285 has 4301.  n = 14286 is refused before
    # any closed form is computed, n = 14280 once its degree-1 rank
    # (2^14279 * 14280) is, and n = 14285 still answers in degree 0
    if getattr(sys, "get_int_max_str_digits", lambda: 4300)() not in (0, 4300):
        pytest.skip("the interpreter prints ints up to another number of digits")
    for n, max_degree, degree in ((10**6, 3, 0), (14286, 0, 0), (14280, 2, 1)):
        argv = ["table", "--n", str(n), "--ring", "Q", "--max-degree", str(max_degree)]
        assert main(argv) == EXIT_SIZE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"size limit exceeded: degree {degree} needs ")
        assert captured.err.endswith(" decimal digits or more in one number, over the limit 4300\n")
    code, text = capture(["table", "--n", "14285", "--ring", "Q", "--max-degree", "0"])
    assert code == EXIT_OK and f"homology       0  Z^{2**14284 + 1}" in text.splitlines()


def test_verify_refuses_large_n_at_once():
    code, text = capture(["verify", "--n", "40"])
    assert code == EXIT_SIZE and text == ""


def test_verify_keeps_every_check_to_the_size_limit(monkeypatch, capsys):
    # n=3 to degree 0: the triple agreements build their blocks to degree
    # 1 and fit a limit of 22 (the bar blocks hold 22 cells there, the
    # reduced ones 9), but the parity matchings stream the whole reduced
    # complex to degree 1, 2^3 * 3 = 24 cells, and refuse on the call
    from exthh import hochschild, verify
    from exthh.hochschild import SizeLimit

    for cohomology in (False, True):
        assert all(c.ok for c in verify.triple_agreement(3, 0, cohomology=cohomology, size_limit=22))
    assert main(["verify", "--n", "3", "--max-degree", "0", "--size-limit", "22"]) == EXIT_SIZE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "size limit exceeded: degree 1 needs 24 basis elements, over the limit 22\n"

    def refuse(*args, **kwargs):
        raise AssertionError("a cell was streamed before the size check")

    monkeypatch.setattr(hochschild, "_faces", refuse)
    with pytest.raises(SizeLimit):
        verify.koszul_matching_checks(3, 0, 22)


def test_orbit_table_refusal_names_the_block_cells(capsys):
    # n=10 to degree 10 (one above --max-degree 9): 20,565 cells in the
    # representative blocks, 252 in the largest, against 94,595,072 in
    # the whole complex; the 20 weights need 20,480 table rows
    argv = ["table", "--n", "10", "--method", "reduced", "--max-degree", "9"]
    assert main(argv + ["--size-limit", "20564"]) == EXIT_SIZE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "size limit exceeded: degree 10 needs 20565 cells in its orbit blocks, "
        "252 in the largest, over the limit 20564\n"
    )


def test_orbit_table_refuses_past_its_reach_before_any_build(monkeypatch, capsys):
    # the guard counts the 2^n monomials, then the cells of the
    # representative blocks, before any orbit is listed or block built: at
    # n=21 the monomials alone, at n=19 the degree-1 bar words, at n=11
    # the degree-2 ones, at n=20 the reduced cells of degree 10
    from exthh import hochschild

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for name in ("_reduced_block", "_bar_block", "_bar_orbits", "_orbit_representatives", "_action"):
        monkeypatch.setattr(hochschild, name, refuse)
    for method, n, top, need in (
        ("reduced", 21, 0, "degree 0 needs 2097152 basis elements"),
        ("oracle", 19, 0, "degree 1 needs 2097110 cells in its orbit blocks, 524287 in the largest"),
        ("oracle", 11, 1, "degree 2 needs 4368048 cells in its orbit blocks, 177145 in the largest"),
        ("reduced", 20, 9, "degree 10 needs 3214356 cells in its orbit blocks, 184756 in the largest"),
    ):
        argv = ["table", "--n", str(n), "--method", method, "--max-degree", str(top)]
        assert main(argv) == EXIT_SIZE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"size limit exceeded: {need}, over the limit 2000000\n"


def test_orbit_tables_at_large_n_match_the_closed_forms():
    # an orbit route answers wherever its monomials and block cells fit
    # the limit, group for group as the closed forms
    for n, method, top in ((12, "oracle", 0), (20, "reduced", 1)):
        argv = ["table", "--n", str(n), "--max-degree", str(top)]
        code, text = capture(argv + ["--method", method])
        closed_code, closed = capture(argv + ["--method", "closed"])
        assert code == closed_code == EXIT_OK
        header, *rows = text.splitlines()
        closed_header, *closed_rows = closed.splitlines()
        assert header == closed_header.replace("method=closed", f"method={method}")
        assert rows == closed_rows and len(rows) == 2 * (top + 1)


def test_cup_renders_each_basis_cell_once(monkeypatch):
    from exthh.hochschild import CochainCell

    rendered = []

    def counting(cell, original=CochainCell.__str__):
        rendered.append(cell)
        return original(cell)

    monkeypatch.setattr(CochainCell, "__str__", counting)
    for fmt in ("text", "json"):
        rendered.clear()
        code, _text = capture(["cup", "--n", "3", "--ring", "Q", "--max-degree", "2", "--format", fmt])
        assert code == EXIT_OK
        assert rendered and len(rendered) == len(set(rendered)), fmt


def _refuse_to_build(monkeypatch):
    from exthh import hochschild, products

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(products, "build_reduced_cochain", refuse)
    monkeypatch.setattr(hochschild, "lazy_projection", refuse)


def test_cup_refuses_oversized_bar_words_at_once(monkeypatch):
    # 2^6 * 63^3 bar cochain cells in degree 3, over the default limit
    _refuse_to_build(monkeypatch)
    code, text = capture(["cup", "--n", "6", "--ring", "Q", "--max-degree", "3"])
    assert code == EXIT_SIZE and text == ""


def test_cup_refuses_large_n_at_once(monkeypatch):
    _refuse_to_build(monkeypatch)
    code, text = capture(["cup", "--n", "40"])
    assert code == EXIT_SIZE and text == ""


def test_cup_builds_once_and_factors_no_bar_matrix(monkeypatch):
    from exthh import products
    from exthh.combinat import multiset_coefficient

    builds, kernels = [], []

    def build(*args, original=products.build_reduced_cochain, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    def kernel(m, original=products.field_kernel_basis):
        kernels.append(m)
        return original(m)

    monkeypatch.setattr(products, "build_reduced_cochain", build)
    monkeypatch.setattr(products, "field_kernel_basis", kernel)
    code, text = capture(["cup", "--n", "2", "--ring", "Q", "--max-degree", "3"])
    assert code == EXIT_OK and "generator span: ok" in text
    assert len(builds) == 1
    # one independence check per degree, on the stacked class solver
    assert [m.rows for m in kernels] == [4 * multiset_coefficient(2, k) for k in range(4)]


def test_cup_check_failure_is_a_mismatch(monkeypatch, capsys):
    from exthh import products
    from helpers import broken_projection

    monkeypatch.setattr(
        products, "bar_projection", lambda n, d, **kw: broken_projection(n, d, "negate", **kw)
    )
    code, text = capture(["cup", "--n", "2", "--ring", "Q", "--max-degree", "2"])
    assert code == EXIT_MISMATCH and text == ""
    assert capsys.readouterr().err.startswith("cup: the bar lift of ")


def test_cup_check_failure_is_a_mismatch_under_optimize():
    src = str(Path(exthh.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, tests, env.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "from exthh import cli, products\n"
        "from helpers import broken_projection\n"
        "products.bar_projection = lambda n, d, **kw: broken_projection(n, d, 'drop-critical', **kw)\n"
        "sys.exit(cli.main(['cup', '--n', '2', '--ring', 'Q', '--max-degree', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_MISMATCH
    assert proc.stderr.startswith("cup: the bar lift of ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bad_size_limit_env_is_a_usage_error():
    src = str(Path(exthh.__file__).resolve().parents[1])
    env = dict(os.environ, EXTHH_SIZE_LIMIT="abc")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "exthh.cli", "table", "--n", "1", "--max-degree", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_USAGE
    assert "EXTHH_SIZE_LIMIT" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["resolution", "--n", "2", "--max-degree", "2"],
        # short enough to sit in the stdout buffer until the last flush
        ["table", "--n", "1", "--max-degree", "1"],
    ],
    ids=["resolution", "table"],
)
def test_closed_stdout_exits_quietly(argv):
    # the reader closes the pipe before reading anything, as
    # `exthh ... | head -1` may
    src = str(Path(exthh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "exthh.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert stderr == b""


def test_size_limit_env_sets_the_default(monkeypatch):
    monkeypatch.setenv("EXTHH_SIZE_LIMIT", "7")
    assert parse_args(["table", "--n", "1"]).size_limit == 7
    assert parse_args(["table", "--n", "1", "--size-limit", "9"]).size_limit == 9


def test_timing_splits_build_from_homology(monkeypatch):
    # a fake clock advancing one second per reading: each block's build
    # and its homology in each degree are one interval each, summed over
    # the blocks, and drawing past the last block (the coverage check)
    # adds one more to the build; nothing is spread over rows
    from exthh import hochschild

    blocks = len(list(hochschild._orbit_representatives(2, 3, False)))
    ticks = iter(range(1000))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(ticks)))
    argv = ["table", "--n", "2", "--method", "reduced", "--max-degree", "2", "--variant", "homology"]
    code, text = capture(argv + ["--format", "json", "--timing"])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert [(r["elapsed_ms"], r["build_ms"]) for r in rows] == [(1000 * blocks, 1000 * (blocks + 1))] * 3
    code, text = capture(argv + ["--format", "csv", "--timing"])
    assert text.splitlines()[0] == "n,k,ring,free_rank,torsion_divisors,method,elapsed_ms,variant"
    assert all(line.split(",")[6] == str(1000 * blocks) for line in text.splitlines()[1:])
    code, text = capture(["table", "--n", "2", "--max-degree", "1", "--format", "json", "--timing"])
    assert all(json.loads(line)["build_ms"] == 0 for line in text.strip().splitlines())


USAGE_ERRORS = (
    ["table"],  # missing --n
    ["table", "--n", "0"],
    ["bogus", "--n", "1"],
    ["table", "--n", "1", "--max-degree", "-1"],
    ["table", "--n", "1", "--ring", "F4"],
    ["table", "--n", "1", "--ring", "R"],
    ["cup", "--n", "1", "--ring", "Fx"],
    # a product of two large primes, a Carmichael number, 1, and primes
    # at or over the limit of the exact test
    ["table", "--n", "1", "--ring", f"F{(10**9 + 7) * (10**9 + 9)}"],
    ["table", "--n", "1", "--ring", "F561"],
    ["table", "--n", "1", "--ring", "F1"],
    ["table", "--n", "1", "--ring", f"F{PRIME_LIMIT}"],
    ["table", "--n", "1", "--ring", f"F{2**89 - 1}"],
    ["verify", "--n", "1", "--rings", "Z,W"],
    ["verify", "--n", "1", "--rings", ","],
    ["verify", "--n", "2", "--max-degree", "1", "--rings", "Z,Z"],
    ["verify", "--n", "2", "--max-degree", "1", "--rings", "Z,F3,q,f3"],
    ["table", "--n", "1", "--ring", "F1_3"],
    ["table", "--n", "1", "--ring", "F03"],
    ["table", "--n", "1", "--size-limit", "-5"],
    ["table", "--n", "1", "--size-limit", "0"],
    ["verify", "--n", "1", "--format", "csv"],
    ["resolution", "--n", "1", "--format", "csv"],
    ["cup", "--n", "1", "--ring", "Q", "--max-degree", "1", "--format", "csv"],
)


def test_usage_errors(capsys):
    # usage errors exit 2, apart from 1 (a mismatch) and 3 (size limit)
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == EXIT_USAGE, argv
        assert "error:" in capsys.readouterr().err, argv


def test_repeated_ring_is_named(capsys):
    # a ring named twice, in any spelling, would run and count its checks twice
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--n", "2", "--rings", "Z,Q,F3,f3"])
    assert exc.value.code == EXIT_USAGE
    assert "--rings names F3 twice" in capsys.readouterr().err
    assert [r.name for r in parse_args(["verify", "--n", "2", "--rings", "z, Q,F2,f3"]).rings] == [
        "Z",
        "Q",
        "F2",
        "F3",
    ]


def test_prime_field_names_are_ascii_decimal():
    assert [parse_ring(s).p for s in ("F2", "f3", " F13 ", "F101")] == [2, 3, 13, 101]
    for bad in ("F", "F+3", "F-3", "F03", "F003", "F\u0663", "F1_3", "F 3", "F3.0", "F0x3", "F\u00b3"):
        with pytest.raises(ValueError, match="bad prime field"):
            parse_ring(bad)


def test_is_prime_against_trial_division_and_sympy():
    # deterministic Miller-Rabin: exact below PRIME_LIMIT, refused above
    def trial(p):
        return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))

    assert [p for p in range(3000) if is_prime(p)] == [p for p in range(3000) if trial(p)]
    assert not any(is_prime(c) for c in (561, 1105, 1729, 2465, 2821, 6601, 8911))
    assert is_prime(2**61 - 1) and not is_prime((10**9 + 7) * (10**9 + 9))
    # the least strong pseudoprime to the twelve prime bases 2..37
    assert not is_prime(318665857834031151167461)
    rng = Random(7)
    for p in (rng.randrange(PRIME_LIMIT) | 1 for _ in range(300)):
        assert is_prime(p) == sympy.isprime(p), p
    with pytest.raises(ValueError):
        is_prime(PRIME_LIMIT)


def test_large_prime_field():
    code, text = capture(["table", "--n", "1", "--ring", f"F{2**61 - 1}", "--max-degree", "0"])
    assert code == EXIT_OK and "Z^2" in text


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_size_limit_env_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("EXTHH_SIZE_LIMIT", value)
    with pytest.raises(SystemExit) as exc:
        parse_args(["table", "--n", "1"])
    assert exc.value.code == EXIT_USAGE
    assert "EXTHH_SIZE_LIMIT" in capsys.readouterr().err


def test_cup_requires_field():
    code = main(["cup", "--n", "1", "--ring", "Z", "--max-degree", "2"])
    assert code == 2


def test_main_entry_point():
    assert main(["table", "--n", "1", "--max-degree", "1"]) == EXIT_OK


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_writers_write_divisor_runs_without_expanding_them(monkeypatch, fmt):
    # each line equals the row with its divisor list expanded whole, over
    # rows with several runs, a run longer than a write, flags and timing;
    # the writers never ask a group for that list
    from exthh.linalg import HomologyGroup

    spec = parse_args(["table", "--n", "2", "--format", fmt, "--timing"])
    groups = [
        HomologyGroup(3, ((2, 5), (6, 9000), (12, 1))),
        HomologyGroup(0),
        HomologyGroup(1, ((4, 1),)),
        HomologyGroup(0, ((3, 4097),)),
    ]
    rows = [
        (cli._table_row(spec, variant, k, group, ("some-flag",) if k == 2 else (), 0.25, 0.5), group)
        for variant in ("homology", "cohomology")
        for k, group in enumerate(groups)
    ]
    expected = []
    for row, group in rows:
        if fmt == "json":
            expected.append(json.dumps(dict(row, torsion=list(group.torsion)), sort_keys=True, separators=(",", ":")))
        else:
            torsion = ";".join(map(str, group.torsion))
            expected.append(f"2,{row['k']},Z,{row['free']},{torsion},closed,250,{row['variant']}")
    if fmt == "csv":
        expected.insert(0, "n,k,ring,free_rank,torsion_divisors,method,elapsed_ms,variant")

    def refuse(group):
        raise AssertionError("a writer expanded the divisor runs")

    monkeypatch.setattr(cli, "_table_rows", lambda spec: iter(rows))
    monkeypatch.setattr(HomologyGroup, "torsion", property(refuse))
    out = io.StringIO()
    assert run(spec, out=out) == EXIT_OK
    assert out.getvalue() == "\n".join(expected) + "\n"
