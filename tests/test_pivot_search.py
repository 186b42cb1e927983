"""The Smith normal form takes each pivot from one sparsest row: the entry
of least absolute value there, the one with the fewest column entries
among equals.  Nothing else is searched, so the columns are never
looked at first.  The invariant factors must not depend on that choice:
they are checked against the transpose, whose rows are the columns, and
against sympy on tall, wide and deliberately awkward matrices."""

from random import Random

import sympy
from sympy.matrices.normalforms import invariant_factors

from exthh.hochschild import bar_orbit_blocks, reduced_orbit_blocks
from exthh.linalg import SparseMatrix, _IntElim, smith_normal_form
from exthh.rings import ZZ


def _sympy_snf(rows):
    divisors = tuple(int(abs(d)) for d in invariant_factors(sympy.Matrix(rows)) if d != 0)
    return divisors, len(divisors)


def test_smith_form_of_every_orbit_block_equals_its_transposes():
    seen = 0
    for blocks, n, top in ((bar_orbit_blocks, 3, 4), (reduced_orbit_blocks, 4, 5)):
        for cohomology in (False, True):
            for _, block in blocks(n, top, cohomology):
                for m in block.diffs.values():
                    assert smith_normal_form(m) == smith_normal_form(m.transpose())
                    seen += 1
    assert seen >= 100


def _sparse(rng: Random, rows: int, cols: int) -> list[list[int]]:
    density = rng.uniform(0.15, 0.5)
    values = (1, -1, 1, -1, 2, -2, 3, -3, 4, 6)
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]


def test_tall_and_wide_sparse_matrices_against_sympy():
    rng = Random(211)
    with_torsion = 0
    for i in range(120):
        short, long = rng.randint(1, 5), rng.randint(8, 18)
        rows = _sparse(rng, long, short) if i % 2 else _sparse(rng, short, long)
        got = smith_normal_form(SparseMatrix.from_dense(rows, ZZ))
        assert got == _sympy_snf(rows), rows
        with_torsion += got[0][-1:] > (1,)
    assert with_torsion >= 15


def _twos_in_sparse_rows(rng: Random) -> list[list[int]]:
    """Rows of one or two entries, each +-2, and denser rows holding the
    units (with a few 2s and 3s), shuffled together."""
    cols = rng.randint(3, 9)
    rows = []
    for _ in range(rng.randint(1, 4)):
        row = [0] * cols
        for c in rng.sample(range(cols), rng.randint(1, 2)):
            row[c] = rng.choice((2, -2))
        rows.append(row)
    for _ in range(rng.randint(1, 6)):
        row = [0] * cols
        for c in rng.sample(range(cols), rng.randint(3, cols)):
            row[c] = rng.choice((1, -1, 1, -1, 2, 3))
        rows.append(row)
    rng.shuffle(rows)
    return rows


def test_even_sparsest_rows_beside_dense_unit_rows_against_sympy():
    rng = Random(223)
    for _ in range(150):
        rows = _twos_in_sparse_rows(rng)
        m = SparseMatrix.from_dense(rows, ZZ)
        # the first pivot is a 2 although units are there to be had
        elim = _IntElim(m)
        r, c = elim._pick_pivot()
        assert abs(elim.rows[r][c]) == 2
        assert smith_normal_form(m) == _sympy_snf(rows), rows
        assert smith_normal_form(m.transpose()) == _sympy_snf(rows)


def test_pivot_is_the_least_entry_of_a_sparsest_row():
    rng = Random(227)
    for _ in range(200):
        rows = _sparse(rng, rng.randint(1, 8), rng.randint(1, 8))
        elim = _IntElim(SparseMatrix.from_dense(rows, ZZ))
        if not elim.rows:
            continue
        r, c = elim._pick_pivot()
        fewest = min(len(row) for row in elim.rows.values())
        assert len(elim.rows[r]) == fewest
        key = lambda t: (abs(elim.rows[r][t]), len(elim.cols[t]))  # noqa: E731
        assert key(c) == min(map(key, elim.rows[r]))
