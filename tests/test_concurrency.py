"""Pure-function claims: the same values computed from worker threads."""

import sys
from concurrent.futures import ThreadPoolExecutor
from random import Random

from exthh.complexes import homology
from exthh.hochschild import (
    bar_classify,
    build_bar_hochschild_chain,
    build_bar_resolution,
    closed_form_homology,
    generator_to_tensor,
)
from exthh.linalg import SparseMatrix, solve_in_image
from exthh.morse import transfer_h
from exthh.rings import F2, F3, QQ, ZZ
from helpers import oracle_cochain, small_chain


def test_homology_of_shared_complex_across_threads():
    complex_ = small_chain(2, 5)
    jobs = [(complex_, k) for k in range(5)] * 4

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda job: homology(*job), jobs))
    for (c, k), group in zip(jobs, results):
        assert group == closed_form_homology(2, k, ZZ).group


def test_independent_cells_across_threads():
    # one fresh integer complex, read in four rings by eight threads that
    # race to fill the per-characteristic caches of its shared matrices
    n = 2
    oracle = build_bar_hochschild_chain(n, 5)
    grid = [(k, ring) for k in range(5) for ring in (ZZ, QQ, F2, F3)] * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda cell: homology(oracle, *cell), grid, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (k, ring), group in zip(grid, results):
        assert group == closed_form_homology(n, k, ring).group, (k, ring.name)


def test_transfer_for_distinct_critical_cells_across_threads():
    bar = build_bar_resolution(2, 3)
    from exthh.combinat import enumerate_multisets

    cells = [generator_to_tensor(t) for t in enumerate_multisets(2, 2)]

    def compute(cell):
        return transfer_h(bar, bar_classify, cell)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(compute, cells * 3))
    for cell, image in zip(cells * 3, results):
        assert image[cell] == bar.domain.one


def test_solve_in_image_on_a_shared_matrix_across_threads():
    # threads race to fill the cached reduction of one fresh matrix
    d = oracle_cochain(2, 4, QQ).diff(2)
    cols = d.by_cols()
    rng = Random(7)
    targets = []
    for _ in range(12):
        image: dict = {}
        for j in rng.sample(sorted(cols), 3):
            for r, v in cols[j].items():
                image[r] = image.get(r, 0) + rng.randint(1, 3) * v
        targets.append(image)
        targets.append({rng.randrange(d.rows): 1})  # often outside the image
    expected = [solve_in_image(SparseMatrix(d.rows, d.cols, d.entries, QQ), t) for t in targets]
    assert any(w is None for w in expected) and any(w for w in expected)
    shared = SparseMatrix(d.rows, d.cols, d.entries, QQ)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda t: solve_in_image(shared, t), targets * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected * 3
