from fractions import Fraction
from random import Random

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from exthh.linalg import (
    CompositionNonzero,
    HomologyGroup,
    SparseMatrix,
    _invariants,
    _support_blocks,
    compose,
    field_kernel_basis,
    field_rank,
    homology_pair,
    homology_pair_field,
    integer_kernel_basis,
    normalize_divisor_chain,
    smith_normal_form,
    solve_in_image,
)
from exthh.rings import F2, F3, QQ, ZZ
from helpers import coset_count, gcd_of_minors, random_exact_pair


def dense(rows, domain=ZZ):
    return SparseMatrix.from_dense(rows, domain)


def test_snf_worked_example():
    # gcd of entries is 2 and |det| = 8, so the chain is (2, 4)
    assert smith_normal_form(dense([[2, 4], [6, 8]])) == ((2, 4), 2)


def test_snf_trivial_examples():
    assert smith_normal_form(dense([[1, 0], [0, 0]])) == ((1,), 1)
    assert smith_normal_form(SparseMatrix.zero(3, 2)) == ((), 0)
    assert smith_normal_form(SparseMatrix.zero(0, 4)) == ((), 0)


def test_snf_divisibility_and_minor_gcds():
    rng = Random(23)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        divisors, rank = smith_normal_form(dense(rows))
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        # product of the first j divisors equals the gcd of j x j minors
        prod = 1
        for j in range(1, min(3, rank) + 1):
            prod *= divisors[j - 1]
            assert prod == gcd_of_minors(rows, j)


def test_snf_against_sympy():
    rng = Random(31)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        divisors, _rank = smith_normal_form(dense(rows))
        expect = tuple(int(abs(d)) for d in invariant_factors(sympy.Matrix(rows)) if d != 0)
        assert divisors == expect


def test_homology_pair_examples():
    assert homology_pair(dense([[0]]), dense([[2]])) == HomologyGroup(0, (2,))
    assert homology_pair(dense([[0, 0]]), dense([[2], [0]])) == HomologyGroup(1, (2,))
    assert homology_pair(dense([[1, 0]]), dense([[0], [3]])) == HomologyGroup(0, (3,))


def test_homology_pair_rejects_nonzero_composite():
    with pytest.raises(CompositionNonzero):
        homology_pair(dense([[1]]), dense([[1]]))


def test_homology_pair_random_known_structure():
    rng = Random(47)
    for _ in range(80):
        alpha, beta, expected, _divs = random_exact_pair(rng)
        assert compose(alpha, beta).is_zero()
        assert homology_pair(alpha, beta) == expected


def test_scaled_pair_property():
    # doubling both maps keeps the free rank, doubles every invariant
    # factor of the incoming map, and each former unit divisor becomes 2
    rng = Random(53)
    for _ in range(80):
        alpha, beta, expected, b_divs = random_exact_pair(rng)
        alpha2 = SparseMatrix(alpha.rows, alpha.cols, {k: 2 * v for k, v in alpha.entries.items()}, ZZ)
        beta2 = SparseMatrix(beta.rows, beta.cols, {k: 2 * v for k, v in beta.entries.items()}, ZZ)
        doubled = tuple(d for d in normalize_divisor_chain([2 * d for d in b_divs]) if d > 1)
        assert homology_pair(alpha2, beta2) == HomologyGroup(expected.free_rank, doubled)


def test_quotient_order_by_coset_enumeration():
    # independent group-order check: enumerate cosets of Im(beta) in Z^m
    cases = [
        ([[2, 0], [0, 4]], 4, 8),
        ([[2, 2], [0, 2]], 4, 4),
        ([[1, 0], [0, 6]], 6, 6),
        ([[3]], 3, 3),
    ]
    for rows, exponent, order in cases:
        beta = dense(rows)
        assert coset_count(beta, exponent) == order
        got = homology_pair(SparseMatrix.zero(0, beta.rows), beta)
        prod = 1
        for d in got.torsion:
            prod *= d
        assert got.free_rank == 0 and prod == order


def test_rank_over_field_examples():
    assert field_rank(dense([[2]]).map_domain(QQ)) == 1
    assert field_rank(dense([[2]]).map_domain(F2)) == 0
    assert field_rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).map_domain(F3)) == 3


def test_field_rank_and_kernel():
    m = dense([[1, 2, 3], [2, 4, 6]], QQ)
    assert field_rank(m) == 1
    kernel = field_kernel_basis(m)
    assert len(kernel) == 2
    for vec in kernel:
        assert vec and all(x != 0 for x in vec.values())  # sparse: no stored zeros
        for r in range(m.rows):
            assert sum(m.entry(r, c) * x for c, x in vec.items()) == 0


def test_solve_in_image_examples():
    m = dense([[2], [0]], QQ)
    assert solve_in_image(m, {0: 1}) == {0: Fraction(1, 2)}
    assert solve_in_image(m, {1: 1}) is None
    assert solve_in_image(m, {}) == {}
    assert solve_in_image(dense([[2], [0]], F3), {0: 1}) == {0: 2}
    with pytest.raises(ValueError):
        solve_in_image(dense([[2], [0]]), {0: 2})  # membership solves are over fields
    for row in (2, -1):
        with pytest.raises(ValueError):
            solve_in_image(m, {row: 1})


def _matvec(domain, mat, vec):
    """mat * vec for a sparse {column: coeff} vector, as {row: nonzero coeff}."""
    out = {}
    for (r, c), value in mat.entries.items():
        out[r] = domain.add(out.get(r, domain.zero), domain.mul(value, vec.get(c, domain.zero)))
    return {r: x for r, x in out.items() if not domain.is_zero(x)}


def test_solve_in_image_random():
    rng = Random(61)
    for domain in (QQ, F3):
        for _ in range(40):
            m_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
            mat = SparseMatrix(
                m_rows,
                n_cols,
                {
                    (r, c): domain.coerce(rng.randint(-3, 3))
                    for r in range(m_rows)
                    for c in range(n_cols)
                    if rng.random() < 0.6
                },
                domain,
            )
            w = {c: domain.coerce(rng.randint(-2, 2)) for c in range(n_cols)}
            v = _matvec(domain, mat, w)
            got = solve_in_image(mat, v)
            assert got is not None and not any(domain.is_zero(x) for x in got.values())
            assert _matvec(domain, mat, got) == v


def test_mutating_results_leaves_the_cached_reduction_alone():
    m = dense([[1, 2, 3, 0], [2, 4, 6, 1]], QQ)
    target = {0: 1, 1: 3}
    kernel, witness = field_kernel_basis(m), solve_in_image(m, target)
    assert witness == {0: 1, 3: 1} and len(kernel) == 2
    expected_kernel = [dict(vec) for vec in kernel]
    for vec in kernel + [witness]:
        for c in list(vec):
            vec[c] = QQ.coerce(7)
        vec[3] = QQ.one
    assert solve_in_image(m, target) == {0: 1, 3: 1}
    assert solve_in_image(m, {0: 2, 1: 6}) == {0: 2, 3: 2}
    assert field_kernel_basis(m) == expected_kernel


def test_integer_kernel_basis_spans_kernel():
    m = dense([[1, 2, 0], [2, 4, 0]])
    basis = integer_kernel_basis(m)
    assert len(basis) == 2
    sym = sympy.Matrix([[1, 2, 0], [2, 4, 0]])
    columns = [[vec.get(c, 0) for c in range(3)] for vec in basis]
    for col in columns:
        assert sym * sympy.Matrix(col) == sympy.zeros(2, 1)
    # saturation: (−2, 1, 0) must be an integer combination of the basis
    target = sympy.Matrix([-2, 1, 0])
    sol = sympy.Matrix(columns).T.solve_least_squares(target)
    assert all(x == int(x) for x in sol)


def test_homology_group_validation_and_str():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))
    with pytest.raises(ValueError):
        HomologyGroup(0, (2, 3))
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z_2 + Z_4"
    # repeated divisors render as a power; JSON keeps the explicit list
    assert str(HomologyGroup(8, (2,) * 5)) == "Z^8 + (Z_2)^5"
    assert str(HomologyGroup(0, (2, 2, 4, 4, 4, 12))) == "(Z_2)^2 + (Z_4)^3 + Z_12"
    assert HomologyGroup(1, (2, 2)).to_json() == {"free": 1, "torsion": [2, 2]}
    assert str(HomologyGroup(0)) == "0"
    assert HomologyGroup(1).to_json() == {"free": 1, "torsion": []}


def test_normalize_divisor_chain():
    assert normalize_divisor_chain([6, 4]) == (2, 12)
    assert normalize_divisor_chain([2, 3]) == (1, 6)
    assert normalize_divisor_chain([]) == ()
    with pytest.raises(ValueError):
        normalize_divisor_chain([0])


def test_homology_pair_field():
    alpha = dense([[0, 0]], F2)
    beta = dense([[2], [0]], F2)  # the 2 vanishes mod 2
    assert homology_pair_field(alpha, beta) == HomologyGroup(2)
    assert homology_pair(alpha, beta) == HomologyGroup(2)
    with pytest.raises(ValueError):
        homology_pair_field(dense([[0, 0]]), dense([[2], [0]]))


def test_homology_pair_over_q_is_free_rank_over_z():
    # over Q the torsion dies and the free rank stays: homology_pair
    # must give the same free rank through field_rank as through SNF
    rng = Random(71)
    for _ in range(80):
        alpha, beta, _expected, _divs = random_exact_pair(rng)
        over_z = homology_pair(alpha, beta)
        over_q = homology_pair(alpha.map_domain(QQ), beta.map_domain(QQ))
        assert over_q == HomologyGroup(over_z.free_rank)


def test_compose_matches_dense_product():
    rng = Random(3)
    for _ in range(30):
        l, m, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(l)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        got = compose(dense(a), dense(b))
        expect = [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(n)] for i in range(l)]
        assert got.to_dense() == expect


def test_entries_are_read_only():
    m = dense([[1, 0], [0, 2]])
    with pytest.raises(TypeError):
        m.entries[(0, 1)] = 5
    with pytest.raises(TypeError):
        del m.entries[(0, 0)]
    assert m.entries == {(0, 0): 1, (1, 1): 2}
    assert m == dense([[1, 0], [0, 2]])


def _shuffled_block_diagonal(rng: Random) -> SparseMatrix:
    """Random integer blocks on the diagonal, a few empty rows and columns,
    then the rows and the columns shuffled."""
    entries = {}
    rows = cols = 0
    for _ in range(rng.randint(1, 6)):
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        for r in range(h):
            for c in range(w):
                if rng.random() < 0.5:
                    entries[(rows + r, cols + c)] = rng.randint(-4, 4)
        rows, cols = rows + h, cols + w
    rows, cols = rows + rng.randint(0, 2), cols + rng.randint(0, 2)
    row_perm, col_perm = list(range(rows)), list(range(cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    return SparseMatrix(rows, cols, {(row_perm[r], col_perm[c]): v for (r, c), v in entries.items()}, ZZ)


def test_blocked_invariants_equal_monolithic():
    # rank and divisors from the support blocks equal those of the whole
    # matrix, eliminated at once, over Z and over Q, F2 and F3
    rng = Random(83)
    most_blocks = 0
    for _ in range(80):
        m = _shuffled_block_diagonal(rng)
        blocks = list(_support_blocks(m))
        most_blocks = max(most_blocks, len(blocks))
        assert all(b.nnz() for b in blocks)
        assert sum(b.nnz() for b in blocks) == m.nnz()
        divisors, rank = smith_normal_form(m)
        expected = (rank, tuple(d for d in divisors if d > 1))
        assert m._invariants is None
        assert _invariants(m) == expected and m._invariants == expected
        for ring in (QQ, F2, F3):
            mr = m.map_domain(ring)
            rank = field_rank(mr)
            assert rank == mr.cols - len(field_kernel_basis(mr))
            if ring is QQ:
                assert rank == sympy.Matrix(m.to_dense()).rank()
            assert _invariants(mr) == (rank, ())
    assert most_blocks >= 5
