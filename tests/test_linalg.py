from fractions import Fraction
from random import Random

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from exthh.linalg import (
    divisor_runs,
    CompositionNonzero,
    HomologyGroup,
    SparseMatrix,
    _IntElim,
    _invariants,
    check_composite_zero,
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
from exthh.rings import F2, F3, QQ, ZZ, UnsupportedRing
from helpers import (
    chain_runs,
    coset_count,
    gcd_of_minors,
    normalize_divisor_chain_pairwise,
    random_exact_pair,
)


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


def _sparse_unit_rows(rng: Random, max_rows: int, max_cols: int, unit_share: float = 0.8) -> list[list[int]]:
    """A sparse dense-form matrix of mostly +-1 entries with some +-2, +-3
    and +-6, so that eliminations fill in, cancel and leave torsion."""
    m, n = rng.randint(1, max_rows), rng.randint(1, max_cols)
    density = rng.uniform(0.1, 0.45)
    return [
        [
            (rng.choice((1, -1)) if rng.random() < unit_share else rng.choice((2, -2, 3, -3, 6, -6)))
            if rng.random() < density
            else 0
            for _ in range(n)
        ]
        for _ in range(m)
    ]


def test_snf_of_sparse_unit_matrices_against_sympy():
    rng = Random(101)
    with_torsion = 0
    for _ in range(150):
        rows = _sparse_unit_rows(rng, 15, 20)
        divisors, rank = smith_normal_form(dense(rows))
        expect = tuple(int(abs(d)) for d in invariant_factors(sympy.Matrix(rows)) if d != 0)
        assert divisors == expect and rank == len(expect)
        with_torsion += divisors[-1:] > (1,)
    assert with_torsion >= 20


def test_snf_of_sparse_unit_matrices_against_minor_gcds():
    rng = Random(103)
    for _ in range(60):
        rows = _sparse_unit_rows(rng, 5, 6)
        divisors, rank = smith_normal_form(dense(rows))
        prod = 1
        for j in range(1, min(len(rows), len(rows[0])) + 1):
            if j <= rank:
                prod *= divisors[j - 1]
                assert prod == gcd_of_minors(rows, j)
            else:
                assert gcd_of_minors(rows, j) == 0


def _assert_buckets_match(elim: _IntElim):
    """The row buckets hold exactly the live rows, each in the bucket of
    its entry count, and rows and columns agree."""
    assert all(elim.rows.values()) and all(elim.cols.values())
    expected = {}
    for r, row in elim.rows.items():
        expected.setdefault(len(row), set()).add(r)
    assert {k: bucket for k, bucket in enumerate(elim.row_buckets) if bucket} == expected
    by_rows = {(r, c) for r, row in elim.rows.items() for c in row}
    assert by_rows == {(r, c) for c, col in elim.cols.items() for r in col}
    assert all(v for row in elim.rows.values() for v in row.values())


def test_pivot_buckets_follow_every_step():
    # drive the elimination pivot by pivot, and check the buckets after
    # every row operation and row drop inside each step too
    rng = Random(107)
    non_unit_pivots = 0
    for i in range(160):
        # every other matrix has few units, so that most pivots are not
        # units and their rows need column operations
        rows = _sparse_unit_rows(rng, 9, 11, 0.8 if i % 2 else 0.2)
        elim = _IntElim(dense(rows))
        for name in ("_row_addmul", "_drop_row"):
            def checked(*args, op=getattr(elim, name)):
                op(*args)
                _assert_buckets_match(elim)

            setattr(elim, name, checked)
        _assert_buckets_match(elim)
        while elim.rows:
            elim.step()
            _assert_buckets_match(elim)
        non_unit_pivots += sum(abs(v) > 1 for _, _, v in elim.pivots)
        divisors = normalize_divisor_chain([v for _, _, v in elim.pivots])
        assert (divisors, len(divisors)) == smith_normal_form(dense(rows))
    assert non_unit_pivots >= 100


def test_homology_pair_examples():
    assert homology_pair(dense([[0]]), dense([[2]])) == HomologyGroup(0, ((2, 1),))
    assert homology_pair(dense([[0, 0]]), dense([[2], [0]])) == HomologyGroup(1, ((2, 1),))
    assert homology_pair(dense([[1, 0]]), dense([[0], [3]])) == HomologyGroup(0, ((3, 1),))


def test_homology_pair_rejects_nonzero_composite():
    with pytest.raises(CompositionNonzero):
        homology_pair(dense([[1]]), dense([[1]]))


def test_homology_pair_accepts_terms_that_cancel_within_a_column():
    # column 0 of beta meets both columns of alpha: 1*1 + 1*(-1) = 0 in
    # row 0, 2*1 + 1*(-2) = 0 in row 1
    alpha = dense([[1, -1], [2, -2]])
    beta = dense([[1, 0], [1, 0]])
    assert homology_pair(alpha, beta) == HomologyGroup(0)
    check_composite_zero(alpha, beta)


def test_homology_pair_names_the_first_nonzero_column():
    # columns 1 and 3 of the product are nonzero; checks on shape, domain
    # and ring come first
    alpha = dense([[1, 1, 0]])
    beta = dense([[0, 1, 0, 2], [0, 0, 0, 0], [5, 0, 0, 0]])
    with pytest.raises(CompositionNonzero) as exc:
        homology_pair(alpha, beta)
    assert exc.value.column == 1
    with pytest.raises(ValueError):
        homology_pair(alpha, dense([[1]]))
    with pytest.raises(UnsupportedRing):
        homology_pair(alpha, beta.map_domain(QQ))


def test_composite_check_agrees_with_the_product():
    # random sparse pairs, and exact pairs with one entry of beta changed
    rng = Random(61)

    def sparse(rows, cols):
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        picked = rng.sample(cells, rng.randint(0, min(len(cells), 2 * rows)))
        return SparseMatrix(rows, cols, {key: rng.randint(-2, 2) for key in picked}, ZZ)

    pairs = [(sparse(rng.randint(0, 6), m), sparse(m, rng.randint(0, 6))) for m in rng.choices(range(7), k=200)]
    for _ in range(100):
        alpha, beta, _expected, _divs = random_exact_pair(rng)
        if rng.random() < 0.5 and beta.rows and beta.cols:
            key = rng.randrange(beta.rows), rng.randrange(beta.cols)
            beta = SparseMatrix(beta.rows, beta.cols, {**beta.entries, key: beta.entry(*key) + 1}, ZZ)
        pairs.append((alpha, beta))
    zero = 0
    for alpha, beta in pairs:
        product = compose(alpha, beta)
        if product.is_zero():
            zero += 1
            check_composite_zero(alpha, beta)
        else:
            with pytest.raises(CompositionNonzero) as exc:
                check_composite_zero(alpha, beta)
            assert exc.value.column == min(c for _r, c in product.entries)
    assert 50 < zero < len(pairs) - 50


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
        doubled = chain_runs(normalize_divisor_chain([2 * d for d in b_divs]))
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
        HomologyGroup(0, ((1, 1),))
    with pytest.raises(ValueError):
        HomologyGroup(0, ((2, 1), (3, 1)))
    assert str(HomologyGroup(2, ((2, 1), (4, 1)))) == "Z^2 + Z_2 + Z_4"
    # repeated divisors render as a power; JSON keeps the explicit list
    assert str(HomologyGroup(8, ((2, 5),))) == "Z^8 + (Z_2)^5"
    assert str(HomologyGroup(0, ((2, 2), (4, 3), (12, 1)))) == "(Z_2)^2 + (Z_4)^3 + Z_12"
    assert HomologyGroup(1, ((2, 2),)).to_json() == {"free": 1, "torsion": [2, 2]}
    assert str(HomologyGroup(0)) == "0"
    assert HomologyGroup(1).to_json() == {"free": 1, "torsion": []}


def test_normalize_divisor_chain():
    assert normalize_divisor_chain([6, 4]) == (2, 12)
    assert normalize_divisor_chain([2, 3]) == (1, 6)
    assert normalize_divisor_chain([]) == ()
    assert normalize_divisor_chain([2] * 3000 + [3]) == (1,) + (2,) * 2999 + (6,)
    for bad in ([0], [2, 0, 3]):
        with pytest.raises(ValueError):
            normalize_divisor_chain(bad)


def test_divisor_runs_equal_the_expanded_chain():
    # a {divisor: multiplicity} map normalizes as its expansion does,
    # coprime mixes included, without expanding it
    assert divisor_runs({2: 1, 3: 1}) == [(1, 1), (6, 1)]
    assert divisor_runs({2: 748_033}) == [(2, 748_033)]
    assert divisor_runs({2: 2999, 3: 1, 4: 0}) == [(1, 1), (2, 2998), (6, 1)]
    with pytest.raises(ValueError):
        divisor_runs({2: 3, 0: 1})
    rng = Random(127)
    values = (1, 2, 3, 4, 6, 8, 9, 12, 18, 25, 30, 36, 2**10, 3**7)
    for _ in range(300):
        signed = [rng.choice(values) * rng.choice((1, -1)) for _ in range(rng.randint(0, 5))]
        counts = {d: rng.randint(1, 30) for d in signed}
        expanded = [d for d, m in counts.items() for _ in range(m)]
        rng.shuffle(expanded)
        runs = divisor_runs(counts)
        assert all(m > 0 for _d, m in runs)
        assert all(b % a == 0 and b > a for (a, _), (b, _) in zip(runs, runs[1:]))
        chain = tuple(d for d, m in runs for _ in range(m))
        assert chain == normalize_divisor_chain(expanded)
        assert chain == normalize_divisor_chain_pairwise(expanded)


def test_normalize_divisor_chain_against_pairwise_exchanges():
    # seeded multisets with many repeats over a few values that share
    # primes in mixed powers, including signs and units
    rng = Random(109)
    values = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 25, 30, 36, 49, 77, 96, 101 * 103, 2**10, 3**7)
    for _ in range(400):
        pool = rng.sample(values, rng.randint(1, 5))
        divisors = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(rng.randint(0, 40))]
        assert normalize_divisor_chain(divisors) == normalize_divisor_chain_pairwise(divisors)


def test_normalize_divisor_chain_of_sympy_diagonals():
    # sympy's Smith diagonal, shuffled, normalizes back to itself; scaled
    # entry by entry it normalizes as the pairwise oracle says
    rng = Random(113)
    for _ in range(40):
        rows = _sparse_unit_rows(rng, 8, 8)
        diagonal = tuple(int(abs(d)) for d in invariant_factors(sympy.Matrix(rows)) if d != 0)
        shuffled = [d * rng.choice((1, -1)) for d in diagonal]
        rng.shuffle(shuffled)
        assert normalize_divisor_chain(shuffled) == diagonal
        scaled = [d * rng.choice((1, 2, 3)) for d in shuffled]
        assert normalize_divisor_chain(scaled) == normalize_divisor_chain_pairwise(scaled)


def test_homology_pair_field():
    alpha = dense([[0, 0]])
    beta = dense([[2], [0]])  # the 2 vanishes mod 2
    assert homology_pair_field(alpha, beta, F2) == HomologyGroup(2)
    assert homology_pair(alpha, beta, F2) == HomologyGroup(2)
    assert homology_pair(alpha, beta, QQ) == HomologyGroup(1)
    with pytest.raises(UnsupportedRing):
        homology_pair_field(alpha, beta, ZZ)
    # the matrices must be integer ones; the ring is an argument
    with pytest.raises(UnsupportedRing):
        homology_pair(alpha.map_domain(F2), beta.map_domain(F2), F2)


def test_homology_pair_over_q_is_free_rank_over_z():
    # over Q the torsion dies and the free rank stays, read off the Z
    # Smith normal form; over F_p the ranks come from the entries mod p.
    # Oracle: field_rank of the matrices mapped into the field
    rng = Random(71)
    for _ in range(80):
        alpha, beta, _expected, _divs = random_exact_pair(rng)
        over_z = homology_pair(alpha, beta)
        for ring in (QQ, F2, F3):
            a, b = alpha.map_domain(ring), beta.map_domain(ring)
            free = alpha.cols - field_rank(a) - field_rank(b)
            assert homology_pair(alpha, beta, ring) == HomologyGroup(free), ring
            if ring is QQ:
                assert free == over_z.free_rank


def test_compose_matches_dense_product():
    rng = Random(3)
    for _ in range(30):
        l, m, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(l)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        got = compose(dense(a), dense(b))
        expect = [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(n)] for i in range(l)]
        assert got.to_dense() == expect


def test_constructor_checks_and_blocks_hold_no_zeros():
    for key in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, {key: 1}, ZZ)
    # inputs with explicit zeros, and entries that vanish mod 2 or 3:
    # neither the matrix nor its reading in any ring stores one, and the
    # rank over F_p is the field rank of the entries read mod p
    rng = Random(127)
    for _ in range(30):
        entries = {(rng.randrange(6), rng.randrange(7)): rng.randint(-6, 6) for _ in range(15)}
        m = SparseMatrix(6, 7, entries, ZZ)
        assert m.entries == {k: v for k, v in entries.items() if v}
        for ring in (ZZ, QQ, F2, F3):
            mr = m.map_domain(ring)
            assert mr.domain is ring
            for (r, c), v in mr.entries.items():
                assert 0 <= r < mr.rows and 0 <= c < mr.cols and not ring.is_zero(v)
                assert ring.coerce(v) == v
            if ring.char:
                assert _invariants(m, ring) == (field_rank(mr), ())


def test_entries_are_read_only():
    m = dense([[1, 0], [0, 2]])
    with pytest.raises(TypeError):
        m.entries[(0, 1)] = 5
    with pytest.raises(TypeError):
        del m.entries[(0, 0)]
    assert m.entries == {(0, 0): 1, (1, 1): 2}
    assert m == dense([[1, 0], [0, 2]])


def _shuffled_block_diagonal(rng: Random) -> tuple[SparseMatrix, list[SparseMatrix]]:
    """Random integer blocks on the diagonal, a few empty rows and columns,
    then the rows and the columns shuffled; returns the matrix and its
    blocks."""
    entries, blocks = {}, []
    rows = cols = 0
    for _ in range(rng.randint(1, 6)):
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        block = [[rng.randint(-4, 4) if rng.random() < 0.5 else 0 for _ in range(w)] for _ in range(h)]
        for r in range(h):
            for c in range(w):
                entries[(rows + r, cols + c)] = block[r][c]
        blocks.append(dense(block))
        rows, cols = rows + h, cols + w
    rows, cols = rows + rng.randint(0, 2), cols + rng.randint(0, 2)
    row_perm, col_perm = list(range(rows)), list(range(cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    m = SparseMatrix(rows, cols, {(row_perm[r], col_perm[c]): v for (r, c), v in entries.items()}, ZZ)
    return m, blocks


def test_blocked_invariants_equal_monolithic():
    # rank and divisors of the whole shuffled matrix equal those of the
    # blocks it was built from: the ranks add up and the divisors are the
    # normalized union of theirs, over Z and over Q, F2 and F3; Q shares
    # the cache entry of Z, each F_p has its own
    rng = Random(83)
    most_blocks = 0
    for _ in range(80):
        m, blocks = _shuffled_block_diagonal(rng)
        most_blocks = max(most_blocks, len(blocks))
        assert sum(b.nnz() for b in blocks) == m.nnz()
        snfs = [smith_normal_form(b) for b in blocks]
        divisors = normalize_divisor_chain([d for ds, _ in snfs for d in ds])
        expected = (sum(rank for _, rank in snfs), chain_runs(divisors))
        assert m._invariants == {}
        assert _invariants(m) == expected and m._invariants == {0: expected}
        for ring in (QQ, F2, F3):
            mr = m.map_domain(ring)
            rank = field_rank(mr)
            assert rank == mr.cols - len(field_kernel_basis(mr))
            assert rank == sum(field_rank(b.map_domain(ring)) for b in blocks)
            if ring is QQ:
                assert rank == sympy.Matrix(m.to_dense()).rank()
                assert _invariants(m, ring) == expected and rank == expected[0]
            else:
                assert _invariants(m, ring) == (rank, ())
        assert set(m._invariants) == {0, 2, 3}
    assert most_blocks >= 5


def test_construction_coerces_every_entry():
    # a float is refused when the matrix is built, over Z and every field,
    # by the constructor itself and not first by a later elimination
    for ring in (ZZ, QQ, F3):
        with pytest.raises(TypeError):
            SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 0.5}, ring)
        with pytest.raises(TypeError):
            SparseMatrix(1, 1, {(0, 0): 2.0}, ring)
    # an integral rational over Q is stored as its int
    m = SparseMatrix(1, 2, {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 3)}, QQ)
    assert type(m.entries[(0, 0)]) is int and m.entries[(0, 0)] == 2
    assert m.entries[(0, 1)] == Fraction(1, 3)
    assert field_rank(m) == 1
    # an F3 matrix built from ints stores residues, and drops multiples of 3
    m = SparseMatrix(2, 3, {(0, 0): 4, (0, 1): -1, (0, 2): 6, (1, 2): -3, (1, 0): 5}, F3)
    assert dict(m.entries) == {(0, 0): 1, (0, 1): 2, (1, 0): 2}
    assert dense([[4, -1, 6], [5, 0, -3]], F3) == m
