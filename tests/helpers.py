"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the package's own elimination paths:
signs come from bubble sorting, counts from recursions, minors from
cofactor expansion, divisor chains from pairwise gcd/lcm exchanges, and
group orders from explicit coset enumeration.  The cup-product oracle
is the exception: it lifts classes to bar cocycles through whole bar
kernels, so it shares the field elimination but not the Morse
projection it checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby, product
from random import Random

from exthh.algebra import env_act, env_monomial
from exthh.complexes import BasedComplex, CHAIN
from exthh.combinat import all_subsets, enumerate_multisets, subset_mask
from exthh.hochschild import (
    ChainCell,
    CochainCell,
    bar_projection,
    build_bar_hochschild_chain,
    build_bar_hochschild_cochain,
    build_reduced_chain,
    build_reduced_cochain,
    generator_to_tensor,
    pushforward_cochain,
)
from exthh.linalg import (
    HomologyGroup,
    SparseMatrix,
    field_kernel_basis,
    integer_kernel_basis,
    normalize_divisor_chain,
    solve_in_image,
)
from exthh.morse import ROLE_CRITICAL, ROLE_SOURCE, ROLE_TARGET
from exthh.products import _structure_table, class_solvers
from exthh.rings import ZZ, Domain


# ---------------------------------------------------------------------------
# brute-force oracles


def bubble_sort_sign(seq) -> int:
    """Sign of the permutation sorting ``seq``, by counting swaps."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def exterior_product(n: int, x: dict, y: dict) -> dict:
    """The exterior product x y of {mask: int} dicts, as the left action
    of each term of x on y, with no zero coefficients."""
    out: dict[int, int] = {}
    for s, c in x.items():
        for t, d in env_act(env_monomial(n, s, 0, c), y).items():
            out[t] = out.get(t, 0) + d
    return {t: c for t, c in out.items() if c}


def count_multisets_recursive(n: int, k: int) -> int:
    """Number of k-element multisets over {1..n}, by direct recursion."""
    if k == 0:
        return 1
    if n == 0:
        return 0
    return count_multisets_recursive(n - 1, k) + count_multisets_recursive(n, k - 1)


def det_cofactor(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def gcd_of_minors(rows: list[list[int]], size: int) -> int:
    """gcd of all size x size minors (0 when none are nonzero)."""
    from math import gcd

    m, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(m), size):
        for ci in combinations(range(n), size):
            sub = [[rows[r][c] for c in ci] for r in ri]
            g = gcd(g, abs(det_cofactor(sub)))
    return g


def chain_runs(chain) -> tuple[tuple[int, int], ...]:
    """The (divisor, multiplicity) runs of the entries > 1 of a
    divisibility chain, the torsion form of ``HomologyGroup``."""
    return tuple((d, len(list(g))) for d, g in groupby(chain) if d > 1)


def normalize_divisor_chain_pairwise(divisors) -> tuple[int, ...]:
    """The divisibility chain of a multiset of nonzero integers by repeated
    gcd/lcm exchanges of every pair that breaks it (quadratic per sweep)."""
    from math import gcd

    ds = sorted(abs(d) for d in divisors)
    if any(d == 0 for d in ds):
        raise ValueError("divisors must be nonzero")
    changed = True
    while changed:
        changed = False
        ds.sort()
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
    return tuple(ds)


def coset_count(beta: SparseMatrix, exponent: int) -> int:
    """Order of Z^m / Im(beta) by explicit coset enumeration.

    Requires a multiple of the group exponent; classes are connected
    components of the residue grid under adding the image columns.
    """
    m = beta.rows
    cols = beta.by_cols()
    gens = []
    for col in cols.values():
        vec = [0] * m
        for r, v in col.items():
            vec[r] = v % exponent
        gens.append(tuple(vec))
    points = list(product(range(exponent), repeat=m))
    parent = {p: p for p in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in points:
        for g in gens:
            q = tuple((a + b) % exponent for a, b in zip(p, g))
            rp, rq = find(p), find(q)
            if rp != rq:
                parent[rp] = rq
    return len({find(p) for p in points})


# ---------------------------------------------------------------------------
# random exact pairs with known homology


def _apply_row_op(rows, op, rng: Random):
    m = len(rows)
    if m < 1:
        return
    kind = op % 3
    i = rng.randrange(m)
    if kind == 0:
        rows[i] = [-x for x in rows[i]]
    elif m >= 2:
        j = rng.randrange(m - 1)
        j = j + 1 if j >= i else j
        if kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]


def _transpose(rows):
    return [list(r) for r in zip(*rows)] if rows else []


def random_exact_pair(rng: Random, max_dim: int = 5):
    """A random pair (alpha, beta) with alpha . beta = 0 and known
    homology, built from diagonal prototypes and unimodular scrambles.

    Returns (alpha, beta, expected_group, beta_divisors) where
    beta_divisors lists all invariant factors of beta including ones.
    """
    m = rng.randint(1, max_dim)
    r = rng.randint(0, m)
    s = rng.randint(0, m - r)
    l = max(r, rng.randint(0, max_dim))
    nn = max(s, rng.randint(0, max_dim))
    a_vals = [rng.choice((1, 1, 2, 3)) for _ in range(r)]
    b_vals = [rng.choice((1, 1, 2, 2, 3, 4)) for _ in range(s)]
    alpha_rows = [[0] * m for _ in range(l)]
    for i, v in enumerate(a_vals):
        alpha_rows[i][i] = v
    beta_rows = [[0] * nn for _ in range(m)]
    for i, v in enumerate(b_vals):
        beta_rows[r + i][i] = v
    for _ in range(4 * (l + m + nn)):
        which = rng.randrange(3)
        if which == 0 and l:
            _apply_row_op(alpha_rows, rng.randrange(3), rng)
        elif which == 1 and nn:
            cols = _transpose(beta_rows)
            _apply_row_op(cols, rng.randrange(3), rng)
            beta_rows = _transpose(cols)
        else:
            # coupled middle operation: columns of alpha, inverse rows of beta
            kind = rng.randrange(3)
            i = rng.randrange(m)
            if kind == 0:
                for row in alpha_rows:
                    row[i] = -row[i]
                beta_rows[i] = [-x for x in beta_rows[i]]
            elif m >= 2:
                j = rng.randrange(m - 1)
                j = j + 1 if j >= i else j
                if kind == 1:
                    for row in alpha_rows:
                        row[i], row[j] = row[j], row[i]
                    beta_rows[i], beta_rows[j] = beta_rows[j], beta_rows[i]
                else:
                    c = rng.choice((-2, -1, 1, 2))
                    for row in alpha_rows:
                        row[i] += c * row[j]
                    beta_rows[j] = [a - c * b for a, b in zip(beta_rows[j], beta_rows[i])]
    alpha = SparseMatrix.from_dense(alpha_rows) if l else SparseMatrix.zero(0, m)
    beta = SparseMatrix.from_dense(beta_rows) if nn else SparseMatrix.zero(m, 0)
    torsion = chain_runs(normalize_divisor_chain([d for d in b_vals if d > 1]))
    expected = HomologyGroup(m - r - s, torsion)
    return alpha, beta, expected, sorted(b_vals)


# ---------------------------------------------------------------------------
# random toy complexes and matchings


def random_three_term_complex(rng: Random, max_dim: int = 5) -> BasedComplex:
    """A random integer chain complex on three degrees with d.d = 0: the
    top differential is random, the bottom one is built from its left
    kernel."""
    m = rng.randint(1, max_dim)
    n2 = rng.randint(1, max_dim)
    entries = {}
    for r in range(m):
        for c in range(n2):
            if rng.random() < 0.5:
                entries[(r, c)] = rng.choice((-2, -1, 1, 1, 2))
    top = SparseMatrix(m, n2, entries, ZZ)
    left_kernel = integer_kernel_basis(top.transpose())
    l = rng.randint(1, max(1, len(left_kernel))) if left_kernel else 1
    bottom_entries = {}
    if left_kernel:
        for r in range(l):
            combo: dict[int, int] = {}
            for vec in rng.sample(left_kernel, rng.randint(1, len(left_kernel))):
                c = rng.choice((-1, 1, 2))
                for i, v in vec.items():
                    combo[i] = combo.get(i, 0) + c * v
            for i, v in combo.items():
                bottom_entries[(r, i)] = v
    bottom = SparseMatrix(l, m, bottom_entries, ZZ)
    bases = {
        0: tuple(f"a{i}" for i in range(l)),
        1: tuple(f"b{i}" for i in range(m)),
        2: tuple(f"c{i}" for i in range(n2)),
    }
    return BasedComplex(ZZ, CHAIN, bases, {1: bottom, 2: top})


def random_matching(rng: Random, c: BasedComplex) -> list[tuple]:
    """A random partial matching along unit entries, as its (source,
    target) edges, each label used once (acyclicity not guaranteed;
    filter through check_matching)."""
    used = set()
    edges = []
    candidates = []
    for k in sorted(c.diffs):
        mat = c.diffs[k]
        src, dst = c.basis(k), c.basis(k + c.direction)
        for (r, col), v in sorted(mat.entries.items()):
            if v in (1, -1):
                candidates.append((src[col], dst[r]))
    rng.shuffle(candidates)
    for u, v in candidates:
        if u in used or v in used or rng.random() < 0.3:
            continue
        used.update((u, v))
        edges.append((u, v))
    return edges


def rule_of(edges):
    """The matching rule of a list of (source, target) edges: a label's
    role and partner, critical when it is in no edge.  Each label may sit
    in one edge only."""
    roles = {}
    for u, v in edges:
        assert u not in roles and v not in roles and u != v, (u, v)
        roles[u] = (ROLE_SOURCE, v)
        roles[v] = (ROLE_TARGET, u)
    return lambda label: roles.get(label, (ROLE_CRITICAL, None))


def _singleton_prefix(factors) -> int:
    """Length of the maximal weakly increasing singleton prefix."""
    r = 0
    prev = 0
    for s in factors:
        if s & (s - 1) or s < prev:
            break
        prev = s
        r += 1
    return r


def bar_classify_two_scans(fs):
    """The canonical bar matching as it was first written, the reference
    for ``bar_classify``: the singleton prefix is measured first, then
    the roles are read off its length r."""
    r = _singleton_prefix(fs)
    if r == len(fs):
        return ROLE_CRITICAL, None
    nxt = fs[r]
    top = 1 << (nxt.bit_length() - 1)
    if r == 0 or fs[r - 1] <= top:
        return ROLE_TARGET, fs[:r] + (top, nxt ^ top) + fs[r + 1 :]
    return ROLE_SOURCE, fs[: r - 1] + (nxt | fs[r - 1],) + fs[r + 1 :]


def reversed_digraph_has_cycle(c: BasedComplex, edges) -> bool:
    """Whether the digraph of all differential entries, the matched
    (source, target) edges reversed, has a directed cycle: Kahn's
    algorithm on the whole graph, labels as nodes, independent of the
    package's certifiers."""
    matched = set(edges)
    succ: dict = {}
    indegree: dict = {}
    for k, mat in c.diffs.items():
        src, dst = c.basis(k), c.basis(k + c.direction)
        for (r, j) in mat.entries:
            a, b = src[j], dst[r]
            if (a, b) in matched:
                a, b = b, a
            succ.setdefault(a, []).append(b)
            indegree.setdefault(a, 0)
            indegree[b] = indegree.get(b, 0) + 1
    ready = [x for x, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        x = ready.pop()
        removed += 1
        for y in succ.get(x, ()):
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    return removed < len(indegree)


# ---------------------------------------------------------------------------
# the parity matchings enumerated edge by edge: the reference for the rules
# ``koszul_chain_rule`` and ``koszul_cochain_rule``


def koszul_matching_chain(n: int, max_degree: int) -> list[tuple[ChainCell, ChainCell]]:
    """Matching on the active chain summand by the minimum rule: a cell
    whose smallest index among monomial and support lies in the support
    only, moves it into the monomial.  Critical: the empty cell."""
    edges = []
    subsets = all_subsets(n)
    for k in range(1, max_degree + 1):
        for tau in enumerate_multisets(n, k):
            support = subset_mask(tau)
            for sigma in subsets:
                if (sigma.bit_count() - k) % 2:
                    continue
                pool = sigma | support
                low = pool & -pool
                if low & support and not low & sigma:
                    j = tau.index(low.bit_length())
                    source = ChainCell(sigma, tau)
                    target = ChainCell(sigma | low, tau[:j] + tau[j + 1 :])
                    edges.append((source, target))
    return edges


def koszul_matching_cochain(n: int, max_degree: int) -> list[tuple[CochainCell, CochainCell]]:
    """Matching on the active cochain summand: a cell whose monomial
    contains a full initial segment extends both parts by the first
    missing index, provided the support avoids that segment.  Critical:
    the full-monomial empty-multiset cell, present for odd n."""
    edges = []
    subsets = all_subsets(n)
    for k in range(max_degree):
        for tau in enumerate_multisets(n, k):
            for sigma in subsets:
                if (sigma.bit_count() - k) % 2 == 0:
                    continue
                if sigma.bit_count() == n:
                    continue
                missing = ~sigma & (sigma + 1)
                i = missing.bit_length()
                if tau and tau[0] < i:
                    continue
                source = CochainCell(tau, sigma)
                target = CochainCell((i,) + tau, sigma | missing)
                edges.append((source, target))
    return edges


# ---------------------------------------------------------------------------
# cached builders shared across test modules; the builders work over Z,
# and a field ring reads the integer complex in that field (for the kernel
# routes and entry-level checks, which need field-tagged matrices)


@lru_cache(maxsize=None)
def _built(builder, n: int, max_degree: int, ring: Domain) -> BasedComplex:
    if ring is ZZ:
        return builder(n, max_degree)
    return _built(builder, n, max_degree, ZZ).map_domain(ring)


def oracle_chain(n: int, max_degree: int, ring: Domain = ZZ) -> BasedComplex:
    return _built(build_bar_hochschild_chain, n, max_degree, ring)


def oracle_cochain(n: int, max_degree: int, ring: Domain = ZZ) -> BasedComplex:
    return _built(build_bar_hochschild_cochain, n, max_degree, ring)


def small_chain(n: int, max_degree: int, ring: Domain = ZZ) -> BasedComplex:
    return _built(build_reduced_chain, n, max_degree, ring)


def small_cochain(n: int, max_degree: int, ring: Domain = ZZ) -> BasedComplex:
    return _built(build_reduced_cochain, n, max_degree, ring)


# ---------------------------------------------------------------------------
# cup products: bar lifts through whole bar kernels


def kernel_bar_lifts(n: int, ring: Domain, solvers) -> dict:
    """Bar cocycle representatives of the basis classes of ``solvers``,
    found without the Morse projection: the whole kernel of each bar
    cochain differential, then one solve of
    cell = push(kernel combination) + coboundary."""
    max_degree = max(solvers)
    bar = oracle_cochain(n, max_degree + 1, ring)
    reduced = small_cochain(n, max_degree + 1, ring)
    reps = {}
    for k in range(max_degree + 1):
        kernel = field_kernel_basis(bar.diff(k))
        bar_basis = bar.basis(k)
        index = reduced.index(k)
        cols: dict[tuple[int, int], object] = {}
        for j, vec in enumerate(kernel):
            dual = {bar_basis[i]: c for i, c in vec.items()}
            for cell, c in pushforward_cochain(dual, ring).items():
                cols[(index[cell], j)] = c
        cob = reduced.diff(k - 1)
        for (r, c), v in cob.entries.items():
            cols[(r, len(kernel) + c)] = v
        system = SparseMatrix(reduced.dim(k), len(kernel) + cob.cols, cols, ring)
        for cell in solvers[k].basis_cells:
            sol = solve_in_image(system, {index[cell]: ring.one})
            if sol is None:
                raise ValueError(f"no bar representative for {cell}")
            combination = [
                (s, {bar_basis[i]: c for i, c in kernel[j].items()})
                for j, s in sol.items()
                if j < len(kernel)
            ]
            reps[cell] = linear_combination(combination, ring)
    return reps


def linear_combination(terms, ring: Domain) -> dict:
    """The sum of s * x over pairs (s, x) of a scalar and a cochain dict
    {cell: coefficient}, in the ring, without zero coefficients."""
    out: dict = {}
    for s, x in terms:
        for cell, c in x.items():
            out[cell] = ring.add(out.get(cell, ring.zero), ring.mul(s, c))
    return {cell: c for cell, c in out.items() if not ring.is_zero(c)}


def kernel_structure_table(n: int, ring: Domain, max_degree: int):
    """The cup-product StructureTable with bar representatives from
    ``kernel_bar_lifts`` in place of the projection."""
    solvers = class_solvers(n, ring, max_degree)
    return _structure_table(n, ring, solvers, kernel_bar_lifts(n, ring, solvers))


def broken_projection(n: int, max_degree: int, mode: str, **kwargs) -> list:
    """``bar_projection`` with a planted fault: ``"drop-critical"`` leaves
    every critical word of positive degree out of its own image,
    ``"negate"`` negates every weight (a cocycle, but minus the class),
    ``"move-letter"`` moves every weight of positive degree onto the word
    whose first factor is replaced by another subset, a word of the same
    length with another letter content."""
    out = []
    for k, by_tau in enumerate(bar_projection(n, max_degree, **kwargs)):
        if mode == "drop-critical" and k > 0:
            by_tau = {
                tau: [(w, g) for w, g in pairs if w != generator_to_tensor(tau)]
                for tau, pairs in by_tau.items()
            }
        elif mode == "negate":
            by_tau = {tau: [(w, -g) for w, g in pairs] for tau, pairs in by_tau.items()}
        elif mode == "move-letter" and k > 0:
            others = 2**n - 1  # the nonempty subsets, cycled by s -> s % others + 1
            by_tau = {
                tau: [((w[0] % others + 1,) + w[1:], g) for w, g in pairs]
                for tau, pairs in by_tau.items()
            }
        out.append(by_tau)
    return out
