"""Cross-validation suites: the checks behind the ``verify`` subcommand.

Each function returns plain result objects so the CLI can format them and
the test suite can assert on them.  The central check is the triple
agreement: brute-force bar-complex homology, reduced-complex homology and
the closed forms must coincide exactly, ring by ring and degree by
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import EnvAlgebra, EnvElement
from .combinat import enumerate_multisets, multiset_permutations, multiset_str
from .complexes import CHAIN, COCHAIN, halve_differentials, homology, homology_sums, validate_complex
from .hochschild import (
    DEFAULT_SIZE_LIMIT,
    ChainCell,
    CochainCell,
    Word,
    bar_down_terms,
    bar_classify,
    bar_orbit_blocks,
    bar_rank,
    bar_rules,
    build_bar_resolution,
    build_reduced_chain,
    build_reduced_resolution,
    certify_bar_matching,
    closed_forms,
    generator_to_tensor,
    htpy_h,
    koszul_chain_rule,
    koszul_cochain_rule,
    minimality_certificate,
    parity_active,
    reduced_cell_stream,
    reduced_down_terms,
    reduced_orbit_blocks,
    split_parity,
)
from .linalg import HomologyGroup
from .morse import ROLE_CRITICAL, check_matching, check_matching_streaming, lazy_path_counts
from .morse import reduce as morse_reduce
from .rings import F2, F3, QQ, ZZ, Domain

DEFAULT_RINGS: tuple[Domain, ...] = (ZZ, QQ, F2, F3)

# the most bar generators in one degree that a check materializes
MATERIALIZE_LIMIT = 30_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    details: str = ""

    def line(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} {self.name}" + (f": {self.details}" if self.details else "")

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "details": self.details}


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        n_fail = sum(1 for c in self.checks if not c.ok)
        out.append(
            f"{'ok  ' if not n_fail else 'FAIL'} summary: "
            f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed"
        )
        return out


def triple_agreement(
    n: int,
    max_k: int,
    rings: Sequence[Domain] = DEFAULT_RINGS,
    cohomology: bool = False,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> list[CheckResult]:
    """Oracle = reduced = closed form, for every ring and degree.

    The bar and the reduced orbit blocks are built once over the integers,
    one at a time, and each is read in every ring and degree before the
    next is built.  Q agreement follows from the Z ranks (the rational
    rank of each differential is read off its Smith normal form); each
    F_p is its own elimination of the entries mod p.
    Both routes sum one block per S_n-orbit of multidegrees, weighted by
    orbit size, yet stay independent: they share only the stream with its
    cell-count check, the size guard's check, ``homology_sums`` and the
    signs of ``subset_mul_sign``.  They enumerate and count their cells,
    representatives and orbit sizes apart, and compute their entries
    apart on their own cells: the reduced blocks by the per-cell rule of
    the multiset resolution, the bar blocks by the Hochschild formula.
    That each block is its whole complex, the base change of its
    resolution, restricted, and so has its S_n symmetry, is pinned in
    the test suite, and the closed forms use no complex at all.
    """
    what = "cohomology" if cohomology else "homology"
    # both size guards run before any block is built
    oracle = bar_orbit_blocks(n, max_k + 1, cohomology, size_limit=size_limit)
    small = reduced_orbit_blocks(n, max_k + 1, cohomology, size_limit=size_limit)
    keys = [(ring, k) for ring in rings for k in range(max_k + 1)]
    oracle_groups = homology_sums(oracle, keys)
    small_groups = homology_sums(small, keys)
    results = []
    for ring in rings:
        mism = []
        flagged = []
        for k, cf in zip(range(max_k + 1), closed_forms(n, ring, cohomology)):
            a, b = oracle_groups[ring, k], small_groups[ring, k]
            if not (a == b == cf.group):
                mism.append(
                    f"k={k}: oracle {a} | reduced {b} | closed {cf.group}"
                )
            if cf.flags:
                flagged.append(f"k={k}: {','.join(cf.flags)}")
        details = f"{max_k + 1} degrees agree"
        if flagged:
            details += "; flags: " + "; ".join(flagged)
        if mism:
            details = "; ".join(mism)
        results.append(
            CheckResult(f"triple agreement {what} n={n} ring={ring.name}", not mism, details)
        )
    return results


def _fitting_degree(n: int, degree: int, above: int, limit: int) -> int:
    """The largest degree d <= degree, but not below 1, whose bar rank
    ``above`` degrees up fits the limit."""
    while degree > 1 and bar_rank(n, degree + above) > limit:
        degree -= 1
    return degree


def bar_matching_check(
    n: int,
    max_degree: int,
    materialize_limit: int = MATERIALIZE_LIMIT,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> CheckResult:
    """Certify the bar matching and its critical cells through the given
    degree.  Small complexes go through the materialized validator, which
    reads the rule ``bar_classify`` on the bar resolution built one degree
    higher: the targets whose sources lie above it read as critical, but
    only in that extra degree.  Larger ones stream against the
    differential formula.  Degrees beyond the size limit are clamped off;
    when degree 1 alone is over it, SizeLimit is raised."""
    top = _fitting_degree(n, max_degree, 0, size_limit)
    clamped = top < max_degree
    max_degree = top
    expected = {
        k: {generator_to_tensor(t) for t in enumerate_multisets(n, k)}
        for k in range(max_degree + 1)
    }
    if bar_rank(n, max_degree + 1) <= min(materialize_limit, size_limit):
        c = build_bar_resolution(n, max_degree + 1, size_limit)
        report = check_matching(c, bar_classify)
        mode = "materialized"
    else:
        report = certify_bar_matching(n, max_degree, size_limit)
        mode = "streaming"
    critical = {k: set(report.critical[k]) for k in range(max_degree + 1)}
    ok = critical == expected
    details = f"{mode}; critical counts " + str({k: len(v) for k, v in sorted(critical.items())})
    if clamped:
        details += f"; clamped to degrees<={max_degree} by the size limit"
    if not ok:
        bad = [k for k in expected if critical.get(k) != expected[k]]
        details = f"{mode}; critical cells wrong at degrees {bad}"
    return CheckResult(f"bar matching n={n} degrees<={max_degree}", ok, details)


def koszul_matching_checks(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> list[CheckResult]:
    """Certify both parity-subcomplex matchings over the rationals and on
    the halved integer complexes, with the stated critical cells.

    Each variant streams every cell of the whole reduced complex one
    degree higher (``reduced_cell_stream``, under the builders' size
    guard), so that the cells whose partners lie above it read as
    critical only in that top degree; no complex, parity split or ring
    copy is built.  Each cell is read once, and its ``down_edges`` called
    once, in one pass of ``check_matching_streaming``: that read checks
    the split as ``split_parity`` and ``halve_differentials`` do, with
    their messages (an active cell's entries land on active cells, an
    inert cell has none, and every entry is even), and an active cell
    goes on to the certifier with its edges.  The certifier reads the
    rule (``koszul_chain_rule``, ``koszul_cochain_rule``) on the active
    cells and tests each matched weight in Q and halved in Z at once.  A
    partner that is not an active cell of the streamed degrees reads as
    critical, as on the truncated complex."""
    top = max_degree + 1
    results = []
    for cohomology in (False, True):
        direction = COCHAIN if cohomology else CHAIN
        cells, down_edges = reduced_cell_stream(n, top, cohomology, size_limit)
        if cohomology:
            rule = koszul_cochain_rule(n)
            name = f"cochain parity matching n={n} degrees<={max_degree}"
            expected = {0: {CochainCell((), (1 << n) - 1)}} if n % 2 else {}
        else:
            rule = koszul_chain_rule
            name = f"chain parity matching n={n} degrees<={max_degree}"
            expected = {0: {ChainCell(0, ())}}
        active, edges = _split_checked(cells, down_edges, direction)

        def classify(lab):
            role, partner = rule(lab)
            if role != ROLE_CRITICAL and not (
                len(partner.tau) <= top and parity_active(partner, direction)
            ):
                return ROLE_CRITICAL, None
            return role, partner

        report = check_matching_streaming(
            range(top + 1), active, edges, classify, _Q_AND_HALVED_Z, direction
        )
        critical = {
            k: set(report.critical[k])
            for k in range(max_degree + 1)
            if report.critical.get(k)
        }
        ok = critical == expected
        details = "Q and halved-Z certified"
        if not ok:
            details = "; ".join(
                f"{label}: critical {critical} != {expected}" for label in ("Q", "halved-Z")
            )
        results.append(CheckResult(name, ok, details))
    return results


def _split_checked(cells, down_edges, direction: int):
    """The active cells of a streamed reduced complex, checked for the
    parity split on the way, as a (labels_of_degree, down_edges) pair.

    Reading a degree reads each of its cells, active or not, and calls
    its ``down_edges`` once, checking what ``split_parity`` and then
    ``halve_differentials`` check on the built complex and raising
    ValueError with their messages: an entry between the parity summands,
    an entry between inert cells, an odd entry.  The position of an odd
    entry in the active matrix is found by enumerating its two degrees
    again.  An active cell is yielded with its edges kept, so that the
    returned ``down_edges`` gives the edges of the cell yielded last
    without reading them again."""
    last = [None, None]  # the cell yielded last, and its edges

    def position(k, lab):
        actives = (cell for cell in cells(k) if parity_active(cell, direction))
        return next(i for i, cell in enumerate(actives) if cell == lab)

    def active(k):
        for lab in cells(k):
            on = parity_active(lab, direction)
            edges = down_edges(lab)
            for tgt, v in edges:
                if parity_active(tgt, direction) != on:
                    raise ValueError(f"cross entry between parity summands: {lab} -> {tgt}")
                if not on:
                    raise ValueError(f"entry {v} between inert cells: {lab} -> {tgt}")
                if v % 2:
                    key = (position(k + direction, tgt), position(k, lab))
                    raise ValueError(f"odd entry {v} at {key} in degree {k}")
            if on:
                last[:] = lab, edges
                yield lab

    def edges_of(lab):
        return last[1] if lab is last[0] else down_edges(lab)

    return active, edges_of


class _QAndHalvedZ:
    """The weights of an active parity summand read in Q and, halved, in
    Z at once: a weight is zero when it is zero in either, and a unit
    when it is a unit in both.  The split check has refused every odd
    entry before a weight is read."""

    @staticmethod
    def is_zero(w) -> bool:
        return QQ.is_zero(w) or ZZ.is_zero(w // 2)

    @staticmethod
    def is_unit(w) -> bool:
        return QQ.is_unit(w) and ZZ.is_unit(w // 2)


_Q_AND_HALVED_Z = _QAndHalvedZ()


def reduce_reproduces_small_resolution(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> CheckResult:
    """Morse reduction of the bar resolution equals the multiset
    resolution entry-exactly (through the generator bijection), and every
    reduced entry lies in the augmentation ideal."""
    bar = build_bar_resolution(n, max_degree + 1, size_limit)
    reduced = morse_reduce(bar, bar_classify, up_to=max_degree)
    built = build_reduced_resolution(n, max_degree, size_limit)
    problems = []
    for k in range(max_degree + 1):
        expect = [generator_to_tensor(lab.tau) for lab in built.basis(k)]
        if list(reduced.basis(k)) != sorted(expect):
            problems.append(f"basis mismatch at degree {k}")
    for k in range(1, max_degree + 1):
        bij_src = {
            generator_to_tensor(lab.tau): j for j, lab in enumerate(built.basis(k))
        }
        bij_dst = {
            generator_to_tensor(lab.tau): j for j, lab in enumerate(built.basis(k - 1))
        }
        got = {
            (bij_dst[reduced.basis(k - 1)[r]], bij_src[reduced.basis(k)[c]]): v
            for (r, c), v in reduced.diff(k).entries.items()
        }
        if got != dict(built.diff(k).entries):
            problems.append(f"entries differ at degree {k}")
    if not minimality_certificate(built) or not minimality_certificate(reduced):
        problems.append("an entry escapes the augmentation ideal")
    return CheckResult(
        f"Morse reduction reproduces the multiset resolution n={n} degrees<={max_degree}",
        not problems,
        "; ".join(problems) if problems else "entry-exact, minimal",
    )


def htpy_chain_map_ok(n: int, tau: tuple[int, ...]) -> bool:
    """Formal identity: the bar differential applied to the symmetrized
    generator equals the symmetrization of the reduced differential."""

    def summed(terms: Iterable[tuple[Word, EnvElement]]) -> dict[Word, EnvElement]:
        out: dict[Word, EnvElement] = {}
        for word, w in terms:
            acc = out.get(word)
            out[word] = w if acc is None else acc + w
        return {t: v for t, v in out.items() if not v.is_zero()}

    lhs = summed(term for lab in htpy_h(tau) for term in bar_down_terms(n, lab))
    rhs = summed((lab, w) for lower, w in reduced_down_terms(n, tau) for lab in htpy_h(lower))
    return lhs == rhs


def path_census_ok(n: int, tau: tuple[int, ...]) -> bool:
    """Lazy path enumeration from a generator reaches exactly its
    permuted variable tensors, one path each."""
    counts = lazy_path_counts(generator_to_tensor(tau), *bar_rules(n), EnvAlgebra(n))
    expected = {generator_to_tensor(p) for p in multiset_permutations(tau)}
    return set(counts) == expected and set(counts.values()) <= {1}


def transfer_identity_checks(n: int, max_tau: int) -> list[CheckResult]:
    """Chain-map identity and unique-path enumeration for all multisets
    up to the given size."""
    taus = [t for k in range(max_tau + 1) for t in enumerate_multisets(n, k)]
    bad_chain = [multiset_str(t) for t in taus if not htpy_chain_map_ok(n, t)]
    bad_paths = [multiset_str(t) for t in taus if not path_census_ok(n, t)]
    return [
        CheckResult(
            f"homotopy chain-map identity n={n} |tau|<={max_tau}",
            not bad_chain,
            f"{len(taus)} generators" if not bad_chain else "fails: " + ", ".join(bad_chain),
        ),
        CheckResult(
            f"unique zig-zag paths n={n} |tau|<={max_tau}",
            not bad_paths,
            f"{len(taus)} generators" if not bad_paths else "fails: " + ", ".join(bad_paths),
        ),
    ]


def universal_coefficient_check(
    n: int, max_k: int, cohomology: bool = False, size_limit: int = DEFAULT_SIZE_LIMIT
) -> CheckResult:
    """Mod-2 dimensions against the integer ranks: the dimension in
    degree k equals F_k + T_k + T_(k-1) for chains and F_k + T_k +
    T_(k+1) for cochains.  The reduced orbit blocks are read over Z and
    F_2 one at a time, built only as high as the Z groups read need:
    through max_k for chains, max_k + 1 for cochains, and one degree
    more."""
    shift = +1 if cohomology else -1
    z_top = max_k + 1 if cohomology else max_k
    blocks = reduced_orbit_blocks(n, z_top + 1, cohomology, size_limit)
    keys = [(ZZ, k) for k in range(z_top + 1)] + [(F2, k) for k in range(max_k + 1)]
    groups = homology_sums(blocks, keys)
    t: dict[int, int] = {}
    f: dict[int, int] = {}
    for k in range(z_top + 1):
        g = groups[ZZ, k]
        f[k], t[k] = g.free_rank, sum(m for _, m in g.runs)
    bad = []
    for k in range(max_k + 1):
        dim2 = groups[F2, k].free_rank
        expected = f[k] + t[k] + t.get(k + shift, 0)
        if dim2 != expected:
            bad.append(f"k={k}: dim {dim2} != {expected}")
    what = "cochain" if cohomology else "chain"
    return CheckResult(
        f"universal coefficients {what} n={n} k<={max_k}",
        not bad,
        "; ".join(bad) if bad else f"{max_k + 1} degrees consistent",
    )


def halved_subcomplex_check(
    n: int, max_k: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> CheckResult:
    """The halved active chain subcomplex is acyclic except for a single
    free rank in degree zero (the integer form of the matching
    argument).  Homology through max_k reads the complex through max_k +
    1, so it is built that far."""
    active, _ = split_parity(build_reduced_chain(n, max_k + 1, size_limit))
    halved = halve_differentials(active)
    bad = []
    for k in range(max_k + 1):
        g = homology(halved, k)
        want = HomologyGroup(1 if k == 0 else 0)
        if g != want:
            bad.append(f"k={k}: {g}")
    return CheckResult(
        f"halved active subcomplex acyclic n={n} k<={max_k}",
        not bad,
        "; ".join(bad) if bad else "homology Z in degree 0 only",
    )


def run_verification(
    n: int,
    max_degree: int,
    rings: Sequence[Domain] = DEFAULT_RINGS,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> VerificationReport:
    """The full suite at one n: triple agreements, matchings, reduction
    equality, transfer identities, minimality, coefficient consistency.
    Every check that builds a complex keeps to the size limit: the bar
    matching and the reduction equality clamp their degrees to it, the
    others raise SizeLimit."""
    checks: list[CheckResult] = []
    checks += triple_agreement(n, max_degree, rings, cohomology=False, size_limit=size_limit)
    checks += triple_agreement(n, max_degree, rings, cohomology=True, size_limit=size_limit)
    checks.append(bar_matching_check(n, max_degree, size_limit=size_limit))
    checks += koszul_matching_checks(n, max_degree, size_limit)
    # the reduction-equality check materializes the bar resolution one
    # degree higher; clamp so it stays within the size budget
    prop1_degree = _fitting_degree(n, min(max_degree, 4), 1, min(size_limit, MATERIALIZE_LIMIT))
    checks.append(reduce_reproduces_small_resolution(n, prop1_degree, size_limit))
    checks += transfer_identity_checks(n, min(max_degree, 4))
    built = build_reduced_resolution(n, max_degree, size_limit)
    checks.append(
        CheckResult(
            f"multiset resolution minimal and square-zero n={n}",
            minimality_certificate(built) and validate_complex(built).ok,
            "",
        )
    )
    checks.append(universal_coefficient_check(n, max_degree, False, size_limit))
    checks.append(universal_coefficient_check(n, max_degree, True, size_limit))
    checks.append(halved_subcomplex_check(n, min(max_degree, 4), size_limit))
    return VerificationReport(tuple(checks))
