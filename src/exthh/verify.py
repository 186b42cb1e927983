"""Cross-validation suites: the checks behind the ``verify`` subcommand.

Each function returns plain result objects so the CLI can format them and
the test suite can assert on them.  The central check is the triple
agreement: brute-force bar-complex homology, reduced-complex homology and
the closed forms must coincide exactly, ring by ring and degree by
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import EnvAlgebra, EnvElement
from .combinat import enumerate_multisets, multiset_permutations, multiset_str
from .complexes import halve_differentials, homology, homology_sum, validate_complex
from .hochschild import (
    DEFAULT_SIZE_LIMIT,
    ChainCell,
    CochainCell,
    Word,
    bar_down_terms,
    bar_matching,
    bar_rank,
    bar_rules,
    build_bar_hochschild_chain,
    build_bar_hochschild_cochain,
    build_bar_resolution,
    build_reduced_chain,
    build_reduced_cochain,
    build_reduced_resolution,
    certify_bar_matching,
    closed_form_cohomology,
    closed_form_homology,
    generator_to_tensor,
    htpy_h,
    koszul_matching_chain,
    koszul_matching_cochain,
    minimality_certificate,
    reduced_down_terms,
    reduced_orbit_blocks,
    split_parity,
)
from .linalg import HomologyGroup
from .morse import check_matching, lazy_path_counts
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

    The bar complex and the reduced orbit blocks are built once over the
    integers and their homology is read in each ring.  Q agreement follows
    from the Z ranks (the rational rank of each differential is read off
    its Smith normal form); each F_p is its own elimination of the entries
    mod p.  The reduced route sums one block per S_n-orbit of multidegrees,
    weighted by orbit size; the bar oracle is built whole and uses no
    symmetry, so its agreement checks that reduction.  The closed forms use
    no complex at all.
    """
    build_oracle = build_bar_hochschild_cochain if cohomology else build_bar_hochschild_chain
    closed = closed_form_cohomology if cohomology else closed_form_homology
    what = "cohomology" if cohomology else "homology"
    oracle = build_oracle(n, max_k + 1, size_limit=size_limit)
    small = reduced_orbit_blocks(n, max_k + 1, cohomology, size_limit=size_limit)
    results = []
    for ring in rings:
        mism = []
        flagged = []
        for k in range(max_k + 1):
            a = homology(oracle, k, ring)
            b = homology_sum(small, k, ring)
            cf = closed(n, k, ring)
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
    degree.  Small complexes go through the materialized validator (one
    degree higher, so the top-degree critical cells are honest); larger
    ones stream against the differential formula.  Degrees beyond the
    size limit are clamped off; when degree 1 alone is over it, SizeLimit
    is raised."""
    top = _fitting_degree(n, max_degree, 0, size_limit)
    clamped = top < max_degree
    max_degree = top
    expected = {
        k: {generator_to_tensor(t) for t in enumerate_multisets(n, k)}
        for k in range(max_degree + 1)
    }
    if bar_rank(n, max_degree + 1) <= min(materialize_limit, size_limit):
        c = build_bar_resolution(n, max_degree + 1, size_limit)
        report = check_matching(c, bar_matching(n, max_degree + 1, size_limit))
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


def koszul_matching_checks(n: int, max_degree: int) -> list[CheckResult]:
    """Certify both parity-subcomplex matchings over the rationals and on
    the halved integer complexes, with the stated critical cells."""
    results = []
    for cohomology in (False, True):
        if cohomology:
            small = build_reduced_cochain(n, max_degree + 1)
            matching = koszul_matching_cochain(n, max_degree + 1)
            name = f"cochain parity matching n={n} degrees<={max_degree}"
        else:
            small = build_reduced_chain(n, max_degree + 1)
            matching = koszul_matching_chain(n, max_degree + 1)
            name = f"chain parity matching n={n} degrees<={max_degree}"
        active, _ = split_parity(small)
        ok = True
        details = []
        for label, complex_ in (
            ("Q", active.map_domain(QQ)),
            ("halved-Z", halve_differentials(active)),
        ):
            report = check_matching(complex_, matching)
            critical = {
                k: set(report.critical[k])
                for k in range(max_degree + 1)
                if report.critical.get(k)
            }
            if cohomology:
                expected = {0: {CochainCell((), (1 << n) - 1)}} if n % 2 else {}
            else:
                expected = {0: {ChainCell(0, ())}}
            if critical != expected:
                ok = False
                details.append(f"{label}: critical {critical} != {expected}")
        results.append(
            CheckResult(name, ok, "; ".join(details) if details else "Q and halved-Z certified")
        )
    return results


def reduce_reproduces_small_resolution(n: int, max_degree: int) -> CheckResult:
    """Morse reduction of the bar resolution equals the multiset
    resolution entry-exactly (through the generator bijection), and every
    reduced entry lies in the augmentation ideal."""
    bar = build_bar_resolution(n, max_degree + 1)
    matching = bar_matching(n, max_degree + 1)
    reduced = morse_reduce(bar, matching, up_to=max_degree)
    built = build_reduced_resolution(n, max_degree)
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
    lhs: dict[Word, EnvElement] = {}
    for lab in htpy_h(tau):
        for tgt, w in bar_down_terms(n, lab):
            acc = lhs.get(tgt)
            lhs[tgt] = w if acc is None else acc + w
    lhs = {t: v for t, v in lhs.items() if not v.is_zero()}
    rhs: dict[Word, EnvElement] = {}
    for lower, w in reduced_down_terms(n, tau):
        for lab in htpy_h(lower):
            acc = rhs.get(lab)
            rhs[lab] = w if acc is None else acc + w
    rhs = {t: v for t, v in rhs.items() if not v.is_zero()}
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


def universal_coefficient_check(n: int, max_k: int, cohomology: bool = False) -> CheckResult:
    """Mod-2 dimensions against the integer ranks: the dimension in
    degree k equals F_k + T_k + T_(k-1) for chains and F_k + T_k +
    T_(k+1) for cochains."""
    shift = +1 if cohomology else -1
    blocks = reduced_orbit_blocks(n, max_k + 2, cohomology)
    t: dict[int, int] = {}
    f: dict[int, int] = {}
    for k in range(max_k + 2):
        g = homology_sum(blocks, k)
        f[k], t[k] = g.free_rank, len(g.torsion)
    bad = []
    for k in range(max_k + 1):
        dim2 = homology_sum(blocks, k, F2).free_rank
        expected = f[k] + t[k] + t.get(k + shift, 0)
        if dim2 != expected:
            bad.append(f"k={k}: dim {dim2} != {expected}")
    what = "cochain" if cohomology else "chain"
    return CheckResult(
        f"universal coefficients {what} n={n} k<={max_k}",
        not bad,
        "; ".join(bad) if bad else f"{max_k + 1} degrees consistent",
    )


def halved_subcomplex_check(n: int, max_k: int) -> CheckResult:
    """The halved active chain subcomplex is acyclic except for a single
    free rank in degree zero (the integer form of the matching
    argument)."""
    active, _ = split_parity(build_reduced_chain(n, max_k + 2))
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
    equality, transfer identities, minimality, coefficient consistency."""
    checks: list[CheckResult] = []
    checks += triple_agreement(n, max_degree, rings, cohomology=False, size_limit=size_limit)
    checks += triple_agreement(n, max_degree, rings, cohomology=True, size_limit=size_limit)
    checks.append(bar_matching_check(n, max_degree, size_limit=size_limit))
    checks += koszul_matching_checks(n, max_degree)
    # the reduction-equality check materializes the bar resolution one
    # degree higher; clamp so it stays within the size budget
    prop1_degree = _fitting_degree(n, min(max_degree, 4), 1, min(size_limit, MATERIALIZE_LIMIT))
    checks.append(reduce_reproduces_small_resolution(n, prop1_degree))
    checks += transfer_identity_checks(n, min(max_degree, 4))
    built = build_reduced_resolution(n, max_degree)
    checks.append(
        CheckResult(
            f"multiset resolution minimal and square-zero n={n}",
            minimality_certificate(built) and validate_complex(built).ok,
            "",
        )
    )
    checks.append(universal_coefficient_check(n, max_degree, cohomology=False))
    checks.append(universal_coefficient_check(n, max_degree, cohomology=True))
    checks.append(halved_subcomplex_check(n, min(max_degree, 4)))
    return VerificationReport(tuple(checks))
