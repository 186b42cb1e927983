from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from exthh.complexes import CHAIN, COCHAIN, BasedComplex, homology, validate_complex
from exthh.linalg import HomologyGroup, SparseMatrix, field_rank
from exthh.morse import (
    ROLE_CRITICAL,
    ROLE_SOURCE,
    ROLE_TARGET,
    CycleDetected,
    EdgeNotInDifferential,
    NonInvertibleWeight,
    NotAMatching,
    _certified_rules,
    check_matching,
    check_matching_streaming,
    lazy_projection,
    reduce,
    transfer_h,
)
from exthh.rings import QQ, ZZ
from helpers import (
    random_matching,
    random_three_term_complex,
    reversed_digraph_has_cycle,
    rule_of,
)


def two_cell(weight, domain=ZZ):
    bases = {0: ("v",), 1: ("u",)}
    diffs = {1: SparseMatrix(1, 1, {(0, 0): domain.coerce(weight)}, domain)}
    return BasedComplex(domain, CHAIN, bases, diffs)


def test_non_invertible_weight():
    c = two_cell(2)
    with pytest.raises(NonInvertibleWeight):
        check_matching(c, rule_of([("u", "v")]))


def test_weight_two_invertible_over_field():
    c = two_cell(2, QQ)
    reduced = reduce(c, rule_of([("u", "v")]))
    assert reduced.dim(0) == reduced.dim(1) == 0


def test_full_cancellation_unit_weight():
    reduced = reduce(two_cell(1), rule_of([("u", "v")]))
    assert reduced.dim(0) == reduced.dim(1) == 0
    assert validate_complex(reduced).ok


def test_empty_matching_returns_complex_unchanged():
    c = two_cell(1)
    reduced = reduce(c, rule_of([]))
    assert reduced.bases == c.bases
    assert reduced.diff(1).entries == c.diff(1).entries


def test_non_involutive_rule_rejected():
    # a source whose partner reads as critical, then a target whose
    # partner does: both branches of the certifier refuse the rule
    c = two_cell(1)
    source_only = {"u": (ROLE_SOURCE, "v"), "v": (ROLE_CRITICAL, None)}
    with pytest.raises(NotAMatching, match="not involutive at 'u' -> 'v'"):
        check_matching(c, source_only.__getitem__)
    target_only = {"u": (ROLE_CRITICAL, None), "v": (ROLE_TARGET, "u")}
    with pytest.raises(NotAMatching, match="not involutive at 'v' <- 'u'"):
        check_matching(c, target_only.__getitem__)


def test_edge_not_in_differential():
    bases = {0: ("v", "w"), 1: ("u",)}
    diffs = {1: SparseMatrix(2, 1, {(0, 0): 1}, ZZ)}
    c = BasedComplex(ZZ, CHAIN, bases, diffs)
    with pytest.raises(EdgeNotInDifferential):
        check_matching(c, rule_of([("u", "w")]))


def test_partner_outside_the_complex_reads_as_critical():
    # a rule read on a truncated complex: the labels whose partners lie
    # outside it are critical, so the reduction keeps them
    c = two_cell(1)
    for edges in ([("missing", "v")], [("u", "above")]):
        report = check_matching(c, rule_of(edges))
        assert report.critical == {0: ("v",), 1: ("u",)}
        assert report.matched_pairs == {}
        reduced = reduce(c, rule_of(edges))
        assert reduced.bases == c.bases
        assert reduced.diff(1).entries == c.diff(1).entries


def test_cycle_detected_with_witness():
    # two matched pairs feeding each other: reversal creates a 2-cycle
    bases = {0: ("v1", "v2"), 1: ("u1", "u2")}
    diffs = {
        1: SparseMatrix(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, ZZ)
    }
    c = BasedComplex(ZZ, CHAIN, bases, diffs)
    with pytest.raises(CycleDetected) as exc:
        check_matching(c, rule_of([("u1", "v1"), ("u2", "v2")]))
    assert len(exc.value.cycle) >= 2


def test_reduce_validates_on_random_matched_complexes():
    rng = Random(97)
    produced = 0
    attempts = 0
    while produced < 25 and attempts < 400:
        attempts += 1
        c = random_three_term_complex(rng)
        m = random_matching(rng, c)
        try:
            reduced = reduce(c, rule_of(m))
        except CycleDetected:
            continue
        produced += 1
        assert validate_complex(reduced).ok
        for k in (0, 1, 2):
            assert reduced.dim(k) <= c.dim(k)
    assert produced >= 25


def _rational_homology(c, k):
    """H_k of a chain complex over Q, from the ranks of its two
    differentials."""
    return HomologyGroup(c.dim(k) - field_rank(c.diff(k)) - field_rank(c.diff(k + 1)))


@settings(derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduce_keeps_homology_over_z_and_q(rng):
    # the random complex genuinely ends at degree 2: an empty degree 3
    # lets homology read H_2.  The reduction over Q is a complex over Q,
    # so its homology is read off field ranks, against the integer
    # complex read in Q.
    c = random_three_term_complex(rng)
    c = BasedComplex(ZZ, CHAIN, {**c.bases, 3: ()}, c.diffs)
    m = random_matching(rng, c)
    cyclic = reversed_digraph_has_cycle(c, m)
    for complex_ in (c, c.map_domain(QQ)):
        try:
            reduced = reduce(complex_, rule_of(m))
        except CycleDetected:
            assert cyclic
            continue
        assert not cyclic
        for k in (0, 1, 2):
            if complex_ is c:
                assert homology(reduced, k) == homology(c, k), k
            else:
                assert _rational_homology(reduced, k) == homology(c, k, QQ), k


def test_label_in_two_degrees_refused():
    bases = {0: ("v",), 1: ("v",)}
    c = BasedComplex(ZZ, CHAIN, bases, {1: SparseMatrix(1, 1, {(0, 0): 1}, ZZ)})
    with pytest.raises(ValueError, match="sits in degrees 0 and 1"):
        check_matching(c, rule_of([]))
    with pytest.raises(ValueError, match="sits in degrees 0 and 1"):
        reduce(c, rule_of([]))


def test_cycle_detected_exactly_when_reversed_digraph_has_cycle():
    rng = Random(113)
    outcomes = []
    for _ in range(300):
        c = random_three_term_complex(rng)
        m = random_matching(rng, c)
        try:
            check_matching(c, rule_of(m))
            found = False
        except CycleDetected:
            found = True
        assert found == reversed_digraph_has_cycle(c, m)
        outcomes.append(found)
    assert 0 < sum(outcomes) < len(outcomes)  # both verdicts are exercised


def test_transfer_difference_supported_on_matched_labels():
    from exthh.hochschild import bar_classify, build_bar_resolution

    bar = build_bar_resolution(2, 3)
    report = check_matching(bar, bar_classify)
    for k in (1, 2):
        for crit in report.critical[k]:
            image = transfer_h(bar, bar_classify, crit)
            assert image[crit] == bar.domain.one
            for lab in image:
                if lab != crit:
                    assert bar_classify(lab)[0] != ROLE_CRITICAL


def test_transfer_chain_map_property():
    # applying the original differential to the transferred cycle equals
    # transferring the reduced differential
    from exthh.hochschild import bar_classify, build_bar_resolution

    bar = build_bar_resolution(2, 3)
    reduced = reduce(bar, bar_classify, up_to=2)
    dom = bar.domain

    def apply_diff(c, k, vec):
        mat = c.diff(k)
        src = c.index(k)
        dst = c.basis(k + c.direction)
        out = {}
        for lab, coeff in vec.items():
            j = src[lab]
            for (r, cc), w in mat.entries.items():
                if cc == j:
                    key = dst[r]
                    term = dom.mul(coeff, w)
                    out[key] = dom.add(out[key], term) if key in out else term
        return {k2: v for k2, v in out.items() if not dom.is_zero(v)}

    for k in (1, 2):
        for crit in reduced.basis(k):
            lhs = apply_diff(bar, k, transfer_h(bar, bar_classify, crit))
            rhs_reduced = apply_diff(reduced, k, {crit: dom.one})
            rhs = {}
            for lab, coeff in rhs_reduced.items():
                for lab2, c2 in transfer_h(bar, bar_classify, lab).items():
                    term = dom.mul(coeff, c2)
                    rhs[lab2] = dom.add(rhs[lab2], term) if lab2 in rhs else term
            rhs = {k2: v for k2, v in rhs.items() if not dom.is_zero(v)}
            assert lhs == rhs


def test_projection_is_a_chain_map_split_by_the_transfer():
    # on random matched complexes: pi d = d_M pi, and pi h = id on the
    # critical labels, with one walk memo per degree shared by all labels
    rng = Random(131)
    produced = 0
    for _ in range(400):
        c = random_three_term_complex(rng)
        m = rule_of(random_matching(rng, c))
        try:
            red = reduce(c, m)
        except CycleDetected:
            continue
        produced += 1
        dom = c.domain
        _report, down_edges, classify = _certified_rules(c, m)
        pi = {}
        for k in (0, 1, 2):
            critical = red.index(k)
            for lab, image in lazy_projection(c.basis(k), down_edges, classify, dom):
                assert set(image) <= set(critical)
                pi[lab] = image
        for k in (1, 2):
            mat, low = c.diff(k), c.basis(k - 1)
            red_mat, red_low = red.diff(k), red.basis(k - 1)
            for j, lab in enumerate(c.basis(k)):
                lhs: dict = {}
                for (r, col), w in mat.entries.items():
                    if col == j:
                        for end, v in pi[low[r]].items():
                            lhs[end] = dom.add(lhs.get(end, dom.zero), dom.mul(w, v))
                rhs: dict = {}
                for crit, v in pi[lab].items():
                    col_index = red.index(k)[crit]
                    for (r, col), w in red_mat.entries.items():
                        if col == col_index:
                            end = red_low[r]
                            rhs[end] = dom.add(rhs.get(end, dom.zero), dom.mul(v, w))
                nonzero = lambda d: {e: v for e, v in d.items() if not dom.is_zero(v)}
                assert nonzero(lhs) == nonzero(rhs), (k, lab)
        for k in (0, 1, 2):
            for crit in red.basis(k):
                image: dict = {}
                for lab, v in transfer_h(c, m, crit).items():
                    for end, w in pi[lab].items():
                        image[end] = dom.add(image.get(end, dom.zero), dom.mul(v, w))
                assert {e: v for e, v in image.items() if not dom.is_zero(v)} == {crit: dom.one}
    assert produced >= 25


def test_transfer_requires_critical_label():
    c = two_cell(1)
    with pytest.raises(ValueError):
        transfer_h(c, rule_of([("u", "v")]), "u")


def test_bar_certifier_reads_each_source_once(monkeypatch):
    from exthh import hochschild
    from exthh.hochschild import bar_classify, bar_labels_of_degree, certify_bar_matching

    calls = []
    original = hochschild.bar_down_terms
    monkeypatch.setattr(
        hochschild, "bar_down_terms", lambda n, word: calls.append(word) or original(n, word)
    )
    certify_bar_matching(3, 3)
    sources = [
        word
        for k in range(1, 4)
        for word in bar_labels_of_degree(3, k)
        if bar_classify(word)[0] == ROLE_SOURCE
    ]
    assert sources and calls == sources


def _two_cycle_stream(direction):
    """The two-cycle of ``test_cycle_detected_with_witness``, its sources
    in degree 1 and its targets in degree 1 + direction, in a stream of
    degrees 0..3 that logs the degrees it is asked for; the other cells
    are critical."""
    labels = {k: [f"c{k}"] for k in range(4)}
    labels[1], labels[1 + direction] = ["u1", "u2"], ["v1", "v2"]
    edges = {"u1": [("v1", 1), ("v2", 1)], "u2": [("v1", 1), ("v2", 1)]}
    roles = {"u1": (ROLE_SOURCE, "v1"), "v1": (ROLE_TARGET, "u1"),
             "u2": (ROLE_SOURCE, "v2"), "v2": (ROLE_TARGET, "u2")}
    asked = []

    def labels_of_degree(k):
        asked.append(k)
        return iter(labels[k])

    def classify(lab):
        return roles.get(lab, (ROLE_CRITICAL, None))

    return asked, labels_of_degree, lambda lab: edges.get(lab, []), classify


@pytest.mark.parametrize("direction", [CHAIN, COCHAIN], ids=["chain", "cochain"])
def test_window_cycle_is_raised_before_the_next_degree_is_read(direction):
    # the window's targets are read first, then its sources, and the
    # cycle is found before any further degree is asked for
    asked, labels_of_degree, down_edges, classify = _two_cycle_stream(direction)
    with pytest.raises(CycleDetected) as exc:
        check_matching_streaming(range(4), labels_of_degree, down_edges, classify, ZZ, direction)
    assert set(exc.value.cycle) == {"v1", "v2"}
    assert asked == ([0, 1] if direction == CHAIN else [3, 2, 1])
