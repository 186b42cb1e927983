"""Generic algebraic Morse theory on based complexes.

A matching pairs basis labels along invertible differential entries.
Reversing the matched edges must leave the two-degree digraphs acyclic;
then the unmatched (critical) labels span a homotopy equivalent complex
whose differential is the sum of weights of zig-zag paths, a reversed
matched edge of weight w contributing -w^{-1}.  Path weights multiply in
traversal order with the earliest step leftmost, which is the right
convention for maps of free left modules whose entries act by right
multiplication.

A matching is a rule, ``classify(label)``: the role of a label (critical,
source or target) with its partner.  Every reader of a matching sees it
through that rule and ``down_edges(label)``, the differential components
of a label as (target, weight) pairs; neither callback takes a degree.
The certifier and every zig-zag walk take that pair, so a matching is
certified and walked without materializing a degree.  On a materialized
complex the rule is read on the complex's labels, and ``down_edges``
comes from its matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .complexes import BasedComplex
from .linalg import SparseMatrix
from .rings import Domain

Label = Hashable
DownEdges = Callable[[Label], list[tuple[Label, object]]]
Classify = Callable[[Label], tuple[str, Optional[Label]]]


class NotAMatching(Exception):
    """A rule is not an involution: a source's partner is not its target,
    or a target's partner is not its source."""


class NonInvertibleWeight(Exception):
    """A matched edge carries a weight that is not a unit."""


class EdgeNotInDifferential(Exception):
    """A matched edge has no corresponding nonzero differential entry."""


class CycleDetected(Exception):
    """Reversing the matching creates a directed cycle."""

    def __init__(self, message: str, cycle: tuple[Label, ...] = ()):
        super().__init__(message)
        self.cycle = cycle


ROLE_CRITICAL = "critical"
ROLE_SOURCE = "source"
ROLE_TARGET = "target"


def _certified_rules(c: BasedComplex, rule: Classify):
    """A matching rule read on a materialized complex, as (down_edges,
    classify), certified by ``check_matching_streaming``: returns the
    report and the two callbacks.

    A label whose partner is not a basis label reads as critical, so a
    rule is read on a truncated complex as the matching truncated there.
    Labels are located through one label -> (degree, column) map, so a
    label that sits in two degrees is refused (ValueError): no callback
    could tell its two cells apart.
    """
    place: dict[Label, tuple[int, int]] = {}
    for k in c.degrees:
        for j, lab in enumerate(c.basis(k)):
            if place.setdefault(lab, (k, j))[0] != k:
                raise ValueError(f"label {lab!r} sits in degrees {place[lab][0]} and {k}")
    columns = {k: c.diff(k).by_cols() for k in c.degrees}

    def down_edges(lab: Label) -> list[tuple[Label, object]]:
        k, j = place[lab]
        target = c.basis(k + c.direction)
        return [(target[r], w) for r, w in columns[k].get(j, {}).items()]

    def classify(lab: Label) -> tuple[str, Optional[Label]]:
        role, partner = rule(lab)
        if role != ROLE_CRITICAL and partner not in place:
            return ROLE_CRITICAL, None
        return role, partner

    report = check_matching_streaming(
        c.degrees, c.basis, down_edges, classify, c.domain, c.direction
    )
    return report, down_edges, classify


# A walk alternates "down" steps (differential components, excluding the
# matched edge of the current label) and "up" steps (the reversed matched
# edge of the current label, if any).  Roles keep the two degrees of the
# window apart.
_SRC, _DST = 0, 1


def _walk_sums(
    start: Label,
    down_edges: DownEdges,
    classify: Classify,
    dom: Domain,
    combine: Callable[[object, object], object],
    add: Callable[[object, object], object],
    one: object,
    role: int = _SRC,
    memo: Optional[dict] = None,
    critical_ends: bool = False,
):
    """Sum over all directed walks from ``start``, a label of the source
    degree (``role`` _SRC) or of the other degree (_DST) of the window.

    Returns {(label, role): value} where the value accumulates, over every
    walk from start ending at that label, the product of edge values
    combined left to right.  The empty walk contributes ``one`` at start.
    With ``critical_ends`` only the critical labels of the _DST degree
    are recorded as ends, else every label reached is.  A ``memo`` passed
    in is shared with later calls on the same callbacks: each node's
    walks are then summed once for all starts.  Raises CycleDetected if
    the walk digraph has a cycle.
    """
    if memo is None:
        memo = {}
    GRAY = object()

    def expand(node: tuple[Label, int]):
        """The weighted children of a node, and whether it is an end."""
        lab, node_role = node
        kind, partner = classify(lab)
        is_end = not critical_ends or (node_role == _DST and kind == ROLE_CRITICAL)
        if node_role == _SRC:
            skip = partner if kind == ROLE_SOURCE else None
            return [((v, _DST), w) for v, w in down_edges(lab) if v != skip], is_end
        if kind != ROLE_TARGET:
            return [], is_end
        for v, w in down_edges(partner):
            if v == lab:
                return [((partner, _SRC), dom.neg(dom.inv(w)))], is_end
        raise EdgeNotInDifferential(f"no entry from {partner!r} to {lab!r}")

    stack: list = [((start, role), None, False)]
    while stack:
        node, kids, is_end = stack.pop()
        if kids is None:
            state = memo.get(node)
            if state is GRAY:
                raise CycleDetected(f"cycle through {node[0]!r}", (node[0],))
            if state is not None:
                continue
            memo[node] = GRAY
            kids, is_end = expand(node)
            stack.append((node, kids, is_end))
            for child, _w in kids:
                if memo.get(child) is GRAY:
                    raise CycleDetected(f"cycle through {child[0]!r}", (child[0],))
                if child not in memo:
                    stack.append((child, None, False))
        else:
            acc: dict[tuple[Label, int], object] = {node: one} if is_end else {}
            for child, w in kids:
                for end, val in memo[child].items():
                    term = combine(w, val)
                    if end in acc:
                        acc[end] = add(acc[end], term)
                    else:
                        acc[end] = term
            memo[node] = acc
    return memo[(start, role)]


def reduce(c: BasedComplex, rule: Classify, up_to: Optional[int] = None) -> BasedComplex:
    """The Morse-reduced complex of a matching rule on the critical
    labels, read on the complex as ``check_matching`` reads it.

    The reduced differential entry from a critical label to a critical
    label one step along the differential direction is the sum, over all
    zig-zag paths between them, of the products of step weights; forward
    steps contribute their differential entry and reversed matched steps
    contribute -w^{-1}.  Validates the matching first and propagates its
    errors.

    ``up_to`` truncates the output: only degrees up to the bound are
    kept, which drops the labels that read as critical at the top degree
    of the input only because their partners lie above it.
    """
    report, down_edges, classify = _certified_rules(c, rule)
    dom = c.domain
    critical = report.critical
    if up_to is not None:
        critical = {k: labs for k, labs in critical.items() if k <= up_to}
    crit_index = {k: {lab: i for i, lab in enumerate(labs)} for k, labs in critical.items()}

    new_diffs: dict[int, SparseMatrix] = {}
    for k in sorted(c.diffs):
        if k not in critical:
            continue
        k2 = k + c.direction
        if k2 not in critical:
            continue
        entries: dict[tuple[int, int], object] = {}
        tgt_index = crit_index.get(k2, {})
        for j, lab in enumerate(critical.get(k, ())):
            sums = _walk_sums(lab, down_edges, classify, dom, dom.mul, dom.add, dom.one)
            for (end, role), val in sums.items():
                if role == _DST and end in tgt_index and not dom.is_zero(val):
                    entries[(tgt_index[end], j)] = val
        new_diffs[k] = SparseMatrix(
            len(critical.get(k2, ())), len(critical.get(k, ())), entries, dom
        )
    return BasedComplex(dom, c.direction, critical, new_diffs)


def transfer_h(c: BasedComplex, rule: Classify, label: Label) -> dict[Label, object]:
    """Image of a critical label of a matching rule, read on the complex
    as ``check_matching`` reads it, under the homotopy equivalence into
    the original complex: the sum of path weights to every same-degree
    label (the empty path contributes the label itself with weight one)."""
    _report, down_edges, classify = _certified_rules(c, rule)
    if c.label_degree(label) is None:
        raise ValueError(f"{label!r} not in complex")
    if classify(label)[0] != ROLE_CRITICAL:
        raise ValueError(f"{label!r} is not critical")
    dom = c.domain
    sums = _walk_sums(label, down_edges, classify, dom, dom.mul, dom.add, dom.one)
    return {end: val for (end, role), val in sums.items() if role == _SRC}


def lazy_path_counts(
    start: Label, down_edges: DownEdges, classify: Classify, dom: Domain
) -> dict[Label, int]:
    """Number of directed walks from ``start`` to each reachable
    same-degree label (weights ignored; ``dom`` still inverts each
    reversed matched weight, so a non-unit one fails here too)."""
    sums = _walk_sums(
        start,
        down_edges,
        classify,
        dom,
        combine=lambda _w, v: v,
        add=lambda a, b: a + b,
        one=1,
    )
    return {end: val for (end, role), val in sums.items() if role == _SRC}


def lazy_projection(
    labels: Iterable[Label], down_edges: DownEdges, classify: Classify, dom: Domain
) -> Iterator[tuple[Label, dict[Label, object]]]:
    """The Morse projection onto the critical labels of one degree, for
    each of ``labels`` (all of that degree) in turn.

    A label's image sums, over every walk from it to a critical label of
    the same degree, the product of the step weights: a target goes up
    its reversed matched edge, a source one degree up goes down every
    component but its matched one, and a label matched downward is a dead
    end.  One memo serves every label.
    """
    memo: dict = {}
    for lab in labels:
        sums = _walk_sums(
            lab, down_edges, classify, dom, dom.mul, dom.add, dom.one,
            role=_DST, memo=memo, critical_ends=True,
        )
        yield lab, {end: val for (end, _role), val in sums.items() if not dom.is_zero(val)}


# Certification.  One certifier streams the cells degree by degree
# through the matching's callbacks, so rule-defined matchings on complexes
# too large to materialize are certified without building them;
# ``check_matching`` feeds it a materialized complex.  The classify
# callback must implement a genuine involution; this is verified cell by
# cell.


@dataclass(frozen=True)
class StreamingReport:
    cells: dict[int, int]
    matched_pairs: dict[int, int]  # keyed by source degree
    critical: dict[int, tuple[Label, ...]]


def check_matching_streaming(
    degrees: Iterable[int],
    labels_of_degree: Callable[[int], Iterator[Label]],
    down_edges: DownEdges,
    classify: Classify,
    domain: Domain,
    direction: int = -1,
) -> StreamingReport:
    """Certify a rule-defined matching degree by degree without
    materializing bases or matrices.

    For every cell the classification is checked to be involutive, and
    every matched edge is located inside the actual differential of its
    source with a unit weight; ``down_edges`` is called once per source
    and never for any other cell.  The degrees are read against the
    direction of the differential (rising for chains, falling for
    cochains), so each two-degree window's targets are read before its
    sources.  The window is checked for cycles as soon as its source
    degree has been read, on the edges that pass read, and its state is
    dropped before the next degree: each source keeps only its edges to
    the targets of the window, without weights.  So a fault is raised
    in reading order, a cycle in one window before a fault in a degree
    read after it.  Critical labels are collected and returned.
    """
    degree_set = set(degrees)
    cells: dict[int, int] = {}
    pairs: dict[int, int] = {}
    critical: dict[int, list[Label]] = {k: [] for k in sorted(degree_set)}
    below: set = set()  # the targets of the degree read last

    for k in sorted(degree_set, reverse=direction > 0):
        window = k + direction in degree_set
        # the labels of this degree that the next window's sources match
        targets: Optional[set] = set() if k - direction in degree_set else None
        follow: dict[Label, tuple[Label, ...]] = {}  # matched target -> targets it reaches
        count = 0
        for lab in labels_of_degree(k):
            count += 1
            role, partner = classify(lab)
            if role == ROLE_CRITICAL:
                critical[k].append(lab)
                continue
            if role == ROLE_SOURCE:
                back_role, back = classify(partner)
                if back_role != ROLE_TARGET or back != lab:
                    raise NotAMatching(
                        f"classification not involutive at {lab!r} -> {partner!r}"
                    )
                edges = down_edges(lab)
                weight = None
                for tgt, w in edges:
                    if tgt == partner:
                        weight = w
                        break
                if weight is None or domain.is_zero(weight):
                    raise EdgeNotInDifferential(f"no entry from {lab!r} to {partner!r}")
                if not domain.is_unit(weight):
                    raise NonInvertibleWeight(f"{lab!r} -> {partner!r} weight {weight!r}")
                if window:
                    pairs[k] = pairs.get(k, 0) + 1
                    follow[partner] = tuple([t for t, _w in edges if t in below and t != partner])
            elif role == ROLE_TARGET:
                back_role, back = classify(partner)
                if back_role != ROLE_SOURCE or back != lab:
                    raise NotAMatching(
                        f"classification not involutive at {lab!r} <- {partner!r}"
                    )
                if targets is not None:
                    targets.add(lab)
            else:
                raise ValueError(f"bad role {role!r}")
        cells[k] = count
        below = targets or set()
        _check_pair_acyclic(follow)

    return StreamingReport(
        {k: cells[k] for k in sorted(cells)},
        {k: pairs[k] for k in sorted(pairs)},
        {k: tuple(v) for k, v in critical.items()},
    )


def _check_pair_acyclic(follow: dict[Label, tuple[Label, ...]]):
    """DFS for directed cycles among the matched pairs of one degree window.

    Any cycle in the partially reversed digraph alternates matched pairs,
    so it suffices to walk the relation: pair (u, v) reaches pair (u', v')
    when d(u) hits v'.  Nodes are keyed by the target label, in the order
    their sources were read, and ``follow[v]`` lists the targets v' != v
    that the source of v hits; one that is no key here is not followed.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Label, int] = {}
    parent: dict[Label, Label] = {}
    for v0 in follow:
        if color.get(v0, WHITE) is not WHITE:
            continue
        stack: list[tuple[Label, bool]] = [(v0, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                color[v] = BLACK
                continue
            if color.get(v, WHITE) == BLACK:
                continue
            color[v] = GRAY
            stack.append((v, True))
            for v2 in follow[v]:
                if v2 not in follow:
                    continue
                cv2 = color.get(v2, WHITE)
                if cv2 == GRAY:
                    cycle = [v2, v]
                    node = v
                    while node != v2 and node in parent:
                        node = parent[node]
                        cycle.append(node)
                    cycle.reverse()
                    raise CycleDetected(
                        f"reversed digraph has a cycle through {v2!r}", tuple(cycle)
                    )
                if cv2 == WHITE:
                    parent[v2] = v
                    stack.append((v2, False))


def check_matching(c: BasedComplex, rule: Classify) -> StreamingReport:
    """Certify a matching rule on a materialized complex.

    The rule is read on the complex's labels, where a label whose partner
    is not a basis label reads as critical, and the complex's matrices
    give ``down_edges``; ``check_matching_streaming`` certifies the pair
    over the bases, so it raises NotAMatching, EdgeNotInDifferential,
    NonInvertibleWeight or CycleDetected as that does.  No label may sit
    in two degrees (else ValueError).
    """
    return _certified_rules(c, rule)[0]
