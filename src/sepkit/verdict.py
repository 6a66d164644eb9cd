"""The decision engine: existence and non-existence certificates.

Rules are tried in a fixed priority order and the certificate cites the
first one that reaches a conclusion:

  1. tree_resolution          the dual graph is a tree; a prunable
                              subcurve always carries a separatrix
  2. trivial_holonomy         trivial representation over an exceptional
                              curve forces a smooth-point singularity
                              with a transverse separatrix; a count bound
                              is attached when computable
  3. torsion_holonomy         torsion representation, no saddle-node
                              anywhere, exceptional curve
  4. gorenstein_reduction     declared k-th power trivialization of the
                              normal sheaf; orthogonality of the induced
                              divisor is forced, so its failure means the
                              input contradicts itself.  Consistent data
                              only reduces to rules 2 and 3, so this rule
                              concludes inconsistent_input or nothing
  5. infinite_holonomy_closed_world
                              non-torsion holonomy over an exceptional
                              curve with the user's declaration that no
                              singularities exist off the crossings:
                              certified absence

Anything else is NotGuaranteed, with the full check trail recorded so
the caller can see which hypothesis of which rule failed.  Every check
has a name and can be re-run on its own; a certificate is thus
independently re-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dualgraph import (
    CUT_PREFIX,
    NONDEGENERATE,
    SADDLE_NODE,
    SN_WEAK_ON_CURVE,
    DualGraph,
    SmoothSingularity,
    has_errors,
    induced_subcurve,
    validate_indices,
)
from .errors import HypothesisUnmet, NotATree, ValidationFailed
from .exactfield import FieldElement, _decimal, rational_span_dimension
from .holonomy import (
    INDETERMINATE,
    TORSION,
    TRIVIAL,
    INFINITE,
    _propagate_residues,
    representation_class,
)
from .intersection import definiteness, divisor_pairing, intersection_matrix

__all__ = [
    "CERTIFIED_ABSENT", "INCONSISTENT_INPUT", "NOT_GUARANTEED",
    "SEPARATRIX_EXISTS", "Certificate", "Hypothesis", "SeparatrixBound",
    "certificate_for", "run_check", "run_subcurve_check", "separatrix_bound",
    "subcurve_criterion", "toma_prune", "verdict",
]

SEPARATRIX_EXISTS = "separatrix_exists"
NOT_GUARANTEED = "not_guaranteed"
CERTIFIED_ABSENT = "certified_absent"
INCONSISTENT_INPUT = "inconsistent_input"

RULE_TREE = "tree_resolution"
RULE_TRIVIAL = "trivial_holonomy"
RULE_TORSION = "torsion_holonomy"
RULE_GORENSTEIN = "gorenstein_reduction"
RULE_ABSENT = "infinite_holonomy_closed_world"
RULE_SUBCURVE = "subcurve_reduction"
RULE_NONE = "no_rule_applicable"

# Prefixes for trail entries that are not hypotheses of the cited rule:
# forced consequences whose failure marks the input inconsistent, and the
# gates plus result of the optional separatrix count bound.
CONSEQUENCE = "consequence"
COUNT_BOUND = "count_bound"

SATISFIED = "satisfied"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Hypothesis:
    name: str
    status: str
    evidence: str

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "evidence": self.evidence}


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable outcome of the rule chain.

    `hypotheses` is the full evaluation trail in priority order; every
    entry named "<rule>.<check>" can be reproduced with run_check (or
    run_subcurve_check for subcurve certificates).  When the conclusion
    cites a rule, all of that rule's hypothesis entries are satisfied.
    """

    conclusion: str
    rule: str
    hypotheses: tuple[Hypothesis, ...]
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "rule": self.rule,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "witnesses": self.witnesses,
        }


# ---------------------------------------------------------------------------
# One analysis per graph


class GraphAnalysis:
    """The whole-graph facts that the checks read, each computed at most once.

    One analysis is built per verdict, analyze or subcurve criterion and
    lives only as long as that call; nothing is shared between analyses.
    Facts are computed lazily by the layer functions, looked up in this
    module at call time, so a profiler that wraps those names sees them.
    """

    def __init__(self, graph: DualGraph):
        self.graph = graph

    @cached_property
    def representation(self):
        return representation_class(self.graph)

    @cached_property
    def matrix(self):
        return intersection_matrix(self.graph)

    @cached_property
    def form(self):
        return definiteness(self.matrix)

    @cached_property
    def residual(self):
        """Needs a trivial representation and no saddle-node crossing."""
        return _propagate_residues(self.graph, self.representation)

    @cached_property
    def count_bound(self) -> SeparatrixBound:
        """The separatrix count bound; HypothesisUnmet names a failed gate."""
        _require(self, "representation_trivial", "matrix_invertible",
                 "no_weak_separatrix_on_curve")
        values = [value for _, value in self.residual.residues]
        values.extend(value for _, value in self.residual.separatrix_residues)
        declared = sum(
            1 for _, s in self.graph.all_smooth_singularities()
            if s.has_transverse_separatrix
        )
        return SeparatrixBound(declared, rational_span_dimension(values))

    @cached_property
    def gorenstein_pairings(self) -> dict[str, FieldElement]:
        g = self.graph
        k = g.gorenstein.k
        coeffs = {cid: g.field.from_rational(a - k) for cid, a in g.gorenstein.a}
        return divisor_pairing(g, coeffs)


def _require(a: GraphAnalysis, *names: str):
    for name in names:
        ok, evidence = CHECKS[name](a)
        if not ok:
            raise HypothesisUnmet(name, evidence)


def _require_valid(g: DualGraph):
    findings = validate_indices(g)
    if has_errors(findings):
        raise ValidationFailed(findings)


# ---------------------------------------------------------------------------
# Named checks.  Each takes the analysis of one graph and returns
# (ok, evidence); a certificate entry is re-verified by running the check
# of the same name.


def _rep_evidence(rep) -> str:
    if rep.kind == TORSION:
        return f"representation kind is torsion of order {rep.order}"
    if rep.kind == INDETERMINATE:
        return ("representation kind is indeterminate: saddle-node on "
                f"fundamental cycle(s) {list(rep.offending_cycles)}")
    return f"representation kind is {rep.kind}"


def check_dual_graph_is_tree(a: GraphAnalysis):
    g = a.graph
    return g.cycle_rank == 0, (
        f"{len(g.components)} component(s), {len(g.crossings)} crossing(s), "
        f"{g.cycle_rank} independent cycle(s)"
    )


def _representation_checks():
    """The entries representation_<kind> for the kinds a rule can require."""
    for kind in (TRIVIAL, TORSION, INFINITE):
        def check(a: GraphAnalysis, kind=kind):
            return a.representation.kind == kind, _rep_evidence(a.representation)
        yield f"representation_{kind}", check


def check_crossings_nondegenerate(a: GraphAnalysis):
    g = a.graph
    bad = [i for i, c in enumerate(g.crossings) if c.kind != NONDEGENERATE]
    if bad:
        return False, f"saddle-node crossing(s) at index(es) {bad}"
    return True, f"all {len(g.crossings)} crossing(s) nondegenerate"


def check_no_saddle_node(a: GraphAnalysis):
    g = a.graph
    bad_crossings = [i for i, c in enumerate(g.crossings) if c.kind == SADDLE_NODE]
    bad_sings = [
        s.id for _, s in g.all_smooth_singularities() if s.kind != NONDEGENERATE
    ]
    if bad_crossings or bad_sings:
        return False, (f"saddle-node crossing(s) {bad_crossings}, "
                       f"saddle-node smooth point(s) {bad_sings}")
    return True, "no saddle-node at any singular point"


def check_matrix_negative_definite(a: GraphAnalysis):
    d = a.form
    return d.negative_definite, (
        f"negative definite: {d.negative_definite}; "
        f"determinant {_decimal(d.determinant)}"
    )


def check_matrix_invertible(a: GraphAnalysis):
    return a.form.invertible, f"determinant {_decimal(a.form.determinant)}"


def check_smooth_singularity_declared(a: GraphAnalysis):
    n = len(a.graph.all_smooth_singularities())
    return n > 0, f"{n} smooth-point singularity(ies) declared"


def check_no_weak_separatrix_on_curve(a: GraphAnalysis):
    # The weak side of a saddle-node crossing is itself a branch of the
    # curve, so any saddle-node crossing violates the hypothesis too.
    g = a.graph
    crossings = [i for i, c in enumerate(g.crossings) if c.kind == SADDLE_NODE]
    sings = [
        s.id for _, s in g.all_smooth_singularities() if s.kind == SN_WEAK_ON_CURVE
    ]
    if crossings or sings:
        return False, (f"weak separatrix on the curve at crossing(s) "
                       f"{crossings}, smooth point(s) {sings}")
    return True, "no saddle-node has its weak separatrix along the curve"


def check_gorenstein_data_present(a: GraphAnalysis):
    if a.graph.gorenstein is None:
        return False, "no gorenstein data declared"
    return True, f"declared k = {a.graph.gorenstein.k}"


def check_gorenstein_divisor_orthogonal(a: GraphAnalysis):
    if a.graph.gorenstein is None:
        return False, "no gorenstein data declared"
    bad = [
        (cid, value)
        for cid, value in a.gorenstein_pairings.items()
        if not value.is_zero
    ]
    if bad:
        detail = ", ".join(f"D.{cid} = {value}" for cid, value in bad)
        return False, f"nonzero pairings: {detail}"
    return True, "the divisor sum((a_i - k) E_i) pairs to 0 with every component"


def check_gorenstein_holonomy_power_trivial(a: GraphAnalysis):
    g = a.graph
    if g.gorenstein is None:
        return False, "no gorenstein data declared"
    rep = a.representation
    if rep.offending_cycles:
        return False, _rep_evidence(rep)
    k = g.gorenstein.k
    # h^k = 1 iff the order of h is finite and divides k
    bad = [i for i, n in enumerate(rep.orders) if n is None or k % n]
    if bad:
        return False, f"holonomy^{k} differs from 1 on cycle(s) {bad}"
    return True, f"every cycle holonomy raised to {k} equals 1"


def check_closed_world_declared(a: GraphAnalysis):
    if not a.graph.closed_world:
        return False, "the input does not declare the closed-world flag"
    n = len(a.graph.all_smooth_singularities())
    if n:
        return False, (f"closed_world is set but {n} smooth-point "
                       "singularity(ies) are declared")
    return True, "declared: no singularities away from the crossings"


def check_declared_count_sufficient(a: GraphAnalysis):
    try:
        bound = a.count_bound
    except HypothesisUnmet as exc:
        return False, f"count bound unavailable: {exc}"
    relation = ">=" if bound.consistent else "<"
    return bound.consistent, (
        f"declared separatrix germs {bound.declared_m} {relation} "
        f"lower bound {bound.lower_bound}"
    )


CHECKS = {
    "dual_graph_is_tree": check_dual_graph_is_tree,
    **dict(_representation_checks()),
    "crossings_nondegenerate": check_crossings_nondegenerate,
    "no_saddle_node": check_no_saddle_node,
    "matrix_negative_definite": check_matrix_negative_definite,
    "matrix_invertible": check_matrix_invertible,
    "smooth_singularity_declared": check_smooth_singularity_declared,
    "no_weak_separatrix_on_curve": check_no_weak_separatrix_on_curve,
    "gorenstein_data_present": check_gorenstein_data_present,
    "gorenstein_divisor_orthogonal": check_gorenstein_divisor_orthogonal,
    "gorenstein_holonomy_power_trivial": check_gorenstein_holonomy_power_trivial,
    "closed_world_declared": check_closed_world_declared,
    "declared_count_sufficient": check_declared_count_sufficient,
}


def run_check(g: DualGraph, name: str) -> tuple[bool, str]:
    """Re-run a named check on a fresh analysis of g.

    Reproduces the status recorded in a certificate without reusing
    anything computed while the certificate was made.
    """
    fn = CHECKS.get(name)
    if fn is None:
        raise ValueError(f"unknown check: {name}")
    return fn(GraphAnalysis(g))


# ---------------------------------------------------------------------------
# Pruning on trees


def toma_prune(g: DualGraph) -> tuple[str, ...]:
    """Subcurve of a tree that no weak separatrix enters.

    This is rule 1's combinatorial step only: it certifies nothing, and it
    checks neither the input's validity nor that the intersection form is
    negative definite.  Deleting the saddle-node crossings splits the tree
    into a forest.  Each deleted crossing points from the forest component
    on its strong side to the one on its weak side; a forest component
    with no incoming arrow contains no weak separatrix, and at least one
    such component exists because n nodes cannot all receive one of n-1
    arrows.  Ties are broken toward the component containing the
    earliest-listed vertex.

    A DualGraph is connected, so it is a tree iff its cycle rank is 0, and
    then its spanning tree is the whole graph and `g.pieces` its forest.
    """
    if g.cycle_rank:
        raise NotATree("pruning is defined for tree dual graphs only")

    piece = g.pieces
    in_degree = [0] * len(piece)
    for crossing in g.crossings:
        if crossing.kind == SADDLE_NODE:
            in_degree[piece[g.index[crossing.weak]]] += 1
    winner = next((root for root in piece if in_degree[root] == 0), None)
    if winner is None:  # impossible by the counting argument above
        raise RuntimeError("internal error: every forest component has an "
                           "incoming weak-side arrow")
    return tuple(c.id for c, root in zip(g.components, piece) if root == winner)


# ---------------------------------------------------------------------------
# Separatrix count bound


@dataclass(frozen=True)
class SeparatrixBound:
    """declared_m: germs declared transverse to the curve; lower_bound: the
    provable minimum, dim_Q of the span of all residues."""

    declared_m: int
    lower_bound: int

    @property
    def consistent(self) -> bool:
        return self.declared_m >= self.lower_bound

    def to_json(self) -> dict:
        return {
            "declared_m": self.declared_m,
            "lower_bound": self.lower_bound,
            "consistent": self.consistent,
        }


def separatrix_bound(g: DualGraph) -> SeparatrixBound:
    """Lower bound on the number of separatrices not supported on the curve.

    Requires a trivial representation, an invertible intersection matrix,
    and no saddle-node whose weak separatrix lies along the curve; each
    failure raises HypothesisUnmet naming the check.  The bound is the
    Q-dimension of the span of the component residues together with the
    germ residues, which the declared germ count must meet or exceed on
    consistent input.
    """
    return GraphAnalysis(g).count_bound


# ---------------------------------------------------------------------------
# Subcurve criterion


def _subcurve_attachments(sub: DualGraph) -> list[SmoothSingularity]:
    return [s for _, s in sub.all_smooth_singularities() if s.id.startswith(CUT_PREFIX)]


def subcurve_attachment_indices_vanish(sub: GraphAnalysis):
    attachments = _subcurve_attachments(sub.graph)
    bad = [s.id for s in attachments if s.cs is None or not s.cs.is_zero]
    if bad:
        return False, f"attachment index nonzero or unknown at {bad}"
    return True, f"all {len(attachments)} attachment point(s) have index 0"


SUBCURVE = "subcurve"
AMBIENT = "ambient"

# Each subcurve check is a graph check run on one of the two graphs.
SUBCURVE_CHECKS = {
    "internal_crossings_nondegenerate": (SUBCURVE, check_crossings_nondegenerate),
    "attachment_indices_vanish": (SUBCURVE, subcurve_attachment_indices_vanish),
    "induced_representation_trivial": (SUBCURVE, CHECKS["representation_trivial"]),
    "ambient_matrix_negative_definite": (AMBIENT, check_matrix_negative_definite),
}


def run_subcurve_check(ambient: DualGraph, keep, name: str) -> tuple[bool, str]:
    """Re-run a named subcurve check on a fresh analysis, like run_check."""
    entry = SUBCURVE_CHECKS.get(name)
    if entry is None:
        raise ValueError(f"unknown subcurve check: {name}")
    on, fn = entry
    g = ambient if on == AMBIENT else induced_subcurve(ambient, keep)
    return fn(GraphAnalysis(g))


def subcurve_criterion(ambient: DualGraph, keep) -> Certificate:
    """Separatrix through the contracted point via a connected subcurve.

    The kept components must form a connected subcurve whose internal
    crossings are nondegenerate, whose attachment points to the rest of
    the configuration all carry index 0, and whose induced representation
    is trivial, inside an ambient exceptional configuration.  Like
    verdict, it raises ValidationFailed unless the ambient graph validates.
    """
    _require_valid(ambient)
    sub = induced_subcurve(ambient, keep)  # raises on a bad selection
    analyses = {SUBCURVE: GraphAnalysis(sub), AMBIENT: GraphAnalysis(ambient)}

    hypotheses = []
    all_ok = True
    for name, (on, fn) in SUBCURVE_CHECKS.items():
        ok, evidence = fn(analyses[on])
        all_ok = all_ok and ok
        hypotheses.append(Hypothesis(
            f"{RULE_SUBCURVE}.{name}", SATISFIED if ok else FAILED, evidence
        ))

    witnesses = {
        "kept_components": [c.id for c in sub.components],
        "attachments": [s.id for s in _subcurve_attachments(sub)],
    }
    if all_ok:
        return Certificate(SEPARATRIX_EXISTS, RULE_SUBCURVE, tuple(hypotheses),
                           witnesses)
    return Certificate(NOT_GUARANTEED, RULE_NONE, tuple(hypotheses), witnesses)


# ---------------------------------------------------------------------------
# The rule chain


def verdict(g: DualGraph) -> Certificate:
    """Run the full rule chain; the graph must pass validation first."""
    _require_valid(g)
    return certificate_for(g)


def certificate_for(g: DualGraph) -> Certificate:
    """The rule chain itself, with no validation gate.

    Exposed separately so defensive branches (which consistent inputs
    cannot reach) stay testable; use verdict() for real inputs.
    """
    return certify(GraphAnalysis(g))


def certify(a: GraphAnalysis) -> Certificate:
    """certificate_for on an analysis the caller also reads from."""
    g = a.graph
    trail: list[Hypothesis] = []

    def run(prefix: str, name: str) -> bool:
        ok, evidence = CHECKS[name](a)
        trail.append(Hypothesis(
            f"{prefix}.{name}", SATISFIED if ok else FAILED, evidence
        ))
        return ok

    def skip(prefix: str, name: str):
        trail.append(Hypothesis(f"{prefix}.{name}", SKIPPED, "not evaluated"))

    def done(conclusion: str, rule: str, witnesses: dict) -> Certificate:
        return Certificate(conclusion, rule, tuple(trail), witnesses)

    # 1: trees always carry a separatrix; the pruned subcurve is a witness.
    if run(RULE_TREE, "dual_graph_is_tree"):
        return done(SEPARATRIX_EXISTS, RULE_TREE,
                    {"pruned_subcurve": list(toma_prune(g))})

    # 2: trivial representation over an exceptional curve.
    trivial = run(RULE_TRIVIAL, "representation_trivial")
    nondeg = run(RULE_TRIVIAL, "crossings_nondegenerate")
    definite = run(RULE_TRIVIAL, "matrix_negative_definite")
    if trivial and nondeg and definite:
        # The rule concludes a singularity exists at a smooth point of the
        # curve; an input declaring none contradicts itself.
        if not run(CONSEQUENCE, "smooth_singularity_declared"):
            skip(COUNT_BOUND, "matrix_invertible")
            skip(COUNT_BOUND, "no_weak_separatrix_on_curve")
            skip(COUNT_BOUND, "declared_count_sufficient")
            return done(INCONSISTENT_INPUT, RULE_TRIVIAL, {
                "violated": "a trivial representation over an exceptional "
                            "curve forces a singularity at a smooth point "
                            "of the curve, but none is declared",
            })
        invertible = run(COUNT_BOUND, "matrix_invertible")
        no_weak = run(COUNT_BOUND, "no_weak_separatrix_on_curve")
        if invertible and no_weak:
            consistent = run(COUNT_BOUND, "declared_count_sufficient")
            witnesses = {
                "declared_separatrices": a.count_bound.declared_m,
                "separatrix_count_lower_bound": a.count_bound.lower_bound,
            }
            if not consistent:
                witnesses["violated"] = (
                    "fewer separatrix germs declared than the residue span "
                    "dimension guarantees"
                )
                return done(INCONSISTENT_INPUT, RULE_TRIVIAL, witnesses)
            return done(SEPARATRIX_EXISTS, RULE_TRIVIAL, witnesses)
        skip(COUNT_BOUND, "declared_count_sufficient")
        return done(SEPARATRIX_EXISTS, RULE_TRIVIAL, {})

    # 3: torsion representation, nothing degenerate anywhere.
    torsion = run(RULE_TORSION, "representation_torsion")
    no_sn = run(RULE_TORSION, "no_saddle_node")
    definite = run(RULE_TORSION, "matrix_negative_definite")
    if torsion and no_sn and definite:
        order = a.representation.order
        return done(SEPARATRIX_EXISTS, RULE_TORSION, {"torsion_order": order})

    # 4: declared Gorenstein data reduces to the torsion situation.
    present = run(RULE_GORENSTEIN, "gorenstein_data_present")
    no_sn = run(RULE_GORENSTEIN, "no_saddle_node")
    definite = run(RULE_GORENSTEIN, "matrix_negative_definite")
    if present and no_sn and definite:
        if not run(CONSEQUENCE, "gorenstein_divisor_orthogonal"):
            skip(RULE_GORENSTEIN, "gorenstein_holonomy_power_trivial")
            pairings = {
                cid: value.to_json()
                for cid, value in a.gorenstein_pairings.items()
                if not value.is_zero
            }
            return done(INCONSISTENT_INPUT, RULE_GORENSTEIN, {
                "violated": "the declared power trivialization forces "
                            "sum((a_i - k) E_i) . E_j = 0 for every j",
                "nonzero_pairings": pairings,
            })
        # Consistent data forces a_i = k.  As k >= 1, holonomy^k = 1 on
        # every cycle makes the representation trivial or torsion, which
        # rules 2 and 3 have decided already, so the check is only
        # recorded and the chain goes on.
        run(RULE_GORENSTEIN, "gorenstein_holonomy_power_trivial")

    # 5: certified non-existence needs the closed-world declaration.
    infinite = run(RULE_ABSENT, "representation_infinite")
    definite = run(RULE_ABSENT, "matrix_negative_definite")
    closed = run(RULE_ABSENT, "closed_world_declared")
    if infinite and definite and closed:
        return done(CERTIFIED_ABSENT, RULE_ABSENT, {})

    return done(NOT_GUARANTEED, RULE_NONE, {})
