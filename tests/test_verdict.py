import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit.dualgraph import (
    NONDEGENERATE,
    SADDLE_NODE,
    SN_WEAK_ON_CURVE,
    Component,
    Crossing,
    DualGraph,
    GorensteinData,
    SmoothSingularity,
    graph_from_obj,
    has_errors,
    validate_indices,
)
from sepkit.errors import (
    Disconnected,
    HypothesisUnmet,
    NotATree,
    SchemaError,
    ValidationFailed,
)
from sepkit.exactfield import NumberField
from sepkit.fixtures import (
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)
from sepkit.verdict import (
    CERTIFIED_ABSENT,
    CHECKS,
    INCONSISTENT_INPUT,
    NOT_GUARANTEED,
    RULE_ABSENT,
    RULE_GORENSTEIN,
    RULE_NONE,
    RULE_SUBCURVE,
    RULE_TORSION,
    RULE_TREE,
    RULE_TRIVIAL,
    SEPARATRIX_EXISTS,
    certificate_for,
    run_check,
    run_subcurve_check,
    separatrix_bound,
    subcurve_criterion,
    toma_prune,
    verdict,
)

from oracles import (
    prune_oracle,
    shuffled_components,
    span_dimension_oracle,
)

QQ = NumberField((Fraction(0),))
SQRT2 = NumberField((Fraction(-2), Fraction(0)))


def q(value):
    return QQ.from_rational(Fraction(value))


def star_with_weak_arrows():
    """A - X - B with saddle-nodes whose weak sides are X and B."""
    return DualGraph(
        QQ,
        (Component("A", -2), Component("X", -3), Component("B", -2)),
        (
            Crossing("A", "X", SADDLE_NODE, weak="X", cs_weak=q(-1)),
            Crossing("X", "B", SADDLE_NODE, weak="B", cs_weak=q(-1)),
        ),
    )


def padded_cycle(extra_weak_on_e1=False):
    """Validated 3-cycle with trivial holonomy and a pad germ everywhere."""
    e1 = -4 if extra_weak_on_e1 else -3
    sings1 = [SmoothSingularity("E1:pad", NONDEGENERATE, q(-1), True)]
    if extra_weak_on_e1:
        sings1.append(
            SmoothSingularity("E1:weak", SN_WEAK_ON_CURVE, q(-1), True)
        )
    comps = (
        Component("E1", e1, 0, tuple(sings1)),
        Component("E2", -3, 0,
                  (SmoothSingularity("E2:pad", NONDEGENERATE, q(-1), True),)),
        Component("E3", -3, 0,
                  (SmoothSingularity("E3:pad", NONDEGENERATE, q(-1), True),)),
    )
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=q(-1)),
        Crossing("E2", "E3", NONDEGENERATE, cs_tail=q(-1)),
        Crossing("E1", "E3", NONDEGENERATE, cs_tail=q(-1)),
    )
    return DualGraph(QQ, comps, crossings)


def bare_trivial_cycle():
    """Trivial holonomy, negative definite, but no singularities declared.

    The vertex sums cannot balance, so this never passes validation; it
    exists to drive the defensive inconsistency branch directly.
    """
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=q(-1)),
        Crossing("E2", "E3", NONDEGENERATE, cs_tail=q(-1)),
        Crossing("E1", "E3", NONDEGENERATE, cs_tail=q(-1)),
    )
    comps = (Component("E1", -2), Component("E2", -2), Component("E3", -3))
    return DualGraph(QQ, comps, crossings)


def undercounted_cycle():
    """Trivial holonomy over Q(sqrt 2) whose declared germ count is too low.

    The residues are 1, a/2, a/2 and the single germ residue is 1, so the
    span has dimension 2 while only one germ is declared.  Unvalidated on
    purpose: consistent inputs cannot reach the bound-violation branch.
    """
    alpha = SQRT2.alpha()
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=-alpha / 2),
        Crossing("E2", "E3", NONDEGENERATE, cs_tail=SQRT2.from_rational(-1)),
        Crossing("E1", "E3", NONDEGENERATE, cs_tail=-alpha / 2),
    )
    comps = (
        Component("E1", -2, 0,
                  (SmoothSingularity("s", NONDEGENERATE,
                                     SQRT2.from_rational(-1), True),)),
        Component("E2", -2),
        Component("E3", -3),
    )
    return DualGraph(SQRT2, comps, crossings)


def with_gorenstein(g, k, a_values):
    data = GorensteinData(
        k, tuple((c.id, a) for c, a in zip(g.components, a_values))
    )
    return dataclasses.replace(g, gorenstein=data)


class TestTomaPrune:
    def test_weak_arrow_star(self):
        assert toma_prune(star_with_weak_arrows()) == ("A",)

    def test_tree_without_saddle_nodes_keeps_everything(self):
        g = make_random_tree(2, n=6, saddle_node_probability=0.0)
        assert toma_prune(g) == tuple(c.id for c in g.components)

    def test_cycles_rejected(self):
        for g in [make_camacho_cycle()[0]] + [
            make_random_graph(seed, 6 + seed, 1 + seed % 3) for seed in range(5)
        ]:
            with pytest.raises(NotATree):
                toma_prune(g)

    def test_triangle_plus_isolated_component_is_no_graph(self):
        # As many crossings as components less one, but a cycle plus an
        # isolated vertex: a count-based tree test would accept it.
        with pytest.raises(Disconnected):
            DualGraph(
                QQ,
                tuple(Component(cid, -2) for cid in ("E1", "E2", "E3", "E4")),
                (
                    Crossing("E1", "E2", NONDEGENERATE, cs_tail=q(-1)),
                    Crossing("E2", "E3", NONDEGENERATE, cs_tail=q(-1)),
                    Crossing("E1", "E3", NONDEGENERATE, cs_tail=q(-1)),
                ),
            )

    def test_matches_exhaustive_oracle(self):
        for seed in range(250):
            g = make_random_tree(seed, n=1 + seed % 16,
                                 saddle_node_probability=0.4)
            assert toma_prune(g) == prune_oracle(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_oracle_on_shuffled_trees(self, seed):
        # make_random_tree attaches each component to an earlier one, so a
        # piece's vertex nearest the root is also its earliest-listed one;
        # shuffled, the two differ and the tie-break is really tested.
        rng = random.Random(seed)
        g = make_random_tree(seed, n=2 + seed % 15, saddle_node_probability=0.5)
        for _ in range(3):
            shuffled = shuffled_components(g, rng)
            assert toma_prune(shuffled) == prune_oracle(shuffled)

    def test_kept_set_has_no_incoming_weak_arrow(self):
        for seed in range(60):
            g = make_random_tree(seed, n=2 + seed % 10,
                                 saddle_node_probability=0.6)
            kept = set(toma_prune(g))
            assert kept
            for c in g.crossings:
                if c.kind == SADDLE_NODE and c.weak in kept:
                    assert c.other(c.weak) in kept


class TestChecks:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_check(make_torsion4(), "definitely_not_a_check")

    def test_every_check_runs_everywhere(self):
        graphs = [
            make_torsion4(),
            make_camacho_cycle()[0],
            make_p2_cycle(2),
            make_random_tree(0, n=5),
            padded_cycle(),
        ]
        for g in graphs:
            for name in CHECKS:
                ok, evidence = run_check(g, name)
                assert isinstance(ok, bool)
                assert isinstance(evidence, str) and evidence

    def test_power_trivial_check_with_a_saddle_node_on_a_cycle(self):
        g = padded_cycle()
        saddle_node = Crossing("E1", "E2", SADDLE_NODE, weak="E2", cs_weak=q(-1))
        g = with_gorenstein(dataclasses.replace(
            g, crossings=(saddle_node,) + g.crossings[1:]), 2, (2, 2, 2))
        assert run_check(g, "gorenstein_holonomy_power_trivial") == (
            False, "representation kind is indeterminate: saddle-node on "
                   "fundamental cycle(s) [0]")

    def test_closed_world_check_with_a_declared_singularity(self):
        g, _ = make_camacho_cycle()
        assert g.closed_world
        e1 = dataclasses.replace(g.components[0], smooth_singularities=(
            SmoothSingularity("s", NONDEGENERATE, g.field.from_rational(-1),
                              True),))
        g = dataclasses.replace(g, components=(e1,) + g.components[1:])
        assert run_check(g, "closed_world_declared") == (
            False, "closed_world is set but 1 smooth-point singularity(ies) "
                   "are declared")


class TestVerdictChain:
    def test_tree_rule_with_pruned_witness(self):
        g = make_random_tree(8, n=7, saddle_node_probability=0.4)
        cert = verdict(g)
        assert cert.conclusion == SEPARATRIX_EXISTS
        assert cert.rule == RULE_TREE
        assert cert.witnesses["pruned_subcurve"] == list(toma_prune(g))
        assert len(cert.hypotheses) == 1

    def test_camacho_certified_absent(self):
        cert = verdict(make_camacho_cycle()[0])
        assert cert.conclusion == CERTIFIED_ABSENT
        assert cert.rule == RULE_ABSENT

    def test_camacho_without_closed_world_not_guaranteed(self):
        g, _ = make_camacho_cycle()
        cert = verdict(dataclasses.replace(g, closed_world=False))
        assert cert.conclusion == NOT_GUARANTEED
        assert cert.rule == RULE_NONE

    def test_torsion_rule(self):
        cert = verdict(make_torsion4())
        assert cert.conclusion == SEPARATRIX_EXISTS
        assert cert.rule == RULE_TORSION
        assert cert.witnesses == {"torsion_order": 4}

    def test_trivial_rule_with_count_bound(self):
        cert = verdict(padded_cycle())
        assert cert.conclusion == SEPARATRIX_EXISTS
        assert cert.rule == RULE_TRIVIAL
        assert cert.witnesses == {
            "declared_separatrices": 3,
            "separatrix_count_lower_bound": 1,
        }

    def test_trivial_rule_survives_unusable_count_bound(self):
        g = padded_cycle(extra_weak_on_e1=True)
        assert not has_errors(validate_indices(g))
        cert = verdict(g)
        assert cert.conclusion == SEPARATRIX_EXISTS
        assert cert.rule == RULE_TRIVIAL
        assert cert.witnesses == {}
        by_name = {h.name: h.status for h in cert.hypotheses}
        assert by_name["count_bound.no_weak_separatrix_on_curve"] == "failed"
        assert by_name["count_bound.declared_count_sufficient"] == "skipped"

    def test_validation_gate(self):
        with pytest.raises(ValidationFailed) as exc:
            verdict(bare_trivial_cycle())
        assert any(f.code == "vertex-sum-mismatch" for f in exc.value.findings)

    def test_certificate_json_layout(self):
        obj = verdict(make_torsion4()).to_json()
        assert set(obj) == {"conclusion", "rule", "hypotheses", "witnesses"}
        entry = obj["hypotheses"][0]
        assert set(entry) == {"name", "status", "evidence"}
        assert all(
            h["status"] in ("satisfied", "failed", "skipped")
            for h in obj["hypotheses"]
        )

    def test_cited_rule_hypotheses_all_satisfied(self):
        fixtures = [
            make_torsion4(),
            make_camacho_cycle()[0],
            padded_cycle(),
            make_random_tree(4, n=6),
            with_gorenstein(make_camacho_cycle()[0], 2, (2, 2, 2)),
        ]
        for g in fixtures:
            cert = verdict(g)
            assert cert.rule != RULE_NONE
            for h in cert.hypotheses:
                if h.name.startswith(cert.rule + "."):
                    assert h.status == "satisfied", (cert.rule, h)

    def test_hypotheses_are_rerunnable(self):
        fixtures = [
            make_torsion4(),
            make_camacho_cycle()[0],
            make_p2_cycle(2),
            padded_cycle(extra_weak_on_e1=True),
            with_gorenstein(make_camacho_cycle()[0], 2, (2, 2, 2)),
        ]
        for g in fixtures:
            for h in verdict(g).hypotheses:
                if h.status == "skipped":
                    continue
                _, check = h.name.split(".", 1)
                ok, evidence = run_check(g, check)
                assert ok is (h.status == "satisfied"), (h.name, evidence)
                assert evidence == h.evidence

    def test_not_guaranteed_names_a_failure_in_every_rule(self):
        # no silent fallthrough: something failed in each rule's namespace
        fixtures = [
            make_p2_cycle(2),
            make_p2_cycle(Fraction(1, 7)),
            dataclasses.replace(make_camacho_cycle()[0], closed_world=False),
        ]
        rules = (RULE_TREE, RULE_TRIVIAL, RULE_TORSION, RULE_GORENSTEIN,
                 RULE_ABSENT)
        for g in fixtures:
            cert = verdict(g)
            assert cert.conclusion == NOT_GUARANTEED
            for rule in rules:
                failed = [
                    h for h in cert.hypotheses
                    if h.name.startswith(rule + ".") and h.status == "failed"
                ]
                assert failed, rule


class TestInconsistentInputs:
    def test_trivial_without_declared_singularity(self):
        g = bare_trivial_cycle()
        cert = certificate_for(g)
        assert cert.conclusion == INCONSISTENT_INPUT
        assert cert.rule == RULE_TRIVIAL
        assert "violated" in cert.witnesses
        by_name = {h.name: h.status for h in cert.hypotheses}
        assert by_name["consequence.smooth_singularity_declared"] == "failed"
        assert by_name["count_bound.declared_count_sufficient"] == "skipped"

    def test_declared_count_below_bound(self):
        g = undercounted_cycle()
        cert = certificate_for(g)
        assert cert.conclusion == INCONSISTENT_INPUT
        assert cert.rule == RULE_TRIVIAL
        assert cert.witnesses["declared_separatrices"] == 1
        assert cert.witnesses["separatrix_count_lower_bound"] == 2
        assert "violated" in cert.witnesses

    def test_gorenstein_orthogonality_violation(self):
        g = with_gorenstein(make_camacho_cycle()[0], 2, (1, 2, 2))
        assert not has_errors(validate_indices(g))
        cert = verdict(g)
        assert cert.conclusion == INCONSISTENT_INPUT
        assert cert.rule == RULE_GORENSTEIN
        assert cert.witnesses["nonzero_pairings"]["E1"] == ["2", "0"]
        by_name = {h.name: h.status for h in cert.hypotheses}
        assert by_name["consequence.gorenstein_divisor_orthogonal"] == "failed"


class TestSeparatrixBound:
    def test_quadratic_chain_needs_two_germs(self):
        for seed in range(6):
            g = make_quadratic_chain(seed, length=4)
            bound = separatrix_bound(g)
            assert bound.lower_bound == 2
            assert bound.declared_m == len(g.components)
            assert bound.consistent

    def test_rational_instances_need_one(self):
        g = make_random_tree(9, n=6, saddle_node_probability=0.0)
        bound = separatrix_bound(g)
        assert bound.lower_bound == 1
        assert bound.consistent

    def test_bound_matches_elimination_oracle(self):
        from sepkit.holonomy import residual_divisor

        for seed in range(8):
            g = make_quadratic_chain(seed, length=5)
            R = residual_divisor(g)
            values = [v for _, v in R.residues]
            values += [v for _, v in R.separatrix_residues]
            assert separatrix_bound(g).lower_bound == span_dimension_oracle(values)

    def test_violation_reported_not_exceptioned(self):
        bound = separatrix_bound(undercounted_cycle())
        assert bound.declared_m == 1
        assert bound.lower_bound == 2
        assert not bound.consistent
        assert bound.to_json() == {
            "declared_m": 1, "lower_bound": 2, "consistent": False,
        }

    def test_gates_raise_named_hypotheses(self):
        with pytest.raises(HypothesisUnmet) as exc:
            separatrix_bound(make_camacho_cycle()[0])
        assert exc.value.hypothesis == "representation_trivial"

        with pytest.raises(HypothesisUnmet) as exc:
            separatrix_bound(make_p2_cycle(2))
        assert exc.value.hypothesis == "matrix_invertible"

        g = make_random_tree(1, n=8, saddle_node_probability=1.0)
        with pytest.raises(HypothesisUnmet) as exc:
            separatrix_bound(g)
        assert exc.value.hypothesis == "no_weak_separatrix_on_curve"


def entry(cert, name):
    """(status, evidence) of the trail entry `name`, or None when absent."""
    found = [(h.status, h.evidence) for h in cert.hypotheses if h.name == name]
    assert len(found) <= 1, name
    return found[0] if found else None


POWER_CHECK = "gorenstein_reduction.gorenstein_holonomy_power_trivial"
ORTHOGONAL = "consequence.gorenstein_divisor_orthogonal"


class TestGorensteinReduce:
    """Rule 4 through the chain: its trail entries, and the same checks
    re-run by name."""

    def test_torsion4_power_four_passes(self):
        g = with_gorenstein(make_torsion4(), 4, (4, 4, 4))
        # a_i = k is what orthogonality forces on a negative definite lattice
        assert run_check(g, "gorenstein_divisor_orthogonal") == (
            True, "the divisor sum((a_i - k) E_i) pairs to 0 with every component")
        assert run_check(g, "gorenstein_holonomy_power_trivial") == (
            True, "every cycle holonomy raised to 4 equals 1")
        # h^k = 1 exactly when the order 4 divides k
        for k, evidence in ((8, "every cycle holonomy raised to 8 equals 1"),
                            (2, "holonomy^2 differs from 1 on cycle(s) [0]")):
            g = with_gorenstein(make_torsion4(), k, (k, k, k))
            assert run_check(g, "gorenstein_holonomy_power_trivial") == (
                k == 8, evidence)

    def test_camacho_power_check_fails_but_reduces(self):
        g = with_gorenstein(make_camacho_cycle()[0], 2, (2, 2, 2))
        evidence = "holonomy^2 differs from 1 on cycle(s) [0]"
        assert run_check(g, "gorenstein_holonomy_power_trivial") == (False, evidence)
        # the verdict then falls through to the closed-world absence rule
        cert = verdict(g)
        assert (cert.conclusion, cert.rule) == (CERTIFIED_ABSENT, RULE_ABSENT)
        assert entry(cert, ORTHOGONAL)[0] == "satisfied"
        assert entry(cert, POWER_CHECK) == ("failed", evidence)

    def test_inconsistent_coefficients_rejected(self):
        g = with_gorenstein(make_camacho_cycle()[0], 2, (1, 2, 2))
        ok, evidence = run_check(g, "gorenstein_divisor_orthogonal")
        assert not ok and "D.E1 = 2" in evidence
        cert = verdict(g)
        assert (cert.conclusion, cert.rule) == (INCONSISTENT_INPUT, RULE_GORENSTEIN)
        assert entry(cert, ORTHOGONAL) == ("failed", evidence)
        assert entry(cert, POWER_CHECK)[0] == "skipped"
        assert cert.witnesses["nonzero_pairings"]["E1"] == ["2", "0"]

    def test_gates(self):
        sn_tree = make_random_tree(1, n=5, saddle_node_probability=1.0)
        sn_cycle = make_random_graph(1, 5, 1, 1.0)
        for gate, g, in_chain in [
            ("gorenstein_data_present", make_torsion4(), False),
            ("gorenstein_data_present", make_camacho_cycle()[0], True),
            ("no_saddle_node", with_gorenstein(sn_tree, 2, (2,) * 5), False),
            ("no_saddle_node", with_gorenstein(sn_cycle, 2, (2,) * 5), True),
            ("matrix_negative_definite",
             with_gorenstein(make_p2_cycle(2), 2, (2, 2, 2)), True),
        ]:
            ok, evidence = run_check(g, gate)
            assert not ok, gate
            # an earlier rule concludes on the torsion graph and on the tree
            cert = certificate_for(g)
            expected = ("failed", evidence) if in_chain else None
            assert entry(cert, f"{RULE_GORENSTEIN}.{gate}") == expected, gate
            assert entry(cert, ORTHOGONAL) is None
            assert entry(cert, POWER_CHECK) is None

    def test_torsion_rule_outranks_gorenstein(self):
        g = with_gorenstein(make_torsion4(), 4, (4, 4, 4))
        assert verdict(g).rule == RULE_TORSION

    @pytest.mark.parametrize("closed, conclusion", [
        (False, NOT_GUARANTEED), (True, CERTIFIED_ABSENT),
    ])
    def test_zero_power_certifies_nothing(self, closed, conclusion):
        # h^0 = 1 for every holonomy, so k = 0 says nothing about the
        # foliation: no graph can carry it, so no certificate can turn the
        # Camacho cycle's conclusion into an existence.
        g = dataclasses.replace(make_camacho_cycle()[0], closed_world=closed)
        cert = verdict(g)
        assert (cert.conclusion, cert.rule) == (
            conclusion, RULE_ABSENT if closed else RULE_NONE)
        with pytest.raises(SchemaError) as exc:
            with_gorenstein(g, 0, (0, 0, 0))
        assert str(exc.value) == "gorenstein.k must be a positive integer"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(3, 12), st.integers(1, 4),
           st.integers(1, 4))
    def test_gorenstein_rule_only_reports_inconsistency(self, seed, n, extra, k):
        graphs = [make_random_graph(seed, n, extra), make_torsion4(),
                  make_camacho_cycle()[0], make_p2_cycle(2),
                  make_random_tree(seed, n), make_quadratic_chain(seed)]
        for g in graphs:
            cert = verdict(with_gorenstein(g, k, (k,) * len(g.components)))
            assert cert.rule != RULE_GORENSTEIN, (seed, k, cert.conclusion)
        # data that fails orthogonality is the one conclusion left to it
        bad = with_gorenstein(make_camacho_cycle()[0], k, (k + 1, k, k))
        assert (verdict(bad).conclusion, verdict(bad).rule) == (
            INCONSISTENT_INPUT, RULE_GORENSTEIN)


def strong_attachment_ambient():
    """E1-E2 kept, E2-E3 dropped across a saddle-node with strong side E2."""
    comps = (
        Component("E1", -2, 0,
                  (SmoothSingularity("E1:pad", NONDEGENERATE, q(-1), True),)),
        Component("E2", -3, 0,
                  (SmoothSingularity("E2:pad", NONDEGENERATE, q(-2), True),)),
        Component("E3", -2, 0,
                  (SmoothSingularity("E3:pad", NONDEGENERATE, q(-1), True),)),
    )
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=q(-1)),
        Crossing("E2", "E3", SADDLE_NODE, weak="E3", cs_weak=q(-1)),
    )
    return DualGraph(QQ, comps, crossings)


UNBALANCED_SADDLE_NODE = {
    "field": {"min_poly": ["0"]},
    "components": [{"id": "E1", "self_intersection": -2},
                   {"id": "E2", "self_intersection": -2}],
    "crossings": [{"tail": "E1", "head": "E2", "kind": "saddle_node",
                   "weak": "E2", "cs_weak": ["0"]}],
}


class TestSubcurveCriterion:
    def test_strong_side_attachment_passes(self):
        g = strong_attachment_ambient()
        assert not has_errors(validate_indices(g))
        cert = subcurve_criterion(g, ["E1", "E2"])
        assert cert.conclusion == SEPARATRIX_EXISTS
        assert cert.rule == RULE_SUBCURVE
        assert cert.witnesses == {
            "kept_components": ["E1", "E2"],
            "attachments": ["cut:1"],
        }
        assert all(h.status == "satisfied" for h in cert.hypotheses)

    def test_whole_tree_selection_passes(self):
        g = make_random_tree(6, n=5, saddle_node_probability=0.0)
        cert = subcurve_criterion(g, [c.id for c in g.components])
        assert cert.conclusion == SEPARATRIX_EXISTS
        assert cert.witnesses["attachments"] == []

    def test_nonzero_attachment_fails(self):
        g = make_quadratic_chain(1, length=3)
        cert = subcurve_criterion(g, ["E1", "E2"])
        assert cert.conclusion == NOT_GUARANTEED
        assert cert.rule == RULE_NONE
        failed = {h.name for h in cert.hypotheses if h.status == "failed"}
        assert failed == {"subcurve_reduction.attachment_indices_vanish"}

    def test_ambient_not_exceptional_fails(self):
        cert = subcurve_criterion(make_p2_cycle(2), ["C1", "C2"])
        assert cert.conclusion == NOT_GUARANTEED
        failed = {h.name for h in cert.hypotheses if h.status == "failed"}
        assert (
            "subcurve_reduction.ambient_matrix_negative_definite" in failed
        )

    def test_internal_saddle_node_fails(self):
        g = strong_attachment_ambient()
        cert = subcurve_criterion(g, ["E2", "E3"])
        failed = {h.name for h in cert.hypotheses if h.status == "failed"}
        assert "subcurve_reduction.internal_crossings_nondegenerate" in failed

    def test_nontrivial_induced_representation_fails(self):
        g = make_torsion4()
        cert = subcurve_criterion(g, ["E1", "E2", "E3"])
        failed = {h.name for h in cert.hypotheses if h.status == "failed"}
        assert failed == {"subcurve_reduction.induced_representation_trivial"}

    def test_hypotheses_are_rerunnable(self):
        g = strong_attachment_ambient()
        for keep in (["E1", "E2"], ["E2", "E3"]):
            cert = subcurve_criterion(g, keep)
            for h in cert.hypotheses:
                _, check = h.name.split(".", 1)
                ok, evidence = run_subcurve_check(g, keep, check)
                assert ok is (h.status == "satisfied")
                assert evidence == h.evidence

    def test_invalid_ambient_graph_is_refused(self):
        # Neither vertex sum balances, so no certificate may be issued.
        g = graph_from_obj(UNBALANCED_SADDLE_NODE)
        assert has_errors(validate_indices(g))
        with pytest.raises(ValidationFailed) as info:
            subcurve_criterion(g, ["E1"])
        codes = [f.code for f in info.value.findings if f.severity == "error"]
        assert codes == ["vertex-sum-mismatch"] * 2

    def test_unknown_subcurve_check(self):
        with pytest.raises(ValueError):
            run_subcurve_check(strong_attachment_ambient(), ["E1"], "nope")


def invariance_pool(seed):
    builders = (
        lambda: make_random_tree(seed, n=2 + seed % 9,
                                 saddle_node_probability=0.3),
        lambda: make_random_graph(seed, n=2 + seed % 6,
                                  extra_crossings=1 + seed % 2),
        lambda: make_p2_cycle(Fraction(seed + 2, 3)),
        lambda: make_camacho_cycle()[0],
        lambda: make_torsion4(),
        lambda: make_quadratic_chain(seed, length=2 + seed % 4),
        lambda: with_gorenstein(make_camacho_cycle()[0], 2, (2, 2, 2)),
    )
    return builders[seed % len(builders)]()


class TestVerdictInvariance:
    def test_relabel_300_trials(self):
        for seed in range(300):
            g = invariance_pool(seed)
            base = verdict(g)
            mutated = shuffled_components(g, random.Random(seed))
            cert = verdict(mutated)
            assert cert.conclusion == base.conclusion, seed
            assert cert.rule == base.rule, seed
