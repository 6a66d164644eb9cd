from fractions import Fraction

import pytest

from sepkit.dualgraph import (
    NONDEGENERATE,
    SADDLE_NODE,
    has_errors,
    serialize_graph,
    validate_indices,
)
from sepkit.errors import BadParams
from sepkit.fixtures import (
    camacho_constraint,
    generate_example,
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)
from sepkit.verdict import toma_prune


def assert_validates(g):
    findings = validate_indices(g)
    assert not has_errors(findings), [f.message for f in findings]


def pad_of(g, cid):
    for c in g.components:
        if c.id == cid:
            for s in c.smooth_singularities:
                if s.id == f"{cid}:pad":
                    return s
    return None


class TestCamacho:
    def test_default_constraint(self):
        assert camacho_constraint((-2, -2, -3)) == (5, 11, 5)

    def test_default_field_and_indices(self):
        g, constraint = make_camacho_cycle()
        assert constraint == (5, 11, 5)
        assert g.field.min_poly == (Fraction(1), Fraction(11, 5))
        assert g.closed_world
        # lam12 = a, lam13 = -2 - a, lam23 = 1/5 + a
        assert [c.cs_tail.to_json() for c in g.crossings] == [
            ["0", "1"], ["1/5", "1"], ["-2", "-1"],
        ]
        # the cycle balances exactly, so no pad germs are needed
        assert all(not c.smooth_singularities for c in g.components)
        assert_validates(g)

    def test_rational_branch(self):
        g, constraint = make_camacho_cycle((-2, -2, -2))
        assert constraint == (1, 2, 1)
        assert g.field.degree == 1
        assert g.closed_world
        assert [c.cs_tail.to_json() for c in g.crossings] == [
            ["-1"], ["-1"], ["-1"],
        ]
        assert_validates(g)

    def test_constraint_is_primitive_with_positive_leading(self):
        c0, c1, c2 = camacho_constraint((-3, -2, -4))
        from math import gcd
        assert gcd(gcd(c0, c1), c2) == 1
        assert c2 > 0

    def test_degenerate_quadratic_rejected(self):
        # e2 * e3 = 1 kills the leading coefficient
        with pytest.raises(BadParams):
            camacho_constraint((-2, 1, 1))
        with pytest.raises(BadParams):
            make_camacho_cycle((-2, -1, -1))

    def test_all_rational_roots_degenerate(self):
        # the double root t = 1 forces lam13 = 0
        with pytest.raises(BadParams):
            make_camacho_cycle((1, 1, 3))

    def test_bad_triples(self):
        with pytest.raises(BadParams):
            make_camacho_cycle((-2, -2))
        with pytest.raises(BadParams):
            make_camacho_cycle(("x", "y", "z"))


class TestP2Cycle:
    def test_indices_for_default_parameter(self):
        g = make_p2_cycle(2)
        assert g.field.degree == 1
        assert not g.closed_world
        assert [c.self_intersection for c in g.components] == [1, 1, 1]
        assert [c.cs_tail.to_json() for c in g.crossings] == [
            ["-2"], ["3/2"], ["3"],
        ]
        assert_validates(g)

    def test_parameter_forms(self):
        for t in (Fraction(1, 2), "2/3", -3, 7):
            assert_validates(make_p2_cycle(t))
        assert make_p2_cycle("1/2").crossings[0].cs_tail.to_json() == ["-1/2"]

    def test_rejected_parameters(self):
        for t in (0, -1, Fraction(-1), "0", 0.5):
            with pytest.raises(BadParams):
                make_p2_cycle(t)


class TestTorsion4:
    def test_frozen_layout(self):
        g = make_torsion4()
        assert g.field.min_poly == (Fraction(1), Fraction(0))
        assert [c.cs_tail.to_json() for c in g.crossings] == [
            ["0", "1"], ["0", "1"], ["0", "1"],
        ]
        assert pad_of(g, "E1").cs.to_json() == ["-2", "-2"]
        assert pad_of(g, "E2").cs.to_json() == ["-2", "0"]
        assert pad_of(g, "E3").cs.to_json() == ["-3", "2"]
        assert all(
            pad_of(g, c.id).has_transverse_separatrix for c in g.components
        )
        assert_validates(g)


class TestRandomTree:
    def test_deterministic_per_seed(self):
        a = serialize_graph(make_random_tree(5))
        b = serialize_graph(make_random_tree(5))
        assert a == b
        assert a != serialize_graph(make_random_tree(6))

    def test_every_component_keeps_a_separatrix_germ(self):
        for seed in range(30):
            g = make_random_tree(seed, n=1 + seed % 9)
            for c in g.components:
                pad = pad_of(g, c.id)
                assert pad is not None and pad.has_transverse_separatrix

    def test_saddle_node_probability_extremes(self):
        none = make_random_tree(3, n=10, saddle_node_probability=0.0)
        assert all(c.kind == NONDEGENERATE for c in none.crossings)
        all_sn = make_random_tree(3, n=10, saddle_node_probability=1.0)
        assert all(c.kind == SADDLE_NODE for c in all_sn.crossings)

    def test_single_component(self):
        g = make_random_tree(0, n=1)
        assert len(g.components) == 1 and not g.crossings
        assert toma_prune(g) == (g.components[0].id,)
        assert_validates(g)

    def test_parameter_guards(self):
        with pytest.raises(BadParams):
            make_random_tree(0, n=0)
        with pytest.raises(BadParams):
            make_random_tree(0, n=5, saddle_node_probability=1.5)
        with pytest.raises(BadParams):
            make_random_tree(0, n=5, saddle_node_probability=-0.1)

    @pytest.mark.parametrize("probability", ["x", None, True, float("nan")])
    def test_non_numeric_probability_rejected(self, probability):
        with pytest.raises(BadParams):
            make_random_tree(0, 5, probability)

    def test_validates_across_seeds(self):
        for seed in range(40):
            assert_validates(make_random_tree(
                seed, n=2 + seed % 11,
                saddle_node_probability=(seed % 5) / 4,
            ))


class TestRandomGraph:
    def test_crossing_count(self):
        for seed in range(20):
            n = 2 + seed % 6
            extra = seed % 3
            g = make_random_graph(seed, n=n, extra_crossings=extra)
            assert len(g.components) == n
            assert len(g.crossings) == n - 1 + extra
            assert_validates(g)

    def test_parameter_guards(self):
        with pytest.raises(BadParams):
            make_random_graph(0, n=4, extra_crossings=-1)
        with pytest.raises(BadParams):
            make_random_graph(0, n=1, extra_crossings=1)

    @pytest.mark.parametrize("extra", [True, 1.0, "1"])
    def test_extra_crossings_must_be_an_integer(self, extra):
        with pytest.raises(BadParams):
            make_random_graph(0, 5, extra)

    def test_extra_crossings_are_nondegenerate(self):
        g = make_random_graph(7, n=5, extra_crossings=3,
                              saddle_node_probability=1.0)
        kinds = [c.kind for c in g.crossings]
        assert kinds[:4] == [SADDLE_NODE] * 4
        assert kinds[4:] == [NONDEGENERATE] * 3


class TestQuadraticChain:
    def test_shape(self):
        for seed in range(10):
            g = make_quadratic_chain(seed, length=1 + seed % 5)
            assert g.field.min_poly == (Fraction(-2), Fraction(0))
            assert len(g.crossings) == len(g.components) - 1
            assert all(c.kind == NONDEGENERATE for c in g.crossings)
            for c in g.components:
                assert pad_of(g, c.id) is not None
            assert_validates(g)

    def test_guards(self):
        with pytest.raises(BadParams):
            make_quadratic_chain(0, length=0)


class TestGenerateExample:
    def test_camacho_reports_constraint(self):
        g, extra = generate_example("camacho")
        assert extra == {"constraint_polynomial": [5, 11, 5]}
        assert g.closed_world

    def test_parameters_forwarded(self):
        g, extra = generate_example("p2_cycle", t="1/3")
        assert extra == {}
        assert g.crossings[0].cs_tail.to_json() == ["-1/3"]

        g, _ = generate_example("random_tree", seed=4, n=5)
        assert serialize_graph(g) == serialize_graph(make_random_tree(4, n=5))

    def test_default_tree_seed(self):
        g, _ = generate_example("random_tree")
        assert serialize_graph(g) == serialize_graph(make_random_tree(0))

    def test_unknown_name(self):
        with pytest.raises(BadParams):
            generate_example("not_a_generator")

    def test_unexpected_parameters(self):
        with pytest.raises(BadParams, match="unexpected"):
            generate_example("torsion4", seed=3)
