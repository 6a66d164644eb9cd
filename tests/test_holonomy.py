import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit.dualgraph import (
    NONDEGENERATE,
    SADDLE_NODE,
    Component,
    Crossing,
    DualGraph,
    has_errors,
    validate_indices,
)
from sepkit.errors import (
    Disconnected,
    NontrivialRepresentation,
    SaddleNodePresent,
)
from sepkit.exactfield import NumberField, is_root_of_unity
from sepkit.fixtures import (
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)
from sepkit.holonomy import (
    INDETERMINATE,
    INFINITE,
    TORSION,
    TRIVIAL,
    CycleStep,
    cycle_basis,
    edge_weight,
    representation_class,
    residual_divisor,
)
from sepkit.intersection import divisor_pairing

from oracles import (
    cusp_cycle,
    shuffled_components,
    tail_side_holonomies,
    tail_side_weight,
    unity_order_oracle,
)
from test_exactfield import KERNEL_FIELDS, elements

QQ = NumberField((Fraction(0),))


def triangle(cs01, cs12, cs02, kinds=(NONDEGENERATE,) * 3):
    def cross(tail, head, kind, cs):
        if kind == NONDEGENERATE:
            return Crossing(tail, head, kind, cs_tail=QQ.from_rational(cs))
        return Crossing(tail, head, kind, weak=head,
                        cs_weak=QQ.from_rational(cs))

    return DualGraph(
        QQ,
        (Component("E1", -2), Component("E2", -2), Component("E3", -2)),
        (
            cross("E1", "E2", kinds[0], cs01),
            cross("E2", "E3", kinds[1], cs12),
            cross("E1", "E3", kinds[2], cs02),
        ),
    )


class TestCycleBasis:
    def test_tree_has_no_cycles(self):
        g = make_random_tree(0, n=7, saddle_node_probability=0.3)
        basis = cycle_basis(g)
        assert basis.cycles == ()
        assert set(basis.tree) == set(range(len(g.crossings)))
        assert basis.root == g.components[0].id

    def test_triangle_basis_structure(self):
        g = triangle(-1, -1, -1)
        basis = cycle_basis(g)
        # breadth-first from E1 reaches E2 and E3 directly; the E2-E3
        # crossing closes the single independent cycle
        assert basis.tree == (0, 2)
        assert basis.cycles == (
            (CycleStep(1, True), CycleStep(2, False), CycleStep(0, True)),
        )

    def test_cycle_count_matches_first_betti_number(self):
        for seed in range(10):
            g = make_random_graph(seed, n=2 + seed % 6,
                                  extra_crossings=1 + seed % 3)
            basis = cycle_basis(g)
            expected = len(g.crossings) - len(g.components) + 1
            assert len(basis.cycles) == expected

    def test_crossing_order_override_changes_tree(self):
        g = DualGraph(
            QQ,
            (Component("E1", -2), Component("E2", -2)),
            (
                Crossing("E1", "E2", NONDEGENERATE,
                         cs_tail=QQ.from_rational(-1)),
                Crossing("E1", "E2", NONDEGENERATE,
                         cs_tail=QQ.from_rational(-2)),
            ),
        )
        assert cycle_basis(g).tree == (0,)
        # Listing the crossings the other way round puts the other one in
        # the spanning tree.
        swapped = dataclasses.replace(g, crossings=g.crossings[::-1])
        (tree_crossing,) = cycle_basis(swapped).tree
        assert swapped.crossings[tree_crossing] is g.crossings[1]

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            DualGraph(
                QQ,
                (Component("E1", -1), Component("E2", -1)),
                (),
            )

    def test_parallel_crossings_form_cycle(self):
        g = DualGraph(
            QQ,
            (Component("E1", -2), Component("E2", -2)),
            (
                Crossing("E1", "E2", NONDEGENERATE,
                         cs_tail=QQ.from_rational(-1)),
                Crossing("E1", "E2", NONDEGENERATE,
                         cs_tail=QQ.from_rational(-2)),
            ),
        )
        basis = cycle_basis(g)
        assert basis.tree == (0,)
        assert len(basis.cycles) == 1

    @given(st.lists(st.integers(2, 4), min_size=2, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_cusp_cycle_is_one_cycle_through_every_crossing(self, b):
        g = cusp_cycle(b)
        basis = cycle_basis(g)
        assert len(basis.tree) == len(b) - 1
        (cycle,) = basis.cycles
        assert sorted(s.crossing for s in cycle) == list(range(len(b)))
        # a closed walk: each step leaves from where the previous one ended
        first = g.crossings[cycle[0].crossing]
        at = first.head
        for step in cycle[1:]:
            c = g.crossings[step.crossing]
            assert at == (c.tail if step.forward else c.head)
            at = c.head if step.forward else c.tail
        assert at == first.tail


class TestEdgeWeight:
    def test_head_side_weight(self):
        g = triangle(-2, -1, -1)
        w = edge_weight(g, CycleStep(0, True))
        assert w.rational_value() == Fraction(1, 2)
        back = edge_weight(g, CycleStep(0, False))
        assert back.rational_value() == 2

    def test_tail_side_weight_is_reciprocal_convention(self):
        g = triangle(-2, -1, -1)
        w = tail_side_weight(g, CycleStep(0, True))
        assert w.rational_value() == 2
        assert w * edge_weight(g, CycleStep(0, True)) == QQ.one()

    def test_saddle_node_has_no_weight(self):
        g = triangle(-1, -1, -1, kinds=(SADDLE_NODE,) * 3)
        assert edge_weight(g, CycleStep(0, True)) is None


class TestClassification:
    def test_camacho_holonomy_frozen(self):
        g, _ = make_camacho_cycle()
        rep = representation_class(g)
        assert rep.kind == INFINITE
        assert rep.order is None
        # hand elimination: h = (2 + a) / (-2a - 1) = 8 + 5a
        assert rep.holonomies[0].coeffs == (Fraction(8), Fraction(5))

    def test_torsion4_order_four(self):
        rep = representation_class(make_torsion4())
        assert rep.kind == TORSION
        assert rep.order == 4
        assert rep.holonomies[0].coeffs == (Fraction(0), Fraction(1))

    @given(st.fractions(max_denominator=40,
                        min_value=Fraction(-40), max_value=Fraction(40)))
    @settings(max_examples=150)
    def test_p2_cycle_always_trivial(self, t):
        if t in (0, -1):
            return
        rep = representation_class(make_p2_cycle(t))
        assert rep.kind == TRIVIAL
        assert rep.holonomies[0] == QQ.one()

    def test_p2_tail_side_deltas_frozen(self):
        g = make_p2_cycle(2)
        values = [
            tail_side_weight(g, CycleStep(i, True)).rational_value()
            for i in range(3)
        ]
        assert values == [2, Fraction(-3, 2), -3]

    def test_order_two_holonomy(self):
        # the basis cycle multiplies to -cs02 / (cs01 * cs12) = -1
        g = triangle(1, 1, 1)
        rep = representation_class(g)
        assert rep.kind == TORSION
        assert rep.order == 2

    def test_rational_infinite_order(self):
        g = triangle(-2, -1, -1)
        rep = representation_class(g)
        assert rep.kind == INFINITE

    def test_saddle_node_on_cycle_is_indeterminate(self):
        g = triangle(-1, -1, -1, kinds=(SADDLE_NODE,
                                        NONDEGENERATE, NONDEGENERATE))
        rep = representation_class(g)
        assert rep.kind == INDETERMINATE
        assert rep.order is None
        assert rep.offending_cycles == (0,)
        assert rep.holonomies == (None,)

    def test_saddle_node_off_cycle_harmless(self):
        # a saddle-node pendant does not obstruct the classification
        g = make_random_graph(7, n=5, extra_crossings=1,
                              saddle_node_probability=0.0)
        rep = representation_class(g)
        assert rep.kind != INDETERMINATE

    def test_json_layout(self):
        rep = representation_class(make_torsion4())
        obj = rep.to_json()
        assert obj["kind"] == "torsion"
        assert obj["order"] == 4
        assert obj["holonomies"][0]["value"] == ["0", "1"]
        steps = obj["holonomies"][0]["cycle"]
        assert steps[0] == {"crossing": 1, "forward": True}
        assert obj["offending_cycles"] == []
        assert "orders" not in obj


def parallel_crossings(field, values):
    """E1 and E2 meeting once per index in `values`: one cycle per extra
    crossing, with holonomy values[0] / values[i]."""
    return DualGraph(field, (Component("E1", -2), Component("E2", -2)), tuple(
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=v) for v in values))


@st.composite
def kernel_field_graphs(draw):
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    powers = st.builds(lambda k, sign: sign * field.alpha() ** k,
                       st.integers(0, 8), st.sampled_from([1, -1]))
    # powers of the generator, drawn twice as often, make torsion likely
    index = st.one_of(elements(field), powers, powers).filter(lambda e: not e.is_zero)
    return parallel_crossings(field, draw(st.lists(index, min_size=2, max_size=4)))


ORDER_GRAPHS = st.one_of(
    kernel_field_graphs(),
    st.builds(make_random_graph, st.integers(0, 10 ** 6), st.integers(2, 9),
              st.integers(1, 3), st.sampled_from([0.0, 0.3])),
    st.sampled_from([make_torsion4(), make_camacho_cycle()[0]]),
)


class TestOrders:
    @settings(max_examples=80, deadline=None)
    @given(ORDER_GRAPHS)
    def test_orders_decide_kind_and_order(self, g):
        rep = representation_class(g)
        if rep.offending_cycles:
            assert (rep.kind, rep.order, rep.orders) == (INDETERMINATE, None, ())
            return
        assert rep.orders == tuple(unity_order_oracle(h) for h in rep.holonomies)
        if None in rep.orders:
            assert (rep.kind, rep.order) == (INFINITE, None)
        elif lcm(*rep.orders) == 1:
            assert (rep.kind, rep.order) == (TRIVIAL, None)
        else:
            assert (rep.kind, rep.order) == (TORSION, lcm(*rep.orders))


def assert_tail_side_inverts(g):
    """The head-side holonomies against the tail-side oracle: inverse per
    cycle, with equal root-of-unity orders."""
    head = representation_class(g).holonomies
    tail = tail_side_holonomies(g)
    assert len(head) == len(tail) >= 1
    for a, b in zip(head, tail):
        assert a * b == g.field.one()
        assert is_root_of_unity(a) == is_root_of_unity(b)


class TestConventionDuality:
    def test_exact_inverse_per_cycle(self):
        for seed in range(60):
            assert_tail_side_inverts(make_random_graph(
                seed, n=2 + seed % 7, extra_crossings=1 + seed % 3))

    def test_duality_with_torsion_and_infinite_kinds(self):
        for g in (make_torsion4(), make_camacho_cycle()[0]):
            assert_tail_side_inverts(g)


class TestResidualDivisor:
    def test_p2_residues_frozen(self):
        R = residual_divisor(make_p2_cycle(2))
        assert [(cid, r.rational_value()) for cid, r in R.residues] == [
            ("C1", 1), ("C2", 2), ("C3", -3),
        ]
        assert R.separatrix_residues == ()

    def test_root_residue_is_one(self):
        for seed in range(8):
            g = make_random_tree(seed, n=5, saddle_node_probability=0.0)
            R = residual_divisor(g)
            assert R.residue(g.components[0].id) == g.field.one()

    def test_crossing_relation_everywhere(self):
        fixtures = [
            make_p2_cycle(Fraction(7, 3)),
            make_quadratic_chain(2, length=5),
            make_random_tree(11, n=9, saddle_node_probability=0.0),
            # Spanning from A, the search reaches B across B-C from its head
            # side, so residues propagate head to tail as well.
            DualGraph(
                QQ,
                tuple(Component(cid, -2) for cid in "ABC"),
                (Crossing("A", "C", NONDEGENERATE, cs_tail=QQ.from_rational(-2)),
                 Crossing("B", "C", NONDEGENERATE, cs_tail=QQ.from_rational(-3))),
            ),
        ]
        for g in fixtures:
            R = residual_divisor(g)
            for c in g.crossings:
                delta = -c.cs_tail.inverse()
                assert R.residue(c.tail) == delta * R.residue(c.head)

    def test_germ_residues(self):
        g = make_random_tree(3, n=6, saddle_node_probability=0.0)
        R = residual_divisor(g)
        germs = dict(R.separatrix_residues)
        for comp, sing in g.all_smooth_singularities():
            assert germs[sing.id] == -sing.cs * R.residue(comp.id)

    def test_divisor_orthogonal_to_every_component(self):
        fixtures = [
            make_p2_cycle(2),
            make_quadratic_chain(0, length=4),
            make_random_tree(4, n=8, saddle_node_probability=0.0),
        ]
        for g in fixtures:
            R = residual_divisor(g)
            pair = divisor_pairing(g, R.as_divisor())
            assert all(v.is_zero for v in pair.values())

    def test_saddle_node_blocks_propagation(self):
        g = make_random_tree(1, n=8, saddle_node_probability=1.0)
        with pytest.raises(SaddleNodePresent):
            residual_divisor(g)

    def test_nontrivial_representation_rejected(self):
        for g in (make_torsion4(), make_camacho_cycle()[0]):
            with pytest.raises(NontrivialRepresentation):
                residual_divisor(g)

    def test_json_layout(self):
        obj = residual_divisor(make_p2_cycle(2)).to_json()
        assert obj == {
            "residues": {"C1": ["1"], "C2": ["2"], "C3": ["-3"]},
            "separatrix_residues": {},
        }

    def test_validated_fixtures_stay_consistent(self):
        # the non-tree crossings are re-checked during propagation; clean
        # fixtures must never trip the internal consistency error
        for t in (2, Fraction(-1, 2), 5):
            g = make_p2_cycle(t)
            assert not has_errors(validate_indices(g))
            residual_divisor(g)


def representation_example(seed):
    if seed % 8 == 0:
        return make_torsion4()
    if seed % 8 == 1:
        return make_camacho_cycle()[0]
    if seed % 8 == 2:
        return make_p2_cycle(Fraction(seed + 1, 4))
    if seed % 8 == 3:
        return make_quadratic_chain(seed, length=2 + seed % 4)
    # cycle-bearing graphs, some with saddle-nodes on tree crossings
    return make_random_graph(
        seed,
        n=2 + seed % 6,
        extra_crossings=1 + seed % 3,
        saddle_node_probability=0.3 if seed % 2 else 0.0,
    )


class TestRepresentationInvariance:
    def test_relabeling_components(self):
        for seed in range(500):
            g = representation_example(seed)
            base = representation_class(g)
            moved = representation_class(
                shuffled_components(g, random.Random(seed))
            )
            assert (moved.kind, moved.order) == (base.kind, base.order), seed

    def test_spanning_tree_choice(self):
        for seed in range(500):
            g = representation_example(seed)
            base = representation_class(g)
            crossings = list(g.crossings)
            random.Random(seed).shuffle(crossings)
            moved = representation_class(
                dataclasses.replace(g, crossings=tuple(crossings))
            )
            assert (moved.kind, moved.order) == (base.kind, base.order), seed

    def test_cycle_reversal_inverts_holonomy(self):
        checked = 0
        for seed in range(40):
            g = representation_example(4 + seed * 8)  # cycle-bearing pool
            rep = representation_class(g)
            basis = cycle_basis(g)
            for cycle, h in zip(basis.cycles, rep.holonomies):
                if h is None:
                    continue
                back = g.field.one()
                for step in reversed(cycle):
                    back = back * edge_weight(
                        g, CycleStep(step.crossing, not step.forward)
                    )
                assert back * h == g.field.one()
                checked += 1
        assert checked >= 40
