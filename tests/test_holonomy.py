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
    _vertex_sums,
    has_errors,
    parse_graph,
    serialize_graph,
    validate_indices,
)
from sepkit.errors import (
    Disconnected,
    NontrivialRepresentation,
    SaddleNodePresent,
)
from sepkit.exactfield import FieldElement, NumberField, is_root_of_unity
from sepkit.fixtures import (
    _assemble,
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
    cycle_basis,
    representation_class,
    residual_divisor,
)
from sepkit.intersection import divisor_pairing

from oracles import (
    cusp_cycle,
    root_path_residues,
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
        assert basis.cycles == (((1, True), (2, False), (0, True)),)

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
        assert sorted(i for i, _ in cycle) == list(range(len(b)))
        # a closed walk: each step leaves from where the previous one ended
        first = g.crossings[cycle[0][0]]
        at = first.head
        for i, forward in cycle[1:]:
            c = g.crossings[i]
            assert at == (c.tail if forward else c.head)
            at = c.head if forward else c.tail
        assert at == first.tail


def two_cycle(tree_cs, closing_cs):
    """E1 and E2 meeting twice: the one cycle runs forward along the second
    crossing and back along the first, the tree crossing."""
    return parallel_crossings(QQ, [QQ.from_rational(tree_cs),
                                   QQ.from_rational(closing_cs)])


class TestEdgeWeight:
    def test_head_side_weight(self):
        # forward, cs_tail = -2 weighs -1/cs_tail = 1/2; back, -1 weighs 1
        (h,) = representation_class(two_cycle(-1, -2)).holonomies
        assert h.rational_value() == Fraction(1, 2)
        # back, cs_tail = -2 weighs -cs_tail = 2; forward, -1 weighs 1
        (h,) = representation_class(two_cycle(-2, -1)).holonomies
        assert h.rational_value() == 2

    def test_tail_side_weight_is_reciprocal_convention(self):
        g = triangle(-2, -1, -1)
        assert tail_side_weight(g, 0, True).rational_value() == 2
        assert tail_side_weight(g, 0, False).rational_value() == Fraction(1, 2)
        g = two_cycle(-1, -2)
        (head,), (tail,) = representation_class(g).holonomies, tail_side_holonomies(g)
        assert tail.rational_value() == 2
        assert head * tail == QQ.one()

    def test_saddle_node_has_no_weight(self):
        g = triangle(-1, -1, -1, kinds=(SADDLE_NODE,) * 3)
        assert tail_side_weight(g, 0, True) is None
        # Only the tree crossing E1-E3 is a saddle-node: E2 and E3 lie in
        # different blocks, so the cycle that E2-E3 closes is undefined.
        g = triangle(-1, -1, -1, kinds=(NONDEGENERATE, NONDEGENERATE, SADDLE_NODE))
        rep = representation_class(g)
        assert (rep.holonomies, rep.offending_cycles) == ((None,), (0,))


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
            tail_side_weight(g, i, True).rational_value()
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
        # R -sn- A, then the triangle A, B, C: both ends of the closing
        # crossing B-C sit in the block below the saddle-node.
        g = DualGraph(
            QQ,
            tuple(Component(cid, -2) for cid in "RABC"),
            (Crossing("R", "A", SADDLE_NODE, weak="R"),
             Crossing("A", "B", NONDEGENERATE, cs_tail=QQ.from_rational(-2)),
             Crossing("A", "C", NONDEGENERATE, cs_tail=QQ.from_rational(-3)),
             Crossing("B", "C", NONDEGENERATE, cs_tail=QQ.from_rational(-5))),
        )
        rep = representation_class(g)
        assert rep.offending_cycles == ()
        # B -> C weighs -1/cs_tail = 1/5, C -> A weighs -cs_tail = 3 and
        # A -> B weighs 1/2
        assert rep.holonomies == (QQ.from_rational(Fraction(3, 10)),)

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
        # The residues come from the spanning tree alone; a trivial
        # representation makes them match across the non-tree crossing too.
        for t in (2, Fraction(-1, 2), 5):
            g = make_p2_cycle(t)
            assert not has_errors(validate_indices(g))
            R = residual_divisor(g)
            (closing,) = cycle_basis(g).cycles
            c = g.crossings[closing[0][0]]
            assert R.residue(c.tail) == -c.cs_head * R.residue(c.head)


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
                for i, forward in reversed(cycle):
                    # going back, a tail-to-head step weighs -cs_tail
                    c = g.crossings[i]
                    back = back * -(c.cs_tail if forward else c.cs_head)
                assert back * h == g.field.one()
                checked += 1
        assert checked >= 40


# ---------------------------------------------------------------------------
# Tree potentials against path products along each whole cycle


@st.composite
def saddled_graphs(draw):
    """A random graph with saddle-node tree crossings, and with some
    crossings, closing ones included, then turned into saddle-nodes."""
    g = make_random_graph(draw(st.integers(0, 10 ** 6)), draw(st.integers(2, 12)),
                          draw(st.integers(0, 4)), draw(st.sampled_from([0.0, 0.3, 0.6])))
    turned = draw(st.sets(st.integers(0, len(g.crossings) - 1), max_size=2))
    return dataclasses.replace(g, crossings=tuple(
        Crossing(c.tail, c.head, SADDLE_NODE, weak=c.head) if i in turned else c
        for i, c in enumerate(g.crossings)))


@st.composite
def residue_derived_graphs(draw):
    """Trivial by construction: random residues r over a kernel field, and
    cs_tail = -r_head / r_tail on the crossings of a random graph."""
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    shape = make_random_graph(draw(st.integers(0, 10 ** 6)), draw(st.integers(2, 9)),
                              draw(st.integers(0, 3)))
    units = elements(field).filter(lambda e: not e.is_zero)
    r = {c.id: draw(units) for c in shape.components}
    return DualGraph(
        field, tuple(Component(c.id, -2) for c in shape.components),
        tuple(Crossing(c.tail, c.head, NONDEGENERATE, cs_tail=-r[c.head] / r[c.tail])
              for c in shape.crossings))


ORACLE_GRAPHS = st.one_of(
    st.builds(make_random_graph, st.integers(0, 10 ** 6), st.integers(2, 12),
              st.integers(0, 4), st.sampled_from([0.0, 0.3, 0.6])),
    saddled_graphs(),
    kernel_field_graphs(),
    residue_derived_graphs(),
    st.builds(make_p2_cycle, st.fractions(min_value=1, max_value=9, max_denominator=9)),
    st.builds(make_quadratic_chain, st.integers(0, 99), st.integers(1, 8)),
    st.sampled_from([make_torsion4(), make_camacho_cycle()[0],
                     make_random_tree(5, 9, 0.3), make_random_tree(6, 9, 0.0)]),
)


def oracle_kind(holonomies):
    """(kind, order) from the oracle's own holonomies; an inverse has the
    same order."""
    if None in holonomies:
        return INDETERMINATE, None
    orders = [unity_order_oracle(h) for h in holonomies]
    if None in orders:
        return INFINITE, None
    return (TRIVIAL, None) if lcm(*orders) == 1 else (TORSION, lcm(*orders))


class TestPotentialsAgainstPathProducts:
    @settings(max_examples=150, deadline=None)
    @given(ORACLE_GRAPHS)
    def test_holonomies_kind_and_residues(self, g):
        rep = representation_class(g)
        tail = tail_side_holonomies(g)
        assert len(rep.holonomies) == len(tail) == g.cycle_rank
        for head, back in zip(rep.holonomies, tail):  # cycle by cycle
            assert (head is None) == (back is None)
            assert head is None or head * back == g.field.one()
        assert rep.offending_cycles == tuple(
            i for i, h in enumerate(tail) if h is None)
        assert (rep.kind, rep.order) == oracle_kind(tail)
        if rep.kind == TRIVIAL and not g.has_saddle_node_crossing():
            residues = root_path_residues(g)
            assert residual_divisor(g).residues == tuple(
                (c.id, residues[c.id]) for c in g.components)


def theta_graph(length: int, k: int, seed: int = 0) -> DualGraph:
    """A root joined to two paths of `length` components whose far ends
    cross k times: n = 2 length + 1, cycle rank k, and every fundamental
    cycle 2 length + 1 crossings long.  Indices are drawn from
    +-{2, 3}/{1, 2, 5}; pad singularities balance the vertex sums."""
    rng = random.Random(seed)
    a = [f"A{i}" for i in range(1, length + 1)]
    b = [f"B{i}" for i in range(1, length + 1)]
    pairs = ([("R", a[0]), ("R", b[0])] + list(zip(a, a[1:]))
             + list(zip(b, b[1:])) + [(a[-1], b[-1])] * k)
    crossings = [
        Crossing(tail, head, NONDEGENERATE, cs_tail=QQ.from_rational(
            Fraction(rng.choice([2, 3, -2, -3]), rng.choice([1, 2, 5]))))
        for tail, head in pairs
    ]
    names = ["R"] + a + b
    return _assemble(QQ, names, [-2] * len(names), crossings,
                     _vertex_sums(QQ, names, crossings))


def test_theta_representation_makes_linear_products(monkeypatch):
    # A product along every cycle would make k (2L + 1) = 320,400 of them.
    g = parse_graph(serialize_graph(theta_graph(400, 400)))
    assert not has_errors(validate_indices(g))
    n, r, d = len(g.components), g.cycle_rank, g.field.degree
    assert (n, r) == (801, 400)
    products = []
    original = FieldElement.__mul__
    monkeypatch.setattr(FieldElement, "__mul__",
                        lambda x, y: products.append(1) or original(x, y))
    rep = representation_class(g)
    assert len(rep.holonomies) == r
    # the potentials, two products per cycle, then each order's walk
    assert len(products) <= 2 * (n - 1) + 2 * r + 2 * r * d * d
