import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepkit.dualgraph import NONDEGENERATE, Component, Crossing, DualGraph
from sepkit.errors import UnknownId
from sepkit.exactfield import NumberField
from sepkit.fixtures import (
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)
from sepkit.intersection import (
    Definiteness,
    IntersectionMatrix,
    definiteness,
    divisor_pairing,
    intersection_matrix,
)

from oracles import (
    chain_graph,
    continuant,
    cusp_cycle,
    cusp_trace,
    dense_definiteness,
    quadratic_form_negative,
    solve_homogeneous,
)

QQ = NumberField((Fraction(0),))


def graph_with_matrix(diag, edges):
    n = len(diag)
    comps = tuple(Component(f"E{i + 1}", e) for i, e in enumerate(diag))
    crossings = tuple(
        Crossing(f"E{a + 1}", f"E{b + 1}", NONDEGENERATE,
                 cs_tail=QQ.from_rational(-1))
        for a, b in edges
    )
    return DualGraph(QQ, comps, crossings)


class TestMatrix:
    def test_camacho_matrix_frozen(self):
        g, _ = make_camacho_cycle()
        m = intersection_matrix(g)
        assert m.component_order == ("E1", "E2", "E3")
        assert m.rows == ((-2, 1, 1), (1, -2, 1), (1, 1, -3))
        d = definiteness(m)
        assert d.negative_definite is True
        assert d.determinant == -3
        assert d.invertible is True

    def test_p2_matrix_all_ones(self):
        m = intersection_matrix(make_p2_cycle(2))
        assert m.rows == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
        d = definiteness(m)
        assert d.negative_definite is False
        assert d.determinant == 0
        assert d.invertible is False

    def test_parallel_crossings_add_up(self):
        g = graph_with_matrix((-3, -3), [(0, 1), (0, 1)])
        m = intersection_matrix(g)
        assert m.rows == ((-3, 2), (2, -3))
        assert definiteness(m).negative_definite is True

    def test_json_shape(self):
        m = intersection_matrix(graph_with_matrix((-2, -2), [(0, 1)]))
        assert m.to_json() == {
            "components": ["E1", "E2"],
            "rows": [[-2, 1], [1, -2]],
        }
        assert definiteness(m).to_json() == {
            "negative_definite": True,
            "determinant": 3,
            "invertible": True,
        }

    def test_zero_leading_pivot_falls_back(self):
        # leading principal minor vanishes: not definite, still invertible
        g = graph_with_matrix((0, 0), [(0, 1)])
        d = definiteness(intersection_matrix(g))
        assert d.negative_definite is False
        assert d.determinant == -1
        assert d.invertible is True

    def test_single_component(self):
        d = definiteness(intersection_matrix(graph_with_matrix((-1,), [])))
        assert d.negative_definite is True
        assert d.determinant == -1
        assert definiteness(
            intersection_matrix(graph_with_matrix((0,), []))
        ).negative_definite is False


def random_tree_matrix(rng, n):
    edges = [(rng.randrange(0, i), i) for i in range(1, n)]
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    diag = [-(degree[i] + 1 + rng.randint(0, 2)) for i in range(n)]
    return graph_with_matrix(diag, edges)


class TestDefinitenessOracle:
    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_diagally_dominant_matrices_pass_quadratic_screen(self, seed):
        rng = random.Random(seed)
        g = random_tree_matrix(rng, rng.randint(1, 8))
        m = intersection_matrix(g)
        assert definiteness(m).negative_definite is True
        vectors = [
            [rng.randint(-5, 5) for _ in range(m.size)] for _ in range(25)
        ]
        assert quadratic_form_negative(m.rows, vectors)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_verdict_matches_quadratic_witness_search(self, seed):
        # random symmetric graphs: when we find a countervector, the exact
        # decision must be False as well
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        edges = [(rng.randrange(0, i), i) for i in range(1, n)]
        diag = [rng.randint(-4, 2) for _ in range(n)]
        m = intersection_matrix(graph_with_matrix(diag, edges))
        decided = definiteness(m).negative_definite
        vectors = [
            [rng.randint(-4, 4) for _ in range(n)] for _ in range(60)
        ]
        if not quadratic_form_negative(m.rows, vectors):
            assert decided is False


def symmetric_matrix(upper, n, zero_diagonal):
    """n x n symmetric matrix from its upper triangle, row by row."""
    rows = [[0] * n for _ in range(n)]
    values = iter(upper)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(values)
        if zero_diagonal:
            rows[i][i] = 0
    return IntersectionMatrix(
        tuple(f"E{i + 1}" for i in range(n)), tuple(tuple(r) for r in rows)
    )


# A zero diagonal forces the congruence step, which random diagonals
# almost never reach beyond two rows.
small_symmetric = st.integers(1, 7).flatmap(
    lambda n: st.builds(
        symmetric_matrix,
        st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                 max_size=n * (n + 1) // 2),
        st.just(n),
        st.booleans(),
    )
)


class TestSparseEliminationMatchesDenseOracle:
    @given(small_symmetric)
    @settings(max_examples=400, deadline=None)
    def test_random_symmetric(self, m):
        # indefinite, singular and vanishing-leading-minor cases included
        d = definiteness(m)
        negative, det = dense_definiteness(m.rows)
        assert (d.negative_definite, d.determinant) == (negative, det)
        assert d.invertible == (det != 0)

    @pytest.mark.parametrize("g", [
        make_camacho_cycle()[0],
        make_camacho_cycle((-1, -5, -2))[0],
        make_p2_cycle(2),
        make_torsion4(),
        make_quadratic_chain(3, length=6),
    ] + [make_random_tree(seed, n=1 + 3 * seed) for seed in range(8)],
        ids=lambda g: f"{len(g.components)}x{len(g.crossings)}")
    def test_fixtures(self, g):
        m = intersection_matrix(g)
        d = definiteness(m)
        assert (d.negative_definite, d.determinant) == dense_definiteness(m.rows)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, seed):
        g = make_random_graph(seed, 2 + seed % 40, seed % 7, 0.3)
        m = intersection_matrix(g)
        d = definiteness(m)
        assert (d.negative_definite, d.determinant) == dense_definiteness(m.rows)


class TestPivotRegressions:
    # [[0, 1], [1, 0]], with no nonzero diagonal, is
    # TestMatrix.test_zero_leading_pivot_falls_back.
    @pytest.mark.parametrize("rows, det", [
        (((0, 2), (2, -1)), -4),    # first leading minor vanishes
        (((-1, 1), (1, -1)), 0),    # singular
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), 2),   # no nonzero diagonal
    ])
    def test_zero_pivots(self, rows, det):
        ids = tuple(f"E{i + 1}" for i in range(len(rows)))
        d = definiteness(IntersectionMatrix(ids, rows))
        assert d == Definiteness(False, det, det != 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 2000])
    def test_chain_of_minus_two_curves(self, n):
        # the A_n plumbing: determinant (-1)^n (n + 1)
        edges = [(i, i + 1) for i in range(n - 1)]
        d = definiteness(intersection_matrix(graph_with_matrix((-2,) * n, edges)))
        assert d == Definiteness(True, (-1) ** n * (n + 1), True)

    def test_e8(self):
        # chain E1..E7 with E8 on E3: arms of 2, 4 and 1 curves around E3
        edges = [(i, i + 1) for i in range(6)] + [(2, 7)]
        d = definiteness(intersection_matrix(graph_with_matrix((-2,) * 8, edges)))
        assert d == Definiteness(True, 1, True)


class TestClosedFormFamilies:
    """The matrix build and definiteness against closed forms, on chains and
    cusp cycles of curves E_i^2 = -b_i, b_i >= 2, up to a few hundred long."""

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=300))
    @example([4, 3, 2] * 100)
    @settings(max_examples=150, deadline=None)
    def test_chain(self, b):
        d = definiteness(intersection_matrix(chain_graph(b)))
        det = (-1) ** len(b) * continuant(b)
        assert d == Definiteness(True, det, True)

    @given(st.lists(st.integers(2, 4), min_size=2, max_size=300))
    @example([2] * 299 + [3])
    @settings(max_examples=150, deadline=None)
    def test_cusp_cycle(self, b):
        d = definiteness(intersection_matrix(cusp_cycle(b)))
        det = (-1) ** len(b) * (cusp_trace(b) - 2)
        definite = max(b) >= 3
        assert d == Definiteness(definite, det, det != 0)
        assert (det != 0) is definite

    @pytest.mark.parametrize("n", [2, 3, 7, 300])
    def test_cusp_cycle_of_minus_two_curves_is_singular(self, n):
        assert cusp_trace([2] * n) == 2
        d = definiteness(intersection_matrix(cusp_cycle([2] * n)))
        assert d == Definiteness(False, 0, False)

    def test_two_curves_meeting_twice(self):
        m = intersection_matrix(cusp_cycle([3, 4]))
        assert m.rows == ((-3, 2), (2, -4))
        assert definiteness(m) == Definiteness(True, 8, True)
        assert cusp_trace([3, 4]) - 2 == 8


class TestDivisorPairing:
    def test_component_coefficients(self):
        g = graph_with_matrix((-2, -2), [(0, 1)])
        pair = divisor_pairing(g, {"E1": 1})
        assert pair["E1"].rational_value() == -2
        assert pair["E2"].rational_value() == 1

    def test_rational_and_field_coefficients_mix(self):
        g = graph_with_matrix((-2, -2), [(0, 1)])
        pair = divisor_pairing(
            g, {"E1": Fraction(1, 2), "E2": QQ.from_rational(1)}
        )
        assert pair["E1"].rational_value() == 0
        assert pair["E2"].rational_value() == Fraction(-3, 2)

    def test_singularity_coefficient_pairs_with_host(self):
        g = make_random_tree(5, n=4, saddle_node_probability=0.0)
        sing = g.components[0].smooth_singularities[0]
        pair = divisor_pairing(g, {sing.id: 1})
        host = g.components[0].id
        assert pair[host].rational_value() == 1
        assert all(v.is_zero for cid, v in pair.items() if cid != host)

    def test_unknown_id_rejected(self):
        g = graph_with_matrix((-2, -2), [(0, 1)])
        with pytest.raises(UnknownId):
            divisor_pairing(g, {"nope": 1})

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dense_matrix_product(self, seed):
        rng = random.Random(seed)
        if seed % 4 == 3:
            g = make_quadratic_chain(seed, 2 + seed % 5)
        else:
            g = make_random_graph(seed, 2 + seed % 7, seed % 4)
        # Repeat some crossings so that parallel crossings pair with multiplicity.
        extra = tuple(rng.choice(g.crossings) for _ in range(rng.randint(1, 3)))
        g = dataclasses.replace(g, crossings=g.crossings + extra)
        alpha = g.field.alpha() if g.field.degree > 1 else g.field.one()
        germs = [(comp.id, s.id) for comp in g.components
                 for s in comp.smooth_singularities]
        ids = [c.id for c in g.components] + [sid for _, sid in germs]
        coefficients = {
            key: g.field.from_rational(Fraction(rng.randint(-5, 5),
                                                rng.randint(1, 3)))
            + alpha * rng.randint(-2, 2)
            for key in rng.sample(ids, rng.randint(1, len(ids)))
        }

        m = intersection_matrix(g)
        expected = {}
        for j, cid in enumerate(m.component_order):
            value = g.field.zero()
            for i, other in enumerate(m.component_order):
                if other in coefficients:
                    value = value + coefficients[other] * m.rows[i][j]
            for host, sid in germs:
                if host == cid and sid in coefficients:
                    value = value + coefficients[sid]
            expected[cid] = value
        pairing = divisor_pairing(g, coefficients)
        assert pairing == expected
        assert list(pairing) == list(m.component_order)

    def test_kernel_free_for_negative_definite(self):
        # definite implies the homogeneous system has only the zero solution
        for seed in range(25):
            rng = random.Random(seed)
            m = intersection_matrix(random_tree_matrix(rng, rng.randint(1, 7)))
            rows = [[Fraction(v) for v in row] for row in m.rows]
            assert solve_homogeneous(rows)


def random_symmetric(rng, n, lo=-4, hi=4):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(lo, hi)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    m = tuple(tuple(r) for r in rows)
    return IntersectionMatrix(tuple(f"E{i + 1}" for i in range(n)), m)


class TestRawMatrixInvariants:
    def test_exhaustive_small_vector_screen(self):
        # necessary condition: a vector with x.M.x >= 0 refutes definiteness
        import itertools

        for seed in range(60):
            rng = random.Random(seed)
            n = 3 if seed % 2 else 4
            m = random_symmetric(rng, n, lo=-3, hi=3)
            decided = definiteness(m).negative_definite
            refuted = False
            for x in itertools.product(range(-3, 4), repeat=n):
                if not any(x):
                    continue
                value = sum(
                    m.rows[i][j] * x[i] * x[j]
                    for i in range(n) for j in range(n)
                )
                if value >= 0:
                    refuted = True
                    break
            if refuted:
                assert decided is False

    def test_definite_implies_invertible_on_random_symmetric(self):
        found = 0
        for seed in range(200):
            rng = random.Random(seed)
            m = random_symmetric(rng, rng.randint(1, 5))
            d = definiteness(m)
            if d.negative_definite:
                found += 1
                assert d.invertible and d.determinant != 0
        assert found  # the sample must actually exercise the implication

    def test_definite_implies_invertible_on_fixtures(self):
        graphs = [
            make_camacho_cycle()[0],
            make_p2_cycle(2),
        ] + [make_random_tree(s, n=2 + s % 8) for s in range(20)]
        for g in graphs:
            d = definiteness(intersection_matrix(g))
            if d.negative_definite:
                assert d.invertible and d.determinant != 0
