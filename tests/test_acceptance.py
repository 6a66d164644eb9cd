"""End-to-end acceptance checklist.

Each test covers one advertised guarantee and prints a single
"ACCEPTANCE <n> PASS/FAIL" line through the capture so the test log
doubles as a checklist.  Tolerances are exact everywhere; the two
timed checks assert their budgets.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from sepkit.dualgraph import (
    SADDLE_NODE,
    has_errors,
    parse_graph,
    serialize_graph,
    validate_indices,
)
from sepkit.errors import GorensteinInconsistent
from sepkit.exactfield import is_root_of_unity
from sepkit.fixtures import (
    camacho_constraint,
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)
from sepkit.holonomy import (
    TORSION,
    TRIVIAL,
    INFINITE,
    representation_class,
    residual_divisor,
)
from sepkit.intersection import (
    IntersectionMatrix,
    definiteness,
    divisor_pairing,
    intersection_matrix,
)
from sepkit.report import analyze
from sepkit.verdict import (
    CERTIFIED_ABSENT,
    RULE_ABSENT,
    RULE_TORSION,
    RULE_TREE,
    SEPARATRIX_EXISTS,
    gorenstein_reduce,
    separatrix_bound,
    toma_prune,
    verdict,
)

from oracles import (
    prune_oracle,
    solve_homogeneous,
    span_dimension_oracle,
    tail_side_holonomies,
)

from test_verdict import with_gorenstein


@pytest.fixture
def checklist(capsys):
    @contextmanager
    def record(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {number} FAIL  {label}")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {number} PASS  {label}")

    return record


def random_rational_parameter(rng):
    while True:
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if t not in (0, -1):
            return t


def error_free(g):
    return not has_errors(validate_indices(g))


class TestAcceptance:
    def test_01_plane_cycle_holonomy_trivial(self, checklist):
        with checklist(1, "plane cycle holonomy trivial for 200 parameters"):
            rng = random.Random(20210)
            started = time.perf_counter()
            for _ in range(200):
                g = make_p2_cycle(random_rational_parameter(rng))
                rep = representation_class(g)
                assert rep.kind == TRIVIAL
                assert all(h == g.field.one() for h in rep.holonomies)
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_02_counterexample_certified_absent(self, checklist):
        with checklist(2, "cycle counterexample is certified absent"):
            started = time.perf_counter()
            assert camacho_constraint((-2, -2, -3)) == (5, 11, 5)
            g, constraint = make_camacho_cycle((-2, -2, -3))
            assert constraint == (5, 11, 5)
            assert error_free(g)
            d = definiteness(intersection_matrix(g))
            assert d.negative_definite and d.determinant == -3
            assert representation_class(g).kind == INFINITE
            cert = verdict(g)
            assert cert.conclusion == CERTIFIED_ABSENT
            assert cert.rule == RULE_ABSENT
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_03_tree_rule_with_pruning_oracle(self, checklist):
        with checklist(3, "1000 random trees prune and certify"):
            started = time.perf_counter()
            for seed in range(1000):
                g = make_random_tree(seed, n=1 + seed % 50,
                                     saddle_node_probability=0.3)
                kept = toma_prune(g)
                assert kept, seed
                kept_set = set(kept)
                for c in g.crossings:
                    if c.kind == SADDLE_NODE and c.weak in kept_set:
                        assert c.other(c.weak) in kept_set, seed
                assert kept == prune_oracle(g), seed
                cert = verdict(g)
                assert cert.conclusion == SEPARATRIX_EXISTS, seed
                assert cert.rule == RULE_TREE, seed
            elapsed = time.perf_counter() - started
            assert elapsed < 10.0, f"took {elapsed:.2f}s"

    def test_04_residual_divisor_identities(self, checklist):
        with checklist(4, "residual divisor reproduces deltas, pairs to zero"):
            pool = (
                [make_p2_cycle(t) for t in (2, 3, Fraction(1, 2),
                                            Fraction(-5, 3), 7)]
                + [make_quadratic_chain(s, length=2 + s % 4) for s in range(8)]
                + [make_random_tree(s, n=1 + s % 9,
                                    saddle_node_probability=0.0)
                   for s in range(12)]
                + [make_camacho_cycle((-2, -2, -2))[0]]
            )
            checked = 0
            for g in pool:
                if not error_free(g):
                    continue
                if g.has_saddle_node_crossing():
                    continue
                if representation_class(g).kind != TRIVIAL:
                    continue
                divisor = residual_divisor(g)
                residues = dict(divisor.residues)
                for c in g.crossings:
                    assert residues[c.head] == -c.cs_tail * residues[c.tail]
                pairings = divisor_pairing(g, divisor.as_divisor())
                assert all(v.is_zero for v in pairings.values())
                checked += 1
            assert checked == len(pool)

    def test_05_separatrix_count_bound(self, checklist):
        with checklist(5, "count bound on 50 invertible instances"):
            pool = (
                [make_random_tree(s, n=2 + s % 10,
                                  saddle_node_probability=0.0)
                 for s in range(40)]
                + [make_quadratic_chain(s, length=2 + s % 5)
                   for s in range(10)]
            )
            assert len(pool) == 50
            for g in pool:
                assert error_free(g)
                assert definiteness(intersection_matrix(g)).invertible
                bound = separatrix_bound(g)
                assert bound.declared_m >= bound.lower_bound >= 1
                divisor = residual_divisor(g)
                values = [v for _, v in divisor.residues]
                values += [v for _, v in divisor.separatrix_residues]
                assert bound.lower_bound == span_dimension_oracle(values)

    def test_06_torsion_order_four_route(self, checklist):
        with checklist(6, "torsion fixture detected with order 4"):
            g = make_torsion4()
            rep = representation_class(g)
            assert rep.kind == TORSION
            assert rep.order == 4
            assert all(is_root_of_unity(h) == 4 for h in rep.holonomies)
            cert = verdict(g)
            assert cert.conclusion == SEPARATRIX_EXISTS
            assert cert.rule == RULE_TORSION

    def test_07_power_trivialization_reduction(self, checklist):
        with checklist(7, "power data reduction and kernel freeness"):
            base = make_camacho_cycle((-2, -2, -3))[0]
            good = gorenstein_reduce(with_gorenstein(base, 2, (2, 2, 2)))
            assert good.k == 2 and good.forced_a == 2

            with pytest.raises(GorensteinInconsistent, match=r"D\.E1 = 2"):
                gorenstein_reduce(with_gorenstein(base, 2, (1, 2, 2)))

            confirmed = 0
            for seed in range(100):
                rng = random.Random(seed)
                n = rng.randint(1, 6)
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        rows[i][j] = rows[j][i] = rng.randint(0, 2)
                for i in range(n):
                    rows[i][i] = -(sum(rows[i]) + 1 + rng.randint(0, 3))
                m = IntersectionMatrix(
                    tuple(f"E{i}" for i in range(n)),
                    tuple(tuple(r) for r in rows),
                )
                assert definiteness(m).negative_definite
                assert solve_homogeneous(
                    [[Fraction(v) for v in row] for row in m.rows]
                )
                confirmed += 1
            assert confirmed == 100

    def test_08_convention_duality(self, checklist):
        with checklist(8, "head and tail sides give inverse holonomies"):
            for seed in range(300):
                g = make_random_graph(
                    seed, n=2 + seed % 7, extra_crossings=1 + seed % 3,
                    saddle_node_probability=0.0,
                )
                head = representation_class(g).holonomies
                tail = tail_side_holonomies(g)
                one = g.field.one()
                assert len(head) == len(tail) >= 1
                for a, b in zip(head, tail):
                    assert a * b == one, seed
                    assert is_root_of_unity(a) == is_root_of_unity(b), seed

    def test_09_deterministic_reports(self, checklist):
        with checklist(9, "reports are byte-identical across runs"):
            fixtures = (
                [make_camacho_cycle()[0], make_camacho_cycle((-2, -2, -2))[0],
                 make_p2_cycle(2), make_p2_cycle(Fraction(1, 2)),
                 make_torsion4()]
                + [make_random_tree(s, n=2 + s % 8) for s in range(5)]
                + [make_random_graph(s, n=3, extra_crossings=1)
                   for s in range(3)]
                + [make_quadratic_chain(s) for s in range(3)]
            )
            for g in fixtures:
                source = serialize_graph(g).encode("utf-8")
                first = json.dumps(analyze(parse_graph(source), source))
                second = json.dumps(analyze(parse_graph(source), source))
                assert first.encode() == second.encode()
