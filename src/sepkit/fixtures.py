"""Generators for self-consistent example configurations.

Every generator returns a graph that passes validation with zero errors.
Vertex sums that do not balance on their own are absorbed by an auto
inserted nondegenerate smooth singularity ("<id>:pad") carrying the exact
remainder, so the fixtures are consistent by construction.

The camacho generator eliminates two of the three crossing indices of a
3-cycle from the self-intersection equations, leaving one univariate
constraint; its root generates the number field the instance lives in.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from math import gcd, isqrt
from numbers import Real

from .dualgraph import (
    NONDEGENERATE,
    SADDLE_NODE,
    Component,
    Crossing,
    DualGraph,
    SmoothSingularity,
    _shortfall,
    _vertex_sums,
)
from .errors import BadParams
from .exactfield import NumberField

__all__ = [
    "generate_example", "make_camacho_cycle", "make_p2_cycle",
    "make_quadratic_chain", "make_random_graph", "make_random_tree",
    "make_torsion4",
]

_RATIONALS = NumberField((Fraction(0),))  # Q itself, as Q[x]/(x)


def _pad(field, cid: str, e: int, points) -> tuple[SmoothSingularity, ...]:
    """The pad singularity of index e - sum(points), none if that is 0."""
    remainder = _shortfall(field, e, points)
    if remainder.is_zero:
        return ()
    return (SmoothSingularity(f"{cid}:pad", NONDEGENERATE, remainder, True),)


def _assemble(field, names, self_ints, crossings, sums) -> DualGraph:
    """Attach self-intersections and the pad singularities that balance
    the vertex sums `sums` (from `_vertex_sums`) of the crossings."""
    components = tuple(
        Component(cid, e, 0, _pad(field, cid, e, sums[cid]))
        for cid, e in zip(names, self_ints)
    )
    return DualGraph(field, components, tuple(crossings))


# ---------------------------------------------------------------------------
# The 3-cycle without separatrix


def _int_triple(values, what: str) -> tuple[int, int, int]:
    try:
        triple = tuple(values)
    except TypeError:
        raise BadParams(f"{what} must be three integers") from None
    if len(triple) != 3 or any(
        not isinstance(v, int) or isinstance(v, bool) for v in triple
    ):
        raise BadParams(f"{what} must be three integers")
    return triple


def camacho_constraint(self_intersections) -> tuple[int, ...]:
    """Univariate constraint on the E1-side index of the E1-E2 crossing.

    Writing t for that index, the three vertex-sum equations
        t + l13 = e1,  1/t + l23 = e2,  1/l23 + 1/l13 = e3
    eliminate l13 and l23 into A t^2 + B t + C = 0 with
        A = e2 e3 - 1,  B = e1 + e2 - e3 (e1 e2 + 1),  C = e1 e3 - 1.
    Returned as primitive integer coefficients (c0, c1, c2), ascending,
    leading coefficient positive.
    """
    e1, e2, e3 = _int_triple(self_intersections, "self_intersections")
    a = e2 * e3 - 1
    b = e1 + e2 - e3 * (e1 * e2 + 1)
    c = e1 * e3 - 1
    if a == 0:
        # e2*e3 = 1 forces e2 = e3 = +-1 over the integers, and either
        # choice makes B vanish too, so the constraint collapses entirely.
        raise BadParams(
            "the elimination degenerates for these self-intersections"
        )
    coeffs = (c, b, a)
    content = gcd(gcd(abs(c), abs(b)), abs(a))
    sign = 1 if a > 0 else -1
    return tuple(v * sign // content for v in coeffs)


def _rational_roots(c: int, b: int, a: int) -> list[Fraction]:
    """Roots of a t^2 + b t + c when they are rational, ascending."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    roots = {Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)}
    return sorted(roots)


def make_camacho_cycle(self_intersections=(-2, -2, -3)) -> tuple[DualGraph, tuple[int, ...]]:
    """A 3-cycle whose crossing indices solve the vertex-sum equations.

    Returns the graph together with the integer constraint polynomial.
    With the default self-intersections the constraint is irreducible and
    the holonomy has infinite order; combined with the closed-world flag
    (set here: the instance declares no singularities off the crossings)
    the verdict engine certifies that no separatrix exists.
    """
    e1, e2, e3 = _int_triple(self_intersections, "self_intersections")
    constraint = camacho_constraint(self_intersections)
    c0, c1, c2 = constraint

    roots = _rational_roots(c0, c1, c2)
    if roots:
        field = _RATIONALS
        lam12 = None
        for t in roots:
            if t != 0 and e1 - t != 0 and e2 - 1 / t != 0:
                lam12 = field.from_rational(t)
                break
        if lam12 is None:
            raise BadParams(
                "every rational root of the constraint makes a crossing "
                "index vanish"
            )
    else:
        field = NumberField((Fraction(c0, c2), Fraction(c1, c2)))
        lam12 = field.alpha()

    lam13 = field.from_rational(e1) - lam12
    lam23 = field.from_rational(e2) - lam12.inverse()
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=lam12),
        Crossing("E2", "E3", NONDEGENERATE, cs_tail=lam23),
        Crossing("E1", "E3", NONDEGENERATE, cs_tail=lam13),
    )
    components = tuple(
        Component(cid, e) for cid, e in zip(("E1", "E2", "E3"), (e1, e2, e3))
    )
    graph = DualGraph(field, components, crossings, closed_world=True)
    return graph, constraint


# ---------------------------------------------------------------------------
# The projective-plane cycle: trivial holonomy for every admissible t


def make_p2_cycle(t=2) -> DualGraph:
    """Cycle of three lines in the plane, indices parametrized by t.

    The three vertex-sum equations with all self-intersections 1 have the
    one-parameter solution (-t, (1+t)/t, 1+t) for the stored tail-side
    indices, and the cycle holonomy is exactly 1 for every rational
    t outside {0, -1}.
    """
    if isinstance(t, float):
        raise BadParams("t must be rational, not a float")
    try:
        t = Fraction(t)
    except (ValueError, ZeroDivisionError, TypeError):
        raise BadParams(f"not a rational parameter: {t!r}") from None
    if t == 0 or t == -1:
        raise BadParams("t must avoid 0 and -1")

    field = _RATIONALS
    crossings = (
        Crossing("C1", "C2", NONDEGENERATE, cs_tail=field.from_rational(-t)),
        Crossing("C2", "C3", NONDEGENERATE,
                 cs_tail=field.from_rational((1 + t) / t)),
        Crossing("C1", "C3", NONDEGENERATE, cs_tail=field.from_rational(1 + t)),
    )
    components = tuple(Component(cid, 1) for cid in ("C1", "C2", "C3"))
    return DualGraph(field, components, crossings)


# ---------------------------------------------------------------------------
# A torsion instance over Q(i)


def make_torsion4() -> DualGraph:
    """Negative-definite 3-cycle over Q(i) with cycle holonomy i (order 4).

    All three tail-side indices are i; the vertex sums are balanced by pad
    singularities so the instance validates cleanly.
    """
    field = NumberField((Fraction(1), Fraction(0)))  # x^2 + 1
    i = field.alpha()
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=i),
        Crossing("E2", "E3", NONDEGENERATE, cs_tail=i),
        Crossing("E1", "E3", NONDEGENERATE, cs_tail=i),
    )
    names = ("E1", "E2", "E3")
    return _assemble(field, names, (-2, -2, -3), crossings,
                     _vertex_sums(field, names, crossings))


# ---------------------------------------------------------------------------
# Random instances


def _check_int(value, minimum: int, message: str):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise BadParams(message)


def _check_tree_params(n, probability):
    _check_int(n, 1, "n must be a positive integer")
    if (not isinstance(probability, Real) or isinstance(probability, bool)
            or not 0 <= probability <= 1):
        raise BadParams("saddle_node_probability must lie in [0, 1]")


def _random_crossing(rng, field, tail: str, head: str, p_sn: float) -> Crossing:
    if rng.random() < p_sn:
        weak = tail if rng.random() < 0.5 else head
        cs_weak = field.from_rational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        )
        return Crossing(tail, head, SADDLE_NODE, weak=weak, cs_weak=cs_weak)
    # Negative tail index keeps both sides of the crossing reduced.
    cs = field.from_rational(Fraction(-rng.randint(1, 9), rng.randint(1, 3)))
    return Crossing(tail, head, NONDEGENERATE, cs_tail=cs)


def _finish_random(rng, field, names, crossings) -> DualGraph:
    sums = _vertex_sums(field, names, crossings)
    # Strict diagonal dominance forces the matrix negative definite; the
    # extra decrement when the sum would balance exactly keeps a pad
    # singularity on every component, so each one declares a separatrix.
    components = []
    for cid in names:
        e = -(len(sums[cid]) + 1 + rng.randint(0, 2))
        pad = _pad(field, cid, e, sums[cid])
        if not pad:  # balanced exactly: one less leaves a pad of index -1
            e, pad = e - 1, _pad(field, cid, e - 1, sums[cid])
        components.append(Component(cid, e, 0, pad))
    return DualGraph(field, tuple(components), tuple(crossings))


def make_random_tree(seed=0, n: int = 8,
                     saddle_node_probability: float = 0.3) -> DualGraph:
    """Random tree over Q: reproducible for a given seed, always valid.

    Crossings are saddle-nodes with the given probability (random weak
    side, weak index always supplied); self-intersections are chosen
    diagonally dominant, so the intersection matrix is negative definite.
    """
    return make_random_graph(seed, n, 0, saddle_node_probability)


def make_random_graph(
    seed, n: int = 6, extra_crossings: int = 2,
    saddle_node_probability: float = 0.0,
) -> DualGraph:
    """Random connected graph: a tree plus extra (cycle-creating) crossings.

    The extra crossings are always nondegenerate, so with probability 0
    every fundamental cycle has computable holonomy.
    """
    _check_tree_params(n, saddle_node_probability)
    _check_int(extra_crossings, 0, "extra_crossings must be a non-negative integer")
    if extra_crossings and n < 2:
        raise BadParams("cycles need at least two components")
    rng = random.Random(seed)
    field = _RATIONALS
    names = [f"E{i}" for i in range(1, n + 1)]
    crossings = [
        _random_crossing(rng, field, f"E{rng.randrange(1, i)}", f"E{i}",
                         saddle_node_probability)
        for i in range(2, n + 1)
    ]
    for _ in range(extra_crossings):
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        crossings.append(_random_crossing(rng, field, f"E{a}", f"E{b}", 0.0))
    return _finish_random(rng, field, names, crossings)


def make_quadratic_chain(seed, length: int = 3) -> DualGraph:
    """Chain over Q(sqrt 2) with irrational crossing indices.

    Trees have trivial holonomy, but the residues spread over the whole
    degree-2 field, which makes the separatrix count bound exceed 1.
    """
    _check_int(length, 1, "length must be a positive integer")
    rng = random.Random(seed)
    field = NumberField((Fraction(-2), Fraction(0)))  # x^2 - 2
    alpha = field.alpha()
    names = [f"E{i}" for i in range(1, length + 1)]
    crossings = []
    for i in range(2, length + 1):
        cs = field.from_rational(rng.randint(-4, -1)) + alpha * Fraction(
            rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)
        )
        crossings.append(
            Crossing(f"E{i - 1}", f"E{i}", NONDEGENERATE, cs_tail=cs)
        )
    return _finish_random(rng, field, names, crossings)


# ---------------------------------------------------------------------------
# Dispatch used by the command line


_EXAMPLES = {
    "camacho": make_camacho_cycle,
    "p2_cycle": make_p2_cycle,
    "torsion4": make_torsion4,
    "random_tree": make_random_tree,
}


def generate_example(name: str, **params) -> tuple[DualGraph, dict]:
    """Build a named example from keyword `params` the generator takes;
    the dict carries generator-specific extras."""
    make = _EXAMPLES.get(name)
    if make is None:
        raise BadParams(f"unknown example: {name!r}")
    unexpected = set(params) - set(inspect.signature(make).parameters)
    if unexpected:
        raise BadParams(f"unexpected parameters for {name}: "
                        f"{sorted(unexpected)}")
    result = make(**params)
    if name == "camacho":
        graph, constraint = result
        return graph, {"constraint_polynomial": list(constraint)}
    return result, {}
