"""Intersection matrix of a dual graph and exact pairings against the form.

The matrix has self-intersections on the diagonal and, off the diagonal,
the number of crossings between the two components (parallel crossings
count with multiplicity).  Negative definiteness is decided exactly by
symmetric elimination over the nonzero entries: by Sylvester's law of
inertia the form is negative definite iff every pivot is negative, and by
the standard contractibility criterion that is equivalent to the curve
being exceptional.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Mapping

from .dualgraph import DualGraph
from .errors import UnknownId
from .exactfield import FieldElement

__all__ = [
    "Definiteness", "IntersectionMatrix", "definiteness", "divisor_pairing",
    "intersection_matrix",
]

# A divisor supported on the configuration: coefficients indexed by
# component ids and/or separatrix germ ids.
Divisor = Mapping[str, FieldElement]


@dataclass(frozen=True)
class IntersectionMatrix:
    component_order: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.component_order)

    def to_json(self) -> dict:
        return {
            "components": list(self.component_order),
            "rows": [list(r) for r in self.rows],
        }


@dataclass(frozen=True)
class Definiteness:
    negative_definite: bool
    determinant: int
    invertible: bool

    def to_json(self) -> dict:
        return {
            "negative_definite": self.negative_definite,
            "determinant": self.determinant,
            "invertible": self.invertible,
        }


def intersection_matrix(g: DualGraph) -> IntersectionMatrix:
    n = len(g.components)
    rows = [[0] * n for _ in range(n)]
    for i, (comp, pairs) in enumerate(zip(g.components, g.incidence)):
        row = rows[i]
        row[i] = comp.self_intersection
        for _, j in pairs:
            row[j] += 1
    return IntersectionMatrix(tuple(c.id for c in g.components),
                              tuple(tuple(r) for r in rows))


def _symmetric_pivots(rows) -> list[Fraction]:
    """Pivots of an exact symmetric elimination, minimum degree first.

    Only the nonzero off-diagonal entries are stored, one dict per row, and
    the next pivot is a vertex of least degree taken from a heap, so leaves
    go first.  On a tree this is the continued-fraction computation for
    plumbing graphs and creates no fill; with a few cycles the fill stays
    small.  A vertex with a zero diagonal waits until an elimination
    changes it.  When every remaining diagonal is zero, row and column j
    are added into row and column i for some S_ij != 0: a congruence of
    determinant 1 that makes the (i, i) entry 2 S_ij.  Fewer than n pivots
    come back only when what remains is the zero matrix.
    """
    n = len(rows)
    diag = [Fraction(row[i]) for i, row in enumerate(rows)]
    adj = [{j: row[j] for j in compress(range(n), row) if j != i}
           for i, row in enumerate(rows)]
    heap = [(len(a), i) for i, a in enumerate(adj)]
    heapq.heapify(heap)
    done = [False] * n
    pivots: list[Fraction] = []

    def eliminate(p: int):
        d = diag[p]
        pivots.append(d)
        done[p] = True
        items = list(adj[p].items())
        adj[p] = {}
        for q, _ in items:
            del adj[q][p]
        for k, (q, s) in enumerate(items):
            f = s / d
            diag[q] -= f * s
            row_q = adj[q]
            for r, t in items[k + 1:]:
                v = row_q.get(r, 0) - f * t
                if v:
                    row_q[r] = adj[r][q] = v
                else:
                    row_q.pop(r, None)
                    adj[r].pop(q, None)
        for q, _ in items:
            heapq.heappush(heap, (len(adj[q]), q))

    while True:
        while heap:
            degree, p = heapq.heappop(heap)
            if not done[p] and degree == len(adj[p]) and diag[p]:
                eliminate(p)
        # Every vertex left has a zero diagonal.
        i = next((v for v in range(n) if not done[v] and adj[v]), None)
        if i is None:
            return pivots
        j = min(adj[i])
        row_i = adj[i]
        for k, t in adj[j].items():
            if k != i:
                v = row_i.get(k, 0) + t
                if v:
                    row_i[k] = adj[k][i] = v
                else:
                    row_i.pop(k)
                    adj[k].pop(i)
        diag[i] = Fraction(2 * row_i[j])
        eliminate(i)


def definiteness(matrix: IntersectionMatrix) -> Definiteness:
    """Exact negative-definiteness test plus determinant.

    By Sylvester's law of inertia the form is negative definite iff every
    pivot of a symmetric elimination is negative, and the determinant is
    the product of the pivots whatever the elimination order.
    """
    pivots = _symmetric_pivots(matrix.rows)
    if len(pivots) < matrix.size:
        return Definiteness(False, 0, False)
    det = int(math.prod(pivots))
    return Definiteness(all(p < 0 for p in pivots), det, det != 0)


def divisor_pairing(g: DualGraph, coefficients: Divisor) -> dict[str, FieldElement]:
    """Pair a divisor with every component of the configuration.

    E_j . D is a_j times the self-intersection of E_j plus, for each
    crossing at E_j, the coefficient of its other endpoint, so parallel
    crossings count with multiplicity.  Separatrix germ ids pair 1 with
    their host component and 0 with every other one.
    """
    out = {comp.id: g.field.zero() for comp in g.components}
    host = {sing.id: comp.id for comp in g.components
            for sing in comp.smooth_singularities}
    on_components: dict[str, FieldElement] = {}
    for key, coeff in coefficients.items():
        if not isinstance(coeff, FieldElement):
            coeff = g.field.from_rational(Fraction(coeff))
        if key in out:
            on_components[key] = coeff
        elif key in host:
            out[host[key]] += coeff
        else:
            raise UnknownId(f"divisor names unknown id: {key}")
    for comp in g.components:
        if comp.id in on_components:
            out[comp.id] += on_components[comp.id] * comp.self_intersection
    for crossing in g.crossings:
        if crossing.tail in on_components:
            out[crossing.head] += on_components[crossing.tail]
        if crossing.head in on_components:
            out[crossing.tail] += on_components[crossing.head]
    return out
