"""Intersection matrix of a dual graph and exact pairings against it.

The matrix has self-intersections on the diagonal and, off the diagonal,
the number of crossings between the two components (parallel crossings
count with multiplicity).  Negative definiteness is decided exactly from
the signs of the leading principal minors, computed fraction-free, and by
the standard contractibility criterion it is equivalent to the curve
being exceptional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .dualgraph import DualGraph
from .errors import UnknownId
from .exactfield import FieldElement

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
    ids = [c.id for c in g.components]
    index = {cid: i for i, cid in enumerate(ids)}
    n = len(ids)
    rows = [[0] * n for _ in range(n)]
    for i, comp in enumerate(g.components):
        rows[i][i] = comp.self_intersection
    for crossing in g.crossings:
        i, j = index[crossing.tail], index[crossing.head]
        rows[i][j] += 1
        rows[j][i] += 1
    return IntersectionMatrix(tuple(ids), tuple(tuple(r) for r in rows))


def _leading_minors(rows) -> list[int] | None:
    """All leading principal minors by one Bareiss sweep, no pivoting.

    After k elimination steps the (k, k) entry equals the order-(k+1)
    leading minor, and every division by the previous pivot is exact.
    Returns None as soon as a minor vanishes (no pivoting is possible
    without leaving the leading-minor sequence).
    """
    n = len(rows)
    m = [list(r) for r in rows]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            return None
        minors.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return minors


def _bareiss_determinant(rows) -> int:
    """Fraction-free determinant with row pivoting (handles zero pivots)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def definiteness(matrix: IntersectionMatrix) -> Definiteness:
    """Exact negative-definiteness test plus determinant.

    Negative definite iff the leading principal minors alternate in sign
    starting negative: (-1)^k * minor_k > 0 for k = 1..n.
    """
    minors = _leading_minors(matrix.rows)
    if minors is None:
        det = _bareiss_determinant(matrix.rows)
        return Definiteness(False, det, det != 0)
    negative = all(
        (minor < 0) if k % 2 == 0 else (minor > 0)
        for k, minor in enumerate(minors)
    )
    det = minors[-1]
    return Definiteness(negative, det, det != 0)


def divisor_pairing(g: DualGraph, coefficients: Divisor) -> dict[str, FieldElement]:
    """Pair a divisor with every component of the configuration.

    Component ids pair through the intersection matrix.  Separatrix germ
    ids pair 1 with their host component and 0 with every other one.
    """
    return _pair_with(g, intersection_matrix(g), coefficients)


def _pair_with(
    g: DualGraph, matrix: IntersectionMatrix, coefficients: Divisor
) -> dict[str, FieldElement]:
    """divisor_pairing given the intersection matrix of g, already built."""
    index = {cid: i for i, cid in enumerate(matrix.component_order)}
    host_index: dict[str, int] = {}
    for comp in g.components:
        for sing in comp.smooth_singularities:
            host_index[sing.id] = index[comp.id]

    n = matrix.size
    out = [g.field.zero() for _ in range(n)]
    for key, coeff in coefficients.items():
        if not isinstance(coeff, FieldElement):
            coeff = g.field.from_rational(Fraction(coeff))
        if key in index:
            row = matrix.rows[index[key]]
            for j in range(n):
                if row[j]:
                    out[j] = out[j] + coeff * row[j]
        elif key in host_index:
            j = host_index[key]
            out[j] = out[j] + coeff
        else:
            raise UnknownId(f"divisor names unknown id: {key}")
    return {cid: out[index[cid]] for cid in matrix.component_order}
