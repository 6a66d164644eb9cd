"""Residue representation of the fundamental group of the dual graph.

Every nondegenerate crossing carries a multiplicative weight: traversed
tail to head it contributes -1/cs_tail (minus the head-side index), and
traversed backwards the reciprocal, -cs_tail.  Both indices are read off
the crossing, so no weight inverts or divides.  Products of weights
around the fundamental cycles of a deterministic spanning tree classify
the representation as trivial, torsion, infinite, or indeterminate when
a saddle-node sits on a cycle and its weight is undefined.  A DualGraph
is connected by construction, so the spanning tree reaches every component.

Weighing each crossing by minus its tail-side index instead inverts every
cycle holonomy, so triviality and torsion order never depend on the side.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .dualgraph import NONDEGENERATE, DualGraph, _breadth_first
from .errors import NontrivialRepresentation, SaddleNodePresent
from .exactfield import FieldElement, is_root_of_unity

__all__ = [
    "INDETERMINATE", "INFINITE", "TORSION", "TRIVIAL", "CycleBasis",
    "RepresentationClass", "ResidualDivisor", "cycle_basis",
    "representation_class", "residual_divisor",
]

TRIVIAL = "trivial"
TORSION = "torsion"
INFINITE = "infinite"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CycleStep:
    """One crossing traversal; forward means tail to head."""

    crossing: int
    forward: bool

    def to_json(self) -> dict:
        return {"crossing": self.crossing, "forward": self.forward}


@dataclass(frozen=True)
class CycleBasis:
    """Spanning-tree data: tree crossing indices plus fundamental cycles.

    Each cycle contains exactly one non-tree crossing, listed first and
    traversed tail to head; the cycles appear in the order of their
    non-tree crossings.
    """

    root: str
    tree: tuple[int, ...]
    cycles: tuple[tuple[CycleStep, ...], ...]


def cycle_basis(g: DualGraph) -> CycleBasis:
    """Fundamental cycles of a breadth-first spanning tree.

    The tree is rooted at the first-listed component and built scanning
    crossings in input order, which makes the basis deterministic.
    """
    n = len(g.components)
    parent: list[tuple[int, int]] = [(-1, -1)] * n
    depth = [0] * n
    tree: list[int] = []
    for w, idx, v in _breadth_first(g)[1:]:  # connected: one root, position 0
        parent[w] = (idx, v)
        depth[w] = depth[v] + 1
        tree.append(idx)
    tree_set = set(tree)

    def step_up(v: int) -> tuple[CycleStep, int]:
        idx, up = parent[v]
        return CycleStep(idx, g.index[g.crossings[idx].tail] == v), up

    cycles = []
    for idx, crossing in enumerate(g.crossings):
        if idx in tree_set:
            continue
        steps = [CycleStep(idx, True)]
        u, v = g.index[crossing.head], g.index[crossing.tail]
        ascent_u: list[CycleStep] = []
        ascent_v: list[CycleStep] = []
        while u != v:  # climb the deeper end until both meet
            if depth[u] >= depth[v]:
                s, u = step_up(u)
                ascent_u.append(s)
            else:
                s, v = step_up(v)
                ascent_v.append(s)
        steps.extend(ascent_u)
        steps.extend(
            CycleStep(s.crossing, not s.forward) for s in reversed(ascent_v)
        )
        cycles.append(tuple(steps))
    return CycleBasis(g.components[0].id, tuple(tree), tuple(cycles))


def edge_weight(g: DualGraph, step: CycleStep) -> FieldElement | None:
    """Multiplicative weight of one traversal, None across a saddle-node."""
    crossing = g.crossings[step.crossing]
    if crossing.kind != NONDEGENERATE:
        return None
    return -(crossing.cs_head if step.forward else crossing.cs_tail)


@dataclass(frozen=True)
class RepresentationClass:
    """Classification of the residue representation.

    kind is one of "trivial", "torsion", "infinite", "indeterminate";
    order is the torsion order (lcm of the holonomy orders) when kind is
    "torsion".  holonomies aligns with basis.cycles and holds None for
    cycles through a saddle-node; those cycle positions are listed in
    offending_cycles and force kind "indeterminate".  orders aligns with
    holonomies and holds each one's multiplicative order, None when it is
    infinite; it is empty when kind is "indeterminate" and is not part of
    the JSON.
    """

    kind: str
    order: int | None
    holonomies: tuple[FieldElement | None, ...]
    orders: tuple[int | None, ...]
    basis: CycleBasis
    offending_cycles: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "holonomies": [
                {
                    "cycle": [s.to_json() for s in cycle],
                    "value": None if h is None else h.to_json(),
                }
                for cycle, h in zip(self.basis.cycles, self.holonomies)
            ],
            "offending_cycles": list(self.offending_cycles),
        }


def representation_class(g: DualGraph) -> RepresentationClass:
    """Classify the representation from the fundamental cycle holonomies.

    Indeterminate if a cycle crosses a saddle-node, infinite if some
    holonomy has infinite order, else torsion of the lcm of the orders,
    which is trivial when that lcm is 1.
    """
    basis = cycle_basis(g)
    one = g.field.one()
    holonomies: list[FieldElement | None] = []
    offending: list[int] = []
    for pos, cycle in enumerate(basis.cycles):
        h = one
        for step in cycle:
            w = edge_weight(g, step)
            if w is None:
                h = None
                break
            h = h * w
        holonomies.append(h)
        if h is None:
            offending.append(pos)

    orders = () if offending else tuple(map(is_root_of_unity, holonomies))
    order = None
    if offending:
        kind = INDETERMINATE
    elif None in orders:
        kind = INFINITE
    elif lcm(*orders) == 1:
        kind = TRIVIAL
    else:
        kind, order = TORSION, lcm(*orders)

    return RepresentationClass(
        kind, order, tuple(holonomies), orders, basis, tuple(offending)
    )


@dataclass(frozen=True)
class ResidualDivisor:
    """Residues normalized so the first-listed component carries 1.

    Along every crossing, residue(tail) = weight(tail to head) *
    residue(head).  Each separatrix germ at a nondegenerate smooth-point
    singularity gets -cs times its host's residue.
    """

    residues: tuple[tuple[str, FieldElement], ...]
    separatrix_residues: tuple[tuple[str, FieldElement], ...]

    def residue(self, component_id: str) -> FieldElement:
        return dict(self.residues)[component_id]

    def as_divisor(self) -> dict[str, FieldElement]:
        out = dict(self.residues)
        out.update(dict(self.separatrix_residues))
        return out

    def to_json(self) -> dict:
        return {
            "residues": {cid: r.to_json() for cid, r in self.residues},
            "separatrix_residues": {
                sid: r.to_json() for sid, r in self.separatrix_residues
            },
        }


def residual_divisor(g: DualGraph) -> ResidualDivisor:
    """Propagate residues over the spanning tree of a trivial representation.

    Requires a trivial representation and no saddle-node crossing anywhere
    (residue ratios are undefined across saddle-nodes, even on tree edges).
    Consistency along every non-tree crossing is re-verified.
    """
    if g.has_saddle_node_crossing():
        raise SaddleNodePresent(
            "residue propagation is undefined across saddle-node crossings"
        )
    return _propagate_residues(g, representation_class(g))


def _propagate_residues(g: DualGraph, rep: RepresentationClass) -> ResidualDivisor:
    """residual_divisor given the representation of g, already classified."""
    if rep.kind != TRIVIAL:
        raise NontrivialRepresentation(
            f"residual divisor requires a trivial representation, got {rep.kind}"
        )

    basis = rep.basis
    residues: dict[str, FieldElement] = {basis.root: g.field.one()}
    # In BFS order one end of each tree crossing is set; tail/head ratio is -cs_head.
    for idx in basis.tree:
        crossing = g.crossings[idx]
        if crossing.tail in residues:
            residues[crossing.head] = -crossing.cs_tail * residues[crossing.tail]
        else:
            residues[crossing.tail] = -crossing.cs_head * residues[crossing.head]

    for cycle in basis.cycles:
        idx = cycle[0].crossing
        crossing = g.crossings[idx]
        if residues[crossing.tail] != -crossing.cs_head * residues[crossing.head]:
            raise RuntimeError(
                "internal error: trivial representation but inconsistent "
                f"residues across crossing {idx}"
            )

    sep: list[tuple[str, FieldElement]] = []
    for comp in g.components:
        for sing in comp.smooth_singularities:
            if sing.kind == NONDEGENERATE:
                sep.append((sing.id, -sing.cs * residues[comp.id]))

    ordered = tuple((c.id, residues[c.id]) for c in g.components)
    return ResidualDivisor(ordered, tuple(sep))
