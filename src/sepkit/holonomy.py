"""Residue representation of the fundamental group of the dual graph.

Every nondegenerate crossing carries a multiplicative weight: traversed
tail to head it contributes -cs_head (minus the head-side index), and
traversed backwards the reciprocal, -cs_tail.  A saddle-node has none.

Holonomies and residues come from the breadth-first spanning tree that
construction walked and stored on the graph, rooted at the first component,
crossings in input order (a DualGraph is connected).  Each component has
two potentials, kept once computed along its root path: phi, the product
of the weights down that path, and psi, back up it.  The group is abelian,
so the cycle that a non-tree crossing c closes, tail t to head h, has
holonomy -cs_head(c) * phi(t) * psi(h): the potential of a gain graph
(Gross and Tucker, Topological Graph Theory, ch. 2).  Construction cut
the tree at its saddle-node crossings into pieces; the potentials restart
at 1 at the top of each piece, and the cycle crosses a saddle-node iff c
is one or t and h lie in different pieces.  The holonomies classify the
representation as trivial, torsion, infinite, or indeterminate when one
is undefined.  A trivial representation's residues are psi.

Weighing each crossing by minus its tail-side index instead inverts every
cycle holonomy, so triviality and torsion order never depend on the side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

from .dualgraph import NONDEGENERATE, DualGraph
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


class _Tree:
    """The stored spanning tree of a graph and its potentials.

    Per component position: up, None at the root, else (crossing index,
    parent position, whether the step up goes tail to head); depth; and
    phi and psi, 1 at the top of each of the graph's pieces and None
    elsewhere until computed.  closing lists the non-tree crossings in
    input order.
    """

    def __init__(self, g: DualGraph):
        n, one = len(g.components), g.field.one()
        self.graph = g
        self.up: list[tuple[int, int, bool] | None] = [None] * n
        self.depth = [0] * n
        self.phi: list[FieldElement | None] = [
            one if top == v else None for v, top in enumerate(g.pieces)]
        self.psi = list(self.phi)
        in_tree = set()
        for w, idx, v in g.spanning_tree:
            self.up[w] = idx, v, w < v  # a crossing is stored tail first
            self.depth[w] = self.depth[v] + 1
            in_tree.add(idx)
        self.closing = [i for i in range(len(g.crossings)) if i not in in_tree]

    def potential(self, v: int, down: bool) -> FieldElement:
        """phi(v) if down, else psi(v), relative to the top of v's piece."""
        memo = self.phi if down else self.psi
        path = []
        while memo[v] is None:
            path.append(v)
            v = self.up[v][1]
        p = memo[v]
        for u in reversed(path):
            idx, _, up_forward = self.up[u]
            c = self.graph.crossings[idx]
            p = memo[u] = p * -(c.cs_head if up_forward != down else c.cs_tail)
        return p

    def basis(self) -> CycleBasis:
        """The fundamental cycles: each runs along its non-tree crossing, up
        from its head to the lowest common ancestor of both ends, and down
        to its tail."""
        g, cycles = self.graph, []
        for idx in self.closing:
            crossing = g.crossings[idx]
            u, v = g.index[crossing.head], g.index[crossing.tail]
            ascent, descent = [], []
            while u != v:  # climb the deeper end until both meet
                if self.depth[u] >= self.depth[v]:
                    idx_u, u, forward = self.up[u]
                    ascent.append((idx_u, forward))
                else:
                    idx_v, v, forward = self.up[v]
                    descent.append((idx_v, not forward))
            cycles.append(((idx, True), *ascent, *reversed(descent)))
        tree = tuple(idx for _, idx, _ in g.spanning_tree)
        return CycleBasis(g.components[0].id, tree, tuple(cycles))


@dataclass(frozen=True)
class CycleBasis:
    """Spanning-tree data: tree crossing indices plus fundamental cycles.

    A cycle is a tuple of (crossing index, forward) steps, forward meaning
    tail to head.  Its one non-tree crossing comes first, forward; the
    cycles appear in the order of their non-tree crossings.
    """

    root: str
    tree: tuple[int, ...]
    cycles: tuple[tuple[tuple[int, bool], ...], ...]


def cycle_basis(g: DualGraph) -> CycleBasis:
    """The fundamental cycles of the breadth-first spanning tree."""
    return _Tree(g).basis()


@dataclass(frozen=True)
class RepresentationClass:
    """Classification of the residue representation.

    kind is one of "trivial", "torsion", "infinite", "indeterminate";
    order is the torsion order (lcm of the holonomy orders) when kind is
    "torsion".  holonomies has one entry per fundamental cycle, in the
    order of their non-tree crossings, and holds None for cycles through a
    saddle-node; those cycle positions are listed in offending_cycles and
    force kind "indeterminate".  orders aligns with holonomies and holds
    each one's multiplicative order, None when it is infinite; it is empty
    when kind is "indeterminate" and is not part of the JSON.  basis, the
    cycles themselves, is built on first use.
    """

    kind: str
    order: int | None
    holonomies: tuple[FieldElement | None, ...]
    orders: tuple[int | None, ...]
    offending_cycles: tuple[int, ...]
    _tree: _Tree = field(repr=False, compare=False)

    @cached_property
    def basis(self) -> CycleBasis:
        return self._tree.basis()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "holonomies": [
                {
                    "cycle": [{"crossing": i, "forward": forward}
                              for i, forward in cycle],
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
    tree = _Tree(g)
    holonomies: list[FieldElement | None] = []
    offending = []
    for idx in tree.closing:
        c = g.crossings[idx]
        t, h = g.index[c.tail], g.index[c.head]
        if c.kind == NONDEGENERATE and g.pieces[t] == g.pieces[h]:
            holonomies.append(
                -c.cs_head * tree.potential(t, True) * tree.potential(h, False))
        else:
            offending.append(len(holonomies))
            holonomies.append(None)

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

    return RepresentationClass(kind, order, tuple(holonomies), orders,
                               tuple(offending), tree)


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
    """psi on every component, given a trivial representation and no
    saddle-node crossing anywhere (residue ratios are undefined across
    saddle-nodes, even on tree edges).  Every closing holonomy is then 1,
    so the residues match across the non-tree crossings too."""
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
    residues = tuple((c.id, rep._tree.potential(v, False))
                     for v, c in enumerate(g.components))
    sep = tuple(
        (sing.id, -sing.cs * r)
        for comp, (_, r) in zip(g.components, residues)
        for sing in comp.smooth_singularities if sing.kind == NONDEGENERATE
    )
    return ResidualDivisor(residues, sep)
