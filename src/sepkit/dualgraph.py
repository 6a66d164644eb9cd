"""Decorated resolution dual graphs.

A graph has one component (vertex) per irreducible curve, one crossing
(edge) per intersection point of two distinct components, and an optional
bag of smooth-point singularities on each component.  Crossings carry the
index of the foliation along the tail component at the crossing point;
the head side is always the reciprocal and is computed at most once per
crossing (construction hands it over when it flips a crossing listed head
first).  Parallel crossings are allowed (two components may meet several
times); self-crossings are not representable and must be blown up first.

All index data lives in a single number field declared at the top of the
input file.  Every DualGraph keeps every structural rule and is connected,
with at least one component: construction checks both, however the graph
was made.  Its one breadth-first walk, from the first component with
crossings in input order, checks connectivity and is kept as the graph's
spanning tree, cut at its saddle-node crossings into pieces; the holonomy
layer and toma_prune read both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

from .errors import (
    BadFieldElement,
    Disconnected,
    DisconnectedSelection,
    EmptySelection,
    SchemaError,
    SelfLoop,
    UnknownId,
)
from .exactfield import FieldElement, NumberField, _lowest, _over_lcm

__all__ = [
    "NONDEGENERATE", "SADDLE_NODE", "SN_STRONG_ON_CURVE", "SN_WEAK_ON_CURVE",
    "Component", "Crossing", "DualGraph", "Finding", "GorensteinData",
    "SmoothSingularity", "graph_from_obj", "graph_to_obj", "has_errors",
    "induced_subcurve", "parse_graph", "serialize_graph", "validate_indices",
]

NONDEGENERATE = "nondegenerate"
SADDLE_NODE = "saddle_node"
SN_STRONG_ON_CURVE = "saddle_node_strong"
SN_WEAK_ON_CURVE = "saddle_node_weak"

SMOOTH_KINDS = (NONDEGENERATE, SN_STRONG_ON_CURVE, SN_WEAK_ON_CURVE)
CROSSING_KINDS = (NONDEGENERATE, SADDLE_NODE)

# Ids created by induced_subcurve for converted boundary crossings.
CUT_PREFIX = "cut:"


@dataclass(frozen=True)
class SmoothSingularity:
    """A reduced singularity at a smooth point of its host component.

    `cs` is the index of the foliation along the host component at the
    point.  It is required (and nonzero) for nondegenerate singularities.
    For a saddle-node whose strong separatrix lies on the component it is
    exactly 0; for one whose weak separatrix lies on the component it may
    be unknown (None), in which case index-sum checks degrade to warnings.
    `has_transverse_separatrix` declares whether a separatrix germ not
    supported on the component passes through the point.
    """

    id: str
    kind: str
    cs: FieldElement | None
    has_transverse_separatrix: bool


@dataclass(frozen=True)
class Crossing:
    """An intersection point of two distinct components.

    A DualGraph stores it tail -> head with the tail earlier in its
    components' order, flipping one given head first.  Nondegenerate
    crossings store cs_tail, the nonzero index along the tail side; the
    head side index cs_head = 1/cs_tail is computed once per crossing, on
    first use.  Saddle-node crossings mark which endpoint carries the weak
    separatrix and optionally its index (the strong side always has
    index 0).
    """

    tail: str
    head: str
    kind: str
    cs_tail: FieldElement | None = None
    weak: str | None = None
    cs_weak: FieldElement | None = None

    def other(self, component_id: str) -> str:
        return self.head if component_id == self.tail else self.tail

    @cached_property
    def cs_head(self) -> FieldElement:
        """Index along the head side of a nondegenerate crossing, 1/cs_tail."""
        return self.cs_tail.inverse()

    def cs_on(self, component_id: str, field: NumberField) -> FieldElement | None:
        """Index along the given side; None when it is an unknown weak index."""
        if component_id not in (self.tail, self.head):
            raise UnknownId(f"crossing {self.tail}-{self.head} does not touch "
                            f"{component_id}")
        if self.kind == NONDEGENERATE:
            if component_id == self.tail:
                return self.cs_tail
            return self.cs_head
        if component_id == self.weak:
            return self.cs_weak
        return field.zero()


@dataclass(frozen=True)
class Component:
    id: str
    self_intersection: int
    genus: int = 0
    smooth_singularities: tuple[SmoothSingularity, ...] = ()


@dataclass(frozen=True)
class GorensteinData:
    """A declared k-th tensor power trivialization of the normal sheaf.

    `a` assigns to every component the coefficient of the divisor that the
    k-th power of the foliation's normal sheaf is claimed to be.
    """

    k: int
    a: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class DualGraph:
    """A connected dual graph that keeps every structural rule: construction
    raises what parsing a document with the same fault raises.  It stores
    crossings tail first and `gorenstein.a`, both in component order, plus
    `index` (component id -> input position), `incidence` (position -> the
    (crossing index, other end's position) pairs there, in crossing input
    order), `spanning_tree` (the breadth-first tree from position 0,
    crossings in input order: a (position, crossing index, parent position)
    triple per other component, in visiting order) and `pieces` (position
    -> the top of its piece, the tree being cut at its saddle-node
    crossings), which are not fields: equality, hashing and repr ignore
    them, and `dataclasses.replace` rebuilds them."""

    field: NumberField
    components: tuple[Component, ...]
    crossings: tuple[Crossing, ...]
    gorenstein: GorensteinData | None = None
    closed_world: bool = False

    def __post_init__(self):
        field, components, crossings = self.field, self.components, self.crossings
        if not components:
            raise SchemaError("a dual graph needs at least one component")
        index: dict[str, int] = {}
        singularity_ids: set[str] = set()  # ids are unique across both kinds
        for p, comp in enumerate(components):
            if comp.id in index or comp.id in singularity_ids:
                raise SchemaError(f"components[{p}]: duplicate id {comp.id!r}")
            if type(comp.self_intersection) is not int:  # nor is a bool
                raise SchemaError(f"components[{p}].self_intersection must be an integer")
            if type(comp.genus) is not int or comp.genus < 0:
                raise SchemaError(f"components[{p}].genus must be a non-negative integer")
            index[comp.id] = p
            for j, s in enumerate(comp.smooth_singularities):
                kind, cs = s.kind, s.cs
                if s.id in index or s.id in singularity_ids:
                    fault = f"duplicate id {s.id!r}"
                elif kind not in SMOOTH_KINDS:
                    fault = f"unknown kind {kind!r}"
                elif cs is not None and (type(cs) is not FieldElement
                                         or cs.field is not field and cs.field != field):
                    fault = "cs must be an element of the graph's field"
                elif kind == NONDEGENERATE and (cs is None or not any(cs.nums)):
                    fault = "a nondegenerate singularity needs a nonzero cs"
                elif kind == SN_STRONG_ON_CURVE and (cs is None or any(cs.nums)):
                    fault = "the strong side of a saddle-node has index 0"
                elif kind == NONDEGENERATE and not s.has_transverse_separatrix:
                    fault = ("a nondegenerate singularity always carries a "
                             "transverse separatrix")
                else:
                    singularity_ids.add(s.id)
                    continue
                raise SchemaError(f"components[{p}].smooth_singularities[{j}]: {fault}")
        incidence: list[list[tuple[int, int]]] = [[] for _ in components]
        stored = []  # tail first in component order
        for k, c in enumerate(crossings):
            kind, nondegenerate = c.kind, c.kind == NONDEGENERATE
            if kind not in CROSSING_KINDS:
                raise SchemaError(f"crossings[{k}]: unknown kind {kind!r}")
            # A field of the other kind stands for a key the parser refuses.
            if (c.weak is not None or c.cs_weak is not None if nondegenerate
                    else c.cs_tail is not None):
                unknown = [name for name in ("cs_tail", "cs_weak", "weak")
                           if name not in _CROSSING_KEYS[kind][1]
                           and getattr(c, name) is not None]
                raise SchemaError(f"crossings[{k}]: unknown keys {unknown}")
            value = c.cs_tail if nondegenerate else c.cs_weak
            if value is not None and not (type(value) is FieldElement and (
                    value.field is field or value.field == field)):
                name = "cs_tail" if nondegenerate else "cs_weak"
                raise SchemaError(f"crossings[{k}]: {name} must be an element of the "
                                  "graph's field")
            tail = None
            try:
                tail = index[c.tail]
                head = index[c.head]
            except (KeyError, TypeError):  # TypeError: an unhashable endpoint
                end = c.tail if tail is None else c.head
                raise UnknownId(f"crossings[{k}]: unknown component id {end!r}") from None
            if tail == head:
                raise SelfLoop(f"crossings[{k}]: component {c.tail!r} crosses itself; "
                               "self-crossings are not representable here, blow up "
                               "the crossing point first and re-enter the resulting "
                               "configuration")
            if nondegenerate and (value is None or not any(value.nums)):
                raise SchemaError(f"crossings[{k}]: a nondegenerate crossing needs a "
                                  "nonzero cs_tail")
            if not nondegenerate and c.weak != c.tail and c.weak != c.head:
                raise SchemaError(f"crossings[{k}]: weak must name one of the two "
                                  "endpoints")
            if tail > head:
                c, tail, head = _flipped(c), head, tail
            stored.append(c)
            incidence[tail].append((k, head))
            incidence[head].append((k, tail))
        object.__setattr__(self, "crossings", tuple(stored))
        if self.gorenstein is not None:
            object.__setattr__(self, "gorenstein",
                               _checked_gorenstein(self.gorenstein, components, index))
        reached = [True] + [False] * (len(components) - 1)
        queue, tree, pieces = [0], [], list(range(len(components)))
        for v in queue:
            for k, w in incidence[v]:
                if not reached[w]:
                    reached[w] = True
                    queue.append(w)
                    tree.append((w, k, v))
                    if stored[k].kind == NONDEGENERATE:  # a saddle-node starts a piece
                        pieces[w] = pieces[v]
        if len(queue) < len(components):
            missing = [comp.id for comp, seen in zip(components, reached) if not seen]
            raise Disconnected("dual graph is not connected; unreachable "
                               f"from {components[0].id!r}: {missing}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "incidence", tuple(map(tuple, incidence)))
        object.__setattr__(self, "spanning_tree", tuple(tree))
        object.__setattr__(self, "pieces", tuple(pieces))

    @property
    def cycle_rank(self) -> int:
        """Number of independent cycles, E - V + 1 (the graph is connected)."""
        return len(self.crossings) - len(self.components) + 1

    def all_smooth_singularities(self) -> list[tuple[Component, SmoothSingularity]]:
        return [
            (comp, sing)
            for comp in self.components
            for sing in comp.smooth_singularities
        ]

    def has_saddle_node_crossing(self) -> bool:
        return any(c.kind == SADDLE_NODE for c in self.crossings)


def _flipped(c: Crossing) -> Crossing:
    """`c` listed the other way round: its one inverse becomes cs_tail."""
    if c.kind == SADDLE_NODE:
        return Crossing(c.head, c.tail, SADDLE_NODE, weak=c.weak, cs_weak=c.cs_weak)
    flipped = Crossing(c.head, c.tail, NONDEGENERATE, cs_tail=c.cs_head)
    # The given index is the head side: fill the cached_property with it.
    vars(flipped)["cs_head"] = c.cs_tail
    return flipped


def _checked_gorenstein(data: GorensteinData, components: tuple[Component, ...],
                        index: dict[str, int]) -> GorensteinData:
    """`data`, with `a` in component order, once k is a positive integer and
    `a` maps exactly the components to integers."""
    if type(data.k) is not int or data.k < 1:
        raise SchemaError("gorenstein.k must be a positive integer")
    named = {}
    for cid, value in data.a:
        if not (isinstance(cid, str) and cid in index):
            raise UnknownId(f"gorenstein.a: unknown component id {cid!r}")
        if cid in named:
            raise SchemaError(f"gorenstein.a: duplicate id {cid!r}")
        named[cid] = value
    for comp in components:
        if comp.id not in named:
            raise SchemaError(f"gorenstein.a must cover component {comp.id!r}")
        if type(named[comp.id]) is not int:
            raise SchemaError(f"gorenstein.a[{comp.id!r}] must be an integer")
    a = tuple((comp.id, named[comp.id]) for comp in components)
    return data if a == data.a else GorensteinData(data.k, a)


@dataclass(frozen=True)
class Finding:
    """One validation result.  Severity is "error", "warning" or "info"."""

    severity: str
    code: str
    message: str
    component: str | None = None

    def to_json(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "component": self.component,
        }


# ---------------------------------------------------------------------------
# Parsing
#
# Every position of the input document is read through one of the readers
# below, so each shape rule is written once and a value of the wrong JSON
# shape ends in a SchemaError, wherever it stands.  `where` names the
# position in the messages; within a record it is relative to the record,
# whose position `_records` puts in front only on failure.  Everything else
# (ids, kinds, endpoints, indices, self-intersections, genera, gorenstein
# data) is DualGraph's to check, at the same positions.


def _keys(required: str, optional: str = "") -> tuple[frozenset, frozenset]:
    """(required, allowed) key sets of a record, from space-separated names."""
    required_set = frozenset(required.split())
    return required_set, required_set | frozenset(optional.split())


_INPUT_KEYS = _keys("field components crossings", "gorenstein closed_world")
_COMPONENT_KEYS = _keys("id self_intersection", "genus smooth_singularities")
_SINGULARITY_KEYS = _keys("id kind cs", "separatrix")
_CROSSING_KEYS = dict(zip(CROSSING_KINDS, (
    _keys("tail head kind cs_tail"),
    _keys("tail head kind weak", "cs_weak"),
)))
_GORENSTEIN_KEYS = _keys("k a")


def _object(value, where: str, keys: tuple[frozenset, frozenset] | None = None) -> dict:
    """`value` as a JSON object; given `keys` from `_keys`, one that holds
    every required key and no key outside the allowed ones."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    if keys is not None and not keys[0] <= value.keys() <= keys[1]:
        missing = keys[0] - value.keys()
        if missing:
            raise SchemaError(f"{where}: missing keys {sorted(missing)}")
        unknown = sorted(value.keys() - keys[1], key=str)
        raise SchemaError(f"{where}: unknown keys {unknown}")
    return value


def _array(value, where: str, nonempty: bool = False) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        article = "a non-empty" if nonempty else "an"
        raise SchemaError(f"{where} must be {article} array")
    return value


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be a boolean")
    return value


def _id(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{where}: id must be a non-empty string")
    if value.startswith(CUT_PREFIX):
        raise SchemaError(f"{where}: the id prefix {CUT_PREFIX!r} is reserved")
    return value


def _records(values: list, read, field: NumberField, where: str) -> tuple:
    """Each record of `values` read by `read`; an error's message gets the
    record's position `where[i]` in front."""
    out = []
    for i, raw in enumerate(values):
        try:
            out.append(read(raw, field))
        except SchemaError as exc:
            raise type(exc)(f"{where}[{i}]{exc}") from None
    return tuple(out)


def _read_singularity(raw, field: NumberField) -> SmoothSingularity:
    obj = _object(raw, "", _SINGULARITY_KEYS)
    sid, kind = _id(obj["id"], ""), obj["kind"]
    try:
        cs = None if obj["cs"] is None else field.parse_element(obj["cs"])
    except BadFieldElement as exc:
        raise BadFieldElement(f".cs: {exc}") from None
    if cs is None and kind == SN_STRONG_ON_CURVE:
        cs = field.zero()  # the strong side's index, when none is given
    # On the weak side cs may stay None: the index is unknown.
    separatrix = _bool(obj.get("separatrix", kind != SN_STRONG_ON_CURVE),
                       ".separatrix")
    return SmoothSingularity(sid, kind, cs, separatrix)


def _read_component(raw, field: NumberField) -> Component:
    obj = _object(raw, "", _COMPONENT_KEYS)
    cid = _id(obj["id"], "")
    sings = _array(obj.get("smooth_singularities", []), ".smooth_singularities")
    return Component(cid, obj["self_intersection"], obj.get("genus", 0),
                     _records(sings, _read_singularity, field, ".smooth_singularities"))


def _read_crossing(raw, field: NumberField) -> Crossing:
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in CROSSING_KINDS:  # no key set to check: DualGraph names it
        if "kind" not in _object(raw, ""):
            raise SchemaError(": missing keys ['kind']")
        return Crossing(raw.get("tail"), raw.get("head"), kind)
    obj = _object(raw, "", _CROSSING_KEYS[kind])
    try:
        if kind == NONDEGENERATE:
            return Crossing(obj["tail"], obj["head"], kind,
                            cs_tail=field.parse_element(obj["cs_tail"]))
        cs_weak = obj.get("cs_weak")
        return Crossing(obj["tail"], obj["head"], kind, weak=obj["weak"],
                        cs_weak=None if cs_weak is None else field.parse_element(cs_weak))
    except BadFieldElement as exc:  # only the index literal can raise it
        name = "cs_tail" if kind == NONDEGENERATE else "cs_weak"
        raise BadFieldElement(f".{name}: {exc}") from None


def graph_from_obj(obj) -> DualGraph:
    """Build a DualGraph from a decoded JSON object."""
    obj = _object(obj, "input", _INPUT_KEYS)
    field = NumberField.from_json(obj["field"])
    components = _records(_array(obj["components"], "components", nonempty=True),
                          _read_component, field, "components")
    crossings = _records(_array(obj["crossings"], "crossings"),
                         _read_crossing, field, "crossings")
    gorenstein = None
    if obj.get("gorenstein") is not None:
        raw_g = _object(obj["gorenstein"], "gorenstein", _GORENSTEIN_KEYS)
        a = _object(raw_g["a"], "gorenstein.a")
        gorenstein = GorensteinData(raw_g["k"], tuple(a.items()))
    closed_world = _bool(obj.get("closed_world", False), "closed_world")
    return DualGraph(field, components, crossings, gorenstein, closed_world)


def parse_graph(text: str | bytes) -> DualGraph:
    """Parse a JSON input document into a DualGraph."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, encoding, size, depth
        raise SchemaError(f"invalid JSON: {exc}") from None
    return graph_from_obj(obj)


# ---------------------------------------------------------------------------
# Serialization


def _or_null(value: FieldElement | None):
    return None if value is None else value.to_json()


def _crossing_to_obj(c: Crossing) -> dict:
    obj = {"tail": c.tail, "head": c.head, "kind": c.kind}
    if c.kind == NONDEGENERATE:
        obj["cs_tail"] = c.cs_tail.to_json()
    else:
        obj.update(weak=c.weak, cs_weak=_or_null(c.cs_weak))
    return obj


def graph_to_obj(g: DualGraph) -> dict:
    obj: dict = {
        "field": g.field.to_json(),
        "components": [
            {
                "id": comp.id,
                "self_intersection": comp.self_intersection,
                "genus": comp.genus,
                "smooth_singularities": [
                    {"id": s.id, "kind": s.kind, "cs": _or_null(s.cs),
                     "separatrix": s.has_transverse_separatrix}
                    for s in comp.smooth_singularities
                ],
            }
            for comp in g.components
        ],
        "crossings": [_crossing_to_obj(c) for c in g.crossings],
        "closed_world": g.closed_world,
    }
    if g.gorenstein is not None:
        obj["gorenstein"] = {"k": g.gorenstein.k, "a": dict(g.gorenstein.a)}
    return obj


def serialize_graph(g: DualGraph) -> str:
    return json.dumps(graph_to_obj(g), indent=2)


# ---------------------------------------------------------------------------
# Validation


def _integer_sum(points, degree: int) -> tuple[list[int], int]:
    """The known indices in `points` (pairs or None) summed over one denominator."""
    flat, den = _over_lcm([(n, d) for nums, d in filter(None, points) for n in nums])
    return [sum(flat[i::degree]) for i in range(degree)], den


def _shortfall(field: NumberField, e: int, points) -> FieldElement:
    """e minus the sum of the known indices in `points`, as an element."""
    nums, den = _integer_sum(points, field.degree)
    return _lowest(field, [e * den - nums[0]] + [-n for n in nums[1:]], den)


def _vertex_sums(field: NumberField, ids, crossings) -> dict[str, list]:
    """Per component id, the index on its side of each crossing on it, as a
    (numerators, denominator) pair, or None for an unknown weak index."""
    sums: dict[str, list] = {cid: [] for cid in ids}
    zero, over_q = ((0,) * field.degree, 1), field.degree == 1
    for c in crossings:
        if c.kind == NONDEGENERATE:
            v = c.cs_tail
            sums[c.tail].append((v.nums, v.den))
            if over_q:  # 1/cs_tail is den/num, sign on top: no inverse element built
                sums[c.head].append(((v.den if v.nums[0] > 0 else -v.den,), abs(v.nums[0])))
            else:
                sums[c.head].append((c.cs_head.nums, c.cs_head.den))
        else:
            w = c.cs_weak
            sums[c.weak].append(None if w is None else (w.nums, w.den))
            sums[c.other(c.weak)].append(zero)
    return sums


def validate_indices(g: DualGraph) -> list[Finding]:
    """Check the decorated graph against the index bookkeeping rules.

    Error findings block the verdict engine; warnings do not.  Per
    component the indices of all singular points on it must add up to the
    self-intersection number.  An unknown weak saddle-node index degrades
    that component's check to a warning carrying the implied value.

    One walk over the components; findings come rule by rule: closed world,
    vertex sums, crossing indices, singularities, then component degrees.
    """
    sums = _vertex_sums(g.field, [comp.id for comp in g.components], g.crossings)
    closed, vertex, at_crossings, at_singularities, degrees = [], [], [], [], []

    def warn_non_reduced(out: list, value: FieldElement, label: str, cid: str):
        if not any(value.nums[1:]):  # the caller saw nums[0] > 0
            out.append(Finding(
                "warning", "non-reduced-index",
                f"{label} has index {value}, a positive "
                "rational; the singularity is not reduced",
                cid,
            ))

    for i, c in enumerate(g.crossings):
        if c.kind == NONDEGENERATE and c.cs_tail.nums[0] > 0:
            warn_non_reduced(at_crossings, c.cs_tail,
                             f"crossing {i} ({c.tail}-{c.head})", c.tail)

    for comp in g.components:
        if g.closed_world and comp.smooth_singularities:
            closed.append(Finding(
                "error", "closed-world-contradiction",
                f"closed_world is set but component {comp.id} declares "
                "smooth-point singularities",
                comp.id,
            ))
        points = sums[comp.id]  # the crossings' indices, then the singularities'
        for sing in comp.smooth_singularities:
            points.append(None if sing.cs is None else (sing.cs.nums, sing.cs.den))
            if sing.kind == NONDEGENERATE and sing.cs.nums[0] > 0:
                warn_non_reduced(at_singularities, sing.cs,
                                 f"singularity {sing.id}", comp.id)
            if sing.kind == SN_WEAK_ON_CURVE and not sing.has_transverse_separatrix:
                at_singularities.append(Finding(
                    "warning", "missing-strong-separatrix",
                    f"singularity {sing.id} puts the weak separatrix on "
                    f"{comp.id} but declares no transverse separatrix; the "
                    "strong separatrix of a saddle-node always exists",
                    comp.id,
                ))
        nums, den = _integer_sum(points, g.field.degree)  # elements only for findings
        si, unknown, z = comp.self_intersection, points.count(None), len(points)
        if unknown:
            vertex.append(Finding(
                "warning", "vertex-sum-unverified",
                f"{comp.id}: {unknown} unknown weak index(es); the known "
                f"indices sum to {_lowest(g.field, nums, den)}, so the unknown "
                f"ones must add up to {_shortfall(g.field, si, points)}",
                comp.id,
            ))
        elif nums[0] != si * den or any(nums[1:]):
            vertex.append(Finding(
                "error", "vertex-sum-mismatch",
                f"{comp.id}: indices sum to {_lowest(g.field, nums, den)}, but the "
                f"self-intersection is {si}",
                comp.id,
            ))
        degrees.append(Finding(
            "info", "component-degree",
            f"{comp.id}: {z} singular point(s); implied normal bundle "
            f"degree {si + z}",
            comp.id,
        ))

    return closed + vertex + at_crossings + at_singularities + degrees


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity == "error" for f in findings)


# ---------------------------------------------------------------------------
# Induced subcurves


def induced_subcurve(g: DualGraph, keep: Iterable[str]) -> DualGraph:
    """Restrict the graph to a subset of components.

    Crossings with exactly one endpoint kept are converted into smooth
    singularities on the kept side, carrying the kept side's index, so
    attachment conditions can be tested on the result.  Converted entries
    get ids "cut:<crossing index>".  Crossings internal to the selection
    survive unchanged.
    """
    keep_ids = list(dict.fromkeys(keep))
    if not keep_ids:
        raise EmptySelection("subcurve selection is empty")
    for cid in keep_ids:
        if cid not in g.index:
            raise UnknownId(f"unknown component id: {cid}")
    kept = set(keep_ids)

    extra: dict[str, list[SmoothSingularity]] = {cid: [] for cid in kept}
    internal: list[Crossing] = []
    for i, crossing in enumerate(g.crossings):
        tail_in, head_in = crossing.tail in kept, crossing.head in kept
        if tail_in and head_in:
            internal.append(crossing)
        elif tail_in or head_in:
            side = crossing.tail if tail_in else crossing.head
            # A cut saddle-node whose weak side was dropped still leaves that
            # separatrix as a curve germ transverse to the kept component.
            kind = (NONDEGENERATE if crossing.kind == NONDEGENERATE
                    else SN_WEAK_ON_CURVE if side == crossing.weak
                    else SN_STRONG_ON_CURVE)
            extra[side].append(SmoothSingularity(
                f"{CUT_PREFIX}{i}", kind, crossing.cs_on(side, g.field), True,
            ))

    components = tuple(
        replace(comp, smooth_singularities=comp.smooth_singularities
                + tuple(extra[comp.id]))
        for comp in g.components if comp.id in kept
    )
    gorenstein = g.gorenstein and replace(
        g.gorenstein, a=tuple(pair for pair in g.gorenstein.a if pair[0] in kept))
    any_cut = any(extra[cid] for cid in extra)
    try:
        return DualGraph(g.field, components, tuple(internal), gorenstein,
                         g.closed_world and not any_cut)
    except Disconnected as exc:
        raise DisconnectedSelection(str(exc)) from None
