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
was made, and builds its incidence once for the one breadth-first walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable

from .errors import (
    BadFieldElement,
    Disconnected,
    DisconnectedSelection,
    EmptySelection,
    SchemaError,
    SelfLoop,
    UnknownId,
)
from .exactfield import FieldElement, NumberField

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
    `index` (component id -> input position) and `incidence` (position ->
    the (crossing index, other end's position) pairs there, in crossing
    input order), which are not fields: equality, hashing and repr ignore
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
            index[comp.id] = p
            for j, sing in enumerate(comp.smooth_singularities):
                fault = (f"duplicate id {sing.id!r}"
                         if sing.id in index or sing.id in singularity_ids
                         else _singularity_fault(sing, field))
                if fault:
                    raise SchemaError(
                        f"components[{p}].smooth_singularities[{j}]: {fault}")
                singularity_ids.add(sing.id)
        incidence: list[list[tuple[int, int]]] = [[] for _ in components]
        stored = []  # tail first in component order
        for k, c in enumerate(crossings):
            tail, head = _ends(c, k, index, field)
            if tail > head:
                c, tail, head = _flipped(c), head, tail
            stored.append(c)
            incidence[tail].append((k, head))
            incidence[head].append((k, tail))
        object.__setattr__(self, "crossings", tuple(stored))
        if self.gorenstein is not None:
            object.__setattr__(self, "gorenstein",
                               _checked_gorenstein(self.gorenstein, components, index))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "incidence", tuple(map(tuple, incidence)))
        visits = _breadth_first(self)
        roots = [i for i, visit in enumerate(visits) if visit[1] is None]
        if roots[1:]:  # position 0's tree is visits[:roots[1]]
            missing = [components[p].id for p in sorted(
                visit[0] for visit in visits[roots[1]:])]
            raise Disconnected("dual graph is not connected; unreachable "
                               f"from {components[0].id!r}: {missing}")

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


def _singularity_fault(s: SmoothSingularity, field: NumberField) -> str | None:
    """What is wrong with the kind, index or separatrix of `s`, if anything."""
    if s.kind not in SMOOTH_KINDS:
        return f"unknown kind {s.kind!r}"
    if s.cs is not None and (type(s.cs) is not FieldElement
                             or s.cs.field is not field and s.cs.field != field):
        return "cs must be an element of the graph's field"
    if s.kind == NONDEGENERATE and (s.cs is None or not any(s.cs.nums)):
        return "a nondegenerate singularity needs a nonzero cs"
    if s.kind == SN_STRONG_ON_CURVE and (s.cs is None or any(s.cs.nums)):
        return "the strong side of a saddle-node has index 0"
    if s.kind == NONDEGENERATE and not s.has_transverse_separatrix:
        return "a nondegenerate singularity always carries a transverse separatrix"
    return None


def _ends(c: Crossing, k: int, index: dict[str, int],
          field: NumberField) -> tuple[int, int]:
    """The input positions of the tail and head of crossings[k] = `c`, or
    the error for the first rule it breaks."""
    if c.kind not in CROSSING_KINDS:
        raise SchemaError(f"crossings[{k}]: unknown kind {c.kind!r}")
    # A field of the other kind stands for a key the parser refuses.
    if (c.weak is not None or c.cs_weak is not None if c.kind == NONDEGENERATE
            else c.cs_tail is not None):
        allowed = _CROSSING_KEYS[c.kind][1]
        unknown = [name for name in ("cs_tail", "cs_weak", "weak")
                   if name not in allowed and getattr(c, name) is not None]
        raise SchemaError(f"crossings[{k}]: unknown keys {unknown}")
    value = c.cs_tail if c.kind == NONDEGENERATE else c.cs_weak
    if value is not None and (type(value) is not FieldElement
                              or value.field is not field and value.field != field):
        name = "cs_tail" if c.kind == NONDEGENERATE else "cs_weak"
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
                       "self-crossings are not representable here, blow up the "
                       "crossing point first and re-enter the resulting configuration")
    if c.kind == NONDEGENERATE:
        if value is None or not any(value.nums):
            raise SchemaError(
                f"crossings[{k}]: a nondegenerate crossing needs a nonzero cs_tail")
    elif c.weak != c.tail and c.weak != c.head:
        raise SchemaError(f"crossings[{k}]: weak must name one of the two endpoints")
    return tail, head


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


def _breadth_first(g: DualGraph, keep: Callable[[Crossing], bool] | None = None
                   ) -> list[tuple[int, int | None, int | None]]:
    """Breadth-first spanning forest over the crossings `keep` accepts (all
    by default): a (position, crossing index, parent position) triple per
    component in visiting order.  Each tree is rooted, as (root, None, None),
    at the first position not yet reached; crossings go in input order."""
    crossings, incidence = g.crossings, g.incidence
    reached = [False] * len(incidence)
    visits: list[tuple[int, int | None, int | None]] = []
    cursor = 0  # visits[cursor:] is the queue
    for root in range(len(incidence)):
        if reached[root]:
            continue
        reached[root] = True
        visits.append((root, None, None))
        while cursor < len(visits):
            v = visits[cursor][0]
            cursor += 1
            for k, w in incidence[v]:
                if not reached[w] and (keep is None or keep(crossings[k])):
                    reached[w] = True
                    visits.append((w, k, v))
    return visits


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
# position in the messages.  Everything else (ids, kinds, endpoints,
# indices, gorenstein data) is DualGraph's to check, at the same positions.


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
_INTEGER = {None: "an integer", 0: "a non-negative integer"}


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


def _int(value, where: str, least: int | None = None) -> int:
    """`value` as a JSON integer (a boolean is not one), at least `least`."""
    if type(value) is not int or (least is not None and value < least):
        raise SchemaError(f"{where} must be {_INTEGER[least]}")
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


def _parse_smooth_singularity(raw, field: NumberField, where: str) -> SmoothSingularity:
    obj = _object(raw, where, _SINGULARITY_KEYS)
    sid, kind = _id(obj["id"], where), obj["kind"]
    try:
        cs = None if obj["cs"] is None else field.parse_element(obj["cs"])
    except BadFieldElement as exc:
        raise BadFieldElement(f"{where}.cs: {exc}") from None
    if cs is None and kind == SN_STRONG_ON_CURVE:
        cs = field.zero()  # the strong side's index, when none is given
    # On the weak side cs may stay None: the index is unknown.
    separatrix = _bool(obj.get("separatrix", kind != SN_STRONG_ON_CURVE),
                       f"{where}.separatrix")
    return SmoothSingularity(sid, kind, cs, separatrix)


def _parse_crossing(raw, field: NumberField, where: str) -> Crossing:
    obj = _object(raw, where)
    kind = obj.get("kind")
    if kind not in CROSSING_KINDS:  # no key set to check: DualGraph names it
        if "kind" not in obj:
            raise SchemaError(f"{where}: missing keys ['kind']")
        return Crossing(obj.get("tail"), obj.get("head"), kind)
    _object(obj, where, _CROSSING_KEYS[kind])
    try:
        if kind == NONDEGENERATE:
            return Crossing(obj["tail"], obj["head"], kind,
                            cs_tail=field.parse_element(obj["cs_tail"]))
        cs_weak = obj.get("cs_weak")
        return Crossing(obj["tail"], obj["head"], kind, weak=obj["weak"],
                        cs_weak=None if cs_weak is None else field.parse_element(cs_weak))
    except BadFieldElement as exc:  # only the index literal can raise it
        name = "cs_tail" if kind == NONDEGENERATE else "cs_weak"
        raise BadFieldElement(f"{where}.{name}: {exc}") from None


def graph_from_obj(obj) -> DualGraph:
    """Build a DualGraph from a decoded JSON object."""
    obj = _object(obj, "input", _INPUT_KEYS)
    field = NumberField.from_json(obj["field"])

    components = []
    for i, raw in enumerate(_array(obj["components"], "components", nonempty=True)):
        where = f"components[{i}]"
        raw = _object(raw, where, _COMPONENT_KEYS)
        cid = _id(raw["id"], where)
        selfint = _int(raw["self_intersection"], f"{where}.self_intersection")
        genus = _int(raw.get("genus", 0), f"{where}.genus", least=0)
        sings_at = f"{where}.smooth_singularities"
        sings = tuple(
            _parse_smooth_singularity(sing, field, f"{sings_at}[{j}]")
            for j, sing in enumerate(_array(raw.get("smooth_singularities", []),
                                            sings_at))
        )
        components.append(Component(cid, selfint, genus, sings))

    crossings = tuple(
        _parse_crossing(raw, field, f"crossings[{i}]")
        for i, raw in enumerate(_array(obj["crossings"], "crossings"))
    )
    gorenstein = None
    if obj.get("gorenstein") is not None:
        raw_g = _object(obj["gorenstein"], "gorenstein", _GORENSTEIN_KEYS)
        a = _object(raw_g["a"], "gorenstein.a")
        gorenstein = GorensteinData(raw_g["k"], tuple(a.items()))
    closed_world = _bool(obj.get("closed_world", False), "closed_world")
    return DualGraph(field, tuple(components), crossings, gorenstein, closed_world)


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


def _vertex_sums(field: NumberField, ids, crossings) -> dict[str, list]:
    """Per component id, over the crossings on it: [sum of the known
    indices on its side, number of unknown weak indices, crossing count]."""
    sums = {cid: [field.zero(), 0, 0] for cid in ids}
    for crossing in crossings:
        for side in (crossing.tail, crossing.head):
            entry = sums[side]
            value = crossing.cs_on(side, field)
            if value is None:
                entry[1] += 1
            else:
                entry[0] = entry[0] + value
            entry[2] += 1
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
        if value.nums[0] > 0 and not any(value.nums[1:]):
            out.append(Finding(
                "warning", "non-reduced-index",
                f"{label} has index {value}, a positive "
                "rational; the singularity is not reduced",
                cid,
            ))

    for i, c in enumerate(g.crossings):
        if c.kind == NONDEGENERATE:
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
        total, unknown, count = sums[comp.id]
        for sing in comp.smooth_singularities:
            if sing.cs is None:
                unknown += 1
            else:
                total = total + sing.cs
            if sing.kind == NONDEGENERATE:
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
        target = g.field.from_rational(comp.self_intersection)
        if unknown:
            vertex.append(Finding(
                "warning", "vertex-sum-unverified",
                f"{comp.id}: {unknown} unknown weak index(es); the known "
                f"indices sum to {total}, so the unknown ones must add up "
                f"to {target - total}",
                comp.id,
            ))
        elif total != target:
            vertex.append(Finding(
                "error", "vertex-sum-mismatch",
                f"{comp.id}: indices sum to {total}, but the "
                f"self-intersection is {comp.self_intersection}",
                comp.id,
            ))
        z = count + len(comp.smooth_singularities)
        degrees.append(Finding(
            "info", "component-degree",
            f"{comp.id}: {z} singular point(s); implied normal bundle "
            f"degree {comp.self_intersection + z}",
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
