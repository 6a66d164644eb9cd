import copy
import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit.dualgraph import (
    CUT_PREFIX,
    NONDEGENERATE,
    SADDLE_NODE,
    SN_STRONG_ON_CURVE,
    SN_WEAK_ON_CURVE,
    Component,
    Crossing,
    DualGraph,
    GorensteinData,
    SmoothSingularity,
    _vertex_sums,
    graph_from_obj,
    graph_to_obj,
    has_errors,
    induced_subcurve,
    parse_graph,
    serialize_graph,
    validate_indices,
)
from sepkit.errors import (
    Disconnected,
    DisconnectedSelection,
    EmptySelection,
    SchemaError,
    SelfLoop,
    SepkitError,
    UnknownId,
)
from sepkit.exactfield import FieldElement, NumberField
from sepkit.fixtures import (
    _assemble,
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)

from oracles import shuffled_components, spanning_parents, vertex_sum_oracle
from test_exactfield import KERNEL_FIELDS, elements

Q_FIELD = {"min_poly": ["0"]}
QQ = NumberField.from_json(Q_FIELD)


def comp(cid, e, sings=None):
    out = {"id": cid, "self_intersection": e}
    if sings is not None:
        out["smooth_singularities"] = sings
    return out


def nondeg(tail, head, cs):
    return {"tail": tail, "head": head, "kind": NONDEGENERATE, "cs_tail": [cs]}


def sn(tail, head, weak, cs_weak=None):
    out = {"tail": tail, "head": head, "kind": SADDLE_NODE, "weak": weak}
    if cs_weak is not None:
        out["cs_weak"] = [cs_weak]
    return out


def chain_obj():
    return {
        "field": Q_FIELD,
        "components": [comp("E1", -2), comp("E2", -2), comp("E3", -2)],
        "crossings": [nondeg("E1", "E2", "-1"), nondeg("E2", "E3", "-1")],
    }


class TestParsing:
    def test_minimal_graph(self):
        g = graph_from_obj(chain_obj())
        assert [c.id for c in g.components] == ["E1", "E2", "E3"]
        assert g.crossings[0].cs_tail.rational_value() == -1
        assert g.closed_world is False
        assert g.gorenstein is None

    def test_fixture_round_trips(self):
        fixtures = [
            make_camacho_cycle()[0],
            make_p2_cycle(Fraction(5, 3)),
            make_torsion4(),
            make_random_tree(3, n=9, saddle_node_probability=0.5),
        ]
        for g in fixtures:
            assert parse_graph(serialize_graph(g)) == g

    def test_orientation_normalized_with_reciprocal_index(self):
        obj = chain_obj()
        obj["crossings"][0] = nondeg("E2", "E1", "-4")
        g = graph_from_obj(obj)
        c = g.crossings[0]
        assert (c.tail, c.head) == ("E1", "E2")
        assert c.cs_tail.rational_value() == Fraction(-1, 4)

    def test_saddle_node_flip_keeps_weak_side(self):
        obj = chain_obj()
        obj["crossings"][1] = sn("E3", "E2", weak="E3", cs_weak="-2")
        g = graph_from_obj(obj)
        c = g.crossings[1]
        assert (c.tail, c.head) == ("E2", "E3")
        assert c.weak == "E3"
        assert c.cs_weak.rational_value() == -2

    def test_self_loop_rejected_with_blowup_hint(self):
        obj = chain_obj()
        obj["crossings"].append(nondeg("E1", "E1", "-1"))
        with pytest.raises(SelfLoop, match="blow up"):
            graph_from_obj(obj)

    def test_unknown_endpoint(self):
        obj = chain_obj()
        obj["crossings"][0]["head"] = "E9"
        with pytest.raises(UnknownId):
            graph_from_obj(obj)
        for bad in (["E2"], {"id": "E2"}, 2, None):
            obj["crossings"][0]["head"] = bad
            with pytest.raises(UnknownId, match="unknown component id"):
                graph_from_obj(obj)

    def test_flipped_crossing_keeps_the_given_index_as_head_side(self, monkeypatch):
        obj = chain_obj()
        obj["field"] = {"min_poly": ["-2", "0"]}
        obj["crossings"][0] = {
            "tail": "E2", "head": "E1", "kind": NONDEGENERATE, "cs_tail": ["1", "1"],
        }
        obj["crossings"][1]["cs_tail"] = ["-1", "0"]
        g = graph_from_obj(obj)
        c = g.crossings[0]
        assert (c.tail, c.head) == ("E1", "E2")
        assert c.cs_tail.to_json() == ["-1", "1"]  # 1/(1 + a) = -1 + a
        calls = []
        monkeypatch.setattr(
            FieldElement, "inverse", lambda self: calls.append(self) or None
        )
        assert c.cs_head.to_json() == ["1", "1"]
        assert c.cs_on("E2", g.field) is c.cs_head
        assert calls == []  # parsing already held the head side
        g.crossings[1].cs_head
        assert calls == [g.crossings[1].cs_tail]  # stored as given: inverted once
        g.crossings[1].cs_head
        assert len(calls) == 1

    def test_cs_on_a_component_off_the_crossing(self):
        g = graph_from_obj(chain_obj())
        with pytest.raises(UnknownId) as exc:
            g.crossings[0].cs_on("E3", QQ)
        assert str(exc.value) == "crossing E1-E2 does not touch E3"

    def test_disconnected_rejected(self):
        obj = chain_obj()
        obj["crossings"].pop()
        with pytest.raises(Disconnected):
            graph_from_obj(obj)

    def test_connectivity_messages(self):
        obj = chain_obj()
        obj["components"].insert(1, comp("E0", -2))
        obj["components"].append(comp("E4", -2))
        with pytest.raises(Disconnected) as exc:
            graph_from_obj(obj)
        assert str(exc.value) == (
            "dual graph is not connected; unreachable from 'E1': ['E0', 'E4']"
        )
        g = graph_from_obj(chain_obj())
        for end in ("tail", "head"):
            stray = dataclasses.replace(g.crossings[1], **{end: "E7"})
            with pytest.raises(UnknownId) as exc:
                dataclasses.replace(g, crossings=(g.crossings[0], stray))
            assert str(exc.value) == "crossings[1]: unknown component id 'E7'"

    def test_dropping_a_bridge_crossing_is_rejected(self):
        g = graph_from_obj(chain_obj())
        with pytest.raises(Disconnected):
            dataclasses.replace(g, crossings=g.crossings[:1])

    def test_hand_built_graph_errors_are_typed(self):
        g = graph_from_obj(chain_obj())
        with pytest.raises(SchemaError, match="at least one component"):
            DualGraph(g.field, (), ())
        with pytest.raises(UnknownId, match="'E9'"):
            DualGraph(g.field, (Component("E1", -1),),
                      (dataclasses.replace(g.crossings[0], head="E9"),))

    def test_unknown_keys_rejected(self):
        obj = chain_obj()
        obj["surprise"] = 1
        with pytest.raises(SchemaError, match="unknown keys"):
            graph_from_obj(obj)

    def test_component_validation(self):
        for bad in (
            comp("", -2),
            comp("cut:0", -2),
            {"id": "E9", "self_intersection": "x"},
            {"id": "E9", "self_intersection": True},
            {"id": "E9", "self_intersection": -2, "genus": -1},
        ):
            obj = chain_obj()
            obj["components"][0] = bad
            # the replacement breaks either the schema or connectivity wiring
            with pytest.raises((SchemaError, UnknownId)):
                graph_from_obj(obj)

    def test_duplicate_ids_rejected(self):
        obj = chain_obj()
        obj["components"][1]["id"] = "E1"
        with pytest.raises(SchemaError, match="duplicate"):
            graph_from_obj(obj)
        obj = chain_obj()
        sing = {"id": "E2", "kind": NONDEGENERATE, "cs": ["-1"]}
        obj["components"][0]["smooth_singularities"] = [sing]
        with pytest.raises(SchemaError, match="duplicate"):
            graph_from_obj(obj)

    def test_smooth_singularity_rules(self):
        cases = [
            # nondegenerate needs a nonzero index
            ({"id": "s", "kind": NONDEGENERATE, "cs": None}, "nonzero cs"),
            ({"id": "s", "kind": NONDEGENERATE, "cs": ["0"]}, "nonzero cs"),
            # and always carries a transverse separatrix
            (
                {"id": "s", "kind": NONDEGENERATE, "cs": ["-1"],
                 "separatrix": False},
                "always carries",
            ),
            # the strong side of a saddle-node has index zero
            (
                {"id": "s", "kind": SN_STRONG_ON_CURVE, "cs": ["1"]},
                "index 0",
            ),
            ({"id": "s", "kind": "spiral", "cs": None}, "unknown kind"),
            ({"id": "cut:7", "kind": NONDEGENERATE, "cs": ["-1"]}, "reserved"),
        ]
        for sing, excerpt in cases:
            obj = chain_obj()
            obj["components"][0]["smooth_singularities"] = [sing]
            with pytest.raises(SchemaError, match=excerpt):
                graph_from_obj(obj)

    def test_strong_side_defaults(self):
        obj = chain_obj()
        obj["components"][0]["smooth_singularities"] = [
            {"id": "s", "kind": SN_STRONG_ON_CURVE, "cs": None}
        ]
        g = graph_from_obj(obj)
        sing = g.components[0].smooth_singularities[0]
        assert sing.cs.is_zero
        assert sing.has_transverse_separatrix is False

    def test_crossing_schema_rules(self):
        cases = [
            ({"tail": "E1", "head": "E2", "kind": "tangency"}, SchemaError),
            ({"tail": "E1", "head": "E2", "kind": NONDEGENERATE,
              "cs_tail": ["0"]}, SchemaError),
            (sn("E1", "E2", weak="E3"), SchemaError),
            ({"tail": "E1", "head": "E2", "kind": SADDLE_NODE}, SchemaError),
        ]
        for crossing, exc in cases:
            obj = chain_obj()
            obj["crossings"][0] = crossing
            with pytest.raises(exc):
                graph_from_obj(obj)

    def test_gorenstein_parsing(self):
        obj = chain_obj()
        obj["gorenstein"] = {"k": 2, "a": {"E1": 2, "E2": 2, "E3": 2}}
        g = graph_from_obj(obj)
        assert g.gorenstein.k == 2
        assert g.gorenstein.a == (("E1", 2), ("E2", 2), ("E3", 2))

        obj["gorenstein"] = {"k": 2, "a": {"E1": 2, "E2": 2}}
        with pytest.raises(SchemaError, match="cover"):
            graph_from_obj(obj)
        obj["gorenstein"] = {"k": 2, "a": {"E1": 2, "E2": 2, "E3": 2, "E9": 0}}
        with pytest.raises(UnknownId):
            graph_from_obj(obj)
        obj["gorenstein"] = {"k": 0, "a": {"E1": 2, "E2": 2, "E3": 2}}
        with pytest.raises(SchemaError, match="positive"):
            graph_from_obj(obj)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_graph("{not json")

    def test_serialization_is_canonical(self):
        g = graph_from_obj(chain_obj())
        obj = graph_to_obj(g)
        assert obj["closed_world"] is False
        assert "gorenstein" not in obj
        assert obj["components"][0]["genus"] == 0
        assert obj["components"][0]["smooth_singularities"] == []
        assert json.loads(serialize_graph(g)) == obj


def on_first_component(g, *sings):
    """`g` with `sings` as the first component's smooth singularities."""
    first = dataclasses.replace(g.components[0], smooth_singularities=sings)
    return dataclasses.replace(g, components=(first,) + g.components[1:])


def q(value):
    return QQ.from_rational(Fraction(value))


def sing_obj(sid, kind, cs, **extra):
    return {"id": sid, "kind": kind, "cs": None if cs is None else [cs], **extra}


# One fault each: how to put it into the chain document, how to build it by
# hand from the parsed chain, and the message both must raise.
HAND_BUILT_FAULTS = {
    "partial_gorenstein_a": (
        lambda obj: obj.update(gorenstein={"k": 2, "a": {"E1": 2, "E2": 2}}),
        lambda g: dataclasses.replace(
            g, gorenstein=GorensteinData(2, (("E1", 2), ("E2", 2)))),
        SchemaError, "gorenstein.a must cover component 'E3'",
    ),
    "gorenstein_a_unknown_id": (
        lambda obj: obj.update(gorenstein={"k": 1, "a": {
            "E1": 1, "E9": 1, "E2": 1, "E3": 1}}),
        lambda g: dataclasses.replace(g, gorenstein=GorensteinData(
            1, (("E1", 1), ("E9", 1), ("E2", 1), ("E3", 1)))),
        UnknownId, "gorenstein.a: unknown component id 'E9'",
    ),
    "gorenstein_a_not_an_integer": (
        lambda obj: obj.update(gorenstein={"k": 1, "a": {
            "E1": 1, "E2": 1.5, "E3": 1}}),
        lambda g: dataclasses.replace(g, gorenstein=GorensteinData(
            1, (("E1", 1), ("E2", 1.5), ("E3", 1)))),
        SchemaError, "gorenstein.a['E2'] must be an integer",
    ),
    "zero_gorenstein_k": (
        lambda obj: obj.update(gorenstein={"k": 0, "a": {
            "E1": 0, "E2": 0, "E3": 0}}),
        lambda g: dataclasses.replace(g, gorenstein=GorensteinData(
            0, (("E1", 0), ("E2", 0), ("E3", 0)))),
        SchemaError, "gorenstein.k must be a positive integer",
    ),
    "misspelt_crossing_kind": (
        lambda obj: obj["crossings"][0].update(kind="nondegenrate"),
        lambda g: dataclasses.replace(g, crossings=(
            dataclasses.replace(g.crossings[0], kind="nondegenrate"),
            g.crossings[1])),
        SchemaError, "crossings[0]: unknown kind 'nondegenrate'",
    ),
    "weak_not_an_endpoint": (
        lambda obj: obj["crossings"].__setitem__(0, sn("E1", "E2", weak="E3")),
        lambda g: dataclasses.replace(g, crossings=(
            Crossing("E1", "E2", SADDLE_NODE, weak="E3"), g.crossings[1])),
        SchemaError, "crossings[0]: weak must name one of the two endpoints",
    ),
    "self_crossing": (
        lambda obj: obj["crossings"].append(nondeg("E2", "E2", "-1")),
        lambda g: dataclasses.replace(g, crossings=g.crossings + (
            Crossing("E2", "E2", NONDEGENERATE, cs_tail=q(-1)),)),
        SelfLoop, "crossings[2]: component 'E2' crosses itself; self-crossings "
        "are not representable here, blow up the crossing point first and "
        "re-enter the resulting configuration",
    ),
    "zero_cs_tail": (
        lambda obj: obj["crossings"].__setitem__(1, nondeg("E2", "E3", "0")),
        lambda g: dataclasses.replace(g, crossings=(
            g.crossings[0], Crossing("E2", "E3", NONDEGENERATE, cs_tail=q(0)))),
        SchemaError, "crossings[1]: a nondegenerate crossing needs a nonzero cs_tail",
    ),
    "self_intersection_a_string": (
        lambda obj: obj["components"][1].update(self_intersection="-2"),
        lambda g: dataclasses.replace(g, components=(
            g.components[0], dataclasses.replace(g.components[1], self_intersection="-2"),
            g.components[2])),
        SchemaError, "components[1].self_intersection must be an integer",
    ),
    "self_intersection_a_float": (
        lambda obj: obj["components"][1].update(self_intersection=-2.0),
        lambda g: dataclasses.replace(g, components=(
            g.components[0], dataclasses.replace(g.components[1], self_intersection=-2.0),
            g.components[2])),
        SchemaError, "components[1].self_intersection must be an integer",
    ),
    "self_intersection_a_boolean": (
        lambda obj: obj["components"][0].update(self_intersection=True),
        lambda g: dataclasses.replace(g, components=(
            dataclasses.replace(g.components[0], self_intersection=True),)
            + g.components[1:]),
        SchemaError, "components[0].self_intersection must be an integer",
    ),
    "negative_genus": (
        lambda obj: obj["components"][2].update(genus=-1),
        lambda g: dataclasses.replace(g, components=g.components[:2] + (
            dataclasses.replace(g.components[2], genus=-1),)),
        SchemaError, "components[2].genus must be a non-negative integer",
    ),
    "genus_a_boolean": (
        lambda obj: obj["components"][2].update(genus=False),
        lambda g: dataclasses.replace(g, components=g.components[:2] + (
            dataclasses.replace(g.components[2], genus=False),)),
        SchemaError, "components[2].genus must be a non-negative integer",
    ),
    "duplicate_component_id": (
        lambda obj: obj["components"][2].update(id="E1"),
        lambda g: dataclasses.replace(g, components=g.components[:2] + (
            dataclasses.replace(g.components[2], id="E1"),)),
        SchemaError, "components[2]: duplicate id 'E1'",
    ),
    "singularity_id_of_a_component": (
        lambda obj: obj["components"][0].update(smooth_singularities=[
            sing_obj("E2", NONDEGENERATE, "-1")]),
        lambda g: on_first_component(
            g, SmoothSingularity("E2", NONDEGENERATE, q(-1), True)),
        SchemaError, "components[1]: duplicate id 'E2'",
    ),
    "repeated_singularity_id": (
        lambda obj: obj["components"][0].update(smooth_singularities=[
            sing_obj("s", NONDEGENERATE, "-1"), sing_obj("s", NONDEGENERATE, "-1")]),
        lambda g: on_first_component(
            g, *[SmoothSingularity("s", NONDEGENERATE, q(-1), True)] * 2),
        SchemaError, "components[0].smooth_singularities[1]: duplicate id 's'",
    ),
    "nondegenerate_singularity_index_0": (
        lambda obj: obj["components"][0].update(smooth_singularities=[
            sing_obj("s", NONDEGENERATE, "0")]),
        lambda g: on_first_component(
            g, SmoothSingularity("s", NONDEGENERATE, q(0), True)),
        SchemaError, "components[0].smooth_singularities[0]: a nondegenerate "
        "singularity needs a nonzero cs",
    ),
    "misspelt_singularity_kind": (
        lambda obj: obj["components"][0].update(smooth_singularities=[
            sing_obj("s", "saddle_node_weka", "-1")]),
        lambda g: on_first_component(
            g, SmoothSingularity("s", "saddle_node_weka", q(-1), True)),
        SchemaError, "components[0].smooth_singularities[0]: unknown kind "
        "'saddle_node_weka'",
    ),
    "strong_side_index_not_0": (
        lambda obj: obj["components"][0].update(smooth_singularities=[
            sing_obj("s", SN_STRONG_ON_CURVE, "1")]),
        lambda g: on_first_component(
            g, SmoothSingularity("s", SN_STRONG_ON_CURVE, q(1), False)),
        SchemaError, "components[0].smooth_singularities[0]: the strong side of "
        "a saddle-node has index 0",
    ),
    "nondegenerate_without_separatrix": (
        lambda obj: obj["components"][0].update(smooth_singularities=[
            sing_obj("s", NONDEGENERATE, "-1", separatrix=False)]),
        lambda g: on_first_component(
            g, SmoothSingularity("s", NONDEGENERATE, q(-1), False)),
        SchemaError, "components[0].smooth_singularities[0]: a nondegenerate "
        "singularity always carries a transverse separatrix",
    ),
}


class TestHandBuiltGraphs:
    """A graph built by hand is checked like a parsed one."""

    @pytest.mark.parametrize("fault", list(HAND_BUILT_FAULTS))
    def test_same_error_as_the_parser(self, fault):
        put, build, error, message = HAND_BUILT_FAULTS[fault]
        obj = chain_obj()
        put(obj)
        with pytest.raises(error) as parsed:
            graph_from_obj(obj)
        with pytest.raises(error) as built:
            build(graph_from_obj(chain_obj()))
        assert str(parsed.value) == str(built.value) == message

    def test_crossing_stored_head_first_is_flipped(self):
        g = graph_from_obj(chain_obj())
        built = dataclasses.replace(g, crossings=(
            Crossing("E2", "E1", NONDEGENERATE, cs_tail=q(-4)),
            Crossing("E3", "E2", SADDLE_NODE, weak="E3", cs_weak=q(-2))))
        obj = chain_obj()
        obj["crossings"] = [nondeg("E2", "E1", "-4"),
                            sn("E3", "E2", weak="E3", cs_weak="-2")]
        assert built == graph_from_obj(obj)
        assert [(c.tail, c.head) for c in built.crossings] == [
            ("E1", "E2"), ("E2", "E3")]
        assert built.crossings[0].cs_tail == q(Fraction(-1, 4))
        assert built.crossings[0].cs_head == q(-4)

    def test_gorenstein_a_kept_in_component_order(self):
        g = graph_from_obj(chain_obj())
        built = dataclasses.replace(g, gorenstein=GorensteinData(
            2, (("E3", 3), ("E1", 1), ("E2", 2))))
        assert built.gorenstein.a == (("E1", 1), ("E2", 2), ("E3", 3))
        obj = chain_obj()
        obj["gorenstein"] = {"k": 2, "a": {"E3": 3, "E1": 1, "E2": 2}}
        assert graph_from_obj(obj) == built
        with pytest.raises(SchemaError) as exc:
            dataclasses.replace(g, gorenstein=GorensteinData(
                2, (("E1", 1), ("E2", 2), ("E1", 1), ("E3", 3))))
        assert str(exc.value) == "gorenstein.a: duplicate id 'E1'"

    @pytest.mark.parametrize("position, stray, unknown", [
        (0, {"weak": "E1"}, "['weak']"),
        (0, {"cs_weak": ["-1"]}, "['cs_weak']"),
        (0, {"weak": "E2", "cs_weak": ["-1"]}, "['cs_weak', 'weak']"),
        (1, {"cs_tail": ["-1"]}, "['cs_tail']"),
    ], ids=["weak", "cs_weak", "weak_and_cs_weak", "saddle_node_cs_tail"])
    def test_the_other_kinds_fields_are_refused(self, position, stray, unknown):
        obj = chain_obj()
        obj["crossings"][1] = sn("E2", "E3", weak="E3", cs_weak="-2")
        g = graph_from_obj(obj)

        def with_fields(**fields):
            crossings = list(g.crossings)
            crossings[position] = dataclasses.replace(crossings[position], **fields)
            return dataclasses.replace(g, crossings=tuple(crossings))

        with pytest.raises(SchemaError) as built:
            with_fields(**{key: value if key == "weak" else QQ.parse_element(value)
                           for key, value in stray.items()})
        obj["crossings"][position].update(stray)
        with pytest.raises(SchemaError) as parsed:
            graph_from_obj(obj)
        assert str(built.value) == str(parsed.value) == (
            f"crossings[{position}]: unknown keys {unknown}")
        # A field set to None is absent, so the graph round-trips.
        absent = with_fields(**dict.fromkeys(stray))
        assert absent == g and parse_graph(serialize_graph(absent)) == g

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), 1, "1/2", QQ.from_rational(Fraction(1, 2)),
    ], ids=["fraction", "int", "str", "element_of_Q"])
    @pytest.mark.parametrize("position", ["cs_tail", "cs_weak", "cs"])
    def test_index_outside_the_graph_field(self, position, value):
        g = make_camacho_cycle()[0]  # over a quadratic field
        assert g.field.degree == 2
        c = g.crossings[0]
        if position == "cs":
            where = "components[0].smooth_singularities[0]"
            e1 = dataclasses.replace(g.components[0], smooth_singularities=(
                SmoothSingularity("s", NONDEGENERATE, value, True),))
            build = lambda: dataclasses.replace(
                g, components=(e1,) + g.components[1:])
        else:
            where = "crossings[0]"
            bad = (dataclasses.replace(c, cs_tail=value) if position == "cs_tail"
                   else Crossing(c.tail, c.head, SADDLE_NODE, weak=c.tail,
                                 cs_weak=value))
            build = lambda: dataclasses.replace(
                g, crossings=(bad,) + g.crossings[1:])
        with pytest.raises(SchemaError) as exc:
            build()
        assert str(exc.value) == (
            f"{where}: {position} must be an element of the graph's field")

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_every_graph_round_trips(self, seed):
        for g in relabelings(seed):
            assert parse_graph(serialize_graph(g)) == g


# A document that uses every schema position once: optional keys, both
# crossing kinds, a singularity and Gorenstein data.
FULL_DOCUMENT = {
    "field": Q_FIELD,
    "components": [
        {"id": "E1", "self_intersection": -2, "genus": 0,
         "smooth_singularities": [
             {"id": "s", "kind": NONDEGENERATE, "cs": ["-1"], "separatrix": True},
         ]},
        comp("E2", -2),
        comp("E3", -2),
    ],
    "crossings": [nondeg("E1", "E2", "-1"), sn("E2", "E3", weak="E3", cs_weak="-1")],
    "gorenstein": {"k": 2, "a": {"E1": 1, "E2": 1, "E3": 1}},
    "closed_world": False,
}


def schema_positions(value, path=()):
    """Paths to every value in a decoded JSON document, the root first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from schema_positions(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


class TestSchemaFuzz:
    def test_full_document_parses(self):
        g = graph_from_obj(FULL_DOCUMENT)
        assert g.gorenstein.k == 2
        assert len(list(schema_positions(FULL_DOCUMENT))) > 40

    @pytest.mark.parametrize(
        "path", list(schema_positions(FULL_DOCUMENT)),
        ids=lambda path: "/".join(map(str, path)) or "root",
    )
    @settings(max_examples=20, deadline=None)
    @given(value=JSON_VALUES)
    def test_any_value_at_any_position(self, path, value):
        obj = copy.deepcopy(FULL_DOCUMENT)
        if not path:
            obj = value
        else:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        try:
            graph_from_obj(obj)
        except SepkitError:
            pass


# A document that breaks or warns about every validation rule: the
# closed-world flag, both kinds of vertex-sum finding, a non-reduced
# crossing index, both kinds of singularity warning, and the degrees.
EVERY_RULE_DOCUMENT = {
    "field": Q_FIELD,
    "closed_world": True,
    "components": [
        comp("E1", -1, [sing_obj("p1", NONDEGENERATE, "2"),
                        sing_obj("p2", SN_WEAK_ON_CURVE, None, separatrix=False)]),
        comp("E2", -3),
        comp("E3", -2, [sing_obj("p3", NONDEGENERATE, "1/2")]),
    ],
    "crossings": [nondeg("E1", "E2", "1"), sn("E2", "E3", weak="E3")],
}

# (severity, code, component, message) of its findings, in order.
EVERY_RULE_FINDINGS = [
    ("error", "closed-world-contradiction", "E1",
     "closed_world is set but component E1 declares smooth-point singularities"),
    ("error", "closed-world-contradiction", "E3",
     "closed_world is set but component E3 declares smooth-point singularities"),
    ("warning", "vertex-sum-unverified", "E1",
     "E1: 1 unknown weak index(es); the known indices sum to 3, so the "
     "unknown ones must add up to -4"),
    ("error", "vertex-sum-mismatch", "E2",
     "E2: indices sum to 1, but the self-intersection is -3"),
    ("warning", "vertex-sum-unverified", "E3",
     "E3: 1 unknown weak index(es); the known indices sum to 1/2, so the "
     "unknown ones must add up to -5/2"),
    ("warning", "non-reduced-index", "E1",
     "crossing 0 (E1-E2) has index 1, a positive rational; the singularity "
     "is not reduced"),
    ("warning", "non-reduced-index", "E1",
     "singularity p1 has index 2, a positive rational; the singularity is "
     "not reduced"),
    ("warning", "missing-strong-separatrix", "E1",
     "singularity p2 puts the weak separatrix on E1 but declares no "
     "transverse separatrix; the strong separatrix of a saddle-node always "
     "exists"),
    ("warning", "non-reduced-index", "E3",
     "singularity p3 has index 1/2, a positive rational; the singularity is "
     "not reduced"),
    ("info", "component-degree", "E1",
     "E1: 3 singular point(s); implied normal bundle degree 2"),
    ("info", "component-degree", "E2",
     "E2: 2 singular point(s); implied normal bundle degree -1"),
    ("info", "component-degree", "E3",
     "E3: 2 singular point(s); implied normal bundle degree 0"),
]


class TestValidation:
    def test_every_rule_in_order(self):
        findings = validate_indices(graph_from_obj(EVERY_RULE_DOCUMENT))
        assert [(f.severity, f.code, f.component, f.message)
                for f in findings] == EVERY_RULE_FINDINGS

    def test_clean_chain_has_only_info(self):
        obj = chain_obj()
        obj["components"][0]["self_intersection"] = -1
        obj["components"][1]["self_intersection"] = -2
        obj["components"][2]["self_intersection"] = -1
        g = graph_from_obj(obj)
        findings = validate_indices(g)
        assert not has_errors(findings)
        assert {f.code for f in findings} == {"component-degree"}

    def test_vertex_sum_mismatch_is_error(self):
        obj = {
            "field": Q_FIELD,
            "components": [comp("E1", -2, [
                {"id": "s", "kind": NONDEGENERATE, "cs": ["-1"]}
            ])],
            "crossings": [],
        }
        findings = validate_indices(graph_from_obj(obj))
        codes = [f.code for f in findings]
        assert "vertex-sum-mismatch" in codes
        assert has_errors(findings)

    def test_unknown_weak_index_degrades_to_warning(self):
        obj = chain_obj()
        obj["components"][0]["self_intersection"] = -1
        # E3 sits on the strong side of the saddle-node, index 0
        obj["components"][2]["self_intersection"] = 0
        obj["crossings"][1] = sn("E2", "E3", weak="E2")
        g = graph_from_obj(obj)
        findings = validate_indices(g)
        assert not has_errors(findings)
        warning = next(f for f in findings if f.code == "vertex-sum-unverified")
        assert warning.component == "E2"
        assert "must add up to -1" in warning.message

    def test_unknown_weak_smooth_index_degrades_to_warning(self):
        obj = {
            "field": Q_FIELD,
            "components": [comp("E1", -2, [
                {"id": "s", "kind": NONDEGENERATE, "cs": ["-1"]},
                {"id": "w", "kind": SN_WEAK_ON_CURVE, "cs": None},
            ])],
            "crossings": [],
        }
        findings = validate_indices(graph_from_obj(obj))
        assert not has_errors(findings)
        warning = next(f for f in findings if f.code == "vertex-sum-unverified")
        assert warning.component == "E1"
        assert "1 unknown weak index(es)" in warning.message
        assert "must add up to -1" in warning.message

    def test_closed_world_contradiction(self):
        obj = {
            "field": Q_FIELD,
            "components": [comp("E1", -1, [
                {"id": "s", "kind": NONDEGENERATE, "cs": ["-1"]}
            ])],
            "crossings": [],
            "closed_world": True,
        }
        findings = validate_indices(graph_from_obj(obj))
        assert any(f.code == "closed-world-contradiction" for f in findings)
        assert has_errors(findings)

    def test_positive_rational_index_warns_non_reduced(self):
        g = make_p2_cycle(2)
        findings = validate_indices(g)
        warnings = [f for f in findings if f.code == "non-reduced-index"]
        assert {w.component for w in warnings} == {"C1", "C2"}
        assert not has_errors(findings)

    def test_irrational_index_never_warns(self):
        g, _ = make_camacho_cycle()
        findings = validate_indices(g)
        assert {f.code for f in findings} == {"component-degree"}

    def test_missing_strong_separatrix_warning(self):
        obj = {
            "field": Q_FIELD,
            "components": [comp("E1", -1, [
                {"id": "s", "kind": SN_WEAK_ON_CURVE, "cs": ["-1"],
                 "separatrix": False}
            ])],
            "crossings": [],
        }
        findings = validate_indices(graph_from_obj(obj))
        assert any(f.code == "missing-strong-separatrix" for f in findings)

    def test_component_degree_info(self):
        obj = chain_obj()
        g = graph_from_obj(obj)
        info = [f for f in findings_of(g, "component-degree")]
        assert len(info) == 3
        assert "implied normal bundle degree" in info[0].message


@st.composite
def balanced_kernel_graphs(draw):
    """A random connected graph over a kernel field whose vertex sums the
    fixtures' pad singularities balance."""
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    n = draw(st.integers(1, 6))
    names = [f"E{i}" for i in range(1, n + 1)]
    nonzero = elements(field).filter(lambda e: not e.is_zero)
    crossings = []
    for i in range(2, n + 1):
        tail, head = f"E{draw(st.integers(1, i - 1))}", f"E{i}"
        if draw(st.booleans()):
            crossings.append(Crossing(tail, head, NONDEGENERATE, cs_tail=draw(nonzero)))
        else:
            crossings.append(Crossing(tail, head, SADDLE_NODE, weak=draw(
                st.sampled_from([tail, head])), cs_weak=draw(elements(field))))
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        a, b = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                    unique=True)))
        crossings.append(Crossing(f"E{a}", f"E{b}", NONDEGENERATE, cs_tail=draw(nonzero)))
    self_ints = draw(st.lists(st.integers(-6, 2), min_size=n, max_size=n))
    return _assemble(field, names, self_ints, crossings,
                     _vertex_sums(field, names, crossings))


VERTEX_SUM_GRAPHS = st.one_of(
    balanced_kernel_graphs(),
    st.builds(make_random_graph, st.integers(0, 10 ** 6), st.integers(2, 9),
              st.integers(0, 3), st.sampled_from([0.0, 0.5])),
    st.builds(make_quadratic_chain, st.integers(0, 10 ** 6), st.integers(1, 6)),
)


def oracle_vertex_findings(g) -> list[tuple[str, str, str]]:
    """(code, component, message) of the vertex-sum and component-degree
    findings, from the Fraction vertex sums of the oracle."""
    sums, field = vertex_sum_oracle(g), g.field
    vertex, degrees = [], []
    for comp in g.components:
        total, unknown, points = sums[comp.id]
        si = comp.self_intersection
        target = (Fraction(si),) + (Fraction(0),) * (field.degree - 1)
        if unknown:
            rest = field.element([t - x for t, x in zip(target, total)])
            vertex.append(("vertex-sum-unverified", comp.id,
                           f"{comp.id}: {unknown} unknown weak index(es); the known "
                           f"indices sum to {field.element(total)}, so the unknown "
                           f"ones must add up to {rest}"))
        elif total != target:
            vertex.append(("vertex-sum-mismatch", comp.id,
                           f"{comp.id}: indices sum to {field.element(total)}, but "
                           f"the self-intersection is {si}"))
        degrees.append(("component-degree", comp.id,
                        f"{comp.id}: {points} singular point(s); implied normal "
                        f"bundle degree {si + points}"))
    return vertex + degrees


class TestVertexSumReferee:
    """validate_indices adds integer numerators over one denominator; the
    oracle adds Fractions one index at a time and inverts by Euclid."""

    @staticmethod
    def vertex_findings(g):
        return [(f.code, f.component, f.message) for f in validate_indices(g)
                if f.code.startswith("vertex-sum") or f.code == "component-degree"]

    @settings(max_examples=120, deadline=None)
    @given(VERTEX_SUM_GRAPHS, st.data())
    def test_one_fault_gives_the_oracles_findings(self, g, data):
        assert self.vertex_findings(g) == oracle_vertex_findings(g)
        assert not any(code.startswith("vertex-sum")
                       for code, _, _ in oracle_vertex_findings(g))
        p = data.draw(st.integers(0, len(g.components) - 1))
        comp = g.components[p]
        fault = data.draw(st.sampled_from(
            ["self_intersection", "unknown"] + ["irrational"] * (g.field.degree > 1)))
        if fault == "self_intersection":
            comp = dataclasses.replace(comp, self_intersection=comp.self_intersection
                                       + data.draw(st.sampled_from([-1, 1])))
        else:  # an unknown weak index, or one whose rational part is 0
            extra = (SmoothSingularity(f"{comp.id}:unknown", SN_WEAK_ON_CURVE, None, True)
                     if fault == "unknown" else SmoothSingularity(
                         f"{comp.id}:a", NONDEGENERATE, g.field.alpha(), True))
            comp = dataclasses.replace(comp, smooth_singularities=(
                comp.smooth_singularities + (extra,)))
        faulty = dataclasses.replace(
            g, components=g.components[:p] + (comp,) + g.components[p + 1:])
        expected = oracle_vertex_findings(faulty)
        assert [cid for code, cid, _ in expected if code.startswith("vertex-sum")] == [
            comp.id]  # the oracle sees the one fault
        assert self.vertex_findings(faulty) == expected

    @settings(max_examples=60, deadline=None)
    @given(VERTEX_SUM_GRAPHS)
    def test_each_side_is_its_index_in_lowest_terms(self, g):
        """Over Q the head side is read off cs_tail as den/num, with no
        inverse built; its sign must still sit on the numerator."""
        expected = {comp.id: [] for comp in g.components}
        for c in g.crossings:
            for side in (c.tail, c.head):
                v = c.cs_on(side, g.field)
                expected[side].append(None if v is None else (v.nums, v.den))
        assert _vertex_sums(g.field, list(expected), g.crossings) == expected


def findings_of(g, code):
    return [f for f in validate_indices(g) if f.code == code]


class TestInducedSubcurve:
    def test_cut_crossing_becomes_attachment(self):
        g = graph_from_obj(chain_obj())
        sub = induced_subcurve(g, ["E1", "E2"])
        assert [c.id for c in sub.components] == ["E1", "E2"]
        assert len(sub.crossings) == 1
        attachment = sub.components[1].smooth_singularities[0]
        assert attachment.id == f"{CUT_PREFIX}1"
        assert attachment.kind == NONDEGENERATE
        # the kept side of crossing E2-E3 carries the reciprocal index
        assert attachment.cs.rational_value() == -1
        assert attachment.has_transverse_separatrix

    def test_saddle_node_cut_strong_side_kept(self):
        obj = chain_obj()
        obj["crossings"][1] = sn("E2", "E3", weak="E3", cs_weak="-2")
        g = graph_from_obj(obj)
        sub = induced_subcurve(g, ["E1", "E2"])
        attachment = sub.components[1].smooth_singularities[0]
        assert attachment.kind == SN_STRONG_ON_CURVE
        assert attachment.cs.is_zero

    def test_saddle_node_cut_weak_side_kept(self):
        obj = chain_obj()
        obj["crossings"][0] = sn("E1", "E2", weak="E2", cs_weak="-2")
        g = graph_from_obj(obj)
        sub = induced_subcurve(g, ["E2", "E3"])
        attachment = sub.components[0].smooth_singularities[0]
        assert attachment.kind == SN_WEAK_ON_CURVE
        assert attachment.cs.rational_value() == -2

    def test_closed_world_survives_only_without_cuts(self):
        g, _ = make_camacho_cycle()
        assert induced_subcurve(g, ["E1", "E2", "E3"]).closed_world
        assert not induced_subcurve(g, ["E1", "E2"]).closed_world

    def test_gorenstein_filtered_to_kept(self):
        obj = chain_obj()
        obj["gorenstein"] = {"k": 2, "a": {"E1": 1, "E2": 2, "E3": 3}}
        sub = induced_subcurve(graph_from_obj(obj), ["E1", "E2"])
        assert sub.gorenstein.a == (("E1", 1), ("E2", 2))

    def test_selection_errors(self):
        g = graph_from_obj(chain_obj())
        with pytest.raises(EmptySelection):
            induced_subcurve(g, [])
        with pytest.raises(UnknownId):
            induced_subcurve(g, ["E1", "E9"])
        with pytest.raises(DisconnectedSelection):
            induced_subcurve(g, ["E1", "E3"])

    def test_duplicate_selection_ids_are_merged(self):
        g = graph_from_obj(chain_obj())
        sub = induced_subcurve(g, ["E1", "E2", "E1"])
        assert [c.id for c in sub.components] == ["E1", "E2"]


def incidence_by_scan(g):
    """Per position, (crossing index, position of the other end) for every
    crossing that touches the component there, by a scan of all crossings."""
    ids = [c.id for c in g.components]
    return tuple(
        tuple((k, ids.index(c.other(cid)))
              for k, c in enumerate(g.crossings) if cid in (c.tail, c.head))
        for cid in ids
    )


def reachable_by_scan(g, crossings):
    """Ids joined to the first component by `crossings`, by repeated scans."""
    reached = {g.components[0].id}
    grown = True
    while grown:
        grown = False
        for c in crossings:
            if (c.tail in reached) != (c.head in reached):
                reached |= {c.tail, c.head}
                grown = True
    return reached


def relabelings(seed):
    """A random graph, and the same graph with its components reordered, and
    with its components and crossings reordered."""
    rng = random.Random(seed)
    g = make_random_graph(seed, n=2 + seed % 12, extra_crossings=seed % 5,
                          saddle_node_probability=0.3)
    crossings = list(g.crossings)
    rng.shuffle(crossings)
    moved = dataclasses.replace(g, crossings=tuple(crossings))
    return [g, shuffled_components(g, rng),
            shuffled_components(moved, rng)]


class TestIncidence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_each_crossing_once_at_each_end_in_input_order(self, seed):
        for g in relabelings(seed):
            assert g.index == {c.id: p for p, c in enumerate(g.components)}
            assert g.incidence == incidence_by_scan(g)
            assert sum(map(len, g.incidence)) == 2 * len(g.crossings)
            ids = [c.id for c in g.components]
            parents = spanning_parents(g)
            assert [(ids[w], k, ids[v]) for w, k, v in g.spanning_tree] == [
                (w, *up) for w, up in parents.items() if up is not None]
            top = {}  # parents come before their children
            for w, up in parents.items():
                cut = up is None or g.crossings[up[0]].kind == SADDLE_NODE
                top[w] = w if cut else top[up[1]]
            assert [ids[p] for p in g.pieces] == [top[cid] for cid in ids]

    def test_replace_rebuilds_the_incidence(self):
        g = make_random_graph(3, n=6, extra_crossings=2)
        for moved in (dataclasses.replace(g, crossings=g.crossings[::-1]),
                      dataclasses.replace(g, components=g.components[::-1])):
            assert moved.incidence != g.incidence
            assert moved.incidence == incidence_by_scan(moved)
            assert moved.index == {c.id: p for p, c in enumerate(moved.components)}

    def test_structure_is_not_a_field(self):
        g = make_random_graph(5, n=5, extra_crossings=1)
        assert [f.name for f in dataclasses.fields(DualGraph)] == [
            "field", "components", "crossings", "gorenstein", "closed_world"]
        same = dataclasses.replace(g)
        assert same == g and hash(same) == hash(g)
        assert same.incidence == g.incidence
        assert same.spanning_tree == g.spanning_tree
        assert same.pieces == g.pieces
        assert "incidence" not in repr(g) and "index" not in repr(g)
        assert "spanning_tree" not in repr(g) and "pieces" not in repr(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_disconnected_message_names_every_unreachable_id(self, seed):
        for g in relabelings(seed):
            k = random.Random(seed).randrange(len(g.crossings))
            kept = g.crossings[:k] + g.crossings[k + 1:]
            reached = reachable_by_scan(g, kept)
            missing = [c.id for c in g.components if c.id not in reached]
            if not missing:  # the crossing was on a cycle
                dataclasses.replace(g, crossings=kept)
                continue
            with pytest.raises(Disconnected) as exc:
                dataclasses.replace(g, crossings=kept)
            assert str(exc.value) == (
                "dual graph is not connected; unreachable from "
                f"{g.components[0].id!r}: {missing}")
