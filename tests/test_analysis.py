"""Each whole-graph fact is computed at most once per verdict or analyze.

The layer functions are replaced by counting wrappers everywhere a sepkit
module refers to them (the defining module and every by-name import), so
a recomputation is seen wherever it happens.
"""

import dataclasses
import inspect
import json
import sys
from collections import Counter

import pytest

from sepkit import dualgraph, exactfield, holonomy, intersection
from sepkit.dualgraph import (
    NONDEGENERATE,
    GorensteinData,
    graph_to_obj,
    parse_graph,
    serialize_graph,
)
from sepkit.exactfield import FieldElement
from sepkit.fixtures import (
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)
from sepkit.report import analyze
from sepkit.verdict import run_check, run_subcurve_check, subcurve_criterion, verdict

COUNTED = {
    "definiteness": intersection.definiteness,
    "intersection_matrix": intersection.intersection_matrix,
    "cycle_basis": holonomy.cycle_basis,
    "representation_class": holonomy.representation_class,
    "induced_subcurve": dualgraph.induced_subcurve,
}
# Computed by every verdict, analyze and subcurve criterion on a cyclic graph.
ALWAYS = ("definiteness", "intersection_matrix", "cycle_basis", "representation_class")


def _count_calls(monkeypatch, functions):
    """Wrap each function of `functions` (name -> function) wherever a sepkit
    module refers to it; the counts by name."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {fn: counting(name, fn) for name, fn in functions.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name == "sepkit" or module_name.startswith("sepkit."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[value])
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _count_calls(monkeypatch, COUNTED)


def _cyclic_graphs():
    camacho = make_camacho_cycle()[0]
    gorenstein = GorensteinData(2, tuple((c.id, 2) for c in camacho.components))
    graphs = {
        "camacho": camacho,
        "camacho_gorenstein": dataclasses.replace(camacho, gorenstein=gorenstein),
        "torsion4": make_torsion4(),
        "p2_cycle": make_p2_cycle(2),
    }
    for seed in range(4):
        graphs[f"random_graph_{seed}"] = make_random_graph(seed, 12, 2)
        graphs[f"random_graph_sn_{seed}"] = make_random_graph(seed, 10, 2, 0.3)
    return graphs


GRAPHS = _cyclic_graphs()


def _assert_once(counts, extra=()):
    for name in COUNTED:
        expected = 1 if name in ALWAYS + tuple(extra) else 0
        assert counts[name] == expected, (name, dict(counts))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_verdict_computes_each_fact_once(calls, name):
    verdict(GRAPHS[name])
    _assert_once(calls)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_analyze_computes_each_fact_once(calls, name):
    analyze(GRAPHS[name])
    _assert_once(calls)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_subcurve_criterion_computes_each_fact_once(calls, name):
    g = GRAPHS[name]
    subcurve_criterion(g, [c.id for c in g.components[:3]])
    _assert_once(calls, extra=("induced_subcurve",))


TREES = {f"random_tree_{seed}": make_random_tree(seed, 5 + 4 * seed) for seed in range(4)}


@pytest.mark.parametrize("name", sorted(TREES))
def test_verdict_on_a_tree_builds_no_cycle_basis(calls, name):
    verdict(TREES[name])
    assert dict(calls) == {}


@pytest.mark.parametrize("name", sorted(TREES))
def test_analyze_on_a_tree_computes_each_fact_once(calls, name):
    analyze(TREES[name])
    _assert_once(calls)


def test_run_check_recomputes_on_every_call(calls):
    g = GRAPHS["camacho"]
    first = run_check(g, "matrix_negative_definite")
    second = run_check(g, "matrix_negative_definite")
    assert first == second
    assert calls["definiteness"] == 2
    assert calls["intersection_matrix"] == 2

    run_check(g, "representation_infinite")
    run_check(g, "representation_infinite")
    assert calls["representation_class"] == 2


def test_power_check_reads_the_orders_of_the_representation(monkeypatch):
    counts = _count_calls(monkeypatch, {"order": exactfield.is_root_of_unity})
    g = GRAPHS["camacho_gorenstein"]  # k = a_i = 2
    cert = verdict(g)
    checked = [h.status for h in cert.hypotheses
               if h.name == "gorenstein_reduction.gorenstein_holonomy_power_trivial"]
    assert checked == ["failed"]
    assert counts["order"] == g.cycle_rank == 1


def test_run_subcurve_check_recomputes_on_every_call(calls):
    g = GRAPHS["torsion4"]
    for _ in range(2):
        run_subcurve_check(g, ["E1", "E2"], "induced_representation_trivial")
    assert calls["induced_subcurve"] == 2
    assert calls["representation_class"] == 2


# Inputs for the head-side index count: each serialized as stored, and with
# every nondegenerate crossing written the other way round (head first,
# carrying the head-side index), which parsing turns back.
INVERSE_GRAPHS = {
    "camacho": make_camacho_cycle()[0],
    "torsion4": make_torsion4(),
    "quadratic_chain": make_quadratic_chain(2, 6),
    "random_graph_1": make_random_graph(1, 12, 3),
    "random_graph_5": make_random_graph(5, 15, 4),
}


def _reversed_text(g):
    obj = graph_to_obj(g)
    for raw, crossing in zip(obj["crossings"], g.crossings):
        if crossing.kind == NONDEGENERATE:
            raw["tail"], raw["head"] = crossing.head, crossing.tail
            raw["cs_tail"] = crossing.cs_head.to_json()
    return json.dumps(obj)


@pytest.fixture
def inverses(monkeypatch):
    counts = Counter()
    original = FieldElement.inverse

    def counting(self):
        counts["inverse"] += 1
        return original(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    return counts


@pytest.mark.parametrize("run", [verdict, analyze], ids=["verdict", "analyze"])
@pytest.mark.parametrize("orientation", ["stored", "reversed"])
@pytest.mark.parametrize("name", sorted(INVERSE_GRAPHS))
def test_at_most_one_inverse_per_crossing(inverses, name, orientation, run):
    g = INVERSE_GRAPHS[name]
    text = serialize_graph(g) if orientation == "stored" else _reversed_text(g)
    inverses.clear()
    parsed = parse_graph(text)
    run(parsed)
    assert parsed == g
    nondegenerate = sum(c.kind == NONDEGENERATE for c in g.crossings)
    assert inverses["inverse"] <= nondegenerate, (inverses["inverse"], nondegenerate)
