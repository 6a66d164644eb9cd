import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit.cli import run_cli
from sepkit.dualgraph import (
    NONDEGENERATE,
    SADDLE_NODE,
    Component,
    Crossing,
    DualGraph,
    SmoothSingularity,
    _vertex_sums,
    parse_graph,
    serialize_graph,
)
from sepkit.exactfield import NumberField
from sepkit.fixtures import (
    _assemble,
    make_camacho_cycle,
    make_p2_cycle,
    make_quadratic_chain,
    make_random_graph,
    make_random_tree,
    make_torsion4,
)
from sepkit.report import analyze
from sepkit.verdict import (
    CERTIFIED_ABSENT,
    NOT_GUARANTEED,
    RULE_ABSENT,
    RULE_SUBCURVE,
    RULE_TORSION,
    SEPARATRIX_EXISTS,
    toma_prune,
)

from oracles import (
    crossings_head_first,
    gorenstein_reordered,
    ids_renamed,
    renaming_undone,
)
from test_dualgraph import EVERY_RULE_DOCUMENT, EVERY_RULE_FINDINGS
from test_verdict import UNBALANCED_SADDLE_NODE

QQ = NumberField((Fraction(0),))


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(serialize_graph(g) + "\n", encoding="utf-8")
    return str(path)


def camacho_path(tmp_path):
    return write_graph(tmp_path, make_camacho_cycle()[0])


def broken_graph_obj():
    obj = json.loads(serialize_graph(make_camacho_cycle()[0]))
    obj["components"][0]["self_intersection"] = -5
    return obj


def subcurve_demo_graph():
    q = QQ.from_rational
    comps = (
        Component("E1", -2, 0,
                  (SmoothSingularity("E1:pad", NONDEGENERATE, q(-1), True),)),
        Component("E2", -3, 0,
                  (SmoothSingularity("E2:pad", NONDEGENERATE, q(-2), True),)),
        Component("E3", -2, 0,
                  (SmoothSingularity("E3:pad", NONDEGENERATE, q(-1), True),)),
    )
    crossings = (
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=q(-1)),
        Crossing("E2", "E3", SADDLE_NODE, weak="E3", cs_weak=q(-1)),
    )
    return DualGraph(QQ, comps, crossings)


class TestExample:
    def test_writes_file_and_info(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        assert run_cli(["example", "camacho", "--output", out]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info == {
            "example": "camacho",
            "output": out,
            "constraint_polynomial": [5, 11, 5],
        }
        on_disk = (tmp_path / "c.json").read_text(encoding="utf-8")
        assert on_disk == serialize_graph(make_camacho_cycle()[0]) + "\n"

    def test_stdout_output_moves_info_to_stderr(self, capsys):
        assert run_cli(["example", "torsion4", "--output", "-"]) == 0
        captured = capsys.readouterr()
        graph = json.loads(captured.out)
        assert {c["id"] for c in graph["components"]} == {"E1", "E2", "E3"}
        assert json.loads(captured.err)["example"] == "torsion4"

    def test_text_info_renders_polynomial(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        rc = run_cli(["example", "camacho", "--output", out, "--format", "text"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote {out}"
        assert lines[1] == "constraint polynomial: 5t^2 + 11t + 5"

    def test_self_intersections_forwarded(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        rc = run_cli(["example", "camacho", "--output", out,
                      "--self-intersections=-2,-2,-2"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["constraint_polynomial"] == [1, 2, 1]

    def test_bad_self_intersections(self, tmp_path, capsys):
        rc = run_cli(["example", "camacho",
                      "--output", str(tmp_path / "c.json"),
                      "--self-intersections", "a,b,c"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_parameter_exit_code(self, tmp_path, capsys):
        rc = run_cli(["example", "p2_cycle", "--t", "0",
                      "--output", str(tmp_path / "p.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        monkeypatch.setenv("SEPKIT_SEED", "7")
        assert run_cli(["example", "random_tree", "--seed", "3",
                        "--output", str(a)]) == 0
        monkeypatch.delenv("SEPKIT_SEED")
        assert run_cli(["example", "random_tree", "--seed", "7",
                        "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_must_be_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SEPKIT_SEED", "soon")
        rc = run_cli(["example", "random_tree",
                      "--output", str(tmp_path / "t.json")])
        assert rc == 2
        assert "SEPKIT_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flags, unexpected", [
        ("camacho", ["--seed", "5", "--n", "9"], "['n', 'seed']"),
        ("camacho", ["--t", "3"], "['t']"),
        ("torsion4", ["--saddle-node-probability", "0.5"],
         "['saddle_node_probability']"),
        ("p2_cycle", ["--self-intersections=-2,-2,-2"], "['self_intersections']"),
    ])
    def test_flags_a_generator_does_not_take(self, tmp_path, capsys, name,
                                             flags, unexpected):
        out = tmp_path / "x.json"
        assert run_cli(["example", name, "--output", str(out), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: unexpected parameters for {name}: {unexpected}\n"
        )
        assert not out.exists()

    def test_seed_env_applies_to_random_tree_only(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("SEPKIT_SEED", "soon")
        out = tmp_path / "c.json"
        assert run_cli(["example", "camacho", "--output", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == (
            serialize_graph(make_camacho_cycle()[0]) + "\n"
        )

    def test_random_tree_defaults(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run_cli(["example", "random_tree", "--output", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == (
            serialize_graph(make_random_tree(0, 8, 0.3)) + "\n"
        )

    def test_unknown_example_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["example", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestValidate:
    def test_clean_graph(self, tmp_path, capsys):
        rc = run_cli(["validate", "--input", camacho_path(tmp_path)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["errors"] == 0
        assert all(f["severity"] != "error" for f in obj["findings"])

    def test_broken_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(broken_graph_obj()), encoding="utf-8")
        rc = run_cli(["validate", "--input", str(path)])
        assert rc == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["errors"] >= 1

    def test_text_format(self, tmp_path, capsys):
        rc = run_cli(["validate", "--input", camacho_path(tmp_path),
                      "--format", "text"])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_every_rule_in_order_as_text(self, tmp_path, capsys):
        path = tmp_path / "every_rule.json"
        path.write_text(json.dumps(EVERY_RULE_DOCUMENT), encoding="utf-8")
        rc = run_cli(["validate", "--input", str(path), "--format", "text"])
        assert rc == 1
        lines = [f"{severity} {code} [{component}]: {message}"
                 for severity, code, component, message in EVERY_RULE_FINDINGS]
        lines.append("3 error(s), 9 other finding(s)")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_stdin_default(self, capsys, monkeypatch):
        data = (serialize_graph(make_camacho_cycle()[0]) + "\n").encode()
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        )
        assert run_cli(["validate"]) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == 0

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{nope", encoding="utf-8")
        rc = run_cli(["validate", "--input", str(path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, message", [
        ("non_utf8", "error: invalid JSON: 'utf-8' codec can't decode"),
        ("long_number", "error: invalid JSON: Exceeds the limit"),
        ("long_rational",
         "error: crossings[0].cs_tail: rational literal too long: 5000 characters"),
        ("deep_nesting", "error: invalid JSON: maximum recursion depth exceeded"),
    ], ids=["non_utf8", "long_number", "long_rational", "deep_nesting"])
    def test_input_past_decoder_limits(self, tmp_path, capsys, kind, message):
        text = serialize_graph(make_camacho_cycle()[0])
        if kind == "non_utf8":
            data = b'{"a": "\xff"}'
        elif kind == "deep_nesting":
            data = b"[" * 100000
        elif kind == "long_number":
            data = text.replace('"self_intersection": -2',
                                '"self_intersection": ' + "9" * 5000, 1).encode()
        else:
            obj = json.loads(text)
            obj["crossings"][0]["cs_tail"][0] = "1" * 5000
            data = json.dumps(obj).encode()
        path = tmp_path / "input.json"
        path.write_bytes(data)
        assert run_cli(["validate", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("gorenstein", 5), ("gorenstein", True), ("gorenstein", "ka"),
        ("gorenstein", ["k", "a"]),
        ("smooth_singularities", None), ("smooth_singularities", 5),
        ("smooth_singularities", True), ("smooth_singularities", {}),
        ("cs_tail", "1"), ("cs_weak", "1"), ("cs", "1"), ("min_poly", [["0"]]),
    ])
    def test_wrong_shape_is_one_error_line(self, tmp_path, capsys, key, value):
        obj = json.loads(serialize_graph(make_camacho_cycle()[0]))
        crossing = obj["crossings"][0]
        not_an_array = "field element must be an array, got '1'\n"
        if key == "gorenstein":
            obj["gorenstein"] = value
            message = "error: gorenstein must be an object\n"
        elif key == "smooth_singularities":
            obj["components"][0]["smooth_singularities"] = value
            message = ("error: components[0].smooth_singularities must be "
                       "an array\n")
        elif key == "cs_tail":
            crossing["cs_tail"] = value
            message = "error: crossings[0].cs_tail: " + not_an_array
        elif key == "cs_weak":
            del crossing["cs_tail"]
            crossing.update(kind="saddle_node", weak=crossing["tail"], cs_weak=value)
            message = "error: crossings[0].cs_weak: " + not_an_array
        elif key == "cs":
            obj["components"][0]["smooth_singularities"] = [
                {"id": "s", "kind": "nondegenerate", "cs": value}]
            message = ("error: components[0].smooth_singularities[0].cs: "
                       + not_an_array)
        else:
            obj["field"] = {"min_poly": value}
            message = "error: field.min_poly[0]: not a rational: ['0']\n"
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run_cli(["validate", "--input", str(path)]) == 1
        assert capsys.readouterr().err == message

    def test_missing_file(self, tmp_path, capsys):
        rc = run_cli(["validate", "--input", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestVerdictCommand:
    def test_camacho_certified_absent(self, tmp_path, capsys):
        rc = run_cli(["verdict", "--input", camacho_path(tmp_path)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["conclusion"] == CERTIFIED_ABSENT
        assert obj["rule"] == RULE_ABSENT

    def test_text_format_names_conclusion(self, tmp_path, capsys):
        rc = run_cli(["verdict", "--input", camacho_path(tmp_path),
                      "--format", "text"])
        assert rc == 0
        assert CERTIFIED_ABSENT in capsys.readouterr().out

    def test_validation_failure_reports_findings(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(broken_graph_obj()), encoding="utf-8")
        rc = run_cli(["verdict", "--input", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["errors"] >= 1
        assert "error:" in captured.err

    def test_keep_applies_subcurve_criterion(self, tmp_path, capsys):
        path = write_graph(tmp_path, subcurve_demo_graph())
        rc = run_cli(["verdict", "--input", path, "--keep", "E1, E2"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["conclusion"] == SEPARATRIX_EXISTS
        assert obj["rule"] == RULE_SUBCURVE
        assert obj["witnesses"]["kept_components"] == ["E1", "E2"]

    def test_keep_failure_still_exits_zero(self, tmp_path, capsys):
        path = write_graph(tmp_path, make_quadratic_chain(1, length=3))
        rc = run_cli(["verdict", "--input", path, "--keep", "E1,E2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["conclusion"] == NOT_GUARANTEED

    def test_keep_on_invalid_graph_reports_findings(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(UNBALANCED_SADDLE_NODE), encoding="utf-8")
        rc = run_cli(["verdict", "--input", str(path), "--keep", "E1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["errors"] == 2
        assert "error:" in captured.err

    def test_keep_unknown_component(self, tmp_path, capsys):
        rc = run_cli(["verdict", "--input", camacho_path(tmp_path),
                      "--keep", "E1,E9"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_huge_gorenstein_power_decides_at_once(self, tmp_path, capsys):
        # The power check reads each holonomy's order, so k = 10^12 costs
        # no more than k = 2.
        obj = json.loads(serialize_graph(make_camacho_cycle()[0]))
        big = 10 ** 12
        obj["gorenstein"] = {"k": big, "a": {c["id"]: big for c in obj["components"]}}
        path = tmp_path / "huge_k.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        start = time.perf_counter()
        rc = run_cli(["verdict", "--input", str(path)])
        assert time.perf_counter() - start < 1
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)
        assert (cert["conclusion"], cert["rule"]) == (CERTIFIED_ABSENT, RULE_ABSENT)
        power = next(h for h in cert["hypotheses"] if h["name"]
                     == "gorenstein_reduction.gorenstein_holonomy_power_trivial")
        assert power["status"] == "failed"
        assert power["evidence"] == (
            "holonomy^1000000000000 differs from 1 on cycle(s) [0]")

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = run_cli(["verdict", "--input", camacho_path(tmp_path),
                      "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["conclusion"] == CERTIFIED_ABSENT


class TestPrune:
    def test_tree(self, tmp_path, capsys):
        g = make_random_tree(4, n=7, saddle_node_probability=0.5)
        rc = run_cli(["prune", "--input", write_graph(tmp_path, g)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"kept_components": list(toma_prune(g))}

    def test_keep_restricts_first(self, tmp_path, capsys):
        rc = run_cli(["prune", "--input", camacho_path(tmp_path),
                      "--keep", "E1,E2"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"kept_components": ["E1", "E2"]}

    @pytest.mark.parametrize("keep", [[], ["--keep", "E2,E3"]])
    def test_invalid_input_is_refused_like_verdict(self, tmp_path, capsys, keep):
        # The whole graph is validated, even when the selection leaves out
        # the faulty component.
        path = tmp_path / "tree.json"
        assert run_cli(["example", "random_tree", "--seed", "3", "--n", "6",
                        "--output", str(path)]) == 0
        obj = json.loads(path.read_text())
        obj["components"][0]["self_intersection"] += 1  # E1
        path.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        outputs = []
        for command in (["verdict"], ["prune", *keep]):
            rc = run_cli([*command, "--input", str(path), "--format", "text"])
            outputs.append((rc, *capsys.readouterr()))
        assert outputs[1] == outputs[0]
        rc, out, err = outputs[1]
        assert rc == 1
        assert "error vertex-sum-mismatch [E1]" in out
        assert err == "error: 1 validation error(s)\n"

    def test_cycle_is_an_error(self, tmp_path, capsys):
        rc = run_cli(["prune", "--input", camacho_path(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_text_format(self, tmp_path, capsys):
        g = make_random_tree(4, n=7, saddle_node_probability=0.5)
        rc = run_cli(["prune", "--input", write_graph(tmp_path, g),
                      "--format", "text"])
        assert rc == 0
        expected = "kept: " + " ".join(toma_prune(g)) + "\n"
        assert capsys.readouterr().out == expected


class TestAnalyze:
    def test_report_shape_and_exit(self, tmp_path, capsys):
        rc = run_cli(["analyze", "--input", camacho_path(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [
            "input_digest", "findings", "intersection_matrix",
            "definiteness", "representation", "residual_divisor",
            "certificate",
        ]
        assert report["certificate"]["conclusion"] == CERTIFIED_ABSENT

    def test_identical_bytes_across_runs(self, tmp_path, capsys):
        path = camacho_path(tmp_path)
        assert run_cli(["analyze", "--input", path]) == 0
        first = capsys.readouterr().out
        assert run_cli(["analyze", "--input", path]) == 0
        assert capsys.readouterr().out == first

    def test_invalid_graph_reports_without_certificate(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(broken_graph_obj()), encoding="utf-8")
        rc = run_cli(["analyze", "--input", str(path)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"] is None
        assert any(f["severity"] == "error" for f in report["findings"])

    def test_text_format_runs(self, tmp_path, capsys):
        rc = run_cli(["analyze", "--input", camacho_path(tmp_path),
                      "--format", "text"])
        assert rc == 0
        assert capsys.readouterr().out


FAMILIES = {
    "random_graph": lambda seed: make_random_graph(
        seed, 2 + seed % 9, seed % 4, 0.3 * (seed % 2)),
    "quadratic_chain": lambda seed: make_quadratic_chain(seed, 2 + seed % 4),
    "camacho": lambda seed: make_camacho_cycle()[0],
    "torsion4": lambda seed: make_torsion4(),
    "p2_cycle": lambda seed: make_p2_cycle(Fraction(1 + seed % 7, 3)),
    # random_graph's trees (seed % 4 == 0) never have a saddle-node
    "saddle_node_tree": lambda seed: make_random_tree(seed, 2 + seed % 11, 0.5),
}


@st.composite
def valid_documents(draw):
    """A valid document from one of the fixture families, with consistent
    Gorenstein data (every a_i = k) half of the time."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    obj = json.loads(serialize_graph(FAMILIES[family](draw(st.integers(0, 10 ** 6)))))
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        obj["gorenstein"] = {"k": k, "a": {c["id"]: k for c in obj["components"]}}
    return obj


def run_to_file(root, command, doc, name):
    """(exit code, output file text, stderr) of one run of `command` on `doc`."""
    path, output = root / f"{name}.json", root / f"{name}.{command}"
    path.write_text(json.dumps(doc), encoding="utf-8")
    output.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run_cli([command, "--input", str(path), "--output", str(output)])
    return rc, output.read_text(encoding="utf-8"), err.getvalue()


def without_digest(text):
    """The lines of an analyze report, less its one input_digest line."""
    lines = text.split("\n")
    kept = [line for line in lines if not line.startswith('  "input_digest": ')]
    assert len(kept) == len(lines) - 1
    return kept


class TestOrientationInvariance:
    """A crossing written head first, with the reciprocal index as its
    literal, is the same crossing: verdicts keep every byte and analyses
    every byte but the input digest."""

    @settings(max_examples=40, deadline=None)
    @given(obj=valid_documents())
    def test_crossings_written_head_first(self, tmp_path_factory, obj):
        root = tmp_path_factory.getbasetemp()
        flipped = crossings_head_first(obj)
        assert run_to_file(root, "verdict", flipped, "flipped") == run_to_file(
            root, "verdict", obj, "given")
        rc, text, err = run_to_file(root, "analyze", obj, "given")
        rc_flipped, text_flipped, err_flipped = run_to_file(
            root, "analyze", flipped, "flipped")
        assert (rc_flipped, err_flipped) == (rc, err)
        assert without_digest(text_flipped) == without_digest(text)


class TestRenamingInvariance:
    """Renaming every component and singularity id, in reverse string order,
    and listing gorenstein.a backwards change nothing: once the renaming is
    undone on the output, verdicts keep every byte and analyses every byte
    but the input digest."""

    @settings(max_examples=40, deadline=None)
    @given(obj=valid_documents())
    def test_ids_renamed_and_gorenstein_reordered(self, tmp_path_factory, obj):
        root = tmp_path_factory.getbasetemp()
        renamed, inverse = ids_renamed(gorenstein_reordered(obj))
        for command in ("verdict", "analyze"):
            rc, text, err = run_to_file(root, command, obj, "given")
            rc_renamed, text_renamed, err_renamed = run_to_file(
                root, command, renamed, "renamed")
            assert (rc_renamed, renaming_undone(err_renamed, inverse)) == (rc, err)
            text_renamed = renaming_undone(text_renamed, inverse)
            if command == "analyze":
                text, text_renamed = without_digest(text), without_digest(text_renamed)
            assert text_renamed == text


def past_digit_limit_path(tmp_path):
    """Two components over Q joined by two crossings whose tail indices have
    2501-digit denominators, so the index sum on E1 has a 5001-digit one."""
    big = 10 ** 2500
    crossings = tuple(
        Crossing("E1", "E2", NONDEGENERATE, cs_tail=QQ.from_rational(Fraction(-1, den)))
        for den in (big + 7, 3 * big + 1)
    )
    comps = (Component("E1", -1), Component("E2", -1))
    return write_graph(tmp_path, DualGraph(QQ, comps, crossings))


def huge_determinant_path(tmp_path):
    """A 3-cycle over Q whose self-intersections -(10^1500 + k), k = 1, 2, 3,
    make a determinant of 4501 digits; pads balance the vertex sums."""
    names = ("E1", "E2", "E3")
    crossings = [
        Crossing(tail, head, NONDEGENERATE, cs_tail=QQ.from_rational(cs))
        for (tail, head), cs in zip((("E1", "E2"), ("E2", "E3"), ("E1", "E3")),
                                    (-1, -1, -2))
    ]
    self_ints = [-(10 ** 1500 + k) for k in (1, 2, 3)]
    g = _assemble(QQ, names, self_ints, crossings,
                  _vertex_sums(QQ, names, crossings))
    return write_graph(tmp_path, g)


class TestValuesPastTheDigitLimit:
    """A value computed from valid input may have more digits than the
    interpreter converts between int and str by default (4300)."""

    # -1/(10^2500 + 7) - 1/(3 * 10^2500 + 1) and -(10^2500 + 7) - (3 * 10^2500 + 1)
    SUMS = {
        "E1": "-4" + "0" * 2499 + "8/3" + "0" * 2498 + "22" + "0" * 2499 + "7",
        "E2": "-4" + "0" * 2499 + "8",
    }

    @pytest.mark.parametrize("command", ["validate", "verdict", "analyze"])
    def test_findings_carry_every_digit(self, tmp_path, capsys, command):
        rc = run_cli([command, "--input", past_digit_limit_path(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        findings = json.loads(captured.out)["findings"]
        assert {
            f["component"]: f["message"]
            for f in findings if f["code"] == "vertex-sum-mismatch"
        } == {
            cid: f"{cid}: indices sum to {total}, but the self-intersection is -1"
            for cid, total in self.SUMS.items()
        }

    # e1 e2 e3 - e1 - e2 - e3 + 2 with e_k = -(10^1500 + k):
    # -(10^4500 + 6 * 10^3000 + 8 * 10^1500 - 2)
    DETERMINANT = "-1" + "0" * 1499 + "6" + "0" * 1499 + "7" + "9" * 1499 + "8"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["verdict", "analyze"])
    def test_determinant_carries_every_digit(self, tmp_path, capsys, command, fmt):
        path = huge_determinant_path(tmp_path)
        rc = run_cli([command, "--input", path, "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        evidence = f"negative definite: True; determinant {self.DETERMINANT}"
        if fmt == "text":
            assert f"matrix_negative_definite: {evidence}\n" in captured.out
            if command == "analyze":
                assert f"determinant: {self.DETERMINANT}," in captured.out
            return
        # parse_int keeps the digits: int() refuses more than 4300 of them
        obj = json.loads(captured.out, parse_int=str)
        certificate = obj["certificate"] if command == "analyze" else obj
        assert evidence in [h["evidence"] for h in certificate["hypotheses"]]
        if command == "analyze":
            assert obj["definiteness"]["determinant"] == self.DETERMINANT

    def test_library_report_keeps_the_determinant_an_int(self, tmp_path):
        with open(huge_determinant_path(tmp_path), "rb") as f:
            report = analyze(parse_graph(f.read()))
        determinant = report["definiteness"]["determinant"]
        assert type(determinant) is int and determinant.bit_length() == 14949

    def test_text_format(self, tmp_path, capsys):
        path = past_digit_limit_path(tmp_path)
        assert run_cli(["validate", "--input", path, "--format", "text"]) == 1
        assert f"indices sum to {self.SUMS['E1']}," in capsys.readouterr().out


KINDS = ["nondegenerate", "saddle_node", "saddle_node_strong",
         "saddle_node_weak", "nondegenrate"]


@st.composite
def mutated_documents(draw):
    """A small valid document with one structural fault put into it."""
    n = draw(st.integers(2, 12))
    g = make_random_graph(draw(st.integers(0, 10 ** 6)), n,
                          draw(st.integers(0, 2)), 0.3)
    obj = json.loads(serialize_graph(g))
    comps, crossings = obj["components"], obj["crossings"]
    obj["gorenstein"] = {"k": 2, "a": {c["id"]: 2 for c in comps}}
    sings = [s for c in comps for s in c["smooth_singularities"]]
    ids = [c["id"] for c in comps] + [s["id"] for s in sings] + ["E99"]
    crossing = draw(st.sampled_from(crossings))
    mutation = draw(st.sampled_from([
        "swap_id", "retarget", "flip", "crossing_kind", "singularity_kind",
        "zero_crossing", "zero_singularity", "drop_gorenstein_key"]))
    if mutation == "swap_id":
        draw(st.sampled_from(comps + sings))["id"] = draw(st.sampled_from(ids))
    elif mutation == "retarget":
        crossing[draw(st.sampled_from(["tail", "head"]))] = draw(st.sampled_from(ids))
    elif mutation == "flip":
        crossing["tail"], crossing["head"] = crossing["head"], crossing["tail"]
    elif mutation == "crossing_kind":
        crossing["kind"] = draw(st.sampled_from(KINDS))
    elif mutation == "singularity_kind" and sings:
        draw(st.sampled_from(sings))["kind"] = draw(st.sampled_from(KINDS))
    elif mutation == "zero_crossing" and crossing["kind"] == "nondegenerate":
        crossing["cs_tail"] = ["0"]
    elif mutation == "zero_singularity" and sings:
        draw(st.sampled_from(sings))["cs"] = ["0"]
    elif mutation == "drop_gorenstein_key":
        del obj["gorenstein"]["a"][draw(st.sampled_from(sorted(obj["gorenstein"]["a"])))]
    return obj


class TestStructuralFuzz:
    @settings(max_examples=60, deadline=None)
    @given(obj=mutated_documents())
    def test_exit_code_and_one_error_line(self, tmp_path_factory, obj):
        root = tmp_path_factory.getbasetemp()
        path, output = root / "fuzz.json", root / "fuzz.out"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for command in ("validate", "verdict", "analyze"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = run_cli([command, "--input", str(path), "--output", str(output)])
            assert rc in (0, 1), (command, rc)
            if err.getvalue():  # the run ended in an error
                assert rc == 1
                lines = err.getvalue().split("\n")
                assert len(lines) == 2 and lines[1] == "", (command, lines)
                assert lines[0].startswith("error: "), (command, lines)


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verdict", "--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestInstalledEntryPoint:
    def test_example_then_verdict(self, tmp_path):
        exe = shutil.which("sepkit")
        assert exe, "console script should be installed"
        out = tmp_path / "t4.json"
        first = subprocess.run(
            [exe, "example", "torsion4", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert first.returncode == 0, first.stderr
        second = subprocess.run(
            [exe, "verdict", "--input", str(out)],
            capture_output=True, text=True,
        )
        assert second.returncode == 0, second.stderr
        obj = json.loads(second.stdout)
        assert obj["conclusion"] == SEPARATRIX_EXISTS
        assert obj["rule"] == RULE_TORSION
        assert obj["witnesses"] == {"torsion_order": 4}
