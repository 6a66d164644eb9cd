"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest
import sepkit as sk

import gate
import spans
from fieldgen import FIELDS, PowerBasisField
from run import Measured, run_round, tail
from workloads import WORKLOADS, Launcher, closing_holonomy


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name, tmp_path):
    build = WORKLOADS[name].build

    def inputs(seed, round_):
        return [(c.name, c.data, c.expect) for c in build(sk, seed, round_, tmp_path)]

    first = inputs(3, 0)
    assert first == inputs(3, 0)
    assert first != inputs(4, 0)
    assert first != inputs(3, 1)


def test_field_arithmetic_inverts_and_finds_zeta8():
    rng = random.Random(0)
    for tail_coeffs in FIELDS.values():
        field = PowerBasisField(tail_coeffs)
        for _ in range(5):
            a = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(field.degree))
            if any(a):
                assert field.mul(a, field.inv(a)) == field.rational(1)
    field = PowerBasisField(FIELDS["x^4+1"])
    power = field.rational(1)
    for k in range(1, 9):
        power = field.mul(power, field.gen())
        assert (power == field.rational(1)) == (k == 8)


def test_closing_holonomy_matches_the_engine():
    for seed in range(5):
        graph = sk.make_random_graph(seed, 8, 1)
        obj = json.loads(sk.serialize_graph(graph))
        (holonomy,) = sk.representation_class(graph).holonomies
        assert closing_holonomy(obj, len(obj["crossings"]) - 1) in (
            holonomy.rational_value(), 1 / holonomy.rational_value())
    p2 = json.loads(sk.serialize_graph(sk.make_p2_cycle(2)))
    assert closing_holonomy(p2, 2) == 1


def _run_case(name, index, tmp_path):
    workload = WORKLOADS[name]
    case = workload.build(sk, 0, 0, tmp_path)[index]
    raw, out = workload.decode(case, workload.runner(sk, tmp_path, {})(case))
    return case, raw, out


def test_gate_accepts_the_real_output_and_rejects_tampered_ones(tmp_path):
    case, raw, out = _run_case("field_cycles", 0, tmp_path)
    assert gate.check(case.expect, out) is None
    goldens = {case.name: gate.digest(raw)}
    assert gate.check_golden(goldens, case.name, raw) is None

    assert gate.check_golden(goldens, case.name, raw.replace(b"1", b"2", 1))
    assert gate.check_golden({}, case.name, raw)

    wrong_rule = json.loads(json.dumps(out))
    wrong_rule["certificate"]["rule"] = "torsion_holonomy"
    assert gate.check(case.expect, wrong_rule)

    wrong_count = json.loads(json.dumps(out))
    wrong_count["certificate"]["witnesses"]["separatrix_count_lower_bound"] += 1
    assert gate.check(case.expect, wrong_count)

    wrong_residue = json.loads(json.dumps(out))
    residues = wrong_residue["report"]["residual_divisor"]["residues"]
    residues["E2"] = residues["E3"]
    assert gate.check(case.expect, wrong_residue)


def test_gate_requires_the_expected_rejection(tmp_path):
    trees = WORKLOADS["trees"].build(sk, 0, 0, tmp_path)
    case = next(c for c in trees if "reject" in c.expect)
    _, out = WORKLOADS["trees"].decode(case, WORKLOADS["trees"].runner(sk, tmp_path, {})(case))
    assert gate.check(case.expect, out) is None
    assert gate.check(case.expect, {"certificate": {}})
    other = dict(case.expect, component="no-such-component")
    assert gate.check(other, out)


def test_a_raising_op_or_a_malformed_output_counts_as_failed(tmp_path):
    workload = WORKLOADS["field_cycles"]
    cases = workload.build(sk, 0, 0, tmp_path)[:2]

    def run(case):
        if case is cases[0]:
            raise RuntimeError("boom")
        return "not json"
    measured = Measured()
    run_round(measured, workload, run, cases, None)
    assert (measured.attempted, measured.failed) == (2, 2)


def test_each_round_has_fresh_inputs_and_goldens_cover_round_zero(tmp_path):
    workload = WORKLOADS["field_cycles"]
    rounds = [workload.build(sk, 0, r, tmp_path)[:1] for r in range(3)]
    execute = workload.runner(sk, tmp_path, {})
    seen = []

    def run(case):
        seen.append(case.data)
        return execute(case)
    case = rounds[0][0]
    goldens = {case.name: gate.digest(workload.decode(case, execute(case))[0])}
    forged = {case.name: "0" * 64}
    measured, tampered = Measured(), Measured()
    for cases in rounds:
        run_round(measured, workload, run, cases, goldens)
        run_round(tampered, workload, run, cases, forged)
    assert (measured.attempted, measured.failed) == (3, 0)
    assert len(set(seen)) == 3
    assert tampered.failed == 1


def test_launcher_runs_a_child_and_reports_its_peak_rss(tmp_path):
    with Launcher() as launcher:
        code, out, err = launcher.run(
            [sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"],
            tmp_path, dict(os.environ))
    assert (code, out, err) == (3, b"hi\n", b"")
    assert launcher.peak_kb > 0


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(list(range(100))) == (89, 90.0, 10)
    assert tail([5, 7]) == (5, 50.0, 1)


def test_recheck_reproduces_a_certificate_and_catches_a_forged_status():
    graph = sk.make_random_graph(2, 10, 2)
    data = sk.serialize_graph(graph).encode()
    certificate = sk.verdict(graph).to_json()
    count, problems = gate.recheck(sk, data, certificate)
    assert count > 0 and problems == []
    forged = json.loads(json.dumps(certificate))
    first = next(h for h in forged["hypotheses"] if h["status"] != "skipped")
    first["status"] = "failed" if first["status"] == "satisfied" else "satisfied"
    assert gate.recheck(sk, data, forged)[1]


def test_self_time_subtracts_the_children_it_covers():
    recorded = [
        ["a", 0, 100, None, 0],
        ["b", 10, 40, 0, 0],
        ["c", 20, 30, 1, 0],
        ["b", 50, 60, 0, 0],
        ["d", 200, 300, None, 1],
        ["e", 210, 250, 4, 1],  # e and f overlap by 20: covered once
        ["f", 230, 260, 4, 1],
        ["g", 290, 320, 4, 1],  # runs past its parent: only 10 covered
    ]
    assert spans.self_times(recorded) == {
        "a": 100 - 30 - 10, "b": (30 - 10) + 10, "c": 10,
        "d": 100 - 50 - 10, "e": 40, "f": 30, "g": 30,
    }


def _snapshot():
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "sepkit" or name.startswith("sepkit."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, dict) and attr != "__builtins__":
                    for key, item in value.items():
                        seen[(name, attr, key)] = item
    for attr, value in vars(sk.FieldElement).items():
        seen[("FieldElement", attr)] = value
    return seen


def test_patcher_wraps_every_reference_and_restores_them():
    before = _snapshot()
    recorder = spans.Recorder()
    graph = sk.make_random_graph(4, 12, 2)
    with spans.Patcher(recorder):
        during = _snapshot()
        for module in ("sepkit", "sepkit.intersection", "sepkit.verdict",
                       "sepkit.report"):
            assert during[(module, "definiteness")] is not before[(module, "definiteness")]
        key = ("sepkit.verdict", "CHECKS", "matrix_invertible")
        assert during[key] is not before[key]
        assert during[("FieldElement", "__mul__")] is not before[("FieldElement", "__mul__")]
        with recorder.op(0):
            certificate = sk.verdict(graph)
    assert certificate.conclusion == "not_guaranteed"
    metrics = spans.layer_metrics(recorder)
    assert metrics["calls.definiteness"] == 4
    assert metrics["calls.representation_class"] == 3
    assert metrics["exactfield.inverse_count"] > 0
    assert metrics["intersection.definiteness_s"] > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
