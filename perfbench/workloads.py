"""The four workloads: seeded inputs, the timed operation, and its decoding.

Every input is generated from the run's seed and handed to sepkit only as
JSON bytes.  Each case carries what its generator guarantees (checked by
gate.check) and its shape (components, crossings, cycle rank, field degree).

A workload runs as a closed loop with one client: the ladder of cases is
run in order, one operation at a time, in whole rounds.  Every round gets
fresh inputs, generated from (seed, round), so that no graph is decided
twice in a run and a cache keyed on a graph's content cannot hit.
"""

from __future__ import annotations

import base64
import json
import random
import subprocess
import sys
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from fieldgen import field_cycle_graph

# (components, graphs per round).  The last graph of each size is a copy of
# the one before it with one self-intersection corrupted.
TREE_LADDER = ((100, 4), (250, 3), (500, 2), (1000, 2))
TREE_SADDLE_NODE_PROBABILITY = 0.3
# (components, graphs per round); each graph has n/20 extra crossings.  The
# median op falls in the middle of the n=100 class: on a host whose speed
# drifts, the larger eliminations read steadier than those at n <= 60.
CYCLE_LADDER = ((30, 1), (60, 1), (100, 4), (150, 2))
# (field, components, twisted by a primitive 8th root of unity)
FIELD_LADDER = (
    ("x^2-2", 30, False), ("x^2-2", 45, False), ("x^2-2", 60, False),
    ("x^3-2", 30, False), ("x^3-2", 45, False), ("x^3-2", 60, False),
    ("x^4-10x^2+1", 30, False), ("x^4-10x^2+1", 40, False),
    ("x^4+1", 30, False), ("x^4+1", 30, True), ("x^4+1", 45, True),
)
CLI_TREE_SIZE = 40
CLI_COMMANDS = ("verdict", "analyze")
# Built-in example -> (conclusion, rule, witnesses, representation kind and order)
CLI_EXAMPLES = {
    "camacho": ("certified_absent", "infinite_holonomy_closed_world", {},
                ["infinite", None]),
    "p2_cycle": ("not_guaranteed", "no_rule_applicable", {}, ["trivial", None]),
    "torsion4": ("separatrix_exists", "torsion_holonomy", {"torsion_order": 4},
                 ["torsion", 4]),
    "random_tree": ("separatrix_exists", "tree_resolution", {}, ["trivial", None]),
}

LADDERS = {
    "trees": "make_random_tree n=" + "/".join(f"{n}x{k}" for n, k in TREE_LADDER)
             + f" new per round (saddle-node p={TREE_SADDLE_NODE_PROBABILITY}),"
               " one corrupted copy per size",
    "cycles": "make_random_graph n=" + "/".join(f"{n}x{k}" for n, k in CYCLE_LADDER)
              + " new per round, n/20 extra crossings",
    "field_cycles": f"{len(FIELD_LADDER)} new residue-derived graphs per round, n=30-60,"
                    " degree 2-4, 2 twisted by zeta_8",
    "cli_cold": f"{len(CLI_EXAMPLES)} built-in examples and a new n={CLI_TREE_SIZE}"
                f" tree x {len(CLI_COMMANDS)} commands per round, one child"
                " process at a time",
}


@dataclass(frozen=True)
class Case:
    name: str
    data: bytes
    expect: dict
    shape: dict
    command: str | None = None  # cli_cold only
    path: str | None = None     # cli_cold only


def _dump(obj) -> bytes:
    return json.dumps(obj, indent=2).encode("utf-8")


def _shape(obj) -> dict:
    components, crossings = len(obj["components"]), len(obj["crossings"])
    return {
        "components": components,
        "crossings": crossings,
        "cycle_rank": crossings - components + 1,
        "field_degree": len(obj["field"]["min_poly"]),
    }


def _case(name, obj, expect, **extra) -> Case:
    return Case(name, _dump(obj), expect, _shape(obj), **extra)


# ---------------------------------------------------------------------------
# Generators


def tree_cases(sk, seed: int, round_: int, workdir: Path) -> list[Case]:
    rng = random.Random(f"trees/{seed}/{round_}")
    accept = {"conclusion": "separatrix_exists", "rule": "tree_resolution"}
    cases = []
    for n, count in TREE_LADDER:
        obj = None
        for i in range(count - 1):
            graph = sk.make_random_tree(rng.randrange(2**31), n,
                                        TREE_SADDLE_NODE_PROBABILITY)
            obj = json.loads(sk.serialize_graph(graph))
            cases.append(_case(f"tree-{n}-{i}", obj, accept))
        victim = obj["components"][rng.randrange(n)]
        victim["self_intersection"] += rng.choice((-1, 1))
        cases.append(_case(f"tree-{n}-{count - 2}-corrupt", obj, {
            "reject": "vertex-sum-mismatch", "component": victim["id"],
        }))
    return cases


def _rational(values) -> Fraction:
    return Fraction(values[0])


def closing_holonomy(obj, closing: int) -> Fraction:
    """Holonomy over Q of the cycle through crossing `closing`.

    The cycle runs tail to head across the closing crossing and back along
    a breadth-first path that avoids it.  Traversed tail to head a crossing
    contributes -1/cs_tail, and head to tail -cs_tail.
    """
    crossings = obj["crossings"]
    adjacency = {c["id"]: [] for c in obj["components"]}
    for i, c in enumerate(crossings):
        if i != closing:
            adjacency[c["tail"]].append(i)
            adjacency[c["head"]].append(i)
    start, goal = crossings[closing]["head"], crossings[closing]["tail"]
    reached = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for i in adjacency[v]:
            c = crossings[i]
            w = c["head"] if c["tail"] == v else c["tail"]
            if w not in reached:
                reached[w] = (i, v)
                queue.append(w)
    holonomy = -1 / _rational(crossings[closing]["cs_tail"])
    v = goal
    while reached[v] is not None:
        i, u = reached[v]
        cs = _rational(crossings[i]["cs_tail"])
        holonomy *= -1 / cs if crossings[i]["tail"] == u else -cs
        v = u
    return holonomy


def cycle_cases(sk, seed: int, round_: int, workdir: Path) -> list[Case]:
    """Graphs whose holonomy has infinite order, so the chain ends
    not_guaranteed after evaluating every rule.

    Over Q the only roots of unity are 1 and -1, and the holonomies form a
    group, so one cycle with holonomy outside {1, -1} makes the whole
    representation infinite.  make_random_graph appends its extra crossings
    last, so the last crossing closes a cycle.
    """
    rng = random.Random(f"cycles/{seed}/{round_}")
    expect = {
        "conclusion": "not_guaranteed", "rule": "no_rule_applicable",
        "satisfied": ["infinite_holonomy_closed_world.representation_infinite",
                      "trivial_holonomy.matrix_negative_definite"],
    }
    cases = []
    for n, count in CYCLE_LADDER:
        for i in range(count):
            while True:
                graph = sk.make_random_graph(rng.randrange(2**31), n, n // 20)
                obj = json.loads(sk.serialize_graph(graph))
                if abs(closing_holonomy(obj, len(obj["crossings"]) - 1)) != 1:
                    break
            cases.append(_case(f"cycle-{n}-{i}", obj, expect))
    return cases


def field_cases(sk, seed: int, round_: int, workdir: Path) -> list[Case]:
    rng = random.Random(f"field_cycles/{seed}/{round_}")
    cases = []
    for i, (field, n, twist) in enumerate(FIELD_LADDER):
        obj, expect = field_cycle_graph(rng, field, n, n // 10, twist)
        suffix = "-twist" if twist else ""
        cases.append(_case(f"field-{i}-{field}-{n}{suffix}", obj, expect))
    return cases


def cli_cases(sk, seed: int, round_: int, workdir: Path) -> list[Case]:
    """The built-in examples plus one seeded random tree, written as files.

    The examples are the same every round; the tree is new each round."""
    rng = random.Random(f"cli_cold/{seed}/{round_}")
    inputs = {}
    for name, (conclusion, rule, witnesses, representation) in CLI_EXAMPLES.items():
        graph, _ = sk.generate_example(name)
        inputs[name] = (graph, {"conclusion": conclusion, "rule": rule,
                                "witnesses": witnesses,
                                "representation": representation})
    graph = sk.make_random_tree(rng.randrange(2**31), CLI_TREE_SIZE,
                                TREE_SADDLE_NODE_PROBABILITY)
    inputs["seeded_tree"] = (graph, {"conclusion": "separatrix_exists",
                                     "rule": "tree_resolution",
                                     "representation": ["trivial", None]})
    folder = workdir / "cli" / f"round-{round_}"
    folder.mkdir(parents=True, exist_ok=True)
    cases = []
    for name, (graph, expect) in inputs.items():
        text = sk.serialize_graph(graph) + "\n"  # as `sepkit example` writes it
        path = folder / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for command in CLI_COMMANDS:
            verdict_expect = {k: v for k, v in expect.items()
                              if command == "analyze" or k != "representation"}
            cases.append(Case(f"{command}-{name}", text.encode("utf-8"),
                              verdict_expect, _shape(json.loads(text)),
                              command=command, path=str(path)))
    return cases


# ---------------------------------------------------------------------------
# Operations.  run() is timed; decode() turns its result into the bytes the
# goldens hash and the object the gate checks, outside the timed region.


def cli_env(root: Path, base: dict) -> dict:
    return dict(base, PYTHONPATH=str(root / "src"))


class Launcher:
    """Runs commands one at a time through launcher.py, a small process, so
    that the children's peak RSS is their own (see launcher.py)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.peak_kb = 0

    def run(self, argv, cwd, env) -> tuple:
        """(exit code or None on timeout, stdout bytes, stderr bytes)"""
        self._proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd),
                                           "env": env}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        return (reply["code"], base64.b64decode(reply["stdout"]),
                base64.b64decode(reply["stderr"]))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()
        return False


class Workload:
    def __init__(self, name, build, kind):
        self.name, self.build, self.kind = name, build, kind

    def runner(self, sk, root: Path, env: dict, span=None, launcher=None,
               interpreter_flags=()):
        """The timed operation for one case.  `span(name)` wraps the
        benchmark's own sub-steps in trace spans; cli_cold needs a Launcher."""
        span = span or (lambda name: nullcontext())
        if self.kind == "verdict":
            def run(case):
                g = sk.parse_graph(case.data)
                try:
                    return "certificate", sk.verdict(g).to_json()
                except sk.ValidationFailed as exc:
                    return "rejected", [f.to_json() for f in exc.findings]
        elif self.kind == "analyze":
            def run(case):
                report = sk.analyze(sk.parse_graph(case.data), case.data)
                with span("report.json"):
                    return json.dumps(report, indent=2) + "\n"
        else:
            def run(case):
                return launcher.run([sys.executable, *interpreter_flags, "-m",
                                     "sepkit", case.command, "--input", case.path],
                                    root, env)
        return run

    def decode(self, case: Case, result) -> tuple[bytes, dict]:
        if self.kind == "verdict":
            tag, value = result  # tag is "certificate" or "rejected"
            return _dump({tag: value}), {tag: value}
        if self.kind == "analyze":
            report = json.loads(result)
            return result.encode("utf-8"), {
                "report": report, "certificate": report["certificate"]}
        code, stdout, _ = result
        raw = stdout + b"exit=%d\n" % code
        doc = json.loads(stdout)
        if case.command == "analyze":
            return raw, {"exit": code, "report": doc,
                         "certificate": doc["certificate"]}
        return raw, {"exit": code, "certificate": doc}


WORKLOADS = {
    "trees": Workload("trees", tree_cases, "verdict"),
    "cycles": Workload("cycles", cycle_cases, "verdict"),
    "field_cycles": Workload("field_cycles", field_cases, "analyze"),
    "cli_cold": Workload("cli_cold", cli_cases, "cli"),
}
