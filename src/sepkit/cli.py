"""Command-line front end.

Exit codes: 0 on success, 1 on validation or domain errors, 2 on usage
errors (including bad generator parameters). All reports are emitted with
a fixed key order, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dualgraph import (has_errors, induced_subcurve, parse_graph,
                        serialize_graph, validate_indices)
from .errors import BadParams, SepkitError, ValidationFailed
from .exactfield import _decimal
from .fixtures import generate_example
from .report import (analyze, render_certificate_text, render_finding_text,
                     render_report_text)
from .verdict import _require_valid, subcurve_criterion, toma_prune, verdict


def _read_input(path: str | None) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _emit(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _json_text(value, indent: str) -> str:
    """json.dumps(value, indent=2) for str-keyed dicts, lists and scalars,
    except that an int is written in full however many digits it has."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{json.dumps(key)}: {_json_text(item, inner)}"
                 for key, item in value.items())
        return "{" + ",".join(items) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + ",".join(inner + _json_text(item, inner)
                              for item in value) + indent + "]"
    if isinstance(value, int) and not isinstance(value, bool):
        return _decimal(value)
    return json.dumps(value)


def _to_json(obj) -> str:
    return _json_text(obj, "\n") + "\n"


def _emit_findings(findings, args):
    errors = sum(1 for f in findings if f.severity == "error")
    if args.format == "json":
        obj = {"findings": [f.to_json() for f in findings], "errors": errors}
        _emit(_to_json(obj), args.output)
        return
    lines = [render_finding_text(f.to_json()) for f in findings]
    lines.append(f"{errors} error(s), {len(findings) - errors} other finding(s)")
    _emit("\n".join(lines) + "\n", args.output)


def _split_keep(raw: str | None):
    if raw is None:
        return None
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _cmd_validate(args) -> int:
    g = parse_graph(_read_input(args.input))
    findings = validate_indices(g)
    _emit_findings(findings, args)
    return 1 if has_errors(findings) else 0


def _cmd_analyze(args) -> int:
    source = _read_input(args.input)
    g = parse_graph(source)
    report = analyze(g, source)
    text = _to_json(report) if args.format == "json" else render_report_text(report)
    _emit(text, args.output)
    return 1 if report["certificate"] is None else 0


def _cmd_prune(args) -> int:
    g = parse_graph(_read_input(args.input))
    _require_valid(g)  # the whole graph, before any selection
    keep = _split_keep(args.keep)
    if keep is not None:
        g = induced_subcurve(g, keep)
    kept = list(toma_prune(g))
    if args.format == "json":
        text = _to_json({"kept_components": kept})
    else:
        text = "kept: " + " ".join(kept) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_verdict(args) -> int:
    g = parse_graph(_read_input(args.input))
    keep = _split_keep(args.keep)
    if keep is not None:
        certificate = subcurve_criterion(g, keep)
    else:
        certificate = verdict(g)
    obj = certificate.to_json()
    text = _to_json(obj) if args.format == "json" else render_certificate_text(obj)
    _emit(text, args.output)
    return 0


def _poly_text(coeffs) -> str:
    """Ascending integer coefficients as a readable polynomial in t."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            var = "t" if power == 1 else f"t^{power}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    head = parts[0].lstrip("+ ").replace("- ", "-", 1)
    return " ".join([head] + parts[1:])


def _example_params(args) -> dict:
    """The generator parameters given on the command line, and no others."""
    params = {
        name: getattr(args, name)
        for name in ("t", "seed", "n", "saddle_node_probability")
        if getattr(args, name) is not None
    }
    if args.self_intersections is not None:
        try:
            params["self_intersections"] = tuple(
                int(v) for v in args.self_intersections.split(","))
        except ValueError:
            raise BadParams(
                "--self-intersections expects comma-separated integers"
            ) from None
    if args.name == "random_tree" and os.environ.get("SEPKIT_SEED"):
        try:
            params["seed"] = int(os.environ["SEPKIT_SEED"])
        except ValueError:
            raise BadParams("SEPKIT_SEED must be an integer") from None
    return params


def _cmd_example(args) -> int:
    graph, extra = generate_example(args.name, **_example_params(args))
    out = args.output if args.output is not None else f"{args.name}.json"
    _emit(serialize_graph(graph) + "\n", out)

    info = {"example": args.name, "output": out}
    info.update(extra)
    stream = sys.stderr if out in (None, "-") else sys.stdout
    if args.format == "json":
        stream.write(_to_json(info))
    else:
        lines = [f"wrote {out}"]
        if "constraint_polynomial" in extra:
            lines.append(
                "constraint polynomial: "
                + _poly_text(extra["constraint_polynomial"])
            )
        stream.write("\n".join(lines) + "\n")
    return 0


def _add_io(sub, with_input=True):
    if with_input:
        sub.add_argument("--input", metavar="FILE",
                         help="input JSON file (default: stdin)")
    sub.add_argument("--output", metavar="FILE",
                     help="where to write the result (default: stdout)")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="Separatrix analysis for decorated resolution graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check a graph for consistency")
    _add_io(sub)

    sub = commands.add_parser("analyze", help="full report for a graph")
    _add_io(sub)

    sub = commands.add_parser("prune", help="reduce a tree to a pruned subcurve")
    _add_io(sub)
    sub.add_argument("--keep", metavar="IDS",
                     help="comma-separated component ids to restrict to first")

    sub = commands.add_parser("verdict", help="decide separatrix existence")
    _add_io(sub)
    sub.add_argument("--keep", metavar="IDS",
                     help="comma-separated component ids: apply the "
                          "subcurve criterion to this selection")

    sub = commands.add_parser("example", help="write a generated example")
    sub.add_argument("name",
                     choices=("camacho", "p2_cycle", "torsion4", "random_tree"))
    _add_io(sub, with_input=False)
    sub.add_argument("--self-intersections", metavar="A,B,C",
                     help="camacho: the three self-intersections")
    sub.add_argument("--t", metavar="RATIONAL",
                     help="p2_cycle: the free parameter")
    sub.add_argument("--seed", type=int,
                     help="random_tree: RNG seed (SEPKIT_SEED overrides)")
    sub.add_argument("--n", type=int, help="random_tree: number of components")
    sub.add_argument("--saddle-node-probability", type=float, metavar="P",
                     help="random_tree: probability a crossing is a saddle-node")
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "prune": _cmd_prune,
    "verdict": _cmd_verdict,
    "example": _cmd_example,
}


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailed as exc:
        _emit_findings(exc.findings, args)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SepkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())
