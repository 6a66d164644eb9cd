"""Combined analysis report with a stable, byte-reproducible layout."""

from __future__ import annotations

import hashlib
import json

from .dualgraph import DualGraph, has_errors, serialize_graph, validate_indices
from .exactfield import _decimal
from .holonomy import TRIVIAL
from .verdict import GraphAnalysis, certify


__all__ = ["analyze", "render_certificate_text", "render_report_text"]

def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def analyze(g: DualGraph, source: bytes | None = None) -> dict:
    """Run the full pipeline on one graph.

    `source` should be the exact input bytes when the graph came from a
    file, so the digest identifies what was actually read; otherwise the
    canonical serialization is hashed.

    The residual divisor is only defined for trivial holonomy without
    saddle-nodes, and a certificate is only issued for inputs that
    validate without errors; both slots are null otherwise.
    """
    if source is None:
        source = serialize_graph(g).encode("utf-8")
    findings = validate_indices(g)
    a = GraphAnalysis(g)

    residual = None
    if a.representation.kind == TRIVIAL and not g.has_saddle_node_crossing():
        residual = a.residual.to_json()

    certificate = None
    if not has_errors(findings):
        certificate = certify(a).to_json()

    return {
        "input_digest": _digest(source),
        "findings": [f.to_json() for f in findings],
        "intersection_matrix": a.matrix.to_json(),
        "definiteness": a.form.to_json(),
        "representation": a.representation.to_json(),
        "residual_divisor": residual,
        "certificate": certificate,
    }


_STATUS_MARK = {"satisfied": "ok", "failed": "FAILED", "skipped": "skipped"}


def _format_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return json.dumps(value, sort_keys=True) if isinstance(value, dict) else str(value)


def render_finding_text(finding: dict) -> str:
    """One validation finding, as one line without its newline."""
    where = f" [{finding['component']}]" if finding.get("component") else ""
    return f"{finding['severity']} {finding['code']}{where}: {finding['message']}"


def render_report_text(report: dict) -> str:
    """Human-readable rendering of an analysis report."""
    lines = [f"input {report['input_digest']}"]

    findings = report["findings"]
    lines.append(f"findings: {len(findings)}")
    lines.extend("  " + render_finding_text(f) for f in findings)

    matrix = report["intersection_matrix"]
    lines.append("intersection matrix (" + ", ".join(matrix["components"]) + "):")
    for row in matrix["rows"]:
        lines.append("  [" + ", ".join(str(v) for v in row) + "]")
    defin = report["definiteness"]
    lines.append(
        f"negative definite: {defin['negative_definite']}, "
        f"determinant: {_decimal(defin['determinant'])}, "
        f"invertible: {defin['invertible']}"
    )

    rep = report["representation"]
    kind = rep["kind"]
    if rep["order"] is not None:
        kind += f" (order {rep['order']})"
    lines.append(f"holonomy representation: {kind}")
    for entry in rep["holonomies"]:
        value = entry["value"]
        shown = _format_value(value) if value is not None else "undetermined"
        lines.append(f"  cycle of {len(entry['cycle'])} crossings: {shown}")

    residual = report["residual_divisor"]
    if residual is not None:
        lines.append("residual divisor:")
        for cid, coeffs in residual["residues"].items():
            lines.append(f"  {cid}: {_format_value(coeffs)}")
        for sid, coeffs in residual["separatrix_residues"].items():
            lines.append(f"  {sid}: {_format_value(coeffs)}")

    certificate = report["certificate"]
    if certificate is None:
        lines.append("certificate: none (input does not validate)")
    else:
        lines.append(render_certificate_text(certificate).rstrip("\n"))
    return "\n".join(lines) + "\n"


def render_certificate_text(certificate: dict) -> str:
    lines = [
        f"conclusion: {certificate['conclusion']} via {certificate['rule']}"
    ]
    for hyp in certificate["hypotheses"]:
        mark = _STATUS_MARK.get(hyp["status"], hyp["status"])
        lines.append(f"  [{mark}] {hyp['name']}: {hyp['evidence']}")
    if certificate["witnesses"]:
        lines.append(f"witnesses: {_format_value(certificate['witnesses'])}")
    return "\n".join(lines) + "\n"
