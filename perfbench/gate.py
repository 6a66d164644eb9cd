"""Correctness gate: every operation's output against what its input guarantees.

check() compares the decoded output with the case's expectation; it returns
None when the output is right and a one-line reason when it is not.
check_golden() compares the sha256 of the output bytes with the digest the
unchanged engine produced for the same seed and case.  recheck() re-runs the
hypotheses of a certificate one by one through sepkit.run_check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def load_goldens(workload: str, seed: int) -> dict | None:
    """case name -> sha256 for this workload and seed, or None if not recorded."""
    table = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return table["seeds"].get(str(seed), {}).get(workload)


def check_golden(goldens: dict | None, name: str, raw: bytes) -> str | None:
    if goldens is None:
        return None
    want = goldens.get(name)
    if want is None:
        return f"no golden digest for case {name}"
    got = digest(raw)
    if got != want:
        return f"output sha256 {got[:12]} differs from golden {want[:12]}"
    return None


def check(expect: dict, out: dict) -> str | None:
    if out.get("exit", 0) != 0:
        return f"exit code {out['exit']}"
    if "reject" in expect:
        findings = out.get("rejected")
        if findings is None:
            return "accepted an input that must be rejected"
        for f in findings:
            if (f["severity"], f["code"], f["component"]) == (
                    "error", expect["reject"], expect["component"]):
                return None
        return f"no {expect['reject']} error on {expect['component']}"
    if "rejected" in out:
        return "rejected a valid input"

    cert = out.get("certificate")
    if cert is None:
        return "no certificate"
    got = (cert["conclusion"], cert["rule"])
    if got != (expect["conclusion"], expect["rule"]):
        return f"concluded {got[0]} via {got[1]}, expected " \
               f"{expect['conclusion']} via {expect['rule']}"
    for key, value in expect.get("witnesses", {}).items():
        if cert["witnesses"].get(key) != value:
            return f"witness {key} = {cert['witnesses'].get(key)!r}, expected {value!r}"
    status = {h["name"]: h["status"] for h in cert["hypotheses"]}
    for name in expect.get("satisfied", ()):
        if status.get(name) != "satisfied":
            return f"hypothesis {name} is {status.get(name)}, expected satisfied"

    report = out.get("report")
    if report is not None:
        rep = report["representation"]
        if "representation" in expect and [rep["kind"], rep["order"]] != expect["representation"]:
            return f"representation {rep['kind']} order {rep['order']}, " \
                   f"expected {expect['representation']}"
        if "residual" in expect and report["residual_divisor"] != expect["residual"]:
            return "residual divisor differs from the generating residues"
    return None


def recheck(sk, data: bytes, certificate: dict) -> tuple[int, list[str]]:
    """Re-run every non-skipped hypothesis on a freshly parsed graph.

    Returns the number of hypotheses re-run and a description of each whose
    status or evidence did not reproduce.
    """
    g = sk.parse_graph(data)
    count, problems = 0, []
    for hyp in certificate["hypotheses"]:
        if hyp["status"] == "skipped":
            continue
        ok, evidence = sk.run_check(g, hyp["name"].split(".", 1)[1])
        count += 1
        status = "satisfied" if ok else "failed"
        if (status, evidence) != (hyp["status"], hyp["evidence"]):
            problems.append(f"{hyp['name']}: recorded {hyp['status']}, "
                            f"re-run gives {status}")
    return count, problems
