"""Record the golden output digests: python3 perfbench/make_goldens.py

For every workload and every seed in SEEDS, run each case of round 0 once,
require the correctness gate to pass, and store the sha256 of its output
bytes in goldens.json.  Later rounds have fresh inputs and only the gate.
Run it only on engine code whose outputs are known good; the benchmark then
fails any later code whose output differs by a byte.
"""

from __future__ import annotations

import json
import os
import sys

import gate
import run
from workloads import WORKLOADS, Launcher, cli_env

SEEDS = range(10)


def main() -> int:
    table = {}
    env = cli_env(run.ROOT, os.environ)
    with Launcher() as launcher:
        for seed in SEEDS:
            for name, workload in WORKLOADS.items():
                sk = run.import_sepkit()
                execute = workload.runner(sk, run.ROOT, env, launcher=launcher)
                digests = {}
                for case in workload.build(sk, seed, 0, run.WORKDIR):
                    raw, out = workload.decode(case, execute(case))
                    error = gate.check(case.expect, out)
                    if error:
                        print(f"seed {seed} {case.name}: {error}", file=sys.stderr)
                        return 1
                    digests[case.name] = gate.digest(raw)
                table.setdefault(str(seed), {})[name] = digests
            print(f"seed {seed}: done", file=sys.stderr)
    gate.GOLDENS.write_text(json.dumps({"seeds": table}, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
