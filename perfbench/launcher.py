"""Starts the cli_cold child processes from a small process.

A child forked from the benchmark process begins with the benchmark's
address space, and the kernel counts that in the child's peak RSS.  This
launcher imports almost nothing, so the peak RSS of its children is the
CLI's own.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "env"}; one
JSON reply per line on stdout, {"code", "stdout", "stderr", "maxrss_kb"},
with the outputs base64-encoded and maxrss_kb the peak RSS of all children
so far.  The launcher exits when stdin closes.
"""

import base64
import json
import resource
import subprocess
import sys

TIMEOUT_S = 120


def main():
    for line in sys.stdin:
        request = json.loads(line)
        try:
            proc = subprocess.run(request["argv"], cwd=request["cwd"],
                                  env=request["env"], capture_output=True,
                                  timeout=TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = None, exc.stdout or b"", exc.stderr or b""
        print(json.dumps({
            "code": code,
            "stdout": base64.b64encode(out).decode("ascii"),
            "stderr": base64.b64encode(err).decode("ascii"),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }), flush=True)


if __name__ == "__main__":
    main()
