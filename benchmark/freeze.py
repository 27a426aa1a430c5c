"""Write expected.json: the exit code and stdout sha256 of every command.

    python3 benchmark/freeze.py

Each command runs once, at seed 0, through the same child process as
the benchmark.  ``graphs --report`` on W(3,6) exhausts the element cap
today (exit 3).  Its expected answer is computed in this process
instead: the same dispatch, on a GraphAction whose PermGroup carries a
larger ``element_cap``.  The outcome seen today is kept beside it as
``seed_outcome``, a known gap that the benchmark reports through
``pass_ratio`` but not as a failure.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import run

# W(3,6) exceeds the default element cap; this cap holds its group.
ABOVE_CAP = "report_w3_6"
ROOMY_CAP = 2_000_000


def w36_answer(argv):
    """What ``graphs --report`` prints for W(3,6) once the closure fits."""
    sys.path.insert(0, run.SRC)
    import fqlab.cli
    from fqlab.graphs import GraphAction, build_w
    from fqlab.permgroup import PermGroup

    action = build_w(3, 6)
    group = PermGroup(action.group.degree, action.group.generators, ROOMY_CAP)
    roomy = GraphAction(action.graph, group)
    original = fqlab.cli.build_w
    fqlab.cli.build_w = lambda k, r: roomy
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = fqlab.cli.dispatch(argv)
    finally:
        fqlab.cli.build_w = original
    return code, buf.getvalue().encode()


def main() -> None:
    run.make_inputs(0)
    deadline = time.monotonic() + 3600
    expected = {}
    for workload in run.WORKLOADS:
        for cid, argv in run.commands_for(workload, 0):
            r = run.spawn(argv, run.child_env(), deadline)
            seen = {"exit": r["exit"], "sha256": r["sha256"]}
            if cid == ABOVE_CAP:
                code, stdout = w36_answer(argv)
                sys.stdout.write(stdout.decode())
                expected[cid] = {
                    "exit": code,
                    "sha256": hashlib.sha256(stdout).hexdigest(),
                    "seed_outcome": seen,
                }
            else:
                expected[cid] = seen
            print(f"{cid}: {expected[cid]}", flush=True)
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
