"""Every benchmark command keeps the exit code and stdout pinned in
``benchmark/expected.json``.

The commands, input files and relators come from ``benchmark/run.py``,
read only; the inputs are written under a temporary directory with the
relators in their listed order, and each command runs in this process
through ``fqlab.cli.dispatch``.  A command with a ``seed_outcome`` must
reach its full answer, not that known gap.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

from fqlab.cli import dispatch

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"


def load_run():
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARK / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_commands_match_expected(tmp_path):
    run = load_run()
    expected = json.loads((BENCHMARK / "expected.json").read_text(encoding="utf-8"))
    files = dict(run.INPUT_FILES)
    files["t237.pres"] = f"gens: a b\nrels: {', '.join(run.T237_RELATORS)}\n"
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    seen = set()
    for commands in run.WORKLOADS.values():
        for cid, argv in commands:
            argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = dispatch(argv)
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            assert (code, digest) == (expected[cid]["exit"], expected[cid]["sha256"]), cid
            seen.add(cid)
    assert seen == set(expected)
