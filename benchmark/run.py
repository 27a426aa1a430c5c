"""Benchmark of the ``fqlab`` command line on four fixed workloads.

    python3 benchmark/run.py --workload census --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout.  Each workload is a fixed list of
``fqlab`` commands.  They run in sequence, one fresh process each, the
way a user runs the tool: a closed loop with one client, where each
command starts only after the previous one has exited.  Passes over
the list repeat, at least twice, while half of another pass of the
same length still fits in ``--seconds``.  Every command's exit code and
stdout sha256 are checked against expected.json, and the sieve counts
against the library's pointwise oracle.

The host's speed drifts, so each command's wall and CPU time is also
divided by that of reference.py, a fixed program run just before and
just after it on the same CPU.

``--trace 0`` reports the end-to-end metrics: medians over the passes.
``--trace 1`` alternates plain and traced passes (tracer.py) and
reports the per-layer metrics; a count that differs between two traced
passes makes the run incorrect.

``--seed 0`` runs the commands as listed.  Any other seed rotates the
relator order of the ``fq`` presentation and shuffles the command order
within the workload; neither changes any command's correct output.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md explains the
choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
WORK = os.path.join(ROOT, ".bench_build", "fqlab")

# A run ends within this many seconds; a command still running then is
# killed and counts as failed.
DEADLINE_S = 165.0
SETUP_SAMPLES = 9
MIN_PASSES = 2

CHECKPOINTS = "100000,1000000,5998000,6000000"
WINDOW = (5_998_000, 6_000_000)
T237_RELATORS = ("a^2", "b^3", "(a b)^7")
INPUT_FILES = {
    "dinf.pres": "gens: a b\nrels: a^2, b^2\n",
    "quarter_turn.pres": "gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n",
}

# name -> commands as (id, argv); "@name" stands for an input file.
WORKLOADS = {
    "sieve": [
        ("density_sp6", ["density", "--set", "sp:6", "--checkpoints", CHECKPOINTS]),
        ("density_np3", ["density", "--set", "np:3", "--checkpoints", CHECKPOINTS]),
    ],
    "census": [
        ("census_120", ["census", "--max-index", "120"]),
    ],
    "fq": [
        ("fq_t237_200", ["fq", "--presentation", "@t237.pres", "--max-index", "200"]),
        ("classify_dinf", ["classify", "--presentation", "@dinf.pres"]),
        ("classify_quarter_turn", ["classify", "--presentation", "@quarter_turn.pres"]),
    ],
    "symmetry": [
        ("report_w3_5", ["graphs", "--family", "w", "--k", "3", "--r", "5", "--report"]),
        ("report_w3_6", ["graphs", "--family", "w", "--k", "3", "--r", "6", "--report"]),
        ("report_sw4_6", ["graphs", "--family", "sw", "--k", "4", "--r", "6", "--report"]),
        ("verify", ["verify"]),
    ],
}

# Counts that must repeat exactly between two traced passes.
EXACT = (
    "numtheory.segments",
    "numtheory.primes_listed",
    "numtheory.prime_bytes",
    "numtheory.oracle_calls",
    "fpgroup.tables",
    "fpgroup.leaves",
    "fpgroup.verify_calls",
    "permgroup.closures",
    "permgroup.closure_elements",
    "permgroup.cap_hits",
    "graphs.local_actions",
)


def make_inputs(seed: int) -> None:
    """Write the input files; a nonzero seed rotates the fq relators."""
    os.makedirs(WORK, exist_ok=True)
    shift = random.Random(seed).randrange(len(T237_RELATORS)) if seed else 0
    rels = T237_RELATORS[shift:] + T237_RELATORS[:shift]
    files = dict(INPUT_FILES, **{"t237.pres": f"gens: a b\nrels: {', '.join(rels)}\n"})
    for name, text in files.items():
        with open(os.path.join(WORK, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def commands_for(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    cmds = [
        (cid, [os.path.join(WORK, a[1:]) if a.startswith("@") else a for a in argv])
        for cid, argv in WORKLOADS[workload]
    ]
    if seed:
        random.Random(seed).shuffle(cmds)
    return cmds


def child_env(trace_out: str | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FQLAB_BUDGET"}
    if trace_out is not None:
        env["BENCH_TRACE_OUT"] = trace_out
    return env


def spawn(argv: list[str], env: dict[str, str], deadline: float, script: str = CHILD) -> dict:
    """Run ``script``, by default an fqlab command, in a fresh process; time it."""
    out_path, err_path = os.path.join(WORK, "stdout"), os.path.join(WORK, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, script, *argv], cwd=ROOT, env=env, stdout=out, stderr=err
        )
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace").strip()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout": stdout,
        "stderr": stderr,
    }


def reference_times(deadline: float) -> tuple[float, float]:
    """Wall and CPU seconds of one run of reference.py."""
    r = spawn([], child_env(), deadline, REFERENCE)
    if r["exit"] != 0:
        raise RuntimeError(f"reference.py failed: {r['stderr']}")
    return r["wall_s"], r["cpu_s"]


def judge(expect: dict, result: dict) -> str:
    """pass: the expected answer; gap: the known seed outcome; else fail."""
    seen = (result["exit"], result["sha256"])
    if seen == (expect["exit"], expect["sha256"]):
        return "pass"
    gap = expect.get("seed_outcome")
    if gap is not None and seen == (gap["exit"], gap["sha256"]):
        return "gap"
    return "fail"


def run_pass(cmds, expected, deadline, trace_dir=None) -> list[dict]:
    """Run the commands once each, timing reference.py around each."""
    results = []
    ref_before = reference_times(deadline)
    for cid, argv in cmds:
        trace_out = None if trace_dir is None else os.path.join(trace_dir, f"{cid}.json")
        if trace_out is not None and os.path.exists(trace_out):
            os.remove(trace_out)
        r = spawn(argv, child_env(trace_out), deadline)
        ref_after = reference_times(deadline)
        r["ref_s"], ref_cpu = (statistics.mean(pair) for pair in zip(ref_before, ref_after))
        r["wall_rel"] = r["wall_s"] / r["ref_s"]
        r["cpu_rel"] = r["cpu_s"] / ref_cpu
        ref_before = ref_after
        r["id"] = cid
        r["outcome"] = judge(expected[cid], r)
        if trace_out is not None:
            try:
                with open(trace_out, encoding="utf-8") as fh:
                    r["trace"] = json.load(fh)
            except OSError:
                r["outcome"] = "fail"
                r["trace"] = {"import_s": 0.0, "self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
        results.append(r)
        print(
            f"  {cid:<22} {r['outcome']:<4} exit={r['exit']} wall={r['wall_s']:.3f}s "
            f"cpu={r['cpu_s']:.3f}s rss={r['rss_mb']:.1f}MB "
            f"wall/ref={r['wall_rel']:.2f} cpu/ref={r['cpu_rel']:.2f}",
            flush=True,
        )
        if r["outcome"] != "pass" and r["stderr"]:
            print(f"    {r['stderr'].splitlines()[-1]}")
    return results


def setup_times(samples: int, deadline: float, warm_up: bool) -> tuple[list[float], bool]:
    """Wall times of fresh ``fqlab --version`` runs, after an untimed one if asked."""
    times, ok = [], True
    for i in range(samples + warm_up):
        r = spawn(["--version"], child_env(), deadline)
        ok = ok and r["exit"] == 0 and r["stdout"].startswith(b"fqlab ")
        if i or not warm_up:
            times.append(r["wall_s"])
    return times, ok


def sieve_oracle(results: list[dict]) -> None:
    """Re-derive the last checkpoint window pointwise; failures mark the result."""
    sys.path.insert(0, SRC)
    from fqlab.numtheory import np_contains, sp_contains

    members = {
        "density_sp6": lambda n: sp_contains(n, 6),
        "density_np3": lambda n: np_contains(n, 3),
    }
    lo, hi = WINDOW
    verdict: dict[tuple[str, str], bool] = {}
    for r in results:
        key = (r["id"], r["sha256"])
        if key not in verdict:
            try:
                rows = [line.split(",") for line in r["stdout"].decode().splitlines()[1:]]
                counts = {int(row[0]): int(row[1]) for row in rows}
                got = counts[hi] - counts[lo]
            except (ValueError, KeyError, IndexError):
                verdict[key] = False
            else:
                want = sum(members[r["id"]](n) for n in range(lo + 1, hi + 1))
                verdict[key] = got == want
                print(f"  oracle {r['id']}: sieve {got}, pointwise {want}")
        if not verdict[key]:
            r["outcome"] = "fail"


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for level in (2, 3):
        try:
            path = os.path.join(base, f"index{level}")
            with open(os.path.join(path, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            with open(os.path.join(path, "shared_cpu_list"), encoding="utf-8") as fh:
                shared = fh.read().strip()
            caches.append(f"L{level} {size} shared by cpus {shared}")
        except OSError:
            pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return (
        f"nproc {os.cpu_count()}; cpu {cpu}; {'; '.join(caches)}; "
        f"python {sys.version.split()[0]}; numpy {numpy}"
    )


def command_medians(results: list[dict], key: str) -> list[float]:
    """Per command, the median of ``key`` over the passes."""
    per_cmd: dict[str, list[float]] = {}
    for r in results:
        per_cmd.setdefault(r["id"], []).append(r[key])
    return [statistics.median(v) for v in per_cmd.values()]


def end_to_end(results: list[dict], setup: list[float]) -> dict:
    """Per command the median over passes; times summed, RSS the largest."""
    passed = sum(r["outcome"] == "pass" for r in results)
    return {
        "wall_rel": {"value": sum(command_medians(results, "wall_rel")), "unit": "ref"},
        "cpu_rel": {"value": sum(command_medians(results, "cpu_rel")), "unit": "ref"},
        "peak_rss_mb": {"value": max(command_medians(results, "rss_mb")), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_ratio": {"value": passed / len(results), "unit": "ratio"},
    }


def traced_totals(results: list[dict]) -> dict:
    """Sum the child summaries of one traced pass."""
    agg = {key: Counter() for key in ("self_s", "total_s", "calls", "counts")}
    for r in results:
        for key, counter in agg.items():
            counter.update(r["trace"][key])
    agg["import_s"] = statistics.median(r["trace"]["import_s"] for r in results)
    return agg


def per_layer(agg: dict) -> dict[str, tuple[float, str]]:
    self_s, total_s, calls, counts = agg["self_s"], agg["total_s"], agg["calls"], agg["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    sieve_s = self_s["numtheory.SieveSet.segment_bits"]
    tables = counts["fpgroup.tables"]
    closure_s = self_s["permgroup.closure"]
    return {
        "numtheory.sieve_s": (sieve_s, "s"),
        "numtheory.segments": (calls["numtheory.SieveSet.segment_bits"], "count"),
        "numtheory.ints_per_s": (ratio(counts["numtheory.ints_sieved"], sieve_s), "1/s"),
        "numtheory.primes_s": (
            self_s["numtheory.primes_up_to"] + self_s["numtheory.SieveSet.admissible_primes"],
            "s",
        ),
        "numtheory.primes_listed": (counts["numtheory.primes_listed"], "count"),
        "numtheory.prime_bytes": (8 * counts["numtheory.primes_listed"], "B_computed"),
        "numtheory.oracle_calls": (
            calls["numtheory.np_contains"] + calls["numtheory.sp_contains"],
            "count",
        ),
        "numtheory.self_s": (layer_self("numtheory"), "s"),
        "fpgroup.search_s": (self_s["fpgroup.low_index_normal_subgroups"], "s"),
        "fpgroup.tables": (tables, "count"),
        "fpgroup.leaves": (counts["fpgroup.leaves"], "count"),
        "fpgroup.leaf_yield": (ratio(tables, counts["fpgroup.leaves"]), "ratio"),
        "fpgroup.verify_calls": (calls["fpgroup.verify_table"], "count"),
        "fpgroup.verify_per_table": (ratio(calls["fpgroup.verify_table"], tables), "ratio"),
        "fpgroup.verify_s": (self_s["fpgroup.verify_table"], "s"),
        "fpgroup.smooth_yield": (ratio(counts["fpgroup.smooth_kept"], tables), "ratio"),
        "fpgroup.classify_s": (total_s["fpgroup.classify_density"], "s"),
        "fpgroup.self_s": (layer_self("fpgroup"), "s"),
        "permgroup.closure_s": (closure_s, "s"),
        "permgroup.closures": (counts["permgroup.closures"], "count"),
        "permgroup.closure_elements": (counts["permgroup.closure_elements"], "count"),
        "permgroup.elements_per_s": (
            ratio(counts["permgroup.closure_elements"], closure_s),
            "1/s",
        ),
        "permgroup.cap_hits": (counts["permgroup.cap_hits"], "count"),
        "permgroup.normal_subgroups_s": (self_s["permgroup.normal_subgroups"], "s"),
        "permgroup.quotient_s": (self_s["permgroup.quotient_with_map"], "s"),
        "permgroup.stabilizer_s": (self_s["permgroup.stabilizer"], "s"),
        "permgroup.self_s": (layer_self("permgroup"), "s"),
        "graphs.report_s": (self_s["graphs.transitivity_report"], "s"),
        "graphs.local_actions": (calls["graphs.local_action"], "count"),
        "graphs.build_s": (total_s["graphs.build_w"] + total_s["graphs.build_sw"], "s"),
        "graphs.census_s": (self_s["graphs.cubic_census"], "s"),
        "graphs.self_s": (layer_self("graphs"), "s"),
        "cli.import_s": (agg["import_s"], "s"),
        "cli.self_s": (self_s["cli.dispatch"], "s"),
        "cli.dispatch_s": (total_s["cli.dispatch"], "s"),
    }


def traced_metrics(plain: list[dict], traced: list[list[dict]]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced passes, counts checked equal."""
    layers = [per_layer(traced_totals(p)) for p in traced]
    unstable = [k for k in EXACT if len({m[k][0] for m in layers}) > 1]
    out = {
        k: {
            "value": layers[0][k][0]
            if k in EXACT
            else float(statistics.median(m[k][0] for m in layers)),
            "unit": unit,
        }
        for k, (_, unit) in layers[0].items()
    }
    # Compared in reference units, so that host drift between the passes
    # does not swamp the overhead, and turned back into seconds.
    flat = [r for p in traced for r in p]
    extra = sum(command_medians(flat, "wall_rel")) - sum(command_medians(plain, "wall_rel"))
    out["trace.overhead_s"] = {
        "value": extra * statistics.median(r["ref_s"] for r in plain + flat),
        "unit": "s",
    }
    dispatch = out["cli.dispatch_s"]["value"]
    shares = ", ".join(
        f"{layer} {out[layer + '.self_s']['value'] / dispatch:.1%}"
        for layer in ("numtheory", "fpgroup", "permgroup", "graphs", "cli")
        if dispatch
    )
    print(f"  self time as a share of dispatch: {shares}")
    return out, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fqlab", "cli.py")):
        print(f"run.py: no fqlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)

    # Commands and reference.py run on one CPU, so that both see the
    # same share of the host.
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    start = time.monotonic()
    deadline = start + DEADLINE_S
    make_inputs(args.seed)
    cmds = commands_for(args.workload, args.seed)
    print(f"machine: {machine()}; pinned to cpu {core}")
    print(f"workload {args.workload}, seed {args.seed}: {', '.join(c for c, _ in cmds)}")

    setup, version_ok = setup_times(0 if args.trace else SETUP_SAMPLES, deadline, True)
    results: list[dict] = []
    unstable: list[str] = []
    # Passes run, at least MIN_PASSES, while half of another one of the
    # same length still fits.  Traced runs alternate plain and traced.
    plain: list[dict] = []
    traced: list[list[dict]] = []
    trace_dir = os.path.join(WORK, "trace")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    begin = time.monotonic()
    while True:
        before = time.monotonic()
        if args.trace:
            plain += run_pass(cmds, expected, deadline)
            traced.append(run_pass(cmds, expected, deadline, trace_dir))
            results += traced[-1]
        else:
            results += run_pass(cmds, expected, deadline)
            # A set-up sample after each pass spreads them over the run.
            more, ok = setup_times(1, deadline, False)
            setup, version_ok = setup + more, version_ok and ok
        now = time.monotonic()
        enough = len(results) >= MIN_PASSES * len(cmds)
        if enough and now + (now - before) / 2 > begin + args.seconds:
            break
    results = plain + results
    if args.workload == "sieve":
        sieve_oracle(results)

    if args.trace:
        metrics, unstable = traced_metrics(plain, traced)
        if unstable:
            print(f"  counts differ between traced passes: {', '.join(unstable)}")
    else:
        metrics = end_to_end(results, setup)
        print(f"  {len(results) // len(cmds)} passes; {len(setup)} setup samples")
        wall, cpu = (sum(command_medians(results, k)) for k in ("wall_s", "cpu_s"))
        print(f"  in seconds: wall {wall:.3f}, cpu {cpu:.3f}")
    failed = sum(r["outcome"] == "fail" for r in results)
    if not version_ok:
        print("  fqlab --version printed an unexpected line")
    summary = {
        "correct": failed == 0 and version_ok and not unstable,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
