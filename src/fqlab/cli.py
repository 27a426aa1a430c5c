"""Command line front end.

    fqlab SUBCOMMAND [--name VALUE | --name=VALUE | --flag]...
    fqlab [SUBCOMMAND] -h | --help
    fqlab --version

One table, ``_COMMANDS``, gives each subcommand's handler, summary and
options; the parser and ``--help`` both read it.  Option names are
written in full, a value never starts with ``--``, and an option given
twice keeps its last value.

The primary output is CSV (for ``graphs`` without ``--report``, the
edge-list text format), written to ``--csv``/``--out`` or stdout.
``--manifest PATH`` additionally records the run as key,value rows:
subcommand, every parameter, a digest of every input file, the tool
version, wall time and a completeness flag.  Runs with the same
parameters produce byte-identical primary output; only the manifest's
wall time varies.

Exit codes: 0 success; 2 usage errors, malformed input, an input file
that cannot be read or an output path that cannot be written; 3 exhausted
search budgets, including partial results kept under ``--allow-partial``,
or a relator or graph family over its size budget, refused before it is
built; 4 a violated internal invariant, or any failed ``verify`` row.  The
environment variable ``FQLAB_BUDGET`` overrides the default node budget
of the quotient searches.

Each handler imports the library layers it runs, so a command loads only
those; ``--version`` and ``--help`` load none, and the front end imports
no ``argparse``.  ``sieve`` and ``density`` load ``numtheory`` and
``pointwise``.  ``fq``, ``oq``, ``smooth`` and ``census`` load the
``fpgroup`` search: ``quotients``, ``lowindex``, ``coset`` and
``presentation``; ``census`` adds ``census``.  ``classify`` loads
``fpgroup``'s ``classify``, ``coset``, ``presentation`` and ``snf``, and
``budgets``.  None of these loads ``permgroup``: a table is certified
from the table itself, with ``orbit``.  ``graphs`` loads ``graphs`` and
``permgroup``; ``verify`` adds ``catalog``, ``lattice``, ``pointwise``
and ``sweeps``, which holds the verification sweeps and their checks.
Every command is a fresh process and pays its start-up on each run, so
the package's records are ``typing.NamedTuple``s or plain classes; a
record decorator that generates methods at import would add about 20 ms.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    GroupTooLargeError,
    InputSyntaxError,
    InternalInvariantError,
    ResourceBudgetError,
    SearchBudgetError,
)

if TYPE_CHECKING:
    from .graphs import GraphAction

BUDGET_ERRORS = (SearchBudgetError, ResourceBudgetError, GroupTooLargeError)


class CommandOutput:
    """What a subcommand produced, before any of it touches disk."""

    def __init__(
        self,
        header: tuple[str, ...] | None,
        rows: list[tuple],
        complete: bool = True,
        text: str | None = None,
        files: dict[str, str] | None = None,
        inputs: list[str] | None = None,
        failures: int = 0,
    ) -> None:
        self.header = header
        self.rows = rows
        self.complete = complete
        self.text = text
        self.files = files or {}
        self.inputs = inputs or []
        self.failures = failures


def _text(value) -> str:
    """A parameter or flag as text: booleans lowercase, None empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _csv_text(header: tuple[str, ...] | None, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_csv(table) -> str:
    header = ["coset"]
    for name in table.pres.generator_names:
        header.extend((name, name + "^-1"))
    rows = [[i, *row] for i, row in enumerate(table.rows)]
    return _csv_text(tuple(header), rows)


def _table_files(args: SimpleNamespace, tables) -> dict[str, str]:
    """``table_<m>.csv`` under ``--emit-tables`` for each (m, coset table) pair."""
    if not args.emit_tables:
        return {}
    return {os.path.join(args.emit_tables, f"table_{m}.csv"): _table_csv(t) for m, t in tables}


def _digest(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputSyntaxError(f"cannot read {path}: {err.strerror}") from err


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} wants comma-separated integers, got {text!r}") from None


# --- subcommand handlers ---


def _run_density(args: SimpleNamespace) -> CommandOutput:
    """``density``, and ``sieve``, its one checkpoint ``--limit``."""
    from .numtheory import density_series

    if args.subcommand == "sieve":
        checkpoints = [args.limit]
    else:
        checkpoints = _parse_int_list(args.checkpoints, "--checkpoints")
    series = density_series(args.set, checkpoints)
    rows = [(cp.limit, cp.count, cp.ratio) for cp in series.checkpoints]
    return CommandOutput(("limit", "count", "density"), rows)


def _quotient_output(args: SimpleNamespace, result) -> CommandOutput:
    files = _table_files(args, ((m, result.certificates[m]) for m in result.orders))
    rows = [(order,) for order in result.orders]
    return CommandOutput(("order",), rows, complete=result.complete, files=files)


def _run_fq(args: SimpleNamespace) -> CommandOutput:
    """``fq``, and ``oq``, which keeps the odd orders."""
    from .fpgroup import fq_up_to, oq_up_to, parse_presentation

    search = oq_up_to if args.subcommand == "oq" else fq_up_to
    pres = parse_presentation(_read_text(args.presentation))
    result = search(pres, args.max_index, allow_partial=args.allow_partial)
    out = _quotient_output(args, result)
    out.inputs = [args.presentation]
    return out


def _run_classify(args: SimpleNamespace) -> CommandOutput:
    from .fpgroup import classify_density, parse_presentation

    pres = parse_presentation(_read_text(args.presentation))
    dc = classify_density(pres)
    density = {2: "1", 1: "1/2", 0: "0"}[dc.density_numerator]
    rows = [
        ("classification", dc.tag),
        ("density", density),
        ("abelian_invariants", " ".join(str(d) for d in dc.abelian_invariants)),
    ]
    if dc.tag == "infinite_cyclic":
        rows.append(("cyclic_witness", " ".join(str(t) for t, _ in dc.images)))
    if dc.tag == "infinite_dihedral":
        reflection = [s for _, s in dc.images].index(-1)
        rows.append(("dihedral_generator", pres.generator_names[reflection]))
        rows.append(("dihedral_functional", " ".join(str(c) for c in dc.dihedral_functional)))
    if dc.index_two_checked is not None:
        rows.append(("index_two_checked", str(dc.index_two_checked)))
    return CommandOutput(("key", "value"), rows, inputs=[args.presentation])


def _run_smooth(args: SimpleNamespace) -> CommandOutput:
    from .fpgroup import smooth_quotients

    orders = tuple(_parse_int_list(args.orders, "--orders"))
    result = smooth_quotients(orders, args.max_index, allow_partial=args.allow_partial)
    return _quotient_output(args, result)


def _run_census(args: SimpleNamespace) -> CommandOutput:
    if (args.presentation is None) != (args.stabilizer_order is None):
        raise ValueError("--presentation and --stabilizer-order go together")
    from .census import amalgam_census, cubic_census

    inputs = []
    if args.presentation is None:
        result = cubic_census(args.max_index, allow_partial=args.allow_partial)
    else:
        from .fpgroup import parse_presentation

        pres = parse_presentation(_read_text(args.presentation))
        inputs.append(args.presentation)
        result = amalgam_census(
            pres, args.stabilizer_order, args.max_index, allow_partial=args.allow_partial
        )
    rows = [
        (e.order, e.certificate_index, "possibly non-simple" if e.flagged else "")
        for e in result.entries
    ]
    files = _table_files(args, ((e.certificate_index, e.table) for e in result.entries))
    header = ("order", "certificate_index", "flagged")
    return CommandOutput(header, rows, complete=result.complete, files=files, inputs=inputs)


def build_w(k: int, r: int) -> GraphAction:
    """``graphs.build_w``, imported on first call.

    ``graphs --family w`` builds through this module-level name, which
    ``benchmark/freeze.py`` rebinds to give W(3,6) a larger element cap.
    """
    from .graphs import build_w

    return build_w(k, r)


def _run_graphs(args: SimpleNamespace) -> CommandOutput:
    from .graphs import build_sw, graph_to_text, transitivity_report

    build = build_w if args.family == "w" else build_sw
    action = build(args.k, args.r)
    if not args.report:
        return CommandOutput(None, [], text=graph_to_text(action.graph))
    rep = transitivity_report(action)
    shapes = ";".join(f"{v}:{s.tag}:{s.parameter}" for v, s in rep.local_shapes)
    rows = [
        ("vertex_transitive", _text(rep.vertex_transitive)),
        ("edge_transitive", _text(rep.edge_transitive)),
        ("arc_transitive", _text(rep.arc_transitive)),
        ("locally_transitive", _text(rep.locally_transitive)),
        ("vertex_orbit_count", str(rep.vertex_orbit_count)),
        ("edge_orbit_count", str(rep.edge_orbit_count)),
        ("local_shapes", shapes),
    ]
    return CommandOutput(("key", "value"), rows)


def _run_verify(args: SimpleNamespace) -> CommandOutput:
    from .catalog import load_catalog, parse_catalog
    from .sweeps import verification_rows

    groups = parse_catalog(_read_text(args.fixtures)) if args.fixtures else load_catalog()
    rows = verification_rows(groups)
    inputs = [args.fixtures] if args.fixtures else []
    failures = sum(row[2] == "fail" for row in rows)
    header = ("check", "subject", "result")
    return CommandOutput(header, rows, inputs=inputs, failures=failures)


# --- command table, parser and dispatch ---

# An option is (name, kind, required, help), kind being str, int (every integer option is a
# positive count), a tuple of the allowed values or bool for a flag.  In the namespace an
# option not given reads None, a flag not given False.
_CSV = ("--csv", str, False, "write the primary table here instead of stdout")
_MANIFEST = ("--manifest", str, False, "write a key,value record of the run")
_SET = ("--set", str, True, "all, np:<p> or sp:<a>")
_PRESENTATION = ("--presentation", str, True,
                 "file with a 'gens:' line of generators and a 'rels:' line of relators")
_PARTIAL = ("--allow-partial", bool, False,
            "keep results found before the budget ran out and exit 3")
_TABLES = ("--emit-tables", str, False, "write one coset table CSV per certificate")
_SEARCH = (("--max-index", int, True, "largest quotient order, the index of the normal subgroup"),
           _PARTIAL, _TABLES, _CSV, _MANIFEST)

# subcommand: (handler, summary, *options), in the order ``--help`` lists them
_COMMANDS = {
    "sieve": (_run_density, "count set members up to one limit",
        _SET, ("--limit", int, True, "count the members from 1 up to this integer"), _CSV, _MANIFEST),
    "density": (_run_density, "count set members at several limits",
        _SET, ("--checkpoints", str, True, "comma-separated ascending limits"), _CSV, _MANIFEST),
    "fq": (_run_fq, "finite quotient orders of a presented group", _PRESENTATION, *_SEARCH),
    "oq": (_run_fq, "odd finite quotient orders", _PRESENTATION, *_SEARCH),
    "classify": (_run_classify, "density class of the quotient-order set",
        _PRESENTATION, _CSV, _MANIFEST),
    "smooth": (_run_smooth, "free-product quotients where every factor survives",
        ("--orders", str, True, "comma-separated cyclic factor orders"), *_SEARCH),
    "census": (_run_census, "graph orders certified by a quotient search",
        ("--presentation", str, False, "amalgam presentation to search"),
        ("--stabilizer-order", int, False, "vertex stabilizer order s of the amalgam: the "
         "generators but the last span the stabilizer, the last reverses an arc, and s is "
         "checked per table"),
        *_SEARCH),
    "graphs": (_run_graphs, "build a parametric graph",
        ("--family", ("w", "sw"), True, "w: W(k, r), r layers in a cycle, each completely "
         "joined to the next; sw: SW(k, r), W with each vertex split into a matched pair"),
        ("--k", int, True, "vertices per layer (w), matched pairs per layer (sw)"),
        ("--r", int, True, "layers in the cycle: at least 3 for w, 2 for sw"),
        ("--report", bool, False, "emit the transitivity report instead"),
        ("--out", str, False, "write output here instead of stdout"), _MANIFEST),
    "verify": (_run_verify, "run the verification sweeps",
        ("--fixtures", str, False, "group catalog file replacing the built-in"), _CSV, _MANIFEST),
}


def _help(command: str | None) -> str:
    """The ``--help`` text of fqlab, or of one subcommand."""
    if command is None:
        usage = "<subcommand>"
        about = "Quotient-order enumeration, divisor-class sieves and graph transitivity checks."
        rows = [(name, summary) for name, (_, summary, *_) in _COMMANDS.items()]
        rows.append(("--version", "print the version and exit"))
    else:
        _, about, *options = _COMMANDS[command]
        usage, rows = command, []
        for name, kind, required, text in options:
            if kind is not bool:
                metavar = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else name[2:].upper()
                name += " " + metavar
            if required:
                usage += f" {name}"
            rows.append((name, text))
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows)
    body = "".join(f"  {left:<{width}}  {text}".rstrip() + "\n" for left, text in rows)
    return f"usage: fqlab {usage} [options]\n\n{about}\n\n{body}"


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of one command line, or None once help or the version is
    printed.  A usage error raises ValueError with its one-line message."""
    command = argv[0] if argv else None
    if command in ("--version", "-h", "--help"):
        sys.stdout.write(f"fqlab {__version__}\n" if command == "--version" else _help(None))
        return None
    if command not in _COMMANDS:
        given = f"unknown subcommand {command!r}" if argv else "no subcommand"
        raise ValueError(f"{given}, choose from {', '.join(_COMMANDS)}")
    options = {option[0]: option for option in _COMMANDS[command][2:]}
    values = {name: False if kind is bool else None for name, kind, _, _ in options.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return None
        name, eq, value = token.partition("=")
        if name not in options:
            raise ValueError(f"unknown option {token!r} for {command}")
        kind = options[name][1]
        if kind is bool:
            if eq:
                raise ValueError(f"{name} is a flag and takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{name} wants a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{name} wants an integer, got {value!r}") from None
            if value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")
        elif isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        values[name] = value
    missing = [n for n, _, required, _ in options.values() if required and values[n] is None]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
    fields = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(subcommand=command, **fields)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        err.filename = path
        raise


def _write_files(out: CommandOutput, args: SimpleNamespace, wall_ms: int) -> None:
    """Write the primary output, tables and manifest; an OSError names its path."""
    payload = out.text if out.text is not None else _csv_text(out.header, out.rows)
    primary = getattr(args, "csv", None) or getattr(args, "out", None)
    if primary:
        _write_text(primary, payload)
    else:
        sys.stdout.write(payload)
    for path, content in out.files.items():
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        _write_text(path, content)
    if args.manifest:
        rows = [("subcommand", args.subcommand)]
        params = sorted(vars(args).items())
        rows += [(f"parameter:{key}", _text(value)) for key, value in params if key != "subcommand"]
        rows += [(f"input:{path}", _digest(path)) for path in out.inputs]
        rows += [("version", __version__), ("wall_ms", str(wall_ms))]
        rows.append(("complete", _text(out.complete and out.failures == 0)))
        _write_text(args.manifest, _csv_text(("key", "value"), rows))


def dispatch(argv=None) -> int:
    """Parse arguments, run one subcommand and map errors to exit codes."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        start = time.monotonic()
        out = _COMMANDS[args.subcommand][0](args)
    except (InputSyntaxError, ValueError) as err:
        print(f"fqlab: error: {err}", file=sys.stderr)
        return 2
    except BUDGET_ERRORS as err:
        print(f"fqlab: budget exhausted: {err}", file=sys.stderr)
        return 3
    except InternalInvariantError as err:
        print(f"fqlab: internal invariant violated: {err}", file=sys.stderr)
        return 4
    wall_ms = int((time.monotonic() - start) * 1000)
    try:
        _write_files(out, args, wall_ms)
    except OSError as err:
        where = err.filename or "stdout"
        print(f"fqlab: error: cannot write {where}: {err.strerror}", file=sys.stderr)
        return 2
    if out.failures:
        print(f"fqlab: {out.failures} verification row(s) failed", file=sys.stderr)
        return 4
    if not out.complete:
        print("fqlab: partial result, budget ran out", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
