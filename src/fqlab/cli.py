"""Command line front end.

Subcommands
    sieve      member count of one sieved set at a single limit
    density    cumulative counts at ascending checkpoint limits
    fq         finite quotient orders of a presented group
    oq         the odd orders among those
    classify   density class of the quotient-order set, with witnesses
    smooth     quotients of a free product where every factor survives
    census     graph orders certified by a quotient search
    graphs     build a parametric graph, emit its edge list or report
    verify     run the verification sweeps and print a pass/fail table

``census --presentation`` reads an amalgam in the arc-transitive
convention: the generators but the last span the vertex stabilizer, the
last reverses an arc, and s (``--stabilizer-order``) is checked per table.

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

Each handler imports the library layers it runs, so a command loads
only those; ``--version`` loads none.  ``sieve`` and ``density`` load
``numtheory``.  ``fq``, ``oq``, ``smooth`` and ``census`` load the
``fpgroup`` search: ``quotients``, ``lowindex``, ``coset`` and
``presentation``; ``census`` adds ``census``.  ``classify`` loads
``fpgroup``'s ``classify``, ``coset``, ``presentation`` and ``snf``,
and ``budgets``.
None of these loads ``permgroup``: a table is certified from the table
itself, with ``orbit``.  ``graphs`` loads ``graphs`` and
``permgroup``; ``verify`` adds ``catalog``, ``numtheory`` and
``sweeps``, which holds the verification sweeps and their checks.
Every command is a fresh process and pays its start-up on each run, so
the package's records are ``typing.NamedTuple``s or plain classes; a
record decorator that generates methods at import would add about
20 ms.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
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


def _table_files(args: argparse.Namespace, tables) -> dict[str, str]:
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


def _run_sieve(args: argparse.Namespace) -> CommandOutput:
    from .numtheory import density_series, parse_set_name

    series = density_series(parse_set_name(args.set), [args.limit])
    cp = series.checkpoints[0]
    return CommandOutput(("limit", "count", "density"), [(cp.limit, cp.count, cp.ratio)])


def _run_density(args: argparse.Namespace) -> CommandOutput:
    from .numtheory import density_series, parse_set_name

    checkpoints = _parse_int_list(args.checkpoints, "--checkpoints")
    series = density_series(parse_set_name(args.set), checkpoints)
    rows = [(cp.limit, cp.count, cp.ratio) for cp in series.checkpoints]
    return CommandOutput(("limit", "count", "density"), rows)


def _quotient_output(args: argparse.Namespace, result) -> CommandOutput:
    files = _table_files(args, ((m, result.certificates[m]) for m in result.orders))
    rows = [(order,) for order in result.orders]
    return CommandOutput(("order",), rows, complete=result.complete, files=files)


def _run_fq(args: argparse.Namespace) -> CommandOutput:
    """``fq``, and ``oq``, which keeps the odd orders."""
    from .fpgroup import fq_up_to, oq_up_to, parse_presentation

    search = oq_up_to if args.subcommand == "oq" else fq_up_to
    pres = parse_presentation(_read_text(args.presentation))
    result = search(pres, args.max_index, allow_partial=args.allow_partial)
    out = _quotient_output(args, result)
    out.inputs = [args.presentation]
    return out


def _run_classify(args: argparse.Namespace) -> CommandOutput:
    from .fpgroup import classify_density, parse_presentation

    pres = parse_presentation(_read_text(args.presentation))
    dc = classify_density(pres)
    density = {2: "1", 1: "1/2", 0: "0"}[dc.density_numerator]
    rows = [
        ("classification", dc.tag),
        ("density", density),
        ("abelian_invariants", " ".join(str(d) for d in dc.abelian_invariants)),
    ]
    if dc.cyclic_witness is not None:
        rows.append(("cyclic_witness", " ".join(str(c) for c in dc.cyclic_witness)))
    if dc.dihedral_generator is not None:
        rows.append(("dihedral_generator", pres.generator_names[dc.dihedral_generator]))
        rows.append(("dihedral_functional", " ".join(str(c) for c in dc.dihedral_functional)))
    if dc.index_two_checked is not None:
        rows.append(("index_two_checked", str(dc.index_two_checked)))
    return CommandOutput(("key", "value"), rows, inputs=[args.presentation])


def _run_smooth(args: argparse.Namespace) -> CommandOutput:
    from .fpgroup import smooth_quotients

    orders = tuple(_parse_int_list(args.orders, "--orders"))
    result = smooth_quotients(orders, args.max_index, allow_partial=args.allow_partial)
    return _quotient_output(args, result)


def _run_census(args: argparse.Namespace) -> CommandOutput:
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


def _run_graphs(args: argparse.Namespace) -> CommandOutput:
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


def _run_verify(args: argparse.Namespace) -> CommandOutput:
    from .catalog import load_catalog, parse_catalog
    from .sweeps import verification_rows

    groups = parse_catalog(_read_text(args.fixtures)) if args.fixtures else load_catalog()
    rows = verification_rows(groups)
    inputs = [args.fixtures] if args.fixtures else []
    failures = sum(row[2] == "fail" for row in rows)
    header = ("check", "subject", "result")
    return CommandOutput(header, rows, inputs=inputs, failures=failures)


# --- parser and dispatch ---


def _add_output_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--csv", metavar="PATH", help="write the primary table here instead of stdout")
    sp.add_argument("--manifest", metavar="PATH", help="write a key,value record of the run")


def _add_search_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--allow-partial",
        action="store_true",
        help="keep results found before the budget ran out and exit 3",
    )
    sp.add_argument(
        "--emit-tables", metavar="DIR", help="write one coset table CSV per certificate"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqlab",
        description="Quotient-order enumeration, divisor-class sieves and graph transitivity checks.",
    )
    parser.add_argument("--version", action="version", version=f"fqlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    sp = sub.add_parser("sieve", help="count set members up to one limit")
    sp.add_argument("--set", required=True, help="all, np:<p> or sp:<a>")
    sp.add_argument("--limit", type=int, required=True)
    _add_output_options(sp)
    sp.set_defaults(handler=_run_sieve)

    sp = sub.add_parser("density", help="count set members at several limits")
    sp.add_argument("--set", required=True, help="all, np:<p> or sp:<a>")
    sp.add_argument("--checkpoints", required=True, help="comma-separated ascending limits")
    _add_output_options(sp)
    sp.set_defaults(handler=_run_density)

    for name, handler, summary in (
        ("fq", _run_fq, "finite quotient orders of a presented group"),
        ("oq", _run_fq, "odd finite quotient orders"),
    ):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--presentation", required=True, metavar="PATH")
        sp.add_argument("--max-index", type=int, required=True)
        _add_search_options(sp)
        _add_output_options(sp)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("classify", help="density class of the quotient-order set")
    sp.add_argument("--presentation", required=True, metavar="PATH")
    _add_output_options(sp)
    sp.set_defaults(handler=_run_classify)

    sp = sub.add_parser("smooth", help="free-product quotients where every factor survives")
    sp.add_argument("--orders", required=True, help="comma-separated cyclic factor orders")
    sp.add_argument("--max-index", type=int, required=True)
    _add_search_options(sp)
    _add_output_options(sp)
    sp.set_defaults(handler=_run_smooth)

    sp = sub.add_parser("census", help="graph orders certified by a quotient search")
    sp.add_argument("--max-index", type=int, required=True)
    sp.add_argument("--presentation", metavar="PATH", help="amalgam presentation to search")
    sp.add_argument(
        "--stabilizer-order",
        type=int,
        help="vertex stabilizer order s of the amalgam: the generators but the last span the "
        "stabilizer, the last reverses an arc, and s is checked per table",
    )
    _add_search_options(sp)
    _add_output_options(sp)
    sp.set_defaults(handler=_run_census)

    sp = sub.add_parser("graphs", help="build a parametric graph")
    sp.add_argument("--family", required=True, choices=("w", "sw"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--report", action="store_true", help="emit the transitivity report instead")
    sp.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    sp.add_argument("--manifest", metavar="PATH", help="write a key,value record of the run")
    sp.set_defaults(handler=_run_graphs)

    sp = sub.add_parser("verify", help="run the verification sweeps")
    sp.add_argument("--fixtures", metavar="PATH", help="group catalog file replacing the built-in")
    _add_output_options(sp)
    sp.set_defaults(handler=_run_verify)

    return parser


_INTERNAL_KEYS = ("handler", "subcommand")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        err.filename = path
        raise


def _write_files(out: CommandOutput, args: argparse.Namespace, wall_ms: int) -> None:
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
        rows += [
            (f"parameter:{key}", _text(value))
            for key, value in sorted(vars(args).items())
            if key not in _INTERNAL_KEYS
        ]
        rows += [(f"input:{path}", _digest(path)) for path in out.inputs]
        rows += [("version", __version__), ("wall_ms", str(wall_ms))]
        rows.append(("complete", _text(out.complete and out.failures == 0)))
        _write_text(args.manifest, _csv_text(("key", "value"), rows))


def dispatch(argv=None) -> int:
    """Parse arguments, run one subcommand and map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    start = time.monotonic()
    try:
        out = args.handler(args)
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
