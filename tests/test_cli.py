"""End-to-end checks of the command line dispatcher."""

import functools
import hashlib
import json
import os
import pathlib
import re
import resource
import subprocess
import sys

import pytest
from test_classify import INDEX_TWO_CASES, biased_sample, elementary_abelian

import fqlab.census as census
import fqlab.cli as cli
import fqlab.fpgroup.classify as classify
import fqlab.fpgroup.lowindex as lowindex
import fqlab.numtheory as numtheory
import fqlab.sweeps as sweeps
from fqlab.catalog import load_catalog, serialize_catalog
from fqlab.cli import dispatch
from fqlab.errors import InternalInvariantError
from fqlab.numtheory import SieveSet, density_series, ratio_string, sp_contains
from fqlab.permgroup import close

Z_PRES = "gens: x\n"
DINF_PRES = "gens: a b\nrels: a^2, b^2\n"
MOD_PRES = "gens: a b\nrels: a^2, b^3\n"


def run(capsys, argv):
    rc = dispatch(argv)
    return rc, capsys.readouterr().out


def rows_of(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def pres_file(tmp_path, text):
    path = tmp_path / "group.pres"
    path.write_text(text)
    return str(path)


def test_sieve_matches_direct_count(capsys):
    rc, out = run(capsys, ["sieve", "--set", "np:3", "--limit", "500"])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["limit", "count", "density"]
    count = sum(SieveSet("np", 3).segment_bits(1, 501))
    assert rows == [["500", str(count), ratio_string(count, 500)]]


def test_density_segments_are_byte_identical(capsys, monkeypatch):
    argv = ["density", "--set", "sp:6", "--checkpoints", "100,1000,5000"]
    rc, whole = run(capsys, argv)
    assert rc == 0
    header, rows = rows_of(whole)
    assert [r[0] for r in rows] == ["100", "1000", "5000"]
    for segment_size in (7, 100, 1024):
        small = functools.partial(density_series, segment_size=segment_size)
        monkeypatch.setattr(numtheory, "density_series", small)
        assert run(capsys, argv) == (0, whole), segment_size


def test_density_of_sp_set_with_modulus_above_int64(capsys):
    def density(a):
        return run(capsys, ["density", "--set", f"sp:{a}", "--checkpoints", "100,1000"])

    rc, out = density(2**64)
    assert rc == 0
    counts = {c: sum(sp_contains(n, 2**64) for n in range(1, c + 1)) for c in (100, 1000)}
    assert rows_of(out)[1] == [[str(c), str(k), ratio_string(k, c)] for c, k in counts.items()]
    # 2**89 - 1 is prime and above every limit here, so it excludes no prime
    assert density(2**89 - 1) == density(1)


def test_fq_lists_orders(capsys, tmp_path):
    path = pres_file(tmp_path, Z_PRES)
    rc, out = run(capsys, ["fq", "--presentation", path, "--max-index", "10"])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["order"]
    assert [int(r[0]) for r in rows] == list(range(1, 11))


def test_oq_keeps_odd_orders(capsys, tmp_path):
    path = pres_file(tmp_path, Z_PRES)
    rc, out = run(capsys, ["oq", "--presentation", path, "--max-index", "10"])
    assert rc == 0
    _, rows = rows_of(out)
    assert [int(r[0]) for r in rows] == [1, 3, 5, 7, 9]


def test_fq_odd_only_matches_oq(capsys, tmp_path):
    # oq lists exactly the odd rows of fq
    for text, odd in ((DINF_PRES, [1]), (Z_PRES, [1, 3, 5, 7, 9, 11])):
        path = pres_file(tmp_path, text)
        rc_fq, out_fq = run(capsys, ["fq", "--presentation", path, "--max-index", "12"])
        rc_oq, out_oq = run(capsys, ["oq", "--presentation", path, "--max-index", "12"])
        assert rc_fq == rc_oq == 0
        fq_orders = [int(r[0]) for r in rows_of(out_fq)[1]]
        assert rows_of(out_oq) == (["order"], [[str(n)] for n in fq_orders if n % 2])
        assert [n for n in fq_orders if n % 2] == odd


def test_classify_dihedral(capsys, tmp_path):
    path = pres_file(tmp_path, DINF_PRES)
    rc, out = run(capsys, ["classify", "--presentation", path])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["key", "value"]
    record = dict((k, v) for k, v in rows)
    assert record["classification"] == "infinite_dihedral"
    assert record["density"] == "1/2"
    assert record["abelian_invariants"] == "2 2"
    assert record["dihedral_generator"] in ("a", "b")
    assert all(part.lstrip("-").isdigit() for part in record["dihedral_functional"].split())


def test_classify_cyclic(capsys, tmp_path):
    path = pres_file(tmp_path, Z_PRES)
    rc, out = run(capsys, ["classify", "--presentation", path])
    assert rc == 0
    record = dict(rows_of(out)[1])
    assert record["classification"] == "infinite_cyclic"
    assert record["density"] == "1"
    assert record["abelian_invariants"] == "0"
    assert "cyclic_witness" in record


def test_classify_density_zero(capsys, tmp_path):
    path = pres_file(tmp_path, MOD_PRES)
    rc, out = run(capsys, ["classify", "--presentation", path])
    assert rc == 0
    record = dict(rows_of(out)[1])
    assert record["classification"] == "density_zero"
    assert record["density"] == "0"
    assert int(record["index_two_checked"]) >= 0


def test_smooth_orders(capsys):
    rc, out = run(capsys, ["smooth", "--orders", "3,2", "--max-index", "24"])
    assert rc == 0
    assert [int(r[0]) for r in rows_of(out)[1]] == [6, 12, 18, 24]


def test_census_frozen_output(capsys):
    rc, out = run(capsys, ["census", "--max-index", "24"])
    assert rc == 0
    assert out == (
        "order,certificate_index,flagged\n"
        "2,6,possibly non-simple\n"
        "4,12,\n"
        "6,18,\n"
        "8,24,\n"
    )


def test_census_amalgam_flags(capsys, tmp_path):
    path = pres_file(tmp_path, MOD_PRES)
    argv = ["census", "--max-index", "12", "--presentation", path, "--stabilizer-order", "2"]
    rc, out = run(capsys, argv)
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["order", "certificate_index", "flagged"]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(3, 6), (6, 12)]


def test_census_checks_the_stabilizer_order(capsys, tmp_path):
    for text, s, index, want in [
        ("gens: x y\nrels: x^4, x^-3\n", "4", "24", []),
        ("gens: x y\nrels: x^6, y^2\n", "6", "30", [(2, 12), (3, 18), (4, 24), (5, 30)]),
    ]:
        path = pres_file(tmp_path, text)
        argv = ["census", "--max-index", index, "--presentation", path, "--stabilizer-order", s]
        rc, out = run(capsys, argv)
        assert rc == 0
        header, rows = rows_of(out)
        assert header == ["order", "certificate_index", "flagged"]
        assert [(int(r[0]), int(r[1])) for r in rows] == want


def test_graphs_edge_list(capsys):
    rc, out = run(capsys, ["graphs", "--family", "w", "--k", "1", "--r", "5"])
    assert rc == 0
    assert out == "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"


def test_graphs_report(capsys):
    rc, out = run(capsys, ["graphs", "--family", "w", "--k", "2", "--r", "3", "--report"])
    assert rc == 0
    record = dict(rows_of(out)[1])
    assert record["vertex_transitive"] == "true"
    assert record["arc_transitive"] == "true"
    assert record["locally_transitive"] == "true"
    assert record["vertex_orbit_count"] == "1"


def test_graphs_out_file(capsys, tmp_path):
    target = tmp_path / "w.edges"
    rc, out = run(capsys, ["graphs", "--family", "sw", "--k", "1", "--r", "3", "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith("6 6\n")


def test_verify_all_rows_pass(capsys):
    rc, out = run(capsys, ["verify"])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["check", "subject", "result"]
    assert all(r[2] == "pass" for r in rows)
    checks = {r[0] for r in rows}
    assert checks == {
        "odd_quotient",
        "sylow_quotient",
        "restricted_quotient",
        "quasiprimitive_odd",
        "graph_implications",
        "odd_edge_core",
    }
    assert len(rows) == 126
    # the whole report is frozen: refactors of the checks keep it byte-identical
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256


VERIFY_SHA256 = "3c2090a16fa09cf50de39e30d6c7ec2a66301724cdf5339f6e1b7c3f44f6abee"


def test_verify_builds_each_lattice_once(capsys, monkeypatch):
    computed = []
    calls = 0
    inner = sweeps.normal_subgroups

    def counting(group):
        nonlocal calls
        calls += 1
        before = group._normal
        result = inner(group)
        # a computation stores a new lattice; a cache hit leaves it alone
        if group._normal is not before:
            computed.append(group)
        return result

    monkeypatch.setattr(sweeps, "normal_subgroups", counting)
    rc, _ = run(capsys, ["verify"])
    assert rc == 0
    assert len(computed) == len({id(G) for G in computed}) == len(load_catalog()) == 36
    assert calls > len(computed)


def test_verify_custom_fixtures(capsys, tmp_path):
    path = tmp_path / "tiny.catalog"
    path.write_text(serialize_catalog({"c3": close(((1, 2, 0),), 3)}))
    rc, out = run(capsys, ["verify", "--fixtures", str(path)])
    assert rc == 0
    _, rows = rows_of(out)
    assert any(r[1] == "c3" for r in rows)
    assert all(r[2] == "pass" for r in rows)


def test_verify_budget_message_says_how_far_it_got(capsys, tmp_path):
    # S7 closes but is over the normal-subgroup cap; S9's closure runs
    # over the element cap, in the first sweep and not in the parser
    for big, message in (
        ("S7: (1 2 3 4 5 6 7), (1 2)", "order 5040 exceeds the normal-subgroup cap 2000"),
        ("S9: (1 2 3 4 5 6 7 8 9), (1 2)", "closure exceeded the 100000 element cap"),
    ):
        path = tmp_path / "big.catalog"
        path.write_text(f"C3: (1 2 3)\n{big}\n")
        rc = dispatch(["verify", "--fixtures", str(path)])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        name = big.split(":")[0]
        assert err == f"fqlab: budget exhausted: {message}, in odd_quotient on {name} after 1 rows\n"


def test_verify_failure_exits_4(capsys, monkeypatch):
    class Failing:
        passed = False

    monkeypatch.setattr(sweeps, "verify_odd_quotient", lambda group: Failing())
    rc, out = run(capsys, ["verify"])
    assert rc == 4
    _, rows = rows_of(out)
    assert sum(r[2] == "fail" for r in rows) == 36


def test_manifest_records_run(capsys, tmp_path):
    path = pres_file(tmp_path, DINF_PRES)
    manifest = tmp_path / "run.manifest"
    csv_path = tmp_path / "orders.csv"
    argv = [
        "fq", "--presentation", path, "--max-index", "8",
        "--csv", str(csv_path), "--manifest", str(manifest),
    ]
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out == ""
    assert csv_path.read_text().startswith("order\n")
    record = dict(rows_of(manifest.read_text())[1])
    assert record["subcommand"] == "fq"
    assert record["parameter:max_index"] == "8"
    assert record["complete"] == "true"
    digest = hashlib.sha256(DINF_PRES.encode()).hexdigest()
    assert record[f"input:{path}"] == digest
    assert record["version"]
    assert int(record["wall_ms"]) >= 0


def test_emit_tables_round_trip(capsys, tmp_path):
    path = pres_file(tmp_path, DINF_PRES)
    tabs = tmp_path / "tables"
    argv = ["fq", "--presentation", path, "--max-index", "8", "--emit-tables", str(tabs)]
    rc, out = run(capsys, argv)
    assert rc == 0
    orders = [int(r[0]) for r in rows_of(out)[1]]
    assert sorted(p.name for p in tabs.iterdir()) == sorted(f"table_{n}.csv" for n in orders)
    header, rows = rows_of((tabs / "table_4.csv").read_text())
    assert header == ["coset", "a", "a^-1", "b", "b^-1"]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    # columns permute the cosets
    for col in range(1, 5):
        assert sorted(int(r[col]) for r in rows) == [0, 1, 2, 3]


def test_census_emit_tables_names_certificates(capsys, tmp_path):
    tabs = tmp_path / "tables"
    rc, out = run(capsys, ["census", "--max-index", "12", "--emit-tables", str(tabs)])
    assert rc == 0
    indices = [int(r[1]) for r in rows_of(out)[1]]
    assert sorted(p.name for p in tabs.iterdir()) == sorted(f"table_{m}.csv" for m in indices)


def test_census_and_smooth_write_the_same_certificates(capsys, tmp_path):
    census, smooth = tmp_path / "census", tmp_path / "smooth"
    assert run(capsys, ["census", "--max-index", "48", "--emit-tables", str(census)])[0] == 0
    argv = ["smooth", "--orders", "3,2", "--max-index", "48", "--emit-tables", str(smooth)]
    assert run(capsys, argv)[0] == 0
    names = sorted(p.name for p in census.iterdir())
    assert len(names) == 6
    assert names == sorted(p.name for p in smooth.iterdir())
    for name in names:
        assert (census / name).read_bytes() == (smooth / name).read_bytes(), name


def test_emitted_certificates_are_frozen(capsys, tmp_path):
    # every table file byte for byte, not only the primary output: a
    # faster search must still write the same certificates
    path = pres_file(tmp_path, "gens: a b\nrels: a^2, b^3, (a b)^7\n")
    runs = {
        "fq": ["fq", "--presentation", path, "--max-index", "200"],
        "census": ["census", "--max-index", "120"],
    }
    digest = hashlib.sha256()
    for name, argv in runs.items():
        tabs = tmp_path / name
        assert run(capsys, [*argv, "--emit-tables", str(tabs)])[0] == 0
        for p in sorted(tabs.iterdir()):
            digest.update(f"{name}/{p.name}\n".encode() + p.read_bytes())
    assert digest.hexdigest() == EMITTED_TABLES_SHA256


EMITTED_TABLES_SHA256 = "a7aba43f9bf22c55e7ca6d89ae67eee1a20efc2aac4d83b2211401e00624645a"


def test_classify_output_is_frozen(capsys, tmp_path):
    # every classify record byte for byte, certificates included: the
    # index-2 cases, which hold the benchmark's two inputs, and a sample
    # leaning toward D-infinity
    benchmark = (DINF_PRES, "gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n")
    assert set(benchmark) <= set(INDEX_TWO_CASES)
    texts = [*INDEX_TWO_CASES, *biased_sample(41, 400)]
    digest = hashlib.sha256()
    for text in texts:
        path = pres_file(tmp_path, text)
        rc, out = run(capsys, ["classify", "--presentation", path])
        assert rc == 0, text
        digest.update(text.encode() + out.encode())
    assert digest.hexdigest() == CLASSIFY_SHA256


CLASSIFY_SHA256 = "9ce4af2f323f161dfb57f0144950efd9d7c49bbe257352ecc63a7419a91be67e"


def test_manifest_key_order(capsys, tmp_path):
    path = pres_file(tmp_path, DINF_PRES)
    manifest = tmp_path / "run.manifest"
    argv = ["fq", "--presentation", path, "--max-index", "8", "--manifest", str(manifest)]
    assert run(capsys, argv)[0] == 0
    keys = [row[0] for row in rows_of(manifest.read_text())[1]]
    parameters = [
        "allow_partial", "csv", "emit_tables", "manifest", "max_index", "presentation",
    ]
    assert keys == [
        "subcommand",
        *(f"parameter:{name}" for name in parameters),
        f"input:{path}",
        "version",
        "wall_ms",
        "complete",
    ]
    # every parameter of the subcommand is written, given or not: an
    # option not given is empty and a flag not given "false"
    m = str(manifest)
    for argv, rows in [
        (
            ["census", "--max-index", "12", "--allow-partial", "--manifest", m],
            [
                ["subcommand", "census"],
                ["parameter:allow_partial", "true"],
                ["parameter:csv", ""],
                ["parameter:emit_tables", ""],
                ["parameter:manifest", m],
                ["parameter:max_index", "12"],
                ["parameter:presentation", ""],
                ["parameter:stabilizer_order", ""],
            ],
        ),
        (
            ["graphs", "--family", "w", "--k", "2", "--r", "3", "--report", "--manifest", m],
            [
                ["subcommand", "graphs"],
                ["parameter:family", "w"],
                ["parameter:k", "2"],
                ["parameter:manifest", m],
                ["parameter:out", ""],
                ["parameter:r", "3"],
                ["parameter:report", "true"],
            ],
        ),
    ]:
        assert run(capsys, argv)[0] == 0, argv
        written = rows_of(manifest.read_text())[1]
        assert written[:-3] == rows, argv
        assert [row[0] for row in written[-3:]] == ["version", "wall_ms", "complete"], argv
        assert written[-1] == ["complete", "true"], argv


def test_unreadable_input_and_unwritable_output_exit_2(capsys, tmp_path):
    existing = tmp_path / "existing"
    existing.write_text("")
    missing_dir = str(tmp_path / "no" / "x.csv")
    missing_file = str(tmp_path / "missing.catalog")
    sieve = ["sieve", "--set", "np:3", "--limit", "10"]
    bad = [
        ([*sieve, "--manifest", str(tmp_path)], f"cannot write {tmp_path}: "),
        ([*sieve, "--csv", missing_dir], f"cannot write {missing_dir}: "),
        (["census", "--max-index", "12", "--emit-tables", str(existing)], f"cannot write {existing}"),
        (["verify", "--fixtures", missing_file], f"cannot read {missing_file}: "),
        (["verify", "--fixtures", str(tmp_path)], f"cannot read {tmp_path}: "),
    ]
    for argv, message in bad:
        assert dispatch(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("fqlab: error: " + message), (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)


def test_usage_errors_exit_2(capsys, tmp_path):
    good = pres_file(tmp_path, DINF_PRES)
    bad = [
        [],
        ["frobnicate"],
        ["--set", "np:3", "--limit", "10"],
        ["sieve", "--set", "np:3", "--limit", "10", "extra"],
        ["sieve", "--set", "np:3", "--limit"],
        ["sieve", "--set", "--limit", "10"],
        ["graphs", "--family", "w", "--k", "1", "--r", "5", "--report=yes"],
        ["sieve", "--set", "np:3", "--limit", "ten"],
        ["sieve", "--set", "np:3", "--limit=1e3"],
        ["graphs", "--family=W", "--k", "1", "--r", "5"],
        ["graphs", "--family", "w", "--k", "1"],
        ["sieve", "--set", "np:3", "--lim", "10"],
        ["sieve", "--set", "np:3"],
        ["sieve", "--set", "xyz", "--limit", "10"],
        ["sieve", "--set", "np", "--limit", "10"],
        ["sieve", "--set", "sp", "--limit", "10"],
        ["sieve", "--set", "np", "--p", "5", "--limit", "200"],
        ["density", "--set", "np:3", "--checkpoints", "5,x"],
        ["fq", "--presentation", str(tmp_path / "missing.pres"), "--max-index", "5"],
        ["census", "--max-index", "12", "--stabilizer-order", "2"],
        ["graphs", "--family", "w", "--k", "1", "--r", "2"],
        ["graphs", "--family", "q", "--k", "1", "--r", "5"],
        ["density", "--set", "np:3", "--checkpoints", "10", "--threads", "2"],
        ["graphs", "--family", "w", "--k", "1", "--r", "5", "--threads", "2"],
        ["fq", "--presentation", good, "--max-index", "5", "--odd-only"],
    ]
    for argv in bad:
        rc = dispatch(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (2, ""), argv
        assert err.startswith("fqlab: error: "), (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)
    # a value never starts with "--", and option names are never abbreviated
    for argv, message in [
        (["sieve", "--set", "--limit", "10"], "--set wants a value"),
        (["sieve", "--set", "np:3", "--lim", "10"], "unknown option '--lim' for sieve"),
    ]:
        assert dispatch(argv) == 2, argv
        assert capsys.readouterr().err == f"fqlab: error: {message}\n", argv
    broken = tmp_path / "broken.pres"
    broken.write_text("rels: a^2\n")
    assert dispatch(["fq", "--presentation", str(broken), "--max-index", "5"]) == 2
    capsys.readouterr()


def test_nonpositive_integer_options_are_named(capsys, tmp_path):
    # the message names the option given, not a library parameter such as
    # the checkpoints that sieve passes on or the search's limit
    path = pres_file(tmp_path, MOD_PRES)
    cases = [
        (["sieve", "--set", "np:3", "--limit", "0"], "--limit", "0"),
        (["sieve", "--set", "sp:6", "--limit=-5"], "--limit", "-5"),
        (["fq", "--presentation", path, "--max-index", "0"], "--max-index", "0"),
        (["oq", "--presentation", path, "--max-index", "0"], "--max-index", "0"),
        (["smooth", "--orders", "3,2", "--max-index", "0"], "--max-index", "0"),
        (["census", "--max-index", "0"], "--max-index", "0"),
    ]
    for argv, name, value in cases:
        rc = dispatch(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (2, ""), argv
        assert err == f"fqlab: error: {name} must be a positive integer, got {value}\n", argv


def test_option_grammar(capsys, tmp_path):
    # --name=value reads as --name value, flags take no value, and of an
    # option given twice the last one counts
    path = pres_file(tmp_path, MOD_PRES)
    sieve = ["sieve", "--set", "np:3", "--limit", "500"]
    fq = ["fq", "--presentation", path, "--max-index", "12"]
    report = ["graphs", "--family", "w", "--k", "2", "--r", "3", "--report"]
    same = [
        (sieve, ["sieve", "--limit=500", "--set=np:3"]),
        (sieve, ["sieve", "--set", "sp:6", "--limit", "9", "--set", "np:3", "--limit=500"]),
        (fq, ["fq", f"--presentation={path}", "--max-index", "7", "--max-index=12"]),
        (report, ["graphs", "--report", "--r=3", "--family=sw", "--report",
                  "--family", "w", "--k=2"]),
    ]
    for want, argv in same:
        expected = run(capsys, want)
        assert expected[0] == 0, want
        assert run(capsys, argv) == expected, argv
    rc, edges = run(capsys, report[:-1])
    assert rc == 0
    assert edges != run(capsys, report)[1]
    assert edges.startswith("6 12\n")


def test_help_lists_every_subcommand_and_option(capsys):
    def help_text(argv):
        rc = dispatch(argv)
        out, err = capsys.readouterr()
        assert (rc, err) == (0, ""), argv
        return out.splitlines()

    for flag in ("-h", "--help"):
        lines = help_text([flag])
        assert lines[0] == "usage: fqlab <subcommand> [options]"
        for name, (_, summary, *_) in cli._COMMANDS.items():
            assert any(line.split(None, 1) == [name, summary] for line in lines), name
        for name, (_, summary, *options) in cli._COMMANDS.items():
            lines = help_text([name, flag])
            assert lines[0].startswith(f"usage: fqlab {name} ")
            assert summary in lines
            for option, kind, required, text in options:
                assert text, (name, option)
                line = next(line for line in lines if line.split()[:1] == [option])
                assert line.endswith(text), (name, option)
                assert (f" {option} " in lines[0]) == required, (name, option)
    # help is printed before the required options are checked
    assert help_text(["census", "--max-index", "12", "--help"])[0].startswith("usage: fqlab census")


def test_readme_lists_every_subcommand():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert documented == list(cli._COMMANDS)
    assert len(documented) == 9


def test_density_of_a_large_prime_high_up(capsys):
    # every cofactor below p = 100000007 is a member, and the divisor sieve
    # of the last run of cofactors stays under the scratch budget
    rc, out = run(capsys, ["density", "--set", "np:100000007", "--checkpoints", "200000000000000"])
    assert (rc, out) == (0, "limit,count,density\n200000000000000,1999999,0.000000\n")


def test_composite_past_the_trial_budget_is_not_prime(capsys):
    # p = 2**60: 2 settles it before the trial-division budget applies
    rc = dispatch(["density", "--set", "np:1152921504606846976", "--checkpoints", "10"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "fqlab: error: p must be prime, got 1152921504606846976\n"


def test_budget_exhaustion_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("FQLAB_BUDGET", "10")
    rc, out = run(capsys, ["census", "--max-index", "48"])
    assert rc == 3
    assert out == ""


@pytest.mark.parametrize(
    "value,why",
    [("abc", "an integer, got 'abc'"), ("0", "positive, got 0"), ("-3", "positive, got -3")],
)
def test_malformed_budget_variable_exits_2(capsys, monkeypatch, tmp_path, value, why):
    monkeypatch.setenv("FQLAB_BUDGET", value)
    path = pres_file(tmp_path, MOD_PRES)
    assert dispatch(["fq", "--presentation", path, "--max-index", "6"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"fqlab: error: FQLAB_BUDGET must be {why}\n")


def test_budget_message_says_how_far_the_search_got(capsys, monkeypatch, tmp_path):
    # 40 nodes into the modular group's search to index 72: the tables
    # of orders 1, 2, 3, 6, 6, 12, 18 and 24 are done, 24 cosets deep
    monkeypatch.setenv("FQLAB_BUDGET", "40")
    path = pres_file(tmp_path, MOD_PRES)
    assert dispatch(["fq", "--presentation", path, "--max-index", "72"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "fqlab: budget exhausted: search exceeded the 40 node budget "
        "after 8 tables, at most 24 live cosets\n"
    )


def test_allow_partial_writes_then_exits_3(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("FQLAB_BUDGET", "10")
    manifest = tmp_path / "run.manifest"
    argv = ["census", "--max-index", "48", "--allow-partial", "--manifest", str(manifest)]
    rc, out = run(capsys, argv)
    assert rc == 3
    assert out == "order,certificate_index,flagged\n"
    record = dict(rows_of(manifest.read_text())[1])
    assert record["complete"] == "false"


def test_internal_invariant_exits_4(capsys, monkeypatch):
    def boom(*a, **k):
        raise InternalInvariantError("forced")

    monkeypatch.setattr(census, "cubic_census", boom)
    rc, out = run(capsys, ["census", "--max-index", "12"])
    assert rc == 4
    assert out == ""


def test_corrupted_classify_witness_exits_4(capsys, monkeypatch, tmp_path):
    real = classify.null_column_witness

    def doubled(form):
        w = real(form)
        return None if w is None else tuple(2 * e for e in w)

    monkeypatch.setattr(classify, "null_column_witness", doubled)
    for text in (Z_PRES, DINF_PRES):
        path = pres_file(tmp_path, text)
        monkeypatch.setattr(sys, "argv", ["fqlab", "classify", "--presentation", path])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 4, text
        assert capsys.readouterr().out == "", text


def test_corrupted_dihedral_matrix_exits_4(capsys, monkeypatch, tmp_path):
    def no_relator_rows(table, coset):
        return []

    monkeypatch.setattr(classify, "_relator_walks", no_relator_rows)
    path = pres_file(tmp_path, MOD_PRES)
    monkeypatch.setattr(sys, "argv", ["fqlab", "classify", "--presentation", path])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 4
    assert capsys.readouterr().out == ""


def test_non_regular_search_table_exits_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(lowindex, "verify_regular_table", lambda t: False)
    path = pres_file(tmp_path, Z_PRES)
    monkeypatch.setattr(sys, "argv", ["fqlab", "fq", "--presentation", path, "--max-index", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 4
    assert capsys.readouterr().out == ""


def test_over_budget_inputs_exit_3_before_building(tmp_path):
    # each input asks for more letters, edges or index-2 subgroups than
    # the budgets allow; refused from its size alone, it exits 3 under a
    # 1 GB address-space limit, with an empty stdout and no traceback
    path = pres_file(tmp_path, "gens: a b\nrels: a^300000000 b\n")
    e12 = tmp_path / "e12.pres"
    e12.write_text(elementary_abelian(12))
    cases = [
        (
            ["fq", "--presentation", path, "--max-index", "4"],
            "a word of 300000000 letters exceeds the 2048-letter budget (line 2, column 18)",
        ),
        (
            ["smooth", "--orders", "300000000,2", "--max-index", "4"],
            "cyclic factor order 300000000 exceeds the 2048-letter budget",
        ),
        (
            ["graphs", "--family", "w", "--k", "3000", "--r", "3"],
            "W(3000,3) has 27000000 edges, over the 100000-edge budget",
        ),
        (
            ["classify", "--presentation", str(e12)],
            "4095 index-2 subgroups to check, over the 2047-subgroup budget",
        ),
    ]

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = pathlib.Path(cli.__file__).resolve().parents[1]
    for argv, message in cases:
        done = subprocess.run(
            [sys.executable, "-c", "from fqlab.cli import main; main()", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            preexec_fn=cap_memory,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (3, ""), argv
        assert done.stderr == f"fqlab: budget exhausted: {message}\n", argv


def test_module_runs_as_a_script(capsys, tmp_path):
    # python -m fqlab.cli is the fqlab command: same stdout, same exit codes
    argv = ["fq", "--presentation", pres_file(tmp_path, MOD_PRES), "--max-index", "12"]
    src = pathlib.Path(cli.__file__).resolve().parents[1]

    def module(args):
        return subprocess.run(
            [sys.executable, "-m", "fqlab.cli", *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )

    done = module(argv)
    assert (done.returncode, done.stdout) == (0, run(capsys, argv)[1])
    assert module(["fq", "--max-index", "12"]).returncode == 2


def test_version_flag(capsys):
    rc = dispatch(["--version"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("fqlab ")


def test_repeated_runs_byte_identical(capsys):
    argv = ["census", "--max-index", "24"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


# Runs one argv list through fqlab.cli.main in a fresh interpreter and
# prints its exit code, the fqlab modules loaded and whether dataclasses,
# argparse and gettext were imported.  numpy is blocked, so a command that
# imports it fails.
IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from fqlab.cli import main
sys.argv = ["fqlab", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main()
    except SystemExit as exc:
        code = exc.code
modules = sorted(name for name in sys.modules if name.split(".")[0] == "fqlab")
loaded = [name in sys.modules for name in ("dataclasses", "argparse", "gettext")]
print(json.dumps([code, modules, *loaded]))
"""

FRONT = {"fqlab", "fqlab.cli", "fqlab.errors"}
PERMGROUP = {"fqlab.budgets", "fqlab.orbit", "fqlab.permgroup"}
CLASSIFY = {"fqlab.budgets", "fqlab.fpgroup", "fqlab.orbit"} | {
    f"fqlab.fpgroup.{m}" for m in ("classify", "coset", "presentation", "snf")
}
# a search table is certified from the table alone, without permgroup
QUOTIENTS = {"fqlab.budgets", "fqlab.orbit", "fqlab.fpgroup"} | {
    f"fqlab.fpgroup.{m}" for m in ("coset", "lowindex", "presentation", "quotients")
}
GRAPHS = PERMGROUP | {"fqlab.graphs"}
NUMTHEORY = {"fqlab.budgets", "fqlab.numtheory", "fqlab.pointwise"}


def test_each_command_loads_only_its_layers(tmp_path):
    # pytest itself has loaded every layer, so each command runs in a
    # fresh process
    path = pres_file(tmp_path, MOD_PRES)
    commands = [
        (["--version"], set()),
        (["--help"], set()),
        (["census", "--help"], set()),
        (["density", "--set", "sp:6", "--checkpoints", "1000"], NUMTHEORY),
        (["sieve", "--set", "np:3", "--limit", "1000"], NUMTHEORY),
        (["classify", "--presentation", path], CLASSIFY),
        (["fq", "--presentation", path, "--max-index", "24"], QUOTIENTS),
        (["oq", "--presentation", path, "--max-index", "24"], QUOTIENTS),
        (["smooth", "--orders", "3,2", "--max-index", "24"], QUOTIENTS),
        (["census", "--max-index", "12"], QUOTIENTS | {"fqlab.census"}),
        (["graphs", "--family", "w", "--k", "3", "--r", "5", "--report"], GRAPHS),
        # verify tests single orders only, so it compiles no sieve
        (["verify"], GRAPHS | {f"fqlab.{m}" for m in ("catalog", "lattice", "pointwise", "sweeps")}),
    ]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    for argv, layers in commands:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            check=True,
        )
        want = [0, sorted(FRONT | layers), False, False, False]
        assert json.loads(done.stdout) == want, argv
