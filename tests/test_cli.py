"""Command-line interface: file round trips, JSON reports, exit codes."""

import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import random
import re
import runpy
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from references import RIGID_SQUARE, latin_net, net, relabeling

from pg552 import cli
from pg552 import construction as con
from pg552 import geometric_search as gs
from pg552 import gf3space as gf3
from pg552 import graphs as gr
from pg552 import groups
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


@pytest.fixture()
def vls_file(tmp_path):
    path = str(tmp_path / "vls.pg")
    inc.write_incidence(con.build_vls(), path)
    return path


@pytest.fixture()
def new_file(tmp_path):
    path = str(tmp_path / "new.pg")
    inc.write_incidence(con.build_new(), path)
    return path


def test_json_refuses_what_it_cannot_encode():
    assert json.loads(cli._json({"x": Fraction(3, 2)})) == {"x": [3, 2]}
    with pytest.raises(TypeError, match="not JSON serializable: <object object at"):
        cli._json({"x": object()})


def test_module_entry_point_exits_with_the_command_code(vls_file, tmp_path, monkeypatch, capsys):
    # python -m pg552.cli: a passing verify exits 0 and a refused file 2;
    # runpy warns when it runs a module that is already imported
    monkeypatch.delitem(sys.modules, "pg552.cli")

    def run_module(*argv):
        monkeypatch.setattr(sys, "argv", ["pg552", *argv])
        with pytest.raises(SystemExit) as e:
            runpy.run_module("pg552.cli", run_name="__main__")
        return e.value.code, capsys.readouterr()

    code, captured = run_module("verify", vls_file, "--expect", "5,5,2")
    assert code == 0 and json.loads(captured.out)["results"]["pass"] is True
    bad = tmp_path / "bad.pg"
    bad.write_text("pg 81\n")
    code, captured = run_module("verify", str(bad))
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bad incidence file {bad}: bad header: 'pg 81'\n"


def test_build_vls(tmp_path, capsys):
    out = str(tmp_path / "g.pg")
    code, doc = run(capsys, "build", "--geometry", "vls", "--out", out)
    assert code == 0
    assert doc["results"] == {"v": 81, "b": 81}
    with open(out) as f:
        text = f.read()
    assert text.startswith("pg 81 81\n")
    assert text.endswith("\n")


def test_build_new_split(tmp_path, capsys):
    out = str(tmp_path / "g.pg")
    code, _ = run(capsys, "build", "--geometry", "new", "--out", out)
    assert code == 0
    g = inc.read_incidence(out)
    translates = {gf3.translate_mask(con.S_PRIME, x) for x in bits(con.N1)}
    assert sum(1 for m in g.lines if m in translates) == 27


def test_build_bogus_geometry_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["build", "--geometry", "bogus", "--out", str(tmp_path / "x")])
    assert e.value.code == 2


def test_build_unwritable_path_is_io_error(capsys):
    code, err = run_error(
        capsys, "build", "--geometry", "vls", "--out", "/nonexistent-dir/g.pg"
    )
    assert code == 2
    assert "cannot write" in err


def test_verify_pass(vls_file, capsys):
    code, doc = run(capsys, "verify", vls_file, "--expect", "5,5,2")
    assert code == 0
    assert doc["results"]["pass"] is True
    assert doc["results"]["pg"] == [5, 5, 2, 81, 81]
    assert doc["results"]["srg_point"]["k"] == 30


def test_verify_round_trip_both(vls_file, new_file, capsys):
    for path in (vls_file, new_file):
        code, doc = run(capsys, "verify", path, "--expect", "5,5,2")
        assert code == 0 and doc["results"]["pass"]


def test_verify_corrupted_line(tmp_path, capsys):
    g = con.build_vls()
    lines = list(g.lines)
    lines[0] = (lines[0] & (lines[0] - 1)) | (1 << 80)  # swap one point
    bad = inc.IncidenceStructure(81, lines)
    path = str(tmp_path / "bad.pg")
    inc.write_incidence(bad, path)
    code, doc = run(capsys, "verify", path)
    assert code == 1
    assert doc["results"]["pass"] is False
    assert doc["results"]["pg_error"]["witness"] is not None


@pytest.mark.parametrize(
    "g",
    [
        inc.IncidenceStructure(4096, [1 << i | 1 << (i + 1) % 4096 for i in range(4096)]),
        inc.IncidenceStructure(4096, [(1 << 4096) - 1]),
    ],
    ids=["cycle", "one-line"],
)
def test_verify_answers_largest_files_at_once(tmp_path, capsys, g):
    path = str(tmp_path / "big.pg")
    inc.write_incidence(g, path)
    start = time.perf_counter()
    code, doc = run(capsys, "verify", path)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert doc["results"]["pass"] is False


def test_srg_answers_one_largest_line_at_once(tmp_path, capsys):
    path = str(tmp_path / "line.pg")
    inc.write_incidence(inc.IncidenceStructure(4096, [(1 << 4096) - 1]), path)
    start = time.perf_counter()
    code, doc = run(capsys, "srg", path)
    assert time.perf_counter() - start < 3
    assert code == 0
    assert doc["results"] == {
        "v": 4096, "k": 4095, "lambda": 4094, "mu": 0, "complete": True, "empty": False,
    }


@pytest.mark.parametrize("command", ["verify", "srg"])
def test_grid_is_answered_at_once(tmp_path, capsys, command):
    path = str(tmp_path / "grid.pg")
    inc.write_incidence(net(64, 2), path)  # the 64×64 grid, srg(4096, 126, 62, 2)
    start = time.perf_counter()
    code, doc = run(capsys, command, path)
    assert time.perf_counter() - start < 3
    assert code == 0
    point = {"v": 4096, "k": 126, "lambda": 62, "mu": 2, "complete": False, "empty": False}
    if command == "srg":
        assert doc["results"] == point
    else:
        assert doc["results"]["pg"] == [63, 1, 1, 4096, 128]
        assert doc["results"]["srg_point"] == point
        assert doc["results"]["pass"] is True


def test_cliques_answers_one_largest_line_at_once(tmp_path, capsys):
    path = str(tmp_path / "line.pg")
    inc.write_incidence(inc.IncidenceStructure(4096, [(1 << 4096) - 1]), path)
    start = time.perf_counter()
    code, doc = run(capsys, "cliques", path)
    assert time.perf_counter() - start < 3
    assert code == 0
    assert doc["results"] == {"count_size_6": 0, "histogram": {"4096": 1}}


def test_verify_expect_mismatch(vls_file, capsys):
    code, doc = run(capsys, "verify", vls_file, "--expect", "5,5,1")
    assert code == 1
    assert doc["results"]["expect_match"] is False


def test_verify_missing_file(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "/no/such/file.pg"])
    assert e.value.code == 2


def test_srg(vls_file, capsys):
    code, doc = run(capsys, "srg", vls_file, "--graph", "line")
    assert code == 0
    assert doc["results"] == {
        "v": 81, "k": 30, "lambda": 9, "mu": 12, "complete": False, "empty": False,
    }


def test_local(vls_file, capsys):
    code, doc = run(capsys, "local", vls_file)
    assert code == 0
    r = doc["results"]
    assert r["a"] == [3, 9, 27, 80]
    assert r["b"] == [7, 19, 41, 55]
    assert r["z"] == 2
    assert r["edge_count"] == 12
    assert len(r["edges"]) == 12


def test_cliques(new_file, capsys):
    code, doc = run(capsys, "cliques", new_file, "--graph", "line")
    assert code == 0
    r = doc["results"]
    assert r["histogram"] == {"3": 405, "4": 324, "6": 108}
    assert (r["stars"], r["non_stars"]) == (81, 27)


def test_cliques_list(vls_file, capsys):
    code, doc = run(capsys, "cliques", vls_file, "--list")
    assert code == 0
    assert len(doc["results"]["cliques_size_6"]) == 162


def test_aut(new_file, capsys):
    code, doc = run(capsys, "aut", new_file)
    assert code == 0
    r = doc["results"]
    assert r["order"] == 972
    assert r["orbit_sizes"] == [27, 54]
    assert r["transitive"] is False
    for p in r["generators"]:
        assert sorted(p) == list(range(81))


def test_iso(vls_file, new_file, capsys):
    code, doc = run(capsys, "iso", vls_file, new_file)
    assert code == 0
    assert doc["results"]["isomorphic"] is False
    code, doc = run(capsys, "iso", vls_file, vls_file)
    assert doc["results"]["isomorphic"] is True


def test_iso_of_files_of_different_sizes_is_false(vls_file, tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "line.pg")
    inc.write_incidence(inc.IncidenceStructure(3, [0b111]), path)
    monkeypatch.setattr(sym, "incidence_form", None)  # answered from the sizes alone
    code, doc = run(capsys, "iso", vls_file, path)
    assert code == 0
    assert doc["results"] == {"isomorphic": False}


def test_dual(vls_file, tmp_path, capsys):
    out = str(tmp_path / "dual.pg")
    code, doc = run(capsys, "dual", vls_file, "--out", out)
    assert code == 0
    assert doc["results"]["self_dual"] is True
    assert len(doc["results"]["witness"]) == 162
    d = inc.read_incidence(out)
    assert inc.verify_pg(d).as_tuple() == (5, 5, 2, 81, 81)


def test_dual_of_empty_structure_has_empty_witness(tmp_path, capsys):
    path = str(tmp_path / "empty.pg")
    inc.write_incidence(inc.IncidenceStructure(0, []), path)
    code, doc = run(capsys, "dual", path)
    assert code == 0
    assert doc["results"] == {"self_dual": True, "witness": []}


def test_cover(new_file, capsys):
    code, doc = run(capsys, "cover", new_file)
    assert code == 0
    assert doc["results"] == {
        "solutions": 1,
        "isomorphism_classes": 1,
        "contains_input_lines": True,
        "all_isomorphic_to_input": True,
    }


def test_mms(vls_file, capsys):
    code, doc = run(capsys, "mms", vls_file)
    assert code == 0
    w = doc["results"]["witness"]
    assert w["nonnegative_count"] <= 6
    assert w["nonnegative_is_star"] is False
    assert w["violates_strict_star_property"] is True
    # weights serialize as exact numerator/denominator pairs
    assert all(isinstance(x, list) and len(x) == 2 for x in w["weights"])


def test_json_byte_identical(vls_file, capsys):
    code1 = cli.main(["srg", vls_file])
    out1 = capsys.readouterr().out
    code2 = cli.main(["srg", vls_file])
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)
    assert out1.endswith("\n")


def test_report_all(tmp_path, capsys):
    out_dir = str(tmp_path / "report")
    code, doc = run(capsys, "report", "--all", "--out", out_dir, "--relabelings", "2")
    assert code == 0
    assert doc["results"]["all_pass"] is True
    with open(f"{out_dir}/summary.json") as f:
        summary = json.load(f)
    assert summary["all_pass"] is True
    assert len(summary["claims"]) == 11
    assert set(doc["results"]["claims"]) == set(cli.CLAIMS)
    with open(f"{out_dir}/automorphism_orders.json") as f:
        orders = json.load(f)
    assert orders["got"]["aut_vls"] == 58320


def run_error(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return e.value.code, captured.err


@pytest.mark.parametrize("command", ["aut", "iso", "dual"])
def test_more_than_256_vertices_is_one_line_error(tmp_path, capsys, command):
    # a 130-cycle as 130 two-point lines: 260 incidence-graph vertices
    cycle = inc.IncidenceStructure(130, [1 << i | 1 << (i + 1) % 130 for i in range(130)])
    path = str(tmp_path / "cycle.pg")
    inc.write_incidence(cycle, path)
    argv = [command, path, path] if command == "iso" else [command, path]
    code, err = run_error(capsys, *argv)
    assert code == 2
    assert "256" in err


@pytest.mark.parametrize("command", ["aut", "iso", "dual"])
def test_search_past_its_budget_is_one_line_error(tmp_path, monkeypatch, capsys, command):
    assert sym.NODE_BUDGET == 10**4
    monkeypatch.setattr(sym, "NODE_BUDGET", 300)
    path = str(tmp_path / "net7.pg")
    inc.write_incidence(latin_net(RIGID_SQUARE), path)
    argv = [command, path, path] if command == "iso" else [command, path]
    start = time.process_time()
    code, err = run_error(capsys, *argv)
    assert time.process_time() - start < 3
    assert code == 2
    assert err == "error: canonical search gave up at node 301, past its budget of 300\n"


@pytest.mark.parametrize("name", ["vls", "new"])
def test_claim_relabels_the_incidence_graph_directly(name):
    # the claim's relabeled graph and phi are those of the relabeled
    # incidence structure, whose lines are numbered in mask order
    g = con.build_vls() if name == "vls" else con.build_new()
    source = sym.colored_incidence_graph(g)
    for seed in range(20):
        perm = list(range(g.v))
        random.Random(seed).shuffle(perm)
        h, phi = relabeling(g, perm)
        assert cli._relabeled(source, g.v, perm) == (sym.colored_incidence_graph(h), phi)


def test_header_above_cap_is_one_line_error_at_once(tmp_path, capsys):
    # an 11-byte file once kept srg busy for its 2*10^8 pairs
    path = tmp_path / "huge.pg"
    path.write_text("pg 20000 0\n")
    start = time.perf_counter()
    code, err = run_error(capsys, "srg", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "more than 4096" in err


def test_cover_of_non_geometry_is_one_line_error(tmp_path, capsys):
    # 43 disjoint 6-point lines: one exact cover, which fails the pg axioms
    lines = [0b111111 << 6 * i for i in range(43)]
    path = str(tmp_path / "disjoint.pg")
    inc.write_incidence(inc.IncidenceStructure(258, lines), path)
    code, err = run_error(capsys, "cover", path)
    assert code == 2
    assert "alpha" in err


def test_cover_of_geometry_without_6_point_lines_is_one_line_error(tmp_path, capsys):
    # the Fano plane, a pg(2, 2, 3): its 3-point lines are not 6-cliques
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    g = inc.IncidenceStructure(7, [sum(1 << p for p in line) for line in fano])
    assert inc.verify_pg(g).as_tuple() == (2, 2, 3, 7, 7)
    path = str(tmp_path / "fano.pg")
    inc.write_incidence(g, path)
    code, err = run_error(capsys, "cover", path)
    assert code == 2
    assert "not a maximal 6-clique" in err


def test_cover_refuses_a_6_point_line_inside_a_larger_clique(tmp_path, capsys):
    # point 6 is collinear with each point of the line 0..5, so that line
    # lies in the clique 0..6; the 2-point lines through 6 come after it
    lines = [0b111111] + [1 << i | 1 << 6 for i in range(6)]
    path = str(tmp_path / "cone.pg")
    inc.write_incidence(inc.IncidenceStructure(7, lines), path)
    code, err = run_error(capsys, "cover", path)
    assert code == 2
    assert err == "error: input line '0 1 2 3 4 5' is not a maximal 6-clique of the point graph\n"


@pytest.mark.parametrize("point", ["-1", "81", "200"])
@pytest.mark.parametrize("option", ["--x", "--y"])
def test_local_point_out_of_range_is_one_line_error(vls_file, capsys, option, point):
    code, err = run_error(capsys, "local", vls_file, option, point)
    assert code == 2
    assert err == "error: point index out of range 0..80\n"


def test_local_bad_pair_is_one_line_error(vls_file, capsys):
    code, err = run_error(capsys, "local", vls_file, "--x", "0", "--y", "0")
    assert code == 2
    assert "not collinear" in err


def test_local_one_point_as_a_pair_is_one_line_error(tmp_path, capsys):
    # on a 3-point line, point 0's pencil is that one line, which must not
    # pass for the unique common line of 0 and 0
    path = str(tmp_path / "line.pg")
    inc.write_incidence(inc.IncidenceStructure(3, [0b111]), path)
    code, err = run_error(capsys, "local", path, "--x", "0", "--y", "0")
    assert code == 2
    assert err == "error: points 0, 0 are not collinear: they are one point\n"


def test_mms_without_non_star_clique_is_one_line_error(tmp_path, capsys):
    path = str(tmp_path / "line.pg")
    inc.write_incidence(inc.IncidenceStructure(3, [0b111]), path)
    code, err = run_error(capsys, "mms", path)
    assert code == 2
    assert "no non-star 6-clique" in err


@pytest.fixture()
def star_file(tmp_path):
    # point 0 on 1100 two-point lines: the line graph is one 1100-clique
    path = str(tmp_path / "star.pg")
    inc.write_incidence(inc.IncidenceStructure(1101, [1 | 1 << i for i in range(1, 1101)]), path)
    return path


def test_line_cliques_of_a_large_star(star_file, capsys):
    code, doc = run(capsys, "cliques", star_file, "--graph", "line")
    assert code == 0
    assert doc["results"]["histogram"] == {"1100": 1}
    assert doc["results"]["stars"] == 0


def test_mms_on_a_large_star_is_one_line_error(star_file, capsys):
    code, err = run_error(capsys, "mms", star_file)
    assert code == 2
    assert "no non-star 6-clique" in err


def test_mms_clique_index_out_of_range_is_one_line_error(new_file, capsys):
    code, err = run_error(capsys, "mms", new_file, "--clique", "27")
    assert code == 2
    assert "out of range 0..26" in err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return e.value.code, captured.err


def test_report_negative_relabelings_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code, err = run_usage_error(
        capsys, "report", "--all", "--out", str(out_dir), "--relabelings", "-3"
    )
    assert code == 2
    assert "--relabelings" in err and "negative" in err
    assert not out_dir.exists()


def test_report_relabelings_not_an_integer_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code, err = run_usage_error(
        capsys, "report", "--all", "--out", str(out_dir), "--relabelings", "abc"
    )
    assert code == 2
    assert "--relabelings" in err and "not an integer: 'abc'" in err
    assert not out_dir.exists()


def test_mms_negative_bound_is_usage_error(new_file, capsys):
    code, err = run_usage_error(capsys, "mms", new_file, "--bound", "-1")
    assert code == 2
    assert "--bound" in err and "negative" in err


# 10 points, 10 lines with a non-star 6-clique of lines whose three cells
# admit no witness: the search exhausts all 163² points of its default grid
EXHAUSTED_GRID = """\
pg 10 10
0
0 1
2 6
4 6
0 2 6 7
0 2 3 6 7
4 6 8
1 4 7 8
1 2 3 6 9
2 5 7 9
"""

EXHAUSTED_GRID_STDOUT = """\
{
  "command": "mms",
  "inputs": {
    "bound": 81,
    "clique": 0,
    "file": "grid.pg"
  },
  "results": {
    "clique_lines": [
      3,
      4,
      5,
      6,
      7,
      8
    ],
    "note": "search space exhausted; not a refutation",
    "witness": null
  },
  "version": "0.1.0"
}
"""


def test_mms_exhausts_its_default_grid_at_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.pg").write_text(EXHAUSTED_GRID)
    start = time.process_time()
    assert cli.main(["mms", "grid.pg"]) == 0
    assert time.process_time() - start < 2
    assert capsys.readouterr().out == EXHAUSTED_GRID_STDOUT


def test_dual_unwritable_out_is_one_line_error(vls_file, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "d.pg")
    code, err = run_error(capsys, "dual", vls_file, "--out", out)
    assert code == 2
    assert "cannot write" in err


@pytest.mark.parametrize("text, reason", [
    ("pg 3 1\n0 1\n", "a point is on no line"),  # point 2
    ("pg 4 2\n0 1\n2 3\n", "two points are on the same lines"),  # 0 and 1, 2 and 3
])
def test_dual_out_without_faithful_dual_is_one_line_error(tmp_path, capsys, text, reason):
    path = tmp_path / "g.pg"
    path.write_text(text)
    out = tmp_path / "d.pg"
    code, err = run_error(capsys, "dual", str(path), "--out", str(out))
    assert code == 2
    assert reason in err
    assert not out.exists()


def test_report_uncreatable_out_is_one_line_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code, err = run_error(capsys, "report", "--all", "--out", str(tmp_path / "file" / "r"))
    assert code == 2
    assert "cannot create" in err


@pytest.mark.parametrize("name", ["pg_parameters", "summary"])
def test_report_unwritable_claim_file_is_one_line_error(tmp_path, capsys, name):
    # a directory in the place of the first claim's file, or of the summary
    # written after every claim: stderr's progress lines end in one error
    out = tmp_path / "report"
    (out / f"{name}.json").mkdir(parents=True)
    with pytest.raises(SystemExit) as e:
        cli.main(["report", "--all", "--out", str(out), "--relabelings", "0"])
    captured = capsys.readouterr()
    assert e.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n")
    assert errors[0].startswith(f"error: cannot write {out / name}.json: ")


# every subcommand that reads a file, with the options that change its path
FILE_COMMANDS = [
    ["verify", "{}", "--expect", "5,5,2"], ["srg", "{}"], ["srg", "{}", "--graph", "line"],
    ["local", "{}"], ["cliques", "{}"], ["cliques", "{}", "--graph", "line"],
    ["aut", "{}"], ["aut", "{}", "--on", "lines"], ["iso", "{}", "{}"],
    ["dual", "{}", "--out", "{}.dual"], ["cover", "{}"], ["mms", "{}"],
]


@st.composite
def small_files(draw):
    """An incidence file on 0 to 14 points, as ``to_text`` writes it, with
    up to three bytes replaced, inserted or deleted; a mutated header
    declares at most 64 points (see the test below)."""
    v = draw(st.integers(0, 14))
    masks = draw(st.lists(st.integers(1, (1 << v) - 1), max_size=12)) if v else []
    data = bytearray(inc.to_text(inc.IncidenceStructure(v, masks)).encode())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b"0123456789 \n-+px\xff"))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "insert" or i == len(data):
            data.insert(i, byte)
        elif kind == "replace":
            data[i] = byte
        else:
            del data[i]
    head = re.match(rb"pg ([0-9]+)", data)
    assume(head is None or int(head[1]) <= 64)
    return bytes(data)


PARSER = cli._build_parser()  # a parser is reusable; building one takes ms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_files())
def test_every_file_gets_an_answer_or_a_one_line_refusal(tmp_path_factory, data):
    # an answer is exit 0 or 1 with one JSON document on stdout; a refusal
    # is exit 2 with one error line on stderr and nothing on stdout.  The
    # headers stop at 64 points: the canonical search's Schreier-Sims work
    # on many interchangeable points is not bounded by its node budget, and
    # `aut`, the slowest command here, takes about 0.1 s of CPU on `pg 64 0`,
    # 0.35 s on `pg 96 0` and 1.0 s on `pg 133 0` (2-core Xeon, Python 3.11)
    path = tmp_path_factory.getbasetemp() / "fuzz.pg"
    path.write_bytes(data)
    for argv in FILE_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with mock.patch.object(cli, "_build_parser", lambda: PARSER):
                    code = cli.main([a.format(path) for a in argv])
            except SystemExit as e:
                code = e.code
        assert time.process_time() - start < 1, argv
        if code == 2:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        else:
            assert code in (0, 1), argv
            assert json.loads(out.getvalue())["command"] == argv[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_files())
@example(b"pg 3 4\n0\n1\n0 1\n0 2\n0")  # a fifth row in place of the last newline
def test_every_accepted_file_is_written_back_with_its_rows(data):
    # the reader accepts only the spelling to_text writes, rows in mask
    # order included, so what it reads comes back byte for byte
    try:
        text = data.decode()
        g = inc.from_text(text)
    except ValueError:  # a UnicodeDecodeError too
        return
    assert inc.to_text(g) == text


@pytest.mark.parametrize("expect", ["5,5", "5,5,2,1", "5,x,2"])
def test_verify_malformed_expect_is_usage_error(tmp_path, capsys, expect):
    # refused before the file is read, so a missing file does not matter
    path = str(tmp_path / "no.pg")
    code, err = run_usage_error(capsys, "verify", path, "--expect", expect)
    assert code == 2
    assert "--expect" in err and "s,t,alpha" in err


# ---------------------------------------------------------------------------
# the claim registry behind `report` and the acceptance suite


def test_claim_functions_are_exactly_the_registry():
    # the traced benchmark times every module attribute named _claim_*
    assert {a for a in vars(cli) if a.startswith("_claim_")} == {
        f"_claim_{name}" for name in cli.CLAIMS
    }


@pytest.fixture(scope="module")
def env():
    return cli._environment(0)


def wrap(monkeypatch, owner, name, wrong):
    """Replace owner.name by ``lambda *args: wrong(real, *args)``."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: wrong(real, *args))


class Unbalanced(gs.Weighting):
    def __init__(self, weights):
        object.__setattr__(self, "weights", weights)  # skip the zero-sum check


def unbalanced(real, g, clique):
    weights = list(real(g, clique).weights)
    weights[0] -= Fraction(1, 10**6)  # no line sum grows, so no new nonnegative line
    return Unbalanced(tuple(weights))


def swap_a_and_b(real, g, x, y):
    cfg = real(g, x, y)
    u, v = cfg.a_mask & -cfg.a_mask, cfg.b_mask & -cfg.b_mask
    return gr.LocalConfig(cfg.a_mask ^ u | v, cfg.b_mask ^ v | u, cfg.z, cfg.induced, cfg.vertices)


def z_in_a(real, g, x, y):
    cfg = real(g, x, y)
    z = (cfg.a_mask & -cfg.a_mask).bit_length() - 1
    return gr.LocalConfig(cfg.a_mask, cfg.b_mask, z, cfg.induced, cfg.vertices)


def certificates_of_their_own(edges):
    """Break the shape gate of the local graphs with ``edges`` edges: the
    canonical form of each graph with that many edges gets a certificate
    of its own, so no two of them compare equal."""

    def breaks(mp, env):
        calls = itertools.count()

        def own(real, cg, *rest):
            cf = real(cg, *rest)
            if sum(map(int.bit_count, cg.adj)) != 2 * edges:
                return cf
            return sym.CanonicalForm(cf.labeling, next(calls), cf.group,
                                     cf.nodes, cf.leaves, cf.pruned)

        wrap(mp, cli, "canonical_form", own)

    return breaks


def shifted_matching(mp, env):
    # a matching onto other lines, each with the 1-secants of its clique
    wrap(mp, cli, "match_negative_lines",
         lambda real, *args: {c: n ^ 1 for c, n in real(*args).items()})
    wrap(mp, cli, "one_secant_lines", lambda real, g, m: real(g, m ^ 1))


def vls_ovoids_on_switched_geometry(mp, env):
    # 6 of the 15 van Lint-Schrijver 2-ovoids are not ovoids of the switched
    # geometry, and both geometries give N0 the profile {3: 54, 0: 27}
    ovoids = con.find_2_ovoids(env["G"])
    mp.setattr(con, "find_2_ovoids", lambda g: ovoids)
    mp.setitem(env, "G", env["Gp"])


def one_unstable_certificate(mp, env):
    # of two seeded relabelings per geometry, the first one's certificate
    # is shifted, so the van Lint-Schrijver stable count is one short
    mp.setitem(env, "relabelings", 2)
    calls = itertools.count()

    def shifted(real, cg, *rest):
        cf = real(cg, *rest)
        if next(calls):
            return cf
        cols, rows = cf.certificate
        certificate = (cols, rows[1:] + rows[:1])
        return sym.CanonicalForm(cf.labeling, certificate, cf.group,
                                 cf.nodes, cf.leaves, cf.pruned)

    wrap(mp, cli, "canonical_form", shifted)


def alpha_one_for_the_switched_geometry(mp, env):
    def alpha_one(real, g):
        p = real(g)
        return inc.PgParams(p.s, p.t, 1, p.v, p.b) if g is env["Gp"] else p

    wrap(mp, cli, "verify_pg", alpha_one)


def group_answers(key, method, answer):
    """Break one answer of the group ``env[key]``: a shallow copy of it,
    whose ``method`` returns ``answer``, takes its place."""

    def breaks(mp, env):
        group = copy.copy(env[key])
        setattr(group, method, lambda *args: answer)
        mp.setitem(env, key, group)

    return breaks


def low(mask):
    return mask & -mask


def difference_sets(change):
    """Break the difference sets (ds, dsp) of S and S': ``gf3.difference_set``
    answers ``change(ds, dsp)`` for them."""

    def breaks(mp, env):
        ds, dsp = change(gf3.difference_set(con.S), gf3.difference_set(con.S_PRIME))
        mp.setattr(gf3, "difference_set", {con.S: ds, con.S_PRIME: dsp}.__getitem__)

    return breaks


def collinear_pair_in_n0(mp, env):
    # two points of N0 trade their collinearity in the switched point graph
    x, y = itertools.islice(bits(con.N0), 2)
    adj = list(env["P1p"].adj)
    adj[x] ^= 1 << y
    adj[y] ^= 1 << x
    mp.setitem(env, "P1p", gr.Graph(81, tuple(adj)))


def refused(*args):
    raise ValueError("refused")


def exhausted(got):
    return all(entry["witness"] is None and entry["note"].startswith("search space exhausted")
               for entry in got["got"].values())


OFF_N0 = con.N1 | con.N2

# each case breaks one library answer that only a single gate of the claim
# reads, and may name what else the claim's result must show
BROKEN = {
    "both_are_pg_5_5_2": ("pg_parameters", alpha_one_for_the_switched_geometry),
    "negative_lines_are_a_cover": ("exact_cover_geometries", lambda mp, env: wrap(
        mp, con, "negative_lines", lambda real, g: real(g)[1:])),
    "srg_feasibility": ("srg_parameters", lambda mp, env: mp.setattr(
        gr.SrgParams, "feasibility_identity", lambda self: False)),
    "matched_lines_are_negative": ("clique_census", shifted_matching),
    "negative_line_bijection": ("clique_census", lambda mp, env: mp.setattr(
        cli, "match_negative_lines", refused), lambda got: got["negative_line_bijection"] is False),
    "one_secants_of_matched_lines": ("clique_census", lambda mp, env: mp.setattr(
        cli, "one_secant_lines", lambda g, m: 0)),
    "two_ovoid_profiles": ("subspace_census", vls_ovoids_on_switched_geometry),
    "shape_2k4": ("local_configuration", certificates_of_their_own(12)),
    "shape_k4_star": ("local_configuration", certificates_of_their_own(9)),
    "a_and_b_cliques": ("local_configuration", lambda mp, env: wrap(
        mp, cli, "local_configuration", swap_a_and_b)),
    "z_sees_neither": ("local_configuration", lambda mp, env: wrap(
        mp, cli, "local_configuration", z_in_a)),
    "witness_sums_to_zero": ("mms_weightings", lambda mp, env: wrap(
        mp, cli, "mms_counterexample_search", unbalanced)),
    "star_is_pencil_of_0": ("mms_weightings", lambda mp, env: wrap(
        mp, cli, "star_weighting", lambda real, g, p: real(g, 1))),
    "witness_found": ("mms_weightings", lambda mp, env: mp.setattr(
        cli, "mms_counterexample_search", lambda g, clique: None), exhausted),
    "not_isomorphic": ("isomorphism_and_duality", lambda mp, env: mp.setattr(
        cli, "is_isomorphic", lambda g1, g2: True)),
    "self_dual_flags": ("isomorphism_and_duality", lambda mp, env: wrap(
        mp, cli, "is_self_dual", lambda real, g: (False, real(g)[1]) if g is env["G"] else real(g))),
    "self_dual_witnesses": ("isomorphism_and_duality", lambda mp, env: wrap(
        mp, cli, "is_self_dual", lambda real, g: (True, None) if g is env["Gp"] else real(g))),
    "stable_certificates": ("isomorphism_and_duality", one_unstable_certificate),
    "aut_new_order": ("automorphism_orders", group_answers("autGp", "order", 971)),
    # got reads the groups the searches built; two_base_orders rebuilds them
    # through cli's own name for PermutationGroup, so each breaks alone
    "two_base_orders": ("automorphism_orders", lambda mp, env: mp.setattr(
        cli, "PermutationGroup", lambda n, gens, base: groups.PermutationGroup(n))),
    "point_orbits_are_n0_and_complement": ("new_geometry_orbits", group_answers(
        "autGp", "orbits", [list(range(81))])),
    "line_orbits_match_translate_split": ("new_geometry_orbits", lambda mp, env: mp.setattr(
        cli, "aut_incidence", lambda g, on: groups.PermutationGroup(g.b))),
    "no_singer_subgroup": ("new_geometry_orbits", group_answers("autGp", "is_transitive", True)),
    "point_stabilizer_order": ("new_geometry_orbits", group_answers(
        "autGp", "stabilizer_order", 35)),
    "n0_translations_preserve_lines": ("new_geometry_orbits", lambda mp, env: mp.setattr(
        con, "translation_check", lambda g, subspace: False)),
    "triple_intersection_empty": ("difference_set_identities", difference_sets(
        lambda ds, dsp: (ds, dsp ^ low(dsp & con.N0) ^ low(ds & con.N0)))),
    "difference_sets_agree_off_n0": ("difference_set_identities", difference_sets(
        lambda ds, dsp: (ds, dsp ^ low(dsp & OFF_N0) ^ low(OFF_N0 & ~dsp)))),
    "difference_set_sizes": ("difference_set_identities", difference_sets(
        lambda ds, dsp: (ds ^ low(ds & con.N0), dsp))),
    "collinearity_changes_confined_to_n1_n2": ("difference_set_identities",
                                               collinear_pair_in_n0),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_tightened_gate_fails_its_claim(env, monkeypatch, case):
    claim, breaks, *shows = BROKEN[case]
    breaks(monkeypatch, env)
    got = getattr(cli, f"_claim_{claim}")(env)
    assert got["pass"] is False
    assert all(show(got) for show in shows)


# ---------------------------------------------------------------------------
# every stdout byte and report file, pinned by sha256: command -> digest


PINNED_STDOUT = {
    "build --geometry vls --out vls.pg": "eab12738c8e5bfec14de4b0114e560cf169da775d9fc84901a7a1cadf57602e9",
    "build --geometry new --out new.pg": "2cb09d18e805704c8bbdd2c316804ffd9dc537a87b30369a4d6c964cf6bc71b7",
    "verify vls.pg --expect 5,5,2": "1f12c65369f71d69fd0552ed7761cbc8391c5fdb539579a4618e559691f93fb9",
    "srg vls.pg": "2190971e62438aa8a4d77dabf29e73a9cd301259c15a282939bec46f372873b3",
    "srg vls.pg --graph line": "81055a93802ced16e832cd979fb3e500aff19150eccd897518b30d9a1b6b7755",
    "cliques vls.pg --list": "d18793ecd7e3dc0283d60988cbcea78fe0a04499c9948b6deb52ef4b3de534dc",
    "cliques vls.pg --graph line --list": "b5e92cc8248bfba0f2d6ec749ad3add4b059bad4f2ffc316c6cd8eb6fdbb6623",
    "local vls.pg": "03d2d1b3e2706c0b154556e5571686ef296c3d171761b59aff53396626dc4bad",
    "aut vls.pg": "4e50a7326639b3c7c6d6d71b3099ccce2d57a162457fef760eb131d31d0b87d8",
    "aut vls.pg --on lines": "e22c67ef998563cca08a8e06088bf627407dc00b7834bdfd17cd1b12f8df691f",
    "dual vls.pg": "16818a7e0cb8ec6645dc6d3d917e0f1a6239c895c4d0a5a2c1d69561c93903e3",
    "cover vls.pg": "7db5b19e4efff317040171c2c167ffa7775ac8640c5bd5667cce955033262e35",
    "mms vls.pg": "521589b551b580d4e783d23f43e0dc283308003524b993b5c0aa64246cf09440",
    "verify new.pg --expect 5,5,2": "437412428432e2afb7bb49e8a7ead0e801860c268f0c604fe3d29ef8bfe9c93e",
    "srg new.pg": "643e29f9533d9d352287cb8ea860f5979dd206e4e2775056babd371add48f67b",
    "srg new.pg --graph line": "efc9401e551fd6216bef8dde7dd35d81ba7a00490ac675ec28b345c9861ca803",
    "cliques new.pg --list": "95b54034ccb4bdce6d344f0345a5cc3e3edc644aaf71b2eaccf211cd2f0b8b76",
    "cliques new.pg --graph line --list": "c3ec831de7a232dabf43edc0428d39f5822751067a42fa9fb38c52c77508214c",
    "local new.pg": "2bddaf6e04461c28455ce2310bfd43a3d2063f36db0ab4c289eb36f77792dbfb",
    "aut new.pg": "ca6de61bd8473c381098990369543484d4c0db8d9565cad3b6a9a7bc11d52da9",
    "aut new.pg --on lines": "53f1895765f591cced4f7e7740fb54b4bf0fe8f160a47aebd31ab549966ef967",
    "dual new.pg": "a3e76b93eb22a40decf83a4d0be21fee435daf61987f575b1da370f0d7987b03",
    "cover new.pg": "2fa328278c6c07a7d99da71a03cf63de37071cd2ea901f0a94294c2d9a3f051f",
    "mms new.pg": "36b6a6dea4909fb367f956c78688ce9f532743b71f70ae108e9d66ce2398ce5d",
    "iso vls.pg new.pg": "1717b6b1104a246ac08b15a32ff78d0918c34599bf405d4e7fdf8b45c824cd91",
    "report --all --out report --relabelings 2": "90e030b11f0cb249e2522d28bf242408f3eeb5ec7372a3c44ac795c7cf0fbe7e",
}

PINNED_REPORT_FILES = {
    "automorphism_orders.json": "43a45159d019ea39a862a74ad9e8de91c7dabe37e02047da6cca667ce2119b15",
    "clique_census.json": "87e9eb9a5940e70625316b075703f7ae34bc04dcb47b8ff16d1caa8fa3d6cd00",
    "difference_set_identities.json": "a9121754dcf4aa13d76d045bfc36435ee53d92e8d346756659b1c9b00182b12a",
    "exact_cover_geometries.json": "2c0a7260831dfafbf3845e276409574ba5a852c4050f5628805a8b48f43feb8c",
    "isomorphism_and_duality.json": "23fdff64ee6d91e6b9ccfd1aaca7df63f2e00ac331022ab97c98ed28c6d84b2f",
    "local_configuration.json": "1202dfbed1e6d6b15a6e1b2c62ea6fe4cf2adb4a11d8920dc74a136ab2cf6242",
    "mms_weightings.json": "ba1f17ffe2f0ead93998db78553cad2a66e61982f4451d4ee75c6c804b62364e",
    "new_geometry_orbits.json": "c95863ab1768ec52661cad027e8fcd1121e2a53520babbafe3b08a0606af17b4",
    "pg_parameters.json": "e120867ac48bd26244985f62ca13eb835eb1525204a1acf79bf3f2ec9ca237be",
    "srg_parameters.json": "ec452e8dd641d34e579e7a36ba14b67f32ff5501e6d3d88c10cd3525b9c4fe66",
    "subspace_census.json": "7444b75ba4ad6d7cd12f88e569fb50c396ba97a44f848aa1e6affdb7c468a4eb",
    "summary.json": "9f6b0b202325908415886587368e95359a078e8c9addef26f0223230c0cde80a",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_stdout_and_report_files_are_pinned(tmp_path, monkeypatch, capsys):
    # relative paths, so the "inputs" echoed in stdout do not name tmp_path
    monkeypatch.chdir(tmp_path)
    got = {}
    for command in PINNED_STDOUT:
        assert cli.main(command.split()) == 0, command
        got[command] = sha256(capsys.readouterr().out.encode())
    assert got == PINNED_STDOUT
    files = {}
    for name in sorted(os.listdir("report")):
        with open(os.path.join("report", name), "rb") as f:
            files[name] = sha256(f.read())
    assert files == PINNED_REPORT_FILES
