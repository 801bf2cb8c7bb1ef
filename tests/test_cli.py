"""Command-line interface: file round trips, JSON reports, exit codes."""

import dataclasses
import json
from fractions import Fraction

import pytest

from pg552 import cli
from pg552 import construction as con
from pg552 import geometric_search as gs
from pg552 import gf3space as gf3
from pg552 import graphs as gr
from pg552 import incidence as inc
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


def test_mms_without_non_star_clique_is_one_line_error(tmp_path, capsys):
    path = str(tmp_path / "line.pg")
    inc.write_incidence(inc.IncidenceStructure(3, [0b111]), path)
    code, err = run_error(capsys, "mms", path)
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


def test_mms_negative_bound_is_usage_error(new_file, capsys):
    code, err = run_usage_error(capsys, "mms", new_file, "--bound", "-1")
    assert code == 2
    assert "--bound" in err and "negative" in err


def test_dual_unwritable_out_is_one_line_error(vls_file, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "d.pg")
    code, err = run_error(capsys, "dual", vls_file, "--out", out)
    assert code == 2
    assert "cannot write" in err


def test_report_uncreatable_out_is_one_line_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code, err = run_error(capsys, "report", "--all", "--out", str(tmp_path / "file" / "r"))
    assert code == 2
    assert "cannot create" in err


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
    def __post_init__(self):
        pass  # skip the zero-sum check


def unbalanced(real, g, clique):
    weights = list(real(g, clique).weights)
    weights[0] -= Fraction(1, 10**6)  # no line sum grows, so no new nonnegative line
    return Unbalanced(tuple(weights))


def swap_a_and_b(real, g, x, y):
    cfg = real(g, x, y)
    u, v = cfg.a_mask & -cfg.a_mask, cfg.b_mask & -cfg.b_mask
    return dataclasses.replace(cfg, a_mask=cfg.a_mask ^ u | v, b_mask=cfg.b_mask ^ v | u)


def z_in_a(real, g, x, y):
    cfg = real(g, x, y)
    return dataclasses.replace(cfg, z=(cfg.a_mask & -cfg.a_mask).bit_length() - 1)


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


# each case breaks one library answer that only a single gate of the claim reads
BROKEN = {
    "srg_feasibility": ("srg_parameters", lambda mp, env: mp.setattr(
        gr.SrgParams, "feasibility_identity", lambda self: False)),
    "matched_lines_are_negative": ("clique_census", shifted_matching),
    "one_secants_of_matched_lines": ("clique_census", lambda mp, env: mp.setattr(
        cli, "one_secant_lines", lambda g, m: 0)),
    "two_ovoid_profiles": ("subspace_census", vls_ovoids_on_switched_geometry),
    "shape_2k4": ("local_configuration", lambda mp, env: mp.setattr(
        cli, "isomorphic_small", lambda g, ref: ref.edge_count() != 12)),
    "shape_k4_star": ("local_configuration", lambda mp, env: mp.setattr(
        cli, "isomorphic_small", lambda g, ref: ref.edge_count() != 9)),
    "a_and_b_cliques": ("local_configuration", lambda mp, env: wrap(
        mp, cli, "local_configuration", swap_a_and_b)),
    "z_sees_neither": ("local_configuration", lambda mp, env: wrap(
        mp, cli, "local_configuration", z_in_a)),
    "witness_sums_to_zero": ("mms_weightings", lambda mp, env: wrap(
        mp, cli, "mms_counterexample_search", unbalanced)),
    "star_is_pencil_of_0": ("mms_weightings", lambda mp, env: wrap(
        mp, cli, "star_weighting", lambda real, g, p: real(g, 1))),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_tightened_gate_fails_its_claim(env, monkeypatch, case):
    claim, breaks = BROKEN[case]
    breaks(monkeypatch, env)
    assert getattr(cli, f"_claim_{claim}")(env)["pass"] is False
