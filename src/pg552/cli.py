"""Command-line front end: build the geometries, verify files, and run the
whole battery of checks as reproducible batch reports.

Every command loads its input and returns its answer with its exit code,
``(results, code)``; ``main`` then prints the one key-sorted JSON document
to stdout: the command, its parsed options as ``inputs``, the ``results``
and the version (timing goes to stderr so identical invocations stay
byte-identical).  Exit codes: 0 pass, 1 verification or claim failure,
2 usage or I/O error or a refused input.  A refusal, including any
``ValueError`` a command raises, is one ``error:`` line on stderr; it ends
the run before the command returns, so it writes nothing to stdout.

The paper's claims are stated once, as the ``_claim_<name>`` functions named
in ``CLAIMS``.  Each takes the shared objects built by ``_environment`` and
returns ``{"pass": ..., evidence...}``.  ``report`` writes one JSON file per
claim, and the acceptance tests run the same functions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import NoReturn

from . import __version__
from . import construction as con
from . import gf3space as gf3
from .bits import bits, mask_of
from .cliques import (
    classify_line_cliques,
    match_negative_lines,
    max_cliques,
    one_secant_lines,
)
from .geometric_search import (
    all_geometries_on,
    count_nonnegative_lines,
    mms_counterexample_search,
    star_weighting,
)
from .graphs import Graph, SrgViolation, local_configuration, srg_check
from .groups import PermutationGroup
from .incidence import (
    IncidenceStructure,
    PgViolation,
    dual,
    line_graph,
    point_graph,
    read_incidence,
    to_text,
    verify_pg,
)
from .symmetry import (
    Carried,
    ColoredGraph,
    aut_graph,
    aut_incidence,
    canonical_form,
    colored_incidence_graph,
    incidence_form,
    is_isomorphic,
    is_self_dual,
)


def _encode_json(obj):
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    raise TypeError(f"not JSON serializable: {obj!r}")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_encode_json) + "\n"


def _emit(args, results: dict) -> None:
    """Print the command's JSON document; its inputs are the parsed options."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "all")}
    doc = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }
    sys.stdout.write(_json(doc))


def _fail(message: str) -> NoReturn:
    """One-line error on stderr, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _write(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``, or fail with one error line."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        _fail(f"cannot write {path}: {e}")


def _count(text: str) -> int:
    """Argument type for a count: an integer that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _expect(text: str) -> str:
    """Argument type for ``--expect``: three integers ``s,t,alpha``."""
    try:
        _s, _t, _alpha = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants s,t,alpha, not {text!r}") from None
    return text


def _load(path: str) -> IncidenceStructure:
    try:
        return read_incidence(path)
    except OSError as e:
        _fail(f"cannot read {path}: {e}")
    except ValueError as e:
        _fail(f"bad incidence file {path}: {e}")


def _geometry(name: str) -> IncidenceStructure:
    return con.build_vls() if name == "vls" else con.build_new()


def _srg_json(p) -> dict:
    return {
        "v": p.v,
        "k": p.k,
        "lambda": p.lam,
        "mu": p.mu,
        "complete": p.complete,
        "empty": p.empty,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> tuple[dict, int]:
    g = _geometry(args.geometry)
    _write(args.out, to_text(g))
    return {"v": g.v, "b": g.b}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    g = _load(args.file)
    results: dict = {}
    ok = True
    try:
        params = verify_pg(g)
        results["pg"] = list(params.as_tuple())
    except PgViolation as e:
        results["pg"] = None
        results["pg_error"] = {"reason": e.reason, "witness": e.witness}
        ok = False
    if ok:
        # a pg(s,t,alpha)'s point and line graphs are strongly regular (Bose 1963)
        results["srg_point"] = _srg_json(srg_check(point_graph(g)))
        results["srg_line"] = _srg_json(srg_check(line_graph(g)))
    if ok and args.expect:
        s, t, alpha = (int(x) for x in args.expect.split(","))
        results["expect"] = [s, t, alpha]
        if (params.s, params.t, params.alpha) != (s, t, alpha):
            results["expect_match"] = False
            ok = False
        else:
            results["expect_match"] = True
    results["pass"] = ok
    return results, 0 if ok else 1


def _cmd_srg(args) -> tuple[dict, int]:
    g = _load(args.file)
    graph = point_graph(g) if args.graph == "point" else line_graph(g)
    try:
        return _srg_json(srg_check(graph)), 0
    except SrgViolation as e:
        return {"error": e.reason, "pair": list(e.pair) if e.pair else None,
                "count": e.count}, 1


def _cmd_local(args) -> tuple[dict, int]:
    cfg = local_configuration(_load(args.file), args.x, args.y)
    return {
        "a": sorted(bits(cfg.a_mask)),
        "b": sorted(bits(cfg.b_mask)),
        "z": cfg.z,
        "edges": sorted(sorted(e) for e in cfg.edge_list),
        "edge_count": cfg.induced.edge_count(),
    }, 0


def _cmd_cliques(args) -> tuple[dict, int]:
    g = _load(args.file)
    graph = point_graph(g) if args.graph == "point" else line_graph(g)
    rep = max_cliques(graph)
    results: dict = {
        "histogram": {str(k): v for k, v in sorted(rep.size_histogram.items())},
        "count_size_6": len(rep.cliques_of_size_6),
    }
    if args.graph == "line":
        stars, non_stars = classify_line_cliques(g, rep.cliques_of_size_6)
        results["stars"] = len(stars)
        results["non_stars"] = len(non_stars)
    if args.list:
        results["cliques_size_6"] = [sorted(bits(m)) for m in rep.cliques_of_size_6]
    return results, 0


def _cmd_aut(args) -> tuple[dict, int]:
    g = _load(args.file)
    group = aut_incidence(g, on=args.on)
    orbs = group.orbits()
    return {
        "order": group.order(),
        "orbit_sizes": sorted(len(o) for o in orbs),
        "orbits": orbs,
        "transitive": group.is_transitive(),
        "generators": [list(p) for p in group.generators],
    }, 0


def _cmd_iso(args) -> tuple[dict, int]:
    g1, g2 = _load(args.file1), _load(args.file2)
    return {"isomorphic": is_isomorphic(g1, g2)}, 0


def _cmd_dual(args) -> tuple[dict, int]:
    g = _load(args.file)
    sd, witness = is_self_dual(g)
    if args.out:
        d = dual(g)
        # the dual's points are g's distinct pencils, and a file has no empty row
        if 0 in d.lines:
            _fail("cannot write the dual: a point is on no line")
        if d.b != g.v:
            _fail("cannot write the dual: two points are on the same lines")
        _write(args.out, to_text(d))
    return {"self_dual": sd, "witness": list(witness) if sd else None}, 0


def _cmd_cover(args) -> tuple[dict, int]:
    g = _load(args.file)
    graph = point_graph(g)
    # the search covers the point graph with its maximal 6-cliques, so an
    # input whose lines are not among them cannot be found again; the census
    # is taken at the first 6-point line, so a line of another size before
    # it is refused without one
    sixes = None
    for m in g.lines:
        if sixes is None and m.bit_count() == 6:
            sixes = set(max_cliques(graph).cliques_of_size_6)
        if m.bit_count() != 6 or m not in sixes:
            points = " ".join(map(str, bits(m)))
            _fail(f"input line '{points}' is not a maximal 6-clique of the point graph")
    solutions = all_geometries_on(graph)
    # equal certificates iff isomorphic, unequal v or b included
    certs = [incidence_form(s).certificate for s in solutions]
    return {
        "solutions": len(solutions),
        "isomorphism_classes": len(set(certs)),
        "contains_input_lines": any(s.lines == g.lines for s in solutions),
        "all_isomorphic_to_input": all(c == incidence_form(g).certificate for c in certs),
    }, 0


def _cmd_mms(args) -> tuple[dict, int]:
    g = _load(args.file)
    rep = max_cliques(line_graph(g))
    stars, non_stars = classify_line_cliques(g, rep.cliques_of_size_6)
    if not non_stars:
        _fail("the line graph has no non-star 6-clique")
    if not 0 <= args.clique < len(non_stars):
        _fail(f"clique index out of range 0..{len(non_stars) - 1}")
    clique = non_stars[args.clique]
    witness = mms_counterexample_search(g, clique, bound=args.bound)
    if witness is None:
        return {"clique_lines": sorted(bits(clique)), "witness": None,
                "note": "search space exhausted; not a refutation"}, 0
    count, nonneg = count_nonnegative_lines(g, witness)
    star_masks = set(g.pencils)
    return {
        "clique_lines": sorted(bits(clique)),
        "witness": {
            "weights": list(witness.weights),
            "nonnegative_count": count,
            "nonnegative_lines": sorted(bits(nonneg)),
            "nonnegative_is_star": nonneg in star_masks,
            "violates_strict_star_property": count <= 6 and nonneg not in star_masks,
            "below_star_size": count < 6,
        },
    }, 0


# ---------------------------------------------------------------------------
# report --all: the golden suite, one JSON per claim

# names, not functions: each _claim_<name> is looked up when it runs
CLAIMS = (
    "pg_parameters", "srg_parameters", "isomorphism_and_duality",
    "automorphism_orders", "new_geometry_orbits", "clique_census",
    "subspace_census", "difference_set_identities", "local_configuration",
    "exact_cover_geometries", "mms_weightings",
)


def _environment(relabelings: int) -> dict:
    """What the claims share: both geometries, their point and line graphs
    and automorphism groups, and the relabeling count."""
    G, Gp = con.build_vls(), con.build_new()
    P1, P1p, L2, L2p = point_graph(G), point_graph(Gp), line_graph(G), line_graph(Gp)
    return {"G": G, "Gp": Gp, "P1": P1, "P1p": P1p, "L2": L2, "L2p": L2p,
            "autG": aut_incidence(G), "autGp": aut_incidence(Gp),
            "relabelings": relabelings}


def _claim_pg_parameters(env) -> dict:
    want = (5, 5, 2, 81, 81)
    got = {
        "vls": verify_pg(env["G"]).as_tuple(),
        "new": verify_pg(env["Gp"]).as_tuple(),
    }
    return {
        "pass": all(v == want for v in got.values()),
        "expected": list(want),
        "got": {k: list(v) for k, v in got.items()},
    }


def _claim_srg_parameters(env) -> dict:
    want = {"v": 81, "k": 30, "lambda": 9, "mu": 12, "complete": False, "empty": False}
    graphs = {"point_vls": "P1", "point_new": "P1p", "line_vls": "L2", "line_new": "L2p"}
    params = {name: srg_check(env[key]) for name, key in graphs.items()}
    got = {name: _srg_json(p) for name, p in params.items()}
    ok = all(v == want and params[k].feasibility_identity() for k, v in got.items())
    return {"pass": ok, "got": got}


def _relabeled(source: ColoredGraph, v: int, perm) -> tuple[ColoredGraph, tuple]:
    """The colored incidence graph of the structure whose incidence graph
    is ``source``, once point x is renamed ``perm[x]``, and the relabeling
    phi of ``source`` onto it: vertex x of ``source`` is vertex ``phi[x]``.
    As in ``IncidenceStructure``, the lines are numbered in the order of
    their point masks.  Each row is the image of its source row, read off
    ``source.members``, and no structure is built."""
    b = source.n - v
    nbrs = source.members
    bit = [1 << x for x in perm]
    masks = [sum(map(bit.__getitem__, nbrs[j])) for j in range(v, source.n)]
    phi = list(perm) + [0] * b
    adj = [0] * source.n
    for i, j in enumerate(sorted(range(b), key=masks.__getitem__)):
        phi[v + j] = v + i
        adj[v + i] = masks[j]
    bit = [1 << x for x in phi]
    for x in range(v):
        adj[perm[x]] = sum(map(bit.__getitem__, nbrs[x]))
    return ColoredGraph(source.n, tuple(adj), source.colors), tuple(phi)


def _claim_isomorphism_and_duality(env) -> dict:
    """The geometries are not isomorphic, each is self-dual with a checked
    witness, and each one's certificate is stable under random relabelings.

    Each relabeling h of g gets its own canonical search, seeded with the
    canonical form of g's incidence graph that g's own search returned
    and the relabeling phi of that graph onto h's.  The chain of trust: g's
    search checked each generator on g's incidence graph when it recorded
    it, and h's search checks phi as an isomorphism onto h's incidence
    graph, so every generator carried through phi is an automorphism of h.
    The carried group is complete, so h's search never adds to it and uses
    it only to skip subtrees; a later leaf not above its first would raise,
    so the certificate is the smallest leaf certificate of h's tree."""
    relabelings = env["relabelings"]
    iso = is_isomorphic(env["G"], env["Gp"])
    sd_vls, w_vls = is_self_dual(env["G"])
    sd_new, w_new = is_self_dual(env["Gp"])
    rng = random.Random(20210522)
    stable = {"vls": 0, "new": 0}
    for name, g in [("vls", env["G"]), ("new", env["Gp"])]:
        form, source = incidence_form(g), colored_incidence_graph(g)
        for _ in range(relabelings):
            perm = list(range(g.v))
            rng.shuffle(perm)
            h, phi = _relabeled(source, g.v, perm)
            # one search per relabeling, outside the cache of shared forms
            c = canonical_form(h, Carried(source, form, phi)).certificate
            if c == form.certificate:
                stable[name] += 1
    return {
        "pass": (not iso) and sd_vls and sd_new and None not in (w_vls, w_new)
        and all(stable[n] == relabelings for n in stable),
        "isomorphic": iso,
        "self_dual": {"vls": sd_vls, "new": sd_new},
        "relabelings": relabelings,
        "stable_certificates": stable,
    }


def _claim_automorphism_orders(env) -> dict:
    groups = {
        "aut_vls": env["autG"],
        "aut_new": env["autGp"],
        "aut_point_graph_vls": aut_graph(env["P1"]),
        "aut_point_graph_new": aut_graph(env["P1p"]),
    }
    want = {
        "aut_vls": 58320,
        "aut_new": 972,
        "aut_point_graph_vls": 116640,
        "aut_point_graph_new": 972,
    }
    got = {}
    two_base = {}
    for name, grp in groups.items():
        got[name] = grp.order()
        n = grp.degree
        o1 = PermutationGroup(n, grp.generators, base=tuple(range(n))).order()
        o2 = PermutationGroup(n, grp.generators, base=tuple(reversed(range(n)))).order()
        two_base[name] = [o1, o2]
    ok = got == want and all(tb == [want[k]] * 2 for k, tb in two_base.items())
    return {"pass": ok, "expected": want, "got": got, "two_base_orders": two_base}


def _claim_new_geometry_orbits(env) -> dict:
    grp = env["autGp"]
    orbs = grp.orbits()
    orb_masks = sorted(mask_of(o) for o in orbs)
    points_ok = orb_masks == sorted([con.N0, con.N1 | con.N2])
    line_group = aut_incidence(env["Gp"], on="lines")
    lorbs = line_group.orbits()
    translates = {gf3.translate_mask(con.S_PRIME, x) for x in bits(con.N1)}
    sprime_idx = {i for i, m in enumerate(env["Gp"].lines) if m in translates}
    lines_ok = sorted(len(o) for o in lorbs) == [27, 54] and any(
        set(o) == sprime_idx for o in lorbs
    )
    stab = grp.stabilizer_order(0)
    trans = con.translation_check(env["Gp"], con.N0)
    return {
        "pass": points_ok and lines_ok and not grp.is_transitive()
        and stab == 36 and trans,
        "point_orbit_sizes": sorted(len(o) for o in orbs),
        "point_orbits_are_n0_and_complement": points_ok,
        "line_orbit_sizes": sorted(len(o) for o in lorbs),
        "line_orbits_match_translate_split": lines_ok,
        "transitive": grp.is_transitive(),
        "no_singer_subgroup": not grp.is_transitive(),
        "no_singer_subgroup_note": "a non-transitive group has no transitive "
        "subgroup, hence no point-regular (Singer) subgroup",
        "point_stabilizer_order": stab,
        "n0_translations_preserve_lines": trans,
    }


def _claim_clique_census(env) -> dict:
    rep_p = max_cliques(env["P1"])
    rep_pp = max_cliques(env["P1p"])
    rep_l = max_cliques(env["L2"])
    rep_lp = max_cliques(env["L2p"])
    stars, non_stars = classify_line_cliques(env["G"], rep_l.cliques_of_size_6)
    stars_p, non_stars_p = classify_line_cliques(env["Gp"], rep_lp.cliques_of_size_6)
    negs = con.negative_lines(env["G"])
    try:
        matching = match_negative_lines(env["G"], non_stars, negs)
        bijection = len(matching) == 81
    except ValueError:
        matching, bijection = {}, False
    ok = (
        len(rep_p.cliques_of_size_6) == 162
        and len(rep_pp.cliques_of_size_6) == 108
        and (len(stars), len(non_stars)) == (81, 81)
        and (len(stars_p), len(non_stars_p)) == (81, 27)
        and bijection
        and sorted(matching.values()) == sorted(negs)
        and all(one_secant_lines(env["G"], neg) == c for c, neg in matching.items())
    )
    return {
        "pass": ok,
        "size_6_cliques": {"point_vls": len(rep_p.cliques_of_size_6),
                           "point_new": len(rep_pp.cliques_of_size_6)},
        "line_graph_classification": {
            "vls": {"stars": len(stars), "non_stars": len(non_stars)},
            "new": {"stars": len(stars_p), "non_stars": len(non_stars_p)},
        },
        "negative_line_bijection": bijection,
    }


def _claim_subspace_census(env) -> dict:
    subs = gf3.enumerate_subspaces(3)
    sizes = {}
    for m in subs:
        c = (m & con.S).bit_count()
        sizes[c] = sizes.get(c, 0) + 1
    ovoids = con.find_2_ovoids(env["G"])
    two_subs = sorted(m for m in subs if (m & con.S).bit_count() == 2)
    profile = con.secant_profile(env["G"], con.N0)
    ok = (
        len(subs) == 40
        and set(sizes) == {1, 2, 3, 4}
        and sorted(ovoids) == two_subs
        # recounted here, not by secant_profile, which find_2_ovoids selects by
        and all((m & line).bit_count() == 2 for m in ovoids for line in env["G"].lines)
        and profile == {3: 54, 0: 27}
    )
    return {
        "pass": ok,
        "three_dim_subspaces": len(subs),
        "special_set_intersection_distribution": {str(k): v for k, v in sorted(sizes.items())},
        "two_ovoids": len(ovoids),
        "ovoids_equal_2_intersection_subspaces": sorted(ovoids) == two_subs,
        "n0_secant_profile": {str(k): v for k, v in sorted(profile.items())},
    }


def _claim_difference_set_identities(env) -> dict:
    ds, dsp = gf3.difference_set(con.S), gf3.difference_set(con.S_PRIME)
    n0, n1, n2 = con.N0, con.N1, con.N2
    confined = True
    for x in range(81):
        for y in bits(env["P1"].adj[x] ^ env["P1p"].adj[x]):
            both_n1 = (n1 >> x & 1) and (n1 >> y & 1)
            both_n2 = (n2 >> x & 1) and (n2 >> y & 1)
            if not (both_n1 or both_n2):
                confined = False
    ok = (
        ds & dsp & n0 == 0
        and ds & (n1 | n2) == dsp & (n1 | n2)
        and ds.bit_count() == 30
        and dsp.bit_count() == 30
        and confined
    )
    return {
        "pass": ok,
        "triple_intersection_empty": ds & dsp & n0 == 0,
        "difference_sets_agree_off_n0": ds & (n1 | n2) == dsp & (n1 | n2),
        "difference_set_sizes": [ds.bit_count(), dsp.bit_count()],
        "collinearity_changes_confined_to_n1_n2": confined,
    }


def _claim_local_configuration(env) -> dict:
    cfg = local_configuration(env["G"], 0, con.E1)
    cfg_p = local_configuration(env["Gp"], 0, con.E1)
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    two_k4 = Graph.from_edges(9, k4 + [(i + 4, j + 4) for i, j in k4])
    k4_star = Graph.from_edges(9, k4 + [(4, 5), (4, 6), (4, 7)])
    adj = env["P1"].adj
    recurring = True
    for x in range(81):
        for y in bits(adj[x]):
            if y < x:
                continue
            c = local_configuration(env["G"], x, y)
            a, b = c.a_mask, c.b_mask
            cliques = all(adj[u] & m == m & ~(1 << u) for m in (a, b) for u in bits(m))
            # two disjoint K4 and a ninth vertex z adjacent to neither
            if c.induced.edge_count() != 12 or not cliques or adj[c.z] & (a | b):
                recurring = False

    def shape(h: Graph) -> tuple:
        return canonical_form(ColoredGraph.from_graph(h)).certificate

    ok = (
        cfg.induced.edge_count() == 12 and shape(cfg.induced) == shape(two_k4)
        and cfg_p.induced.edge_count() == 9 and shape(cfg_p.induced) == shape(k4_star)
        and recurring
    )
    return {
        "pass": ok,
        "edge_count_vls": cfg.induced.edge_count(),
        "edge_count_new": cfg_p.induced.edge_count(),
        "shape_recurs_at_all_collinear_pairs": recurring,
    }


def _claim_exact_cover_geometries(env) -> dict:
    out = {}
    ok = True
    want = {"vls": 2, "new": 1}
    for name, g, graph in [("vls", env["G"], env["P1"]), ("new", env["Gp"], env["P1p"])]:
        sols = all_geometries_on(graph)
        line_sets = [s.lines for s in sols]
        contains = g.lines in line_sets
        iso_all = all(is_isomorphic(g, s) for s in sols)
        entry = {
            "solutions": len(sols),
            "contains_line_set": contains,
            "all_isomorphic": iso_all,
        }
        if name == "vls":
            entry["contains_negative_lines"] = tuple(con.negative_lines(g)) in line_sets
            ok = ok and entry["contains_negative_lines"]
        out[name] = entry
        ok = ok and contains and iso_all and len(sols) == want[name]
    return {"pass": ok, "got": out}


def _claim_mms_weightings(env) -> dict:
    out = {}
    ok = True
    for name, g, lg in [("vls", env["G"], env["L2"]), ("new", env["Gp"], env["L2p"])]:
        w = star_weighting(g, 0)
        star_count, star_mask = count_nonnegative_lines(g, w)
        rep = max_cliques(lg)
        _, non_stars = classify_line_cliques(g, rep.cliques_of_size_6)
        witness = mms_counterexample_search(g, non_stars[0])
        star_masks = set(g.pencils)
        entry: dict = {"star_weighting_nonnegative": star_count}
        if witness is None:
            entry["witness"] = None
            entry["note"] = "search space exhausted; not a refutation"
            ok = False
        else:
            count, nonneg = count_nonnegative_lines(g, witness)
            entry["witness"] = {
                "weights": sorted(set(witness.weights)),
                "nonnegative_count": count,
                "nonnegative_is_star": nonneg in star_masks,
                "below_star_size": count < 6,
            }
            ok = ok and count <= 6 and nonneg not in star_masks
            ok = ok and sum(witness.weights) == 0
        ok = ok and star_count == 6 and star_mask == g.pencils[0]
        out[name] = entry
    return {"pass": ok, "got": out}


def _cmd_report(args) -> tuple[dict, int]:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        _fail(f"cannot create {args.out}: {e}")
    t0 = time.time()
    env = _environment(args.relabelings)
    summary = {}
    details = {}
    for name in CLAIMS:
        t1 = time.time()
        detail = globals()[f"_claim_{name}"](env)
        print(f"{name}: {'ok' if detail['pass'] else 'FAIL'}"
              f" ({time.time() - t1:.1f}s)", file=sys.stderr)
        _write(os.path.join(args.out, f"{name}.json"), _json({"claim": name, **detail}))
        summary[name] = detail["pass"]
        details[name] = detail
    all_pass = all(summary.values())
    headline = {
        "isomorphic": details["isomorphism_and_duality"]["isomorphic"],
        "self_dual": details["isomorphism_and_duality"]["self_dual"],
        "six_clique_counts": details["clique_census"]["size_6_cliques"],
        "automorphism_orders": details["automorphism_orders"]["got"],
    }
    results = {"claims": summary, "headline": headline, "all_pass": all_pass}
    _write(os.path.join(args.out, "summary.json"), _json(results))
    print(f"total {time.time() - t0:.1f}s", file=sys.stderr)
    return results, 0 if all_pass else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pg552",
        description="Build and verify the two partial geometries pg(5,5,2) on 81 points.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a geometry as an incidence file")
    p.add_argument("--geometry", required=True, choices=["vls", "new"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("verify", help="verify the pg axioms of an incidence file")
    p.add_argument("file")
    p.add_argument("--expect", type=_expect, help="s,t,alpha to require, e.g. 5,5,2")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("srg", help="certify strong regularity of the point or line graph")
    p.add_argument("file")
    p.add_argument("--graph", choices=["point", "line"], default="point")
    p.set_defaults(fn=_cmd_srg)

    p = sub.add_parser("local", help="local collinearity configuration of a collinear pair")
    p.add_argument("file")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=1)
    p.set_defaults(fn=_cmd_local)

    p = sub.add_parser("cliques", help="maximal clique census of the point or line graph")
    p.add_argument("file")
    p.add_argument("--graph", choices=["point", "line"], default="point")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_cliques)

    p = sub.add_parser("aut", help="automorphism group of an incidence file")
    p.add_argument("file")
    p.add_argument("--on", choices=["points", "lines"], default="points")
    p.set_defaults(fn=_cmd_aut)

    p = sub.add_parser("iso", help="isomorphism test for two incidence files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("dual", help="self-duality check; optionally write the dual")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("cover", help="all geometries supported by the point graph")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("mms", help="zero-sum weighting counterexample search")
    p.add_argument("file")
    p.add_argument("--clique", type=int, default=0,
                   help="index into the non-star 6-cliques of the line graph")
    p.add_argument("--bound", type=_count, default=81)
    p.set_defaults(fn=_cmd_mms)

    p = sub.add_parser("report", help="run the full claim suite and write JSON reports")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--relabelings", type=_count, default=50)
    p.set_defaults(fn=_cmd_report)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.time()
    try:
        results, code = args.fn(args)
    except ValueError as e:
        _fail(str(e))
    _emit(args, results)
    print(f"elapsed: {time.time() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
