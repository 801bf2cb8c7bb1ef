"""Each of the benchmark's own checks accepts the right output and rejects
a deliberately broken one.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import os
from fractions import Fraction

import pytest

import oracles as orc
import tracing
from pg552 import construction as con
from pg552 import geometric_search as gs
from pg552 import symmetry as sym
from pg552.cliques import classify_line_cliques, max_cliques
from pg552.incidence import line_graph


@pytest.fixture(scope="module")
def vls():
    return con.build_vls()


def transposition(n, a, b):
    p = list(range(n))
    p[a], p[b] = b, a
    return tuple(p)


def test_membership_rejects_transposition_of_adjacent_points(vls):
    adj = orc.collinearity(vls.v, vls.lines)
    lines = frozenset(vls.lines)
    b = orc.members(adj[0])[0]
    swap = transposition(vls.v, 0, b)
    assert not orc.preserves_adjacency(adj, swap)
    assert not orc.preserves_lines(lines, swap)
    for g in sym.aut_incidence(vls).generators:
        assert orc.preserves_adjacency(adj, g)
        assert orc.preserves_lines(lines, g)


def test_edge_partition_rejects_one_swapped_line(vls):
    adj = orc.collinearity(vls.v, vls.lines)
    assert orc.check_edge_partition(adj, vls.lines) == []
    foreign = next(m for m in con.negative_lines(vls) if m not in vls.lines)
    swapped = (foreign,) + vls.lines[1:]
    assert orc.check_edge_partition(adj, swapped)


def test_weighting_recount_rejects_one_changed_weight(vls):
    cliques = max_cliques(line_graph(vls)).cliques_of_size_6
    _, non_stars = classify_line_cliques(vls, cliques)
    weights = list(gs.mms_counterexample_search(vls, non_stars[0]).weights)
    assert orc.check_weighting(vls.lines, weights) == []
    weights[0] += Fraction(1, 2)
    assert orc.check_weighting(vls.lines, weights)
    star = [Fraction(-1)] * vls.v
    star[0] = Fraction(vls.v - 1)
    assert orc.check_weighting(vls.lines, star) == ["the nonnegative lines form a star"]


def test_paper_table_rejects_order_off_by_one():
    assert orc.check_paper_table(dict(orc.AUT_ORDERS), dict(orc.SIX_CLIQUES)) == []
    orders = dict(orc.AUT_ORDERS, aut_new=orc.AUT_ORDERS["aut_new"] + 1)
    assert orc.check_paper_table(orders) == ["aut_new: order 973, paper 972"]
    assert orc.check_paper_table(dict(orc.AUT_ORDERS), {"point_vls": 162, "point_new": 107})


def test_local_edge_counts_and_srg_formulas(vls):
    adj = orc.collinearity(vls.v, vls.lines)
    counts = orc.local_edge_counts(adj)
    assert len(counts) == 1215 and set(counts.values()) == {12}
    assert orc.pg_counts(*orc.PG) == (81, 81)
    assert orc.pg_srg(*orc.PG) == (81, 30, 9, 12)


def test_per_layer_metrics_name_traced_spans():
    with open(os.path.join(os.path.dirname(orc.__file__), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    spans = [f"{mod}.{fn}" for mod, fns in tracing.FUNCTIONS.items() for fn in fns]
    spans += [f"symmetry.PermutationGroup.{m}" for m in tracing.METHODS.values()]
    keys = {f"{s}.{k}" for s in spans for k in ("calls", "s", "self_s")}
    keys |= {f"{s}.{c}" for s, (c, _) in tracing.COUNTERS.items()}
    for m in spec["per_layer"]:
        name = m["name"]
        assert name in keys or name.startswith(("cli.claim.", "trace.")), name
        counted = name.rsplit(".", 1)[1] in ("calls", "accepted", "found", "solutions")
        assert m["unit"] == ("count" if counted else "s"), name
