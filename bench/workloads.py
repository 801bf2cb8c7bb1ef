"""The three workloads.  Each one is set up once per instance and then runs
rounds: equal batches of calls into pg552 whose inputs come from the
round's own seeded generator.  ``Ops`` times each call; the benchmark's
own checks run between calls, outside the timed part, and append what
they find to ``problems``."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter

import oracles as orc

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


class Ops:
    """Counts and times the calls a run makes into pg552, by kind.

    ``busy`` is wall time; ``ref`` is the same calls' time in reference
    seconds (see ``speed``).
    """

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.busy: Counter = Counter()
        self.ref: Counter = Counter()
        self.calls: Counter = Counter()

    def spent(self) -> tuple[float, float]:
        """Reference and wall seconds spent in calls so far."""
        return sum(self.ref.values()), sum(self.busy.values())

    def call(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        self.calls[kind] += 1
        t0, work0 = time.perf_counter(), self.clock.work()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        finally:
            self.ref[kind] += self.clock.work() - work0
            self.busy[kind] += time.perf_counter() - t0

    def run(self, kind: str, cmd, deadline: float, **kwargs) -> subprocess.CompletedProcess:
        """Run a command to its end; its time is its CPU time at the mean
        speed sampled while it ran."""
        self.attempted += 1
        self.calls[kind] += 1
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()), **kwargs)
        except BaseException:
            self.failed += 1
            raise
        t1 = time.perf_counter()
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        self.busy[kind] += t1 - t0
        self.ref[kind] += cpu * self.clock.mean_speed(t0, t1)
        return proc


def shuffled(rng, n: int) -> tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


class Report:
    """``pg552 report --all`` in a fresh process, as a user runs it."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, mods, workdir: str, deadline: float):
        mods.construction.build_vls()
        mods.construction.build_new()
        self.workdir = workdir
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def run_round(self, ops: Ops, rng, tracer=None) -> None:
        out = os.path.join(self.workdir, "report")
        shutil.rmtree(out, ignore_errors=True)
        spans_path = os.path.join(self.workdir, "spans.json")
        if tracer is None:
            cmd = [sys.executable, "-m", "pg552.cli"]
        else:
            cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), spans_path]
        # a relative --out keeps the work directory's name out of stdout
        cmd += ["report", "--all", "--out", "report"]
        proc = ops.run("report", cmd, self.deadline, cwd=self.workdir, env=self.env)
        if tracer is not None:
            with open(spans_path) as f:
                offset = len(tracer.spans)
                tracer.spans.extend([n, a, b, p + offset if p >= 0 else p, c]
                                    for n, a, b, p, c in json.load(f))
        self.check(proc, out)

    def check(self, proc, out: str) -> None:
        if proc.returncode != 0:
            self.problems.append(f"report exit {proc.returncode}: {proc.stderr[-500:]}")
            return
        results = json.loads(proc.stdout)["results"]
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        if {k: summary[k] for k in results} != results:
            self.problems.append("summary.json disagrees with stdout")
        claims = results["claims"]
        if len(claims) != 11 or not all(claims.values()) or not results["all_pass"]:
            self.problems.append(f"claims {claims}")
        head = results["headline"]
        self.problems += orc.check_paper_table(head["automorphism_orders"],
                                               head["six_clique_counts"])
        if head["isomorphic"] or head["self_dual"] != {"vls": True, "new": True}:
            self.problems.append(
                f"isomorphic {head['isomorphic']}, self-dual {head['self_dual']}")
        digest = hashlib.sha256(proc.stdout.encode())
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
        self.digests.add(digest.hexdigest())
        if len(self.digests) > 1:
            self.problems.append("report output differs between rounds")

    def figures(self, ops: Ops, rounds: int) -> dict:
        return {"report_s": ops.busy["report"] / rounds, "digest": sorted(self.digests)}


class Groups:
    """Stabilizer chains of four automorphism groups, each under a fixed
    random base, and membership tests of members, random permutations and
    near-members."""

    rusage = resource.RUSAGE_SELF
    per_kind = 100  # contains calls per group and kind of permutation
    word_length = 20

    def __init__(self, mods, workdir: str, deadline: float):
        self.sym = mods.symmetry
        con, inc = mods.construction, mods.incidence
        g, gp = con.build_vls(), con.build_new()
        self.groups = []
        for name, group, geometry, on_lines in [
            ("aut_vls", self.sym.aut_incidence(g), g, True),
            ("aut_new", self.sym.aut_incidence(gp), gp, True),
            ("aut_point_graph_vls", self.sym.aut_graph(inc.point_graph(g)), g, False),
            ("aut_point_graph_new", self.sym.aut_graph(inc.point_graph(gp)), gp, False),
        ]:
            lines = frozenset(geometry.lines)
            adj = orc.collinearity(geometry.v, lines)
            oracle = ((lambda p, s=lines: orc.preserves_lines(s, p)) if on_lines
                      else (lambda p, a=adj: orc.preserves_adjacency(a, p)))
            self.groups.append((name, group.degree, tuple(group.generators), oracle))
        # The work of building a chain varies by 17% from base to base, and
        # a run builds only some twenty chains, so bases drawn per round made
        # a run's time depend on its seed and length more than on the code.
        # Every round builds its chains under the same four bases.
        fixed = random.Random(0)
        self.bases = [shuffled(fixed, n) for _, n, _, _ in self.groups]
        self.problems: list[str] = []

    def word(self, rng, gens) -> tuple[int, ...]:
        p = tuple(range(len(gens[0])))
        for _ in range(self.word_length):
            g = rng.choice(gens)
            p = tuple(g[x] for x in p)
        return p

    def near_member(self, rng, gens) -> tuple[int, ...]:
        p = list(self.word(rng, gens))
        i, j = rng.sample(range(len(p)), 2)
        p[i], p[j] = p[j], p[i]
        return tuple(p)

    def run_round(self, ops: Ops, rng, tracer=None) -> None:
        for (name, n, gens, oracle), base in zip(self.groups, self.bases):
            members = list(gens) + [self.word(rng, gens) for _ in range(self.per_kind)]
            others = ([shuffled(rng, n) for _ in range(self.per_kind)]
                      + [self.near_member(rng, gens) for _ in range(self.per_kind)])
            chain = ops.call("chains", self.sym.PermutationGroup, n, gens, base)
            order = ops.call("chains", chain.order)
            if order != orc.AUT_ORDERS[name]:
                self.problems.append(f"{name}: order {order}, paper {orc.AUT_ORDERS[name]}")
            for p in members:
                if not (ops.call("memberships", chain.contains, p) and oracle(p)):
                    self.problems.append(f"{name}: a word in the generators is rejected")
            for p in others:
                got = ops.call("memberships", chain.contains, p)
                if got != oracle(p):
                    self.problems.append(f"{name}: contains says {got}, own test not")

    def figures(self, ops: Ops, rounds: int) -> dict:
        chains = ops.calls["chains"] / 2  # PermutationGroup() and order()
        return {"chains_per_s": chains / ops.busy["chains"],
                "memberships_per_s": ops.calls["memberships"] / ops.busy["memberships"]}


class Census:
    """Every non-symmetry check on relabeled copies of both geometries,
    each passed through the text format."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, mods, workdir: str, deadline: float):
        self.inc, self.gr, self.cl, self.gs = (
            mods.incidence, mods.graphs, mods.cliques, mods.geometric_search)
        con = mods.construction
        self.geometries = {"vls": con.build_vls(), "new": con.build_new()}
        # local edge counts are invariant under relabeling, so each copy's
        # histogram must equal that of the geometry it was made from
        self.histograms = {
            name: Counter(orc.local_edge_counts(orc.collinearity(g.v, g.lines)).values())
            for name, g in self.geometries.items()}
        self.problems: list[str] = []

    def run_round(self, ops: Ops, rng, tracer=None) -> None:
        for name, g in self.geometries.items():
            perm = shuffled(rng, g.v)
            copy = self.inc.IncidenceStructure(g.v, (orc.image(m, perm) for m in g.lines))
            self.census(ops, name, copy)

    def census(self, ops: Ops, name: str, g) -> None:
        inc, gr, cl, gs = self.inc, self.gr, self.cl, self.gs

        def expect(ok: bool, what: str) -> None:
            if not ok:
                self.problems.append(f"{name} copy: {what}")

        h = ops.call("census", inc.from_text, ops.call("census", inc.to_text, g))
        expect(h.lines == g.lines, "text round trip changed the lines")
        adj = orc.collinearity(g.v, g.lines)
        params = ops.call("census", inc.verify_pg, h).as_tuple()
        want = orc.PG + orc.pg_counts(*orc.PG)
        expect(params == want, f"verify_pg {params}, want {want}")
        point_graph = ops.call("census", inc.point_graph, h)
        line_graph = ops.call("census", inc.line_graph, h)
        expect(list(point_graph.adj) == adj, "point graph differs from own recount")
        srg = orc.pg_srg(*orc.PG) + (False, False)
        for graph in (point_graph, line_graph):
            p = ops.call("census", gr.srg_check, graph)
            got = (p.v, p.k, p.lam, p.mu, p.complete, p.empty)
            expect(got == srg, f"srg {got}, want {srg}")
        six = len(ops.call("census", cl.max_cliques, point_graph).cliques_of_size_6)
        expect(six == orc.SIX_CLIQUES[f"point_{name}"], f"{six} point-graph 6-cliques")
        line_six = ops.call("census", cl.max_cliques, line_graph).cliques_of_size_6
        stars, non_stars = ops.call("census", cl.classify_line_cliques, h, line_six)
        expect((len(stars), len(non_stars)) == orc.LINE_CLIQUES[name],
               f"{len(stars)} stars + {len(non_stars)} non-stars")
        pencils = {sum(1 << j for j, m in enumerate(h.lines) if m >> p & 1)
                   for p in range(h.v)}
        expect(set(stars) == pencils, "stars are not the point pencils")
        solutions = ops.call("census", gs.all_geometries_on, point_graph)
        expect(len(solutions) == orc.COVERS[name], f"{len(solutions)} geometries")
        expect(any(s.lines == h.lines for s in solutions), "own line set not found")
        for s in solutions:
            for problem in orc.check_edge_partition(adj, s.lines):
                expect(False, problem)
        own = orc.local_edge_counts(adj)
        got = {(x, y): ops.call("census", gr.local_configuration, h, x, y).induced.edge_count()
               for x, y in own}
        expect(got == own, "local edge counts differ from own recount")
        histogram = Counter(got.values())
        expect(histogram == self.histograms[name], f"local edge counts {dict(histogram)}")
        if name == "vls":
            expect(set(histogram) == {12}, "a collinear pair without 12 induced edges")
        if non_stars:
            w = ops.call("census", gs.mms_counterexample_search, h, non_stars[0])
            if w is None:
                expect(False, "no weighting witness")
            else:
                for problem in orc.check_weighting(h.lines, w.weights):
                    expect(False, problem)

    def figures(self, ops: Ops, rounds: int) -> dict:
        return {"geometries_per_s": len(self.geometries) * rounds / ops.busy["census"]}


WORKLOADS = {"report": Report, "groups": Groups, "census": Census}
