"""Incidence structures, partial-geometry verification, duals, and the
point/line graphs.

A partial geometry pg(s,t,alpha) is a partial linear space with lines of
degree s+1 and points of degree t+1 such that every non-incident point-line
pair (P, l) has exactly alpha points of l collinear with P.  Verification
here is by direct enumeration over all pairs, never by spectral shortcuts,
so a failure always comes with a concrete witness.
"""

from __future__ import annotations

import functools
import re
from collections import Counter

from .bits import Frozen, bits, count_is, count_planes, mask_of
from .graphs import Graph


class IncidenceStructure(Frozen):
    """``v`` points 0..v-1 and a list of lines, each line a point mask.

    Lines are stored deduplicated and sorted by mask value, so line indices
    are deterministic and shared by the dual and the file format.
    ``pencils[p]`` masks the indices of the lines through p; it is derived
    from the lines, so equality and hashing ignore it.  ``collinearity[p]``
    masks the points other than p on a line through p; it is built on first
    read, so structures that never ask for it do not pay for it.
    """

    _compared = _shown = ("v", "lines")

    def __init__(self, v: int, lines):
        normalized = tuple(sorted(set(int(m) for m in lines)))
        full = (1 << v) - 1
        pencils = [0] * v
        for j, m in enumerate(normalized):
            if m & ~full:
                raise ValueError("line contains a point outside 0..v-1")
            bit = 1 << j
            while m:
                low = m & -m
                pencils[low.bit_length() - 1] |= bit
                m ^= low
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lines", normalized)
        object.__setattr__(self, "pencils", tuple(pencils))

    @property
    def b(self) -> int:
        return len(self.lines)

    @functools.cached_property
    def collinearity(self) -> tuple[int, ...]:
        """Each point's collinearity row without its own bit, the union of
        the lines through it, which ``verify_pg``, ``point_graph`` and
        ``graphs.local_configuration`` read."""
        return _joined(self.pencils, self.lines)


def _joined(sets, members) -> tuple[int, ...]:
    """Row i is the union of ``members[k]`` over the k in ``sets[i]``, without
    bit i: the collinearity rows from the pencils and the lines, and the
    line graph's rows from the lines and the pencils."""
    rows = []
    for i, m in enumerate(sets):
        row = 0
        for k in bits(m):
            row |= members[k]
        rows.append(row & ~(1 << i))
    return tuple(rows)


class PgParams(Frozen):
    _compared = _shown = ("s", "t", "alpha", "v", "b")

    def __init__(self, s: int, t: int, alpha: int, v: int, b: int):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "b", b)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.s, self.t, self.alpha, self.v, self.b)


class PgViolation(ValueError):
    """Raised when a structure fails a partial-geometry axiom; carries the
    first concrete witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(f"{reason}" + (f"; witness {witness}" if witness else ""))
        self.reason = reason
        self.witness = witness


def verify_pg(g: IncidenceStructure) -> PgParams:
    """Full partial-geometry verification by direct enumeration.

    Checks the partial linear space axiom, uniform line and point degrees,
    and the alpha condition over every non-incident point-line pair, with
    alpha >= 1.  Raises :class:`PgViolation` with the first witness on any
    failure.  The count formulas then hold by double counting, so they are
    not checked: fix a line and count the collinear pairs of a point on it
    and a point off it, (s+1)·t·s = alpha(v-s-1); fix a point and count
    the lines through it that meet a line not through it,
    (t+1)·s·t = alpha(b-t-1).  The partial linear space axiom is read off
    the lines and the pencils: line j shares two points with line i iff j
    is in the pencils of two points of i.  The alpha condition is read off
    the shared rows ``g.collinearity``, a line at a time, the counts of all
    points off the line at once; on a mismatch the pairs are scanned in
    point-major order for the first witness.
    """
    if g.b == 0:
        raise PgViolation("no lines")
    lines, pencils = g.lines, g.pencils
    for i, m in enumerate(lines):
        # seen: lines through a point of line i; twice: through two of its points
        seen = twice = 0
        for p in bits(m):
            twice |= seen & pencils[p]
            seen |= pencils[p]
        later = twice >> i + 1
        if later:
            j = i + (later & -later).bit_length()
            p, q, *_ = bits(m & lines[j])
            raise PgViolation("two points on two common lines", (p, q, i, j))
    line_sizes = Counter(map(int.bit_count, lines))
    point_degrees = Counter(map(int.bit_count, pencils))
    if len(line_sizes) != 1:
        raise PgViolation("line degree not uniform", dict(line_sizes))
    if len(point_degrees) != 1:
        raise PgViolation("point degree not uniform", dict(point_degrees))
    s = next(iter(line_sizes)) - 1
    t = next(iter(point_degrees)) - 1
    rows = g.collinearity
    # alpha is the count at the first non-incident pair in point-major order
    all_lines = (1 << g.b) - 1
    alpha = None
    for p, pencil in enumerate(pencils):
        missing = all_lines & ~pencil
        if missing:
            alpha = (rows[p] & lines[(missing & -missing).bit_length() - 1]).bit_count()
            break
    if alpha is None:
        raise PgViolation("no non-incident point-line pair; alpha undefined")
    # line by line: the count of p's collinear points on line m is the
    # number of rows of m's points that hold p
    full = (1 << g.v) - 1
    for m in lines:
        off = full & ~m
        if count_is(count_planes(rows, m), alpha, off) != off:
            raise PgViolation("alpha not constant", _first_alpha_violation(rows, lines, alpha))
    if alpha == 0:
        raise PgViolation("alpha is zero")
    return PgParams(s=s, t=t, alpha=alpha, v=g.v, b=g.b)


def _first_alpha_violation(rows, lines, alpha: int) -> tuple[int, int, int, int]:
    """The first non-incident pair (p, j), in point-major order, at which
    the count c of p's collinear points on line j is not ``alpha``, as the
    witness (p, j, c, alpha)."""
    for p, row in enumerate(rows):
        for j, m in enumerate(lines):
            if not m >> p & 1 and (row & m).bit_count() != alpha:
                return p, j, (row & m).bit_count(), alpha
    # unreachable: verify_pg asks only after some line's count failed at a
    # point off it, and that pair is a witness
    raise AssertionError("the line counts and the pair counts disagree")


def dual(g: IncidenceStructure) -> IncidenceStructure:
    """Points of the dual are line indices of g; lines are point pencils."""
    return IncidenceStructure(g.b, g.pencils)


def point_graph(g: IncidenceStructure) -> Graph:
    return Graph(g.v, g.collinearity)


def line_graph(g: IncidenceStructure) -> Graph:
    """The point graph of the dual, read off the lines and the pencils
    without building the dual."""
    return Graph(g.b, _joined(g.lines, g.pencils))


# ---------------------------------------------------------------------------
# incidence file format: "pg <v> <b>" header, then one line of strictly
# increasing point indices per geometry line, in increasing mask order,
# single spaces, trailing newline.
# Numbers are ASCII decimal without sign or leading zero, as to_text writes them.
# A header may declare at most MAX_SIZE points and lines, so every readable
# file, and the dual of one, gets an answer from each command in seconds,
# except from the exponential searches the README names.

MAX_SIZE = 4096

_NUMBER = "(?:0|[1-9][0-9]*)"
_HEADER = re.compile(f"pg ({_NUMBER}) ({_NUMBER})")
_ROW = re.compile(f"{_NUMBER}(?: {_NUMBER})*")


def to_text(g: IncidenceStructure) -> str:
    rows = [f"pg {g.v} {g.b}"]
    for m in g.lines:
        rows.append(" ".join(str(p) for p in bits(m)))
    return "\n".join(rows) + "\n"


def from_text(text: str) -> IncidenceStructure:
    lines = text.split("\n")
    if not lines[0]:
        raise ValueError("missing header")
    head = _HEADER.fullmatch(lines[0])
    if head is None:
        raise ValueError(f"bad header: {lines[0]!r}")
    v, b = int(head[1]), int(head[2])
    if max(v, b) > MAX_SIZE:
        raise ValueError(f"header declares more than {MAX_SIZE} points or lines")
    if len(lines) != b + 2 or lines[-1] != "":
        raise ValueError(f"expected {b} rows plus trailing newline")
    masks = []
    for row in lines[1 : b + 1]:
        if _ROW.fullmatch(row) is None:
            raise ValueError(f"malformed row: {row!r}")
        pts = [int(p) for p in row.split(" ")]
        if any(not 0 <= p < v for p in pts):
            raise ValueError(f"point index out of range in row: {row!r}")
        if any(x >= y for x, y in zip(pts, pts[1:])):
            raise ValueError(f"row not strictly increasing: {row!r}")
        mask = mask_of(pts)
        if masks and mask <= masks[-1]:
            raise ValueError(f"row not above the row before it in mask order: {row!r}")
        masks.append(mask)
    return IncidenceStructure(v, masks)


def write_incidence(g: IncidenceStructure, path: str) -> None:
    with open(path, "w") as f:
        f.write(to_text(g))


def read_incidence(path: str) -> IncidenceStructure:
    with open(path) as f:
        return from_text(f.read())
