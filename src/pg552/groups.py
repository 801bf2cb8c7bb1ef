"""Permutation groups: deterministic Schreier-Sims stabilizer chains for
order, membership and orbit queries, a known-order base change and the
restriction of a faithful action to its first points.

Permutations are image tuples at the API level.  Inside the stabilizer
chain they are 256-byte strings padded with the identity, so composition
is a single ``bytes.translate`` call.  A sift translates only at the levels
whose base point the element moves, and stops once it is the identity or
past the last level with generators.  Membership sifts only the degree's
bytes of an image: every stored element fixes the points past the degree.
A Schreier generator u_p s u_{s(p)}^-1 is the identity exactly when u_p s
is the stored u_{s(p)}, so one translate and one compare discard it.
"""

from __future__ import annotations

import random

from .bits import bits

Perm = tuple[int, ...]

_TAIL = bytes(range(256))
_IDLE_DRAWS = 1 << 14  # draws in a row that change nothing: see _rebase


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right composition: ``compose(p, q)[i] == q[p[i]]``."""
    return tuple(map(q.__getitem__, p))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _pad(p) -> bytes:
    b = bytes(p)
    return b + _TAIL[len(b):]


class _Chain:
    """One level of a deterministic Schreier-Sims stabilizer chain.

    Permutations are identity-padded 256-byte strings.  Transversal entries
    are only ever appended, never recomputed, so Schreier generators already
    processed stay processed when the orbit grows.  ``inverses[p]`` is the
    inverse of ``transversal[p]``, stored when the entry is added, so a sift
    step is one ``bytes.translate`` call.

    A sift visits only the levels whose base point the element moves: the
    transversal element of the base point itself is the identity, so such a
    step would change nothing.  It stops once the element is the identity,
    which every later level leaves as it is, and at the first level with
    no generators: an element joins every level from the one where it is
    placed down to the first whose base point it moves, so the levels with
    generators are a prefix of the chain, and every level past it has a
    trivial orbit, which leaves the element as it is or ends the walk.  The
    residue is the one a walk through every level would give.  Every stored
    element fixes the points from the group's degree on, so a string of
    only the first ``degree`` bytes sifts to the first ``degree`` bytes of
    the padded one's residue; it does not stop early at the identity, whose
    later levels change nothing anyway.

    ``gens`` is the level's own generating set: the elements inserted at
    the level or passed through it, each fixing the earlier base points.
    Orbits and Schreier generators read only it, and a residue of one of
    its Schreier generators joins only the levels below, down to the first
    whose base point it moves (Holt, Eick and O'Brien 2005, section 4.4).
    This is exact: the residue is a word in the level's generators and
    deeper transversal elements, so each level's list always generates the
    group of every element stored at or below it.

    A Schreier pass changes only the levels below its own, so when it ends
    it has processed every pair of the orbit points and generators it
    started with: ``_swept`` holds those points and ``_swept_gens`` counts
    those generators, the first ones of ``gens``.  No element enters
    ``gens`` twice, since each one sifted to a residue that was no member.
    The Schreier generator of the pair (p, s) is u_p s u_{s(p)}^-1, the
    identity exactly when u_p s equals the stored u_{s(p)} (Seress 2003,
    section 4.2), so such a pair costs one translate and one compare.
    """

    __slots__ = ("basepoint", "gens", "transversal", "inverses", "stab",
                 "_swept", "_swept_gens")

    def __init__(self, base: tuple[int, ...] = ()):
        self.basepoint: int | None = None
        self.gens: list[bytes] = []
        self.transversal: dict[int, bytes] = {}
        self.inverses: dict[int, bytes] = {}
        self.stab: _Chain | None = None
        self._swept: set[int] = set()
        self._swept_gens = 0
        if base:
            self._open(base[0], base[1:])

    def _open(self, b: int, rest: tuple[int, ...] = ()) -> None:
        """Make ``b`` the base point of this empty level and the points of
        ``rest`` those of the empty levels below it, in order."""
        level = self
        for p in (b, *rest):
            level.basepoint = p
            level.transversal = {p: _TAIL}
            level.inverses = {p: _TAIL}
            level.stab = level = _Chain()

    def sift(self, g: bytes) -> bytes:
        level = self
        while level.gens:  # a level with generators is open: it has a stab
            b = level.basepoint
            x = g[b]
            if x != b:  # at x == b the transversal element is the identity
                u_inv = level.inverses.get(x)
                if u_inv is None:
                    return g
                g = g.translate(u_inv)  # right-multiply by u^{-1}
                if g == _TAIL:
                    return g  # every later level fixes the identity
            level = level.stab
        return g

    def insert(self, g: bytes) -> None:
        """Insert a non-identity element that is not yet a member: place it,
        then run the Schreier passes of the levels it joined, deepest first.
        A pass changes only the levels below its own and an orbit's growth
        reads only its own level, so each level's orbit may grow before the
        passes below it run."""
        for level in reversed(self._place(g)):
            level._process_schreier()

    def _grow_orbit(self) -> None:
        """Extend the orbit, closed under all but the newest generator, by
        the newest: the sorted old points go through it, then the points
        found go through every generator.  An older generator maps old
        points to old points, so this finds the points, in the same order,
        that a walk of the whole orbit from its sorted points would."""
        transversal, inverses, gens = self.transversal, self.inverses, self.gens
        new = gens[-1]
        found = []
        for p in sorted(transversal):
            x = new[p]
            if x not in transversal:
                ux = transversal[p].translate(new)
                transversal[x] = ux
                inverses[x] = bytes.maketrans(ux, _TAIL)
                found.append(x)
        for p in found:  # the walk appends the points it finds
            u = transversal[p]
            for s in gens:
                x = s[p]
                if x not in transversal:
                    ux = u.translate(s)
                    transversal[x] = ux
                    inverses[x] = bytes.maketrans(ux, _TAIL)
                    found.append(x)

    def _process_schreier(self) -> None:
        gens, swept, new = self.gens, self._swept, self.gens[self._swept_gens:]
        transversal, inverses, stab = self.transversal, self.inverses, self.stab
        for p in sorted(transversal):
            u_p = transversal[p]
            for s in new if p in swept else gens:
                ups = u_p.translate(s)
                x = s[p]
                if ups == transversal[x]:
                    continue  # the Schreier generator is the identity
                residue = stab.sift(ups.translate(inverses[x]))
                if residue != _TAIL:
                    stab.insert(residue)
        self._swept = set(transversal)
        self._swept_gens = len(gens)

    def order(self) -> int:
        """The product of the orbit lengths; a level with no generators has
        the trivial orbit, and so has every level past it: the levels with
        generators are a prefix of the chain."""
        out = 1
        level = self
        while level.gens:
            out *= len(level.transversal)
            level = level.stab
        return out

    def _place(self, g: bytes) -> list[_Chain]:
        """Add a non-identity element to every level down to the first whose
        base point it moves, and grow the orbits of those levels; no
        Schreier generator is processed.  Returns those levels in order."""
        levels = []
        level = self
        while True:
            if level.basepoint is None:
                level._open(next(i for i in range(256) if g[i] != i))
            level.gens.append(g)
            level._grow_orbit()
            levels.append(level)
            if g[level.basepoint] != level.basepoint:
                return levels
            level = level.stab


def _rebase(chain: _Chain, base: tuple[int, ...], phi: bytes | None = None,
            stop: int | None = None) -> _Chain:
    """A stabilizer chain of the group of the complete chain ``chain``
    whose base starts with ``base``: randomized Schreier-Sims with the
    order known (Seress, *Permutation Group Algorithms*, 2003).  With
    ``phi``, an identity-padded permutation, the group is the one with each
    point x renamed ``phi[x]``, and ``base`` names renamed points.  With
    ``stop``, it is the group's action on the points 0..stop-1, which the
    group must map onto themselves and act on faithfully: then the
    restriction is an isomorphism, its draws are uniform in the image, and
    the image has the group's order.

    Each element sifted is uniform in the group: one random transversal
    element per level of ``chain``, composed from the deepest level up.  Its
    residue in the new chain, if any, is placed there without Schreier
    generators.  Every level then holds only elements fixing the earlier
    base points, so each of its orbits is at most the true one; once the
    product of the orbit lengths reaches the group's order, every orbit is
    the true one and every level generates the full pointwise stabilizer.
    The random source has a fixed seed, so the same input gives the same
    chain.  Each element drawn with ``phi`` is conjugated, g -> phi^-1 g phi,
    before it is sifted: the draws see ``chain``'s transversals in their
    order, so the result holds the elements that re-basing a conjugated copy
    of ``chain`` would, and no such copy is built.

    While the new chain is short, a draw sifts to the identity with
    probability at most 1 - 1/256: at the first level whose orbit is not
    the true one, at least one point of the true orbit is missing.  So
    ``_IDLE_DRAWS`` such draws in a row (chance at most e^-64) mean the
    image is smaller than the group, an action that is not faithful, and
    raise ``ValueError`` instead of drawing forever."""
    order = chain.order()
    levels = []
    level = chain
    while level.basepoint is not None:
        levels.append(list(level.transversal.values()))
        level = level.stab
    levels.reverse()
    rng = random.Random(0)
    phi_inv = None if phi is None else bytes.maketrans(phi, _TAIL)
    out = _Chain(base)
    short = out.order() < order  # only a placed residue changes the order
    idle = 0
    while short:
        g = _TAIL
        for transversal in levels:
            g = g.translate(rng.choice(transversal))
        if phi is not None:
            g = phi_inv.translate(g).translate(phi)
        if stop is not None:
            g = g[:stop] + _TAIL[stop:]
        residue = out.sift(g)
        if residue != _TAIL:
            out._place(residue)
            short = out.order() < order
            idle = 0
        else:
            idle += 1
            if idle == _IDLE_DRAWS:
                raise ValueError(f"the action is not faithful: its image stalled at "
                                 f"order {out.order()} of {order}")
    return out


class PermutationGroup:
    """Permutation group given by generators, with a stabilizer chain for
    order, membership and orbit queries.

    ``base`` fixes a prefix of the chain's base points (the canonical
    search's first path, or a second, independent base that reproduces the
    order); each must be one of the points 0..degree-1.
    """

    def __init__(self, degree: int, generators=(), base: tuple[int, ...] = ()):
        if not 0 <= degree <= 256:
            raise ValueError(f"degree {degree} out of range 0..256")
        base = tuple(base)
        self.degree = degree
        self._identity = _TAIL[:degree]
        self._check_points(base, "base point")
        self.generators: list[Perm] = []
        self._chain = _Chain(base)
        self._rebased: dict[tuple[int, ...], _Chain] = {}  # see _levels
        self._orbit_masks: dict[tuple, tuple[list[bytes], int]] = {}  # see stabilizer_orbits
        for g in generators:
            self.add(g)

    def _check_points(self, points, what: str) -> None:
        for p in points:
            if not 0 <= p < self.degree:
                raise ValueError(f"{what} {p} out of range 0..{self.degree - 1}")

    def add(self, g) -> bool:
        """Add a generator; returns False if it was already a member."""
        return self._join(g, self._chain.insert)

    def add_strong(self, g) -> bool:
        """``add`` for a group whose generators, with ``g``, form a strong
        generating set relative to the chain's base, as the automorphisms an
        unseeded canonical search finds do: ``g`` is placed, and no Schreier
        pass runs, since every Schreier generator of a strong generating set
        sifts to the identity (Seress 2003, section 4.2).  The chain is the
        one ``add`` would build."""
        return self._join(g, self._chain._place)

    def _join(self, g, store) -> bool:
        g = tuple(g)
        if sorted(g) != list(range(self.degree)):
            raise ValueError("not a permutation of the right degree")
        padded = _pad(g)
        if self._chain.sift(padded) == _TAIL:
            return False
        self.generators.append(g)
        store(padded)
        self._rebased = {}
        self._orbit_masks = {}
        return True

    def order(self) -> int:
        return self._chain.order()

    def with_base(self, base: tuple[int, ...], phi: Perm) -> PermutationGroup:
        """The group with each point x renamed ``phi[x]``, its chain re-based
        onto ``base``: each generator g becomes phi^-1 g phi, and so does
        each element the re-base draws (see ``_rebase``)."""
        n = self.degree
        padded, inv = self._renaming(phi)
        self._check_points(base, "base point")
        out = PermutationGroup(n)
        out.generators = [tuple(inv.translate(_pad(g)).translate(padded)[:n])
                          for g in self.generators]
        out._chain = _rebase(self._chain, base, padded)
        return out

    def _renaming(self, phi: Perm) -> tuple[bytes, bytes]:
        """``phi`` and its inverse as identity-padded byte strings; ``phi``
        must be a permutation of the points."""
        if sorted(phi) != list(range(self.degree)):
            raise ValueError(f"relabeling of length {len(phi)} is not a permutation "
                             f"of 0..{self.degree - 1}")
        padded = _pad(phi)
        return padded, bytes.maketrans(padded, _TAIL)

    def restricted(self, stop: int) -> PermutationGroup:
        """The action on the points 0..stop-1 of a group that maps them
        onto themselves and acts on them faithfully, as the incidence group
        acts on the points; the chain is re-based with the group's order
        known (see ``_rebase``, which refuses an action that is not
        faithful).  A faithful restriction is an isomorphism, so each
        generator, a non-member of the group of those before it, stays one:
        the generators are the restricted ones, all of them, in order."""
        if not 0 <= stop <= self.degree:
            raise ValueError(f"stop {stop} out of range 0..{self.degree}")
        out = PermutationGroup(stop)
        out.generators = [g[:stop] for g in self.generators]
        for g in out.generators:
            out._check_points(g, "image")
        out._chain = _rebase(self._chain, (), stop=stop)
        return out

    def least_image(self, points, phi: Perm | None = None) -> Perm:
        """The element whose images of ``points``, in order, are
        lexicographically least.  Each element is s u with u in the first
        level's transversal and s fixing its base point, so the least image
        of that point is the least orbit point x, and the rest is the least
        image under the next level with u_x applied after it: one walk of
        the levels ``_levels`` gives for ``points``, which re-bases only
        where the chain's base leaves them, and only once per prefix.

        With ``phi``, it is the element of the group renamed through
        ``phi``, as in ``with_base``: ``points`` name renamed points.  The
        walk asks the group in its own names: it takes the levels of
        phi^-1(points), compares images by their names under ``phi``, and
        returns the element found as phi^-1 g phi."""
        points = tuple(points)
        self._check_points(points, "point")
        rename, back = (_TAIL, _TAIL) if phi is None else self._renaming(phi)
        image = _TAIL
        for level in self._levels(tuple(back[p] for p in points)):
            x = min(level.transversal, key=image.translate(rename).__getitem__)
            image = level.transversal[x].translate(image)
        return tuple(back.translate(image).translate(rename)[:self.degree])

    def _levels(self, points):
        """Yields, for each point p of ``points`` in turn, a chain level with
        base point p of the pointwise stabilizer of the points before it,
        and ends before a level with no generators, past which every
        stabilizer is trivial.  Along the chain's base these are its own
        levels; off it, each is the previous level's stabilizer re-based
        onto p, kept in ``_rebased`` by the prefix of ``points`` it ends,
        so a prefix asked again, by any query, costs no re-base.  The dict
        is dropped when a generator joins the group."""
        level = self._chain
        for i, p in enumerate(points):
            if not level.gens:
                return
            if level.basepoint != p:
                key = tuple(points[:i + 1])
                if key not in self._rebased:
                    self._rebased[key] = _rebase(level, (p,))
                level = self._rebased[key]
            yield level
            level = level.stab

    def stabilizer_gens(self, prefix) -> list[bytes]:
        """Strong generators of the pointwise stabilizer of the points
        ``prefix``, as identity-padded byte strings: the generators of the
        level below the last of ``_levels(prefix)``.  The list is the
        chain's own, so it must not be changed."""
        gens = self._chain.gens
        for level in self._levels(prefix):
            gens = level.stab.gens
        return gens

    def stabilizer_orbits(self, prefix: tuple[int, ...], points: int,
                          known=None) -> tuple[list[bytes], int]:
        """``stabilizer_gens(prefix)`` and the union of the orbits of the
        points of the mask ``points`` under them, kept in ``_orbit_masks``
        by ``(prefix, points)`` until a generator joins, so a query asked
        again, as each relabeling of one carried canonical search asks its
        predecessor's, closes no orbit.  ``known``, the answer for
        ``prefix`` and a subset of ``points``, leaves only the points outside
        its mask to close."""
        found = self._orbit_masks.get((prefix, points))
        if found is None:
            gens, mask = known or (self.stabilizer_gens(prefix), 0)
            found = gens, mask | orbit_closure(points & ~mask, gens)
            self._orbit_masks[prefix, points] = found
        return found

    def contains(self, g) -> bool:
        """Whether the image tuple ``g`` of length ``degree`` is a member.
        A tuple of that length that is no permutation of the points, with
        a repeated entry or one that is no point (an int out of range or no
        int at all), is no member: the answer is ``False``.  Only a tuple of
        another length raises ``ValueError``.

        Only the ``degree`` bytes of ``g`` are sifted (see ``_Chain``): an
        entry past the points stays one through every step, and a repeated
        one stays repeated, so neither sifts to the identity."""
        g = tuple(g)
        if len(g) != self.degree:
            raise ValueError("not a permutation of the right degree")
        try:
            b = bytes(g)
        except (TypeError, ValueError):  # an entry that is no int in 0..255
            return False
        return self._chain.sift(b) == self._identity

    def orbits(self) -> list[list[int]]:
        """Orbit partition of 0..degree-1, ordered by smallest member."""
        seen = 0
        out = []
        for p in range(self.degree):
            if seen >> p & 1:
                continue
            orb = orbit_closure(1 << p, self.generators)
            seen |= orb
            out.append(sorted(bits(orb)))
        return out

    def is_transitive(self) -> bool:
        if self.degree == 0:
            return True
        return orbit_closure(1, self.generators).bit_count() == self.degree

    def stabilizer_order(self, point: int) -> int:
        self._check_points((point,), "point")
        return self.order() // orbit_closure(1 << point, self.generators).bit_count()


def orbit_closure(mask: int, gens) -> int:
    """Closure of a point set under a list of permutations (image sequences)."""
    queue = []
    rest = mask
    while rest:
        low = rest & -rest
        queue.append(low.bit_length() - 1)
        rest ^= low
    while queue:
        p = queue.pop()
        for g in gens:
            x = g[p]
            if not mask >> x & 1:
                mask |= 1 << x
                queue.append(x)
    return mask
