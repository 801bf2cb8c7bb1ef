"""Bit-sliced counts against a naive count at each position, and the value
semantics that the frozen classes of the package share."""

import copy
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg552.bits import count_is, count_planes
from pg552.cliques import CliqueReport
from pg552.geometric_search import Weighting
from pg552.graphs import Graph, LocalConfig, SrgParams
from pg552.incidence import IncidenceStructure, PgParams
from pg552.symmetry import CanonicalForm, Carried, ColoredGraph


def decoded(planes, p):
    return sum((plane >> p & 1) << j for j, plane in enumerate(planes))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, (1 << 40) - 1), max_size=40), st.data())
def test_count_planes_and_count_is_agree_with_a_naive_count(rows, data):
    members = data.draw(st.integers(0, (1 << len(rows)) - 1))
    shift = data.draw(st.integers(0, 40))
    c = data.draw(st.integers(0, 45))
    full = data.draw(st.integers(0, (1 << 40) - 1))
    counts = [sum(rows[i] >> p & 1 for i in range(len(rows)) if members >> i & 1)
              for p in range(40)]
    planes = count_planes(rows, members)
    assert [decoded(planes, p) for p in range(40)] == counts
    assert count_is(planes, c, full) == sum(
        1 << p for p in range(40) if full >> p & 1 and counts[p] == c)
    # the identity srg_check's row counts read: shifting the planes shifts
    # every count, so they count the shifted rows
    shifted = [plane >> shift for plane in planes]
    assert [decoded(shifted, p) for p in range(40)] == counts[shift:] + [0] * shift
    assert count_is(shifted, c, full) == count_is(
        count_planes([row >> shift for row in rows], members), c, full)


# --- the value semantics of the frozen classes ------------------------------

# class -> (keyword arguments in parameter order, the fields that equality
# and the hash ignore, the repr).  ``group`` is given as a string where a
# search would give a PermutationGroup: only its place in the repr and its
# equality are tested, and a string keeps both fixed across a pickle.
G3 = Graph(n=3, adj=(0b110, 0b101, 0b011))
CG2 = ColoredGraph(n=2, adj=(0b10, 0b01), colors=(0, 1))
VALUES = {
    Graph: (dict(n=3, adj=(0b110, 0b101, 0b011)), set(),
            "Graph(n=3, adj=(6, 5, 3))"),
    SrgParams: (dict(v=5, k=2, lam=0, mu=1, complete=False, empty=False), set(),
                "SrgParams(v=5, k=2, lam=0, mu=1, complete=False, empty=False)"),
    LocalConfig: (dict(a_mask=0b11, b_mask=0b100, z=3, induced=G3, vertices=(0, 1, 2)),
                  {"induced", "vertices"},
                  "LocalConfig(a_mask=3, b_mask=4, z=3, induced=Graph(n=3, adj=(6, 5, 3)),"
                  " vertices=(0, 1, 2))"),
    IncidenceStructure: (dict(v=3, lines=[0b110, 0b011]), {"pencils", "collinearity"},
                         "IncidenceStructure(v=3, lines=(3, 6))"),
    PgParams: (dict(s=5, t=5, alpha=2, v=81, b=81), set(),
               "PgParams(s=5, t=5, alpha=2, v=81, b=81)"),
    CliqueReport: (dict(size_histogram=MappingProxyType({2: 3}), cliques_of_size_6=(),
                        all_cliques=(0b011, 0b101, 0b110)), set(),
                   "CliqueReport(size_histogram=mappingproxy({2: 3}), cliques_of_size_6=(),"
                   " all_cliques=(3, 5, 6))"),
    Weighting: (dict(weights=(Fraction(1, 2), Fraction(-1, 2))), set(),
                "Weighting(weights=(Fraction(1, 2), Fraction(-1, 2)))"),
    ColoredGraph: (dict(n=2, adj=(0b10, 0b01), colors=(0, 1)), set(),
                   "ColoredGraph(n=2, adj=(2, 1), colors=(0, 1))"),
    CanonicalForm: (dict(labeling=(1, 0), certificate=((0, 1), (2, 1)), group="G",
                         nodes=3, leaves=2, pruned=1), {"group", "nodes", "leaves", "pruned"},
                    "CanonicalForm(labeling=(1, 0), certificate=((0, 1), (2, 1)), group='G',"
                    " nodes=3, leaves=2, pruned=1)"),
    Carried: (dict(source=CG2, group="G", phi=(1, 0)), set(),
              "Carried(source=ColoredGraph(n=2, adj=(2, 1), colors=(0, 1)), group='G',"
              " phi=(1, 0))"),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_frozen_value_semantics(cls):
    kwargs, ignored, text = VALUES[cls]
    obj = cls(**kwargs)
    assert cls(*kwargs.values()) == obj
    if cls is IncidenceStructure:
        assert obj.collinearity == (0b010, 0b101, 0b010)  # the cached rows join vars
    assert repr(obj) == text
    # equal copies compare and hash alike, and so does an object whose one
    # field is swapped for another value exactly when that field is ignored
    copies = [copy.copy(obj)] + ([] if cls is CliqueReport else [
        pickle.loads(pickle.dumps(obj))])  # a mappingproxy does not pickle
    assert all(type(c) is cls and c == obj and vars(c) == vars(obj) for c in copies)
    hashable = cls is not CliqueReport
    if hashable:
        assert all(hash(c) == hash(obj) for c in copies)
    else:
        with pytest.raises(TypeError):
            hash(obj)
    swapped = set()
    for name in vars(obj):
        other = copy.copy(obj)
        object.__setattr__(other, name, object())
        if other == obj:
            swapped.add(name)
            assert not hashable or hash(other) == hash(obj)
        else:
            assert other != obj
    assert swapped == ignored
    assert obj.__eq__(object()) is NotImplemented and obj != kwargs
    # no attribute can be set or deleted, a field or not
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        obj.extra = 0
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert vars(obj) == vars(copies[0])


def test_frozen_defaults():
    assert SrgParams(5, 2, 0, 1) == SrgParams(5, 2, 0, 1, complete=False, empty=False)
    assert not SrgParams(5, 2, 0, 1).complete and not SrgParams(5, 2, 0, 1).empty
    assert SrgParams(5, 4, 3, 0, complete=True) != SrgParams(5, 4, 3, 0)
    form = CanonicalForm((1, 0), (), "G")
    assert (form.nodes, form.leaves, form.pruned) == (0, 0, 0)
    assert form == CanonicalForm((1, 0), (), "G", nodes=0, leaves=0, pruned=0)
    assert repr(form) == ("CanonicalForm(labeling=(1, 0), certificate=(), group='G',"
                          " nodes=0, leaves=0, pruned=0)")
