"""Construction and mechanical verification of the two partial geometries
pg(5,5,2) on the 81 points of GF(3)^4: the classical van Lint-Schrijver
geometry and the one obtained from it by switching 27 lines."""

from .construction import build_new, build_vls
from .graphs import Graph, SrgParams, SrgViolation, srg_check
from .groups import PermutationGroup
from .incidence import (
    IncidenceStructure,
    PgParams,
    PgViolation,
    dual,
    line_graph,
    point_graph,
    read_incidence,
    verify_pg,
    write_incidence,
)
from .symmetry import (
    aut_graph,
    aut_incidence,
    canonical_form,
    is_isomorphic,
    is_self_dual,
)

__version__ = "0.1.0"

__all__ = [
    "IncidenceStructure",
    "PgParams",
    "PgViolation",
    "Graph",
    "SrgParams",
    "SrgViolation",
    "PermutationGroup",
    "build_vls",
    "build_new",
    "verify_pg",
    "dual",
    "point_graph",
    "line_graph",
    "srg_check",
    "read_incidence",
    "write_incidence",
    "aut_graph",
    "aut_incidence",
    "canonical_form",
    "is_isomorphic",
    "is_self_dual",
    "__version__",
]
