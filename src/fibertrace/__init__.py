"""Exact computation of traces, characters and filtration jumps for the
special fibers of degenerating curves.

From the combinatorial data of a fiber (the component multigraph with
genus and multiplicity per vertex) the package computes, in exact integer
and rational arithmetic: resolution data of the cyclic quotient
singularities sitting over the intersection points, trace polynomials of
the cyclic action on fiber cohomology, the irreducible character multiset
on H^1, and the jumps of the rational-index filtration of the associated
group scheme.
"""

from .arith import jh_expand, mod_inverse
from .catalog import FiberTypeId, catalog_ids, lookup
from .exactalg import CyclotomicNumber, GroupRingElement, cyclotomic_polynomial
from .fiber import (
    CharacterMultiset,
    FiberGraph,
    PrincipalType,
    Vertex,
    h1_character,
    parse_graph,
    total_trace,
)
from .jumps import JumpOptions, JumpSet, compute_jumps, type_jumps
from .resolution import (
    ResolutionData,
    Singularity,
    chain_ends,
    is_stable,
    resolve,
)
from .singtrace import (
    singularity_trace,
    trace_closed_form,
    trace_oracle,
    trace_polynomial,
)

__all__ = [
    "CharacterMultiset",
    "CyclotomicNumber",
    "FiberGraph",
    "FiberTypeId",
    "GroupRingElement",
    "JumpOptions",
    "JumpSet",
    "PrincipalType",
    "ResolutionData",
    "Singularity",
    "Vertex",
    "catalog_ids",
    "chain_ends",
    "compute_jumps",
    "cyclotomic_polynomial",
    "h1_character",
    "is_stable",
    "jh_expand",
    "lookup",
    "mod_inverse",
    "parse_graph",
    "resolve",
    "singularity_trace",
    "total_trace",
    "trace_closed_form",
    "trace_oracle",
    "trace_polynomial",
    "type_jumps",
]
