"""Exact tools for reconciling overlapping credence functions.

The central question: a finite collection of agents each carries a
probability mass function on its own awareness set, and the awareness
sets overlap. Is there one measure on the union whose conditionalization
on each awareness set recovers every agent? This package decides that
question exactly, constructs the common prior when it exists, produces a
small certificate when it does not, and can manufacture systems of
agents that agree pairwise yet admit no common prior whenever the
overlap pattern leaves room for one.
"""

from urprior.cohomology import cohomology_dim, noncoboundary_cocycle
from urprior.compat import (
    Asymmetry,
    CompatibilityReport,
    CycleCertificate,
    RatioCochain,
    UrPriorResult,
    VerificationReport,
    Violation,
    decide_urprior,
    glue_urprior,
    pairwise_compatibility,
    ratio_cochain,
    solve_scaling,
    verify_urprior,
)
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets
from urprior.credence import (
    AgentSystem,
    CredenceFunction,
    OutcomeSpace,
    ValidationError,
    validate,
)
from urprior.oracle import feasibility_oracle
from urprior.witness import AmbiguousLabelError, NoHoleError, generate_counterexample

__version__ = "0.1.0"

__all__ = [
    "AgentSystem",
    "AmbiguousLabelError",
    "Asymmetry",
    "CompatibilityReport",
    "CredenceFunction",
    "CycleCertificate",
    "NoHoleError",
    "OutcomeSpace",
    "RatioCochain",
    "SimplicialComplex",
    "UrPriorResult",
    "ValidationError",
    "VerificationReport",
    "Violation",
    "build_overlap_complex",
    "cohomology_dim",
    "decide_urprior",
    "feasibility_oracle",
    "from_facets",
    "generate_counterexample",
    "glue_urprior",
    "noncoboundary_cocycle",
    "pairwise_compatibility",
    "ratio_cochain",
    "solve_scaling",
    "validate",
    "verify_urprior",
]
