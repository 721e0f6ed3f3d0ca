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

from importlib import import_module

# Each exported name and the module that defines it. A name is imported on
# first use (PEP 562), so ``import urprior`` loads no module of the
# library, and ``python -m urprior`` imports the command line inside its
# own guard (see ``urprior.__main__``).
_HOMES = {
    "AgentSystem": "credence",
    "AmbiguousLabelError": "witness",
    "Asymmetry": "compat",
    "CompatibilityReport": "compat",
    "CredenceFunction": "credence",
    "CycleCertificate": "compat",
    "NoHoleError": "witness",
    "OutcomeSpace": "credence",
    "RatioCochain": "compat",
    "SimplicialComplex": "complexes",
    "UrPriorResult": "compat",
    "ValidationError": "credence",
    "VerificationReport": "compat",
    "Violation": "compat",
    "build_overlap_complex": "complexes",
    "cohomology_dim": "cohomology",
    "decide_urprior": "compat",
    "feasibility_oracle": "oracle",
    "from_facets": "complexes",
    "generate_counterexample": "witness",
    "glue_urprior": "compat",
    "noncoboundary_cocycle": "cohomology",
    "pairwise_compatibility": "compat",
    "ratio_cochain": "compat",
    "solve_scaling": "compat",
    "validate": "credence",
    "verify_urprior": "compat",
}


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"urprior.{home}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))


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
