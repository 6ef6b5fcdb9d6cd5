"""Zero-noise limits of perturbed Markov chains.

A chain P is mixed with a perturbation Q as (1 - eps) P + eps Q. This
package computes stationary laws along eps, their limit as eps -> 0
through the closed-class decomposition and the reduced class-level chain,
and checks every route against exact arborescence and polynomial oracles.

EpsPolynomial is imported on first use, through a module __getattr__ (PEP
562): only the oracle routes build one, and `import znrank.cli`, which runs
this module, then leaves `znrank.polynomial` unloaded for `rank` and `sweep`.
"""

__version__ = "0.1.0"

from znrank.errors import (
    EpsOutOfRange,
    GammaReducible,
    GuardExceeded,
    InputFormatError,
    MissingReverseWeight,
    NonpositiveWeight,
    NotIrreducible,
    SingularSystem,
    TransientStatesPresent,
    ZnrankError,
    ZeroPolynomial,
)
from znrank.graph import (
    ClassPartition,
    RowStochasticMatrix,
    StateSpace,
    WeightedDigraph,
    classify_states,
    dump_matrix_json,
    is_irreducible,
    load_matrix_json,
    ones_outer,
    parse_edge_list,
    to_stochastic,
    uniform_matrix,
)
from znrank.stationary import (
    AbsorptionTable,
    Distribution,
    absorption_probabilities,
    class_stationary,
    stationary_direct,
)

__all__ = [
    "__version__",
    "ZnrankError",
    "InputFormatError",
    "NotIrreducible",
    "GuardExceeded",
    "TransientStatesPresent",
    "GammaReducible",
    "SingularSystem",
    "EpsOutOfRange",
    "ZeroPolynomial",
    "MissingReverseWeight",
    "NonpositiveWeight",
    "StateSpace",
    "WeightedDigraph",
    "RowStochasticMatrix",
    "ClassPartition",
    "classify_states",
    "is_irreducible",
    "parse_edge_list",
    "to_stochastic",
    "uniform_matrix",
    "ones_outer",
    "load_matrix_json",
    "dump_matrix_json",
    "EpsPolynomial",
    "Distribution",
    "AbsorptionTable",
    "stationary_direct",
    "class_stationary",
    "absorption_probabilities",
]


def __getattr__(name):
    if name == "EpsPolynomial":
        from znrank.polynomial import EpsPolynomial

        return EpsPolynomial
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
