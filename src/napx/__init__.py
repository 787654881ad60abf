"""Budgeted conservation of phylogenetic diversity.

Given a rooted edge-weighted tree whose leaves are taxa with survival
probabilities (``a`` untouched, ``b`` if conserved) and integer costs, pick
a set of taxa within a budget to maximize the expected total branch length
of the surviving part of the tree.

The central solver, :func:`solve`, runs a discretized dynamic program over
rounded survival probabilities; its answer is within a ``1 - epsilon``
fraction of the optimum whenever every unconserved survival ``a`` is at
most the grid floor ``p_min``. Exact baselines (:func:`brute_force`,
:func:`pardi_goldman`) cover small or restricted instances, and
:mod:`napx.generators` produces seeded random test instances.
"""

from .baselines import brute_force, pardi_goldman
from .discretization import Discretization, derive_k, select_params
from .errors import (InputError, InternalError, NapError, ParameterError,
                     ParseError, RestrictionError, SizeLimitError,
                     ValidationError)
from .generators import GenSpec, gen_caterpillar, gen_yule, generate
from .io import (SolutionDocument, load_instance, load_solution,
                 parse_instance, parse_solution, save_instance,
                 write_instance, write_solution)
from .model import (ConservationSet, Instance, PhyloTree, Taxon, expected_pd,
                    make_conservation_set, normalize, total_pd,
                    validate_instance)
from .solver import NapxSolution, solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # solving
    "solve", "NapxSolution", "brute_force", "pardi_goldman",
    # model
    "Instance", "Taxon", "PhyloTree", "ConservationSet",
    "expected_pd", "total_pd", "make_conservation_set",
    "normalize", "validate_instance",
    # parameters
    "Discretization", "derive_k", "select_params",
    # generators
    "GenSpec", "generate", "gen_yule", "gen_caterpillar",
    # files
    "load_instance", "save_instance", "parse_instance", "write_instance",
    "load_solution", "parse_solution", "write_solution", "SolutionDocument",
    # errors
    "NapError", "InputError", "ParseError", "ValidationError",
    "ParameterError", "RestrictionError", "SizeLimitError", "InternalError",
]
