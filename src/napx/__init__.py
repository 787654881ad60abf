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

__version__ = "0.1.0"

# every public name by its defining module, each imported on first use, so
# that ``python -m napx`` reaches the guard in ``__main__`` before numpy loads
_EXPORTS = {
    "solver": ("solve", "NapxSolution"),
    "baselines": ("brute_force", "pardi_goldman"),
    "model": ("Instance", "Taxon", "PhyloTree", "ConservationSet", "expected_pd",
              "total_pd", "make_conservation_set", "normalize", "validate_instance"),
    "discretization": ("Discretization", "derive_k", "select_params"),
    "generators": ("GenSpec", "generate", "gen_yule", "gen_caterpillar"),
    "io": ("load_instance", "save_instance", "parse_instance", "write_instance",
           "load_solution", "parse_solution", "write_solution", "SolutionDocument"),
    "errors": ("NapError", "InputError", "ParseError", "ValidationError",
               "ParameterError", "RestrictionError", "SizeLimitError", "InternalError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
