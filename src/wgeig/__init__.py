"""Weak Galerkin eigenvalue solver on the unit square.

Direct WG eigensolves and the two-grid shifted-inverse-power accelerator for
the second-order (Laplacian) and fourth-order (biharmonic) Dirichlet
eigenproblems, with a study harness that checks convergence orders and the
lower-bound behavior of the computed eigenvalues.

Submodule attributes are loaded lazily so the command-line front end can pin
threading environment variables before the numerical stack is imported.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BIHARMONIC_LAMBDA1", "ExactEigen", "StudyResult", "StudyRow",
        "ROW_FIELDS", "direct_study", "energy_error", "exact_laplacian_spectrum",
        "laplacian_eigenvalues", "rate_fit", "sipg_study",
    ),
    "eigsolve": (
        "EigenCluster", "EigenPair", "rayleigh_quotient", "smallest_eigs",
        "solve_shifted",
    ),
    "mesh": ("MeshLevel", "build_uniform", "containment_map"),
    "twogrid": ("cross_mass_rhs", "run_sipg"),
    "wg_core": (
        "BIHARMONIC", "LAPLACIAN", "AssembledForms", "WgFunction", "WgSpace",
        "assemble", "qh_project",
    ),
    "errors": (
        "WgeigError", "CapacityError", "ConfigError", "DegreeTooLowError",
        "EmptyClusterError", "FactorizationFailureError", "LevelOrderError",
        "NearSingularError", "NoConvergenceError", "NonPositiveError", "ZeroMassError",
    ),
}

_ATTR_TO_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ATTR_TO_MODULE) + ["__version__"]


def __getattr__(name):
    mod = _ATTR_TO_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
