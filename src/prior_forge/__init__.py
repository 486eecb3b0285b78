"""Grid-based toolkit for pooling priors, propriety checks, and sparse
multinomial shrinkage.

The public names below are imported from their modules on first access
(PEP 562), so `import prior_forge` loads no submodule, and a CLI call
loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in the order of __all__
_EXPORTS = {
    "density": (
        "GridDensity", "beta_density", "bounded_density", "bounded_nodes",
        "exp_tilt_density", "flat_density", "gamma_density", "halfline_density",
        "improper_flat", "normal_density", "read_density",
        "realline_density", "write_density"),
    "errors": ("InputError", "NumericalError", "PriorForgeError"),
    "likelihoods": (
        "LikelihoodModel", "binomial_counts", "multinomial_counts",
        "normal_location", "poisson_counts", "tabulated_likelihood"),
    "pooling": (
        "OptimalityReport", "PoolProblem", "PoolWeights", "arithmetic_pool",
        "equal_weights", "geometric_pool", "kl_objective",
        "verify_pool_optimality"),
    "propriety": (
        "HolderReport", "PooledProprietyReport", "ProprietyVerdict",
        "holder_check", "pooled_propriety", "posterior_mass"),
    "quadrature": (
        "QuadratureResult", "cdf_at", "integrate", "mode", "normalize",
        "quantile"),
    "reparam": (
        "EquivalenceReport", "OrderedDiagnostics",
        "dirichlet_equivalence_report", "ordered_prior_diagnostics"),
    "sparse_multinomial": (
        "CountVector", "HyperPriorSpec", "VPosterior", "canonical_counts",
        "cell_posterior_marginal", "compare_priors", "dm_log_marginal",
        "jeffreys_posterior", "large_m_stability", "v_posterior",
        "v_summary_table"),
    "special": ("log_beta", "log_gamma"),
    "streams": ("RandomStream",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
