"""Grid-based toolkit for pooling priors, propriety checks, and sparse
multinomial shrinkage."""

from .density import (GridDensity, beta_density, bounded_density,
                      bounded_nodes, exp_tilt_density, flat_density,
                      gamma_density, halfline_density, improper_flat,
                      normal_density, read_density, realline_density,
                      write_density)
from .errors import InputError, NumericalError, PriorForgeError
from .likelihoods import (LikelihoodModel, binomial_counts,
                          multinomial_counts, normal_location,
                          poisson_counts, tabulated_likelihood)
from .pooling import (OptimalityReport, PoolProblem, PoolWeights,
                      arithmetic_pool, equal_weights, geometric_pool,
                      kl_objective, verify_pool_optimality)
from .propriety import (HolderReport, PooledProprietyReport,
                        ProprietyVerdict, holder_check, pooled_propriety,
                        posterior_mass)
from .quadrature import (QuadratureResult, cdf_at, integrate, mode,
                         normalize, quantile)
from .reparam import (EquivalenceReport, OrderedDiagnostics,
                      dirichlet_equivalence_report, ordered_prior_diagnostics)
from .sparse_multinomial import (CountVector, HyperPriorSpec, VPosterior,
                                 canonical_counts, cell_posterior_marginal,
                                 compare_priors, dm_log_marginal,
                                 jeffreys_posterior, large_m_stability,
                                 v_posterior, v_summary_table)
from .special import log_beta, log_gamma
from .streams import RandomStream

__version__ = "0.1.0"

__all__ = [
    "GridDensity", "beta_density", "bounded_density", "bounded_nodes",
    "exp_tilt_density", "flat_density", "gamma_density", "halfline_density",
    "improper_flat", "normal_density", "read_density",
    "realline_density", "write_density",
    "InputError", "NumericalError", "PriorForgeError",
    "LikelihoodModel", "binomial_counts", "multinomial_counts",
    "normal_location", "poisson_counts", "tabulated_likelihood",
    "OptimalityReport", "PoolProblem", "PoolWeights", "arithmetic_pool",
    "equal_weights", "geometric_pool", "kl_objective",
    "verify_pool_optimality",
    "HolderReport", "PooledProprietyReport", "ProprietyVerdict",
    "holder_check", "pooled_propriety", "posterior_mass",
    "QuadratureResult", "cdf_at", "integrate", "mode", "normalize",
    "quantile",
    "EquivalenceReport", "OrderedDiagnostics",
    "dirichlet_equivalence_report", "ordered_prior_diagnostics",
    "CountVector", "HyperPriorSpec", "VPosterior", "canonical_counts",
    "cell_posterior_marginal", "compare_priors", "dm_log_marginal",
    "jeffreys_posterior", "large_m_stability", "v_posterior",
    "v_summary_table",
    "log_beta", "log_gamma",
    "RandomStream",
]
