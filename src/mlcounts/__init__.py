"""Disk counting statistics of the Mittag-Leffler ensemble.

Exact finite-n moment generating functions and cumulants, their large-n
expansions through order 1/sqrt(n), and Monte Carlo sampling for the 2D
determinantal point process with weight |z|^(2 alpha) exp(-n |z|^(2b))
(b = 1, alpha = 0 is the complex Ginibre ensemble).
"""

from .asymptotics import (
    CumulantSeries,
    ExpansionCoefficients,
    ZnExpansion,
    bulk_cumulant_coeffs,
    edge_cumulant_coeffs,
    edge_mean_coeffs,
    edge_var_coeffs,
    outside_cumulant_coeffs,
    theorem_coefficients,
    zn_expansion,
)
from .exact import (
    BernoulliProfile,
    Disk,
    DiskSystem,
    EnsembleParams,
    bernoulli_profile,
    joint_cumulants_exact,
    log_mgf_exact,
    log_partition_exact,
    mean_var_exact,
)
from .sampler import McCumulants, SampleBatch, mc_cumulants, sample_counts
from .specfun import GammaRegime, gamma_regime, log_barnes_g, reg_lower_gamma
from .verify import (
    BelowNoiseError,
    CltResult,
    CoefficientFit,
    ResidualScan,
    clt_experiment,
    coefficient_fit,
    residual_scan,
)

__version__ = "0.1.0"
