"""Spectral simulation and estimation benchmark for ARH(1) processes.

The package splits into five layers: ``spectral_model`` (power-law
eigenvalues, Beta priors, model realizations), ``simulator``
(componentwise trajectory generation), ``estimators`` (classical and
Bayesian coefficient estimators), ``metrics`` (EFMSE, asymptotic limits,
statistical diagnostics) and ``harness`` (seeded parallel experiment
runner with CSV/JSON emission; CLI in ``cli``).  The top level re-exports
the experiment and diagnostic API and the calls one replication makes;
everything else is imported from its submodule.
"""
from .spectral_model import (
    EigenvalueLaw,
    ModelRealization,
    PriorSpec,
    SpectralModelSpec,
    realize,
    truncate_realization,
)
from .simulator import Trajectory, simulate
from .estimators import (
    ComplexRootError,
    DegenerateTrajectoryError,
    estimate_all,
    sufficient_stats,
)
from .metrics import (
    EfmseInput,
    EfmseReport,
    KtRule,
    efmse_param,
    efmse_pred,
    prior_param_limit,
    prior_pred_limit,
    theory_param_limit,
    theory_pred_limit,
    truncation_order,
)
from .harness import (
    AbortedReplicationsError,
    ExperimentConfig,
    config_from_dict,
    emit_reports,
    load_config,
    run_diagnostics,
    run_experiment,
)

__version__ = "0.1.0"
