import types

import arh1bench

# The top-level surface: the experiment and diagnostic API plus the calls
# one replication makes.  Everything else is imported from its submodule.
PUBLIC_NAMES = {
    "AbortedReplicationsError",
    "ComplexRootError",
    "DegenerateTrajectoryError",
    "EfmseInput",
    "EfmseReport",
    "EigenvalueLaw",
    "ExperimentConfig",
    "KtRule",
    "ModelRealization",
    "PriorSpec",
    "SpectralModelSpec",
    "Trajectory",
    "config_from_dict",
    "efmse_param",
    "efmse_pred",
    "emit_reports",
    "estimate_all",
    "load_config",
    "prior_param_limit",
    "prior_pred_limit",
    "realize",
    "run_diagnostics",
    "run_experiment",
    "simulate",
    "sufficient_stats",
    "theory_param_limit",
    "theory_pred_limit",
    "truncate_realization",
    "truncation_order",
}


def test_public_top_level_names():
    names = {
        name
        for name, value in vars(arh1bench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
    assert len(names) == 29
