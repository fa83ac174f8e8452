import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_run_path_does_not_import_scipy():
    # At T=20 some column sums fail the exactness certificate, so the run
    # also takes the math.fsum fallback; only the diagnostics load scipy.
    code = """
import math, sys
calls = []
fsum = math.fsum
math.fsum = lambda xs: calls.append(1) or fsum(xs)
import arh1bench.cli
from arh1bench.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(example=1, T_grid=(20,), N=50))
print(len(calls), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(arh1bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    fallbacks, modules = out.stdout.split(" ", 1)
    assert int(fallbacks) > 0
    assert modules.strip() == "[]"
