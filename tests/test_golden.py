"""Golden outputs: SHA-256 of emitted reports for small fixed configs.

The hashes pin every byte of ``efmse.csv``, of the other three reports
for one run, and of each diagnostic record across refactors.  A change
that alters output bytes on purpose must update the hash here and say
why in CHANGES.md.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arh1bench import harness
from arh1bench.harness import config_from_dict, emit_reports, run_diagnostics, run_experiment

# The fields every run in GOLDEN_RUNS shares.
GOLDEN_RUN_FIELDS = {"T_grid": [30, 60], "N": 20, "seed": 0, "formats": ["csv"]}

GOLDEN_RUNS = {
    "ex1-redraw": (
        {"example": 1, "rho_mode": "redraw"},
        "340dc3f1b16eeaab04c19f0a4d2c2108ae170065465dd261397304ce2dfc768e",
    ),
    "ex2-fixed": (
        {"example": 2, "rho_mode": "fixed"},
        "19130b35a8a8aaa3dc3dc85111528b7954cac94c2c98ae8da219775c6a169b9b",
    ),
    "ex3-explicit": (
        {
            "example": 3,
            "kT_rule": "power:4.1",
            "rho_mode": "explicit",
            "rho_values": [0.8, 0.6, 0.4],
        },
        "8f9e50d48c69d0646c22af2de2615e291d51370614a6412efb816b1698f24b40",
    ),
}

# The other reports of GOLDEN_RUNS' "ex1-redraw", written with both formats.
OTHER_REPORTS = {
    "efmse.json": "adc94a9208114bd31aeb6e40f4844ceed32c1191b89138a6193b645dcdcef629",
    "plot_param.csv": "b6319dfa7165c0d1787de6ecb58eb767266a900f96a3243b5a132738d2a59102",
    "plot_pred.csv": "3a47de9a746a29539bd309a089112833c39ec9f93b62178f59f0d4f9eed32a7a",
}

# Example 3 at T=20000 keeps 11 components, so one replication holds 20001
# rows of 11 columns, more than a simulation chunk: this run crosses row
# chunks where the small runs above fit in one.
ROW_CHUNK_RUN = (
    {
        "example": 3,
        "kT_rule": "power:4.1",
        "rho_mode": "fixed",
        "T_grid": [20000],
        "N": 3,
        "seed": 0,
        "formats": ["csv"],
    },
    "2e96b2b0b2344dc232c7866bd3264b478db5efda4af5f005def24d08bf1605eb",
)

# Example 3 keeps k_T = 1, 3, 4 and 7 components at these T, so a run mixes
# replications of different widths, and T=3000 crosses row chunks.
MIXED_K_FIELDS = {
    "example": 3,
    "kT_rule": "power:4.1",
    "T_grid": [15, 100, 400, 3000],
    "N": 20,
    "seed": 0,
    "formats": ["csv"],
}

MIXED_K_RUNS = {
    "fixed": "9e340add82f53f0ff48b9a4ba6438a9caab465b16997a64ebdcf41ae217de2ca",
    "redraw": "395f0be1bddfd33436d8cd80f1fb802d3086f0888d4655da84520cd603bdd0cc",
}

GOLDEN_DIAGNOSTICS = {
    "bartlett": (
        {"T": 200, "N": 300},
        "c5496f9b22b3ad7ec26e02392073b9372a8c427f378b28ee1459534eb4ff33b5",
    ),
    "normality": (
        {"T": 200, "N": 150},
        "cb4a86478b7285bff753aaee0929347835043a62c7b0c7d0b4d2fab9b6b850fe",
    ),
    "ergodic": (
        {"n": 5000},
        "e52ded5889be075bf0d127bb165eb979771d43755cfcd5d0257bc7d2a30fb11e",
    ),
    "positivity": (
        {"N": 10, "T": 50},
        "9de165f5aef75deffa2c4107861afb35347bf30cc3871eababa491e266f84e83",
    ),
}


# numpy's x86-64 dispatch targets above its X86_V2 baseline (numpy 2.x);
# a run with all of them switched off must write the same bytes.
ABOVE_BASELINE = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

# Checks that numpy really runs with the targets in argv[1] off, then runs
# the config in argv[2] on 2 workers and writes its reports to argv[3].
_BASELINE_RUN = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
on = [t for t in json.loads(sys.argv[1]) if __cpu_features__.get(t)]
assert not on, f"dispatch targets still on: {on}"
from arh1bench.harness import config_from_dict, emit_reports, run_experiment
config = config_from_dict(json.loads(sys.argv[2]))
emit_reports(run_experiment(config, workers=2), config.formats, sys.argv[3])
"""


def _dispatch_targets():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return __cpu_dispatch__


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_efmse_csv_bytes(name, workers, tmp_path):
    fields, want = GOLDEN_RUNS[name]
    config = config_from_dict({**fields, **GOLDEN_RUN_FIELDS})
    emit_reports(run_experiment(config, workers=workers), config.formats, tmp_path)
    assert _sha256(tmp_path / "efmse.csv") == want


@pytest.mark.parametrize("workers", [1, 2])
def test_other_report_bytes(workers, tmp_path):
    fields, want = GOLDEN_RUNS["ex1-redraw"]
    config = config_from_dict({**fields, **GOLDEN_RUN_FIELDS, "formats": ["csv", "json"]})
    emit_reports(run_experiment(config, workers=workers), config.formats, tmp_path)
    assert _sha256(tmp_path / "efmse.csv") == want
    for name, digest in OTHER_REPORTS.items():
        assert _sha256(tmp_path / name) == digest, name


@pytest.mark.parametrize("workers", [1, 2])
def test_row_chunked_efmse_csv_bytes(workers, tmp_path):
    fields, want = ROW_CHUNK_RUN
    config = config_from_dict(fields)
    emit_reports(run_experiment(config, workers=workers), config.formats, tmp_path)
    assert _sha256(tmp_path / "efmse.csv") == want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rho_mode", sorted(MIXED_K_RUNS))
def test_mixed_k_efmse_csv_bytes(rho_mode, workers, tmp_path):
    config = config_from_dict({**MIXED_K_FIELDS, "rho_mode": rho_mode})
    emit_reports(run_experiment(config, workers=workers), config.formats, tmp_path)
    assert _sha256(tmp_path / "efmse.csv") == MIXED_K_RUNS[rho_mode]


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIAGNOSTICS))
def test_diagnostic_record_bytes(kind, tmp_path):
    params, want = GOLDEN_DIAGNOSTICS[kind]
    path = run_diagnostics(kind, params, 0, tmp_path)
    assert _sha256(path) == want


@pytest.mark.skipif(
    not set(ABOVE_BASELINE) <= set(_dispatch_targets()),
    reason="numpy does not dispatch to these x86-64 targets",
)
def test_efmse_csv_bytes_on_baseline_simd(tmp_path):
    # the ex1-redraw bytes, from a process whose numpy runs its baseline
    # kernels only: no sum on the output path depends on SIMD dispatch
    fields, want = GOLDEN_RUNS["ex1-redraw"]
    src = Path(harness.__file__).resolve().parents[1]
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(ABOVE_BASELINE),
        "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))),
    }
    config = json.dumps({**fields, **GOLDEN_RUN_FIELDS})
    child = subprocess.run(
        [sys.executable, "-c", _BASELINE_RUN, json.dumps(ABOVE_BASELINE), config, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert _sha256(tmp_path / "efmse.csv") == want
