"""Golden outputs: SHA-256 of emitted reports for small fixed configs.

The hashes pin every byte of ``efmse.csv`` (and of one diagnostic record)
across refactors.  A change that alters output bytes on purpose must
update the hash here and say why in CHANGES.md.
"""
import hashlib

import pytest

from arh1bench.harness import config_from_dict, emit_reports, run_diagnostics, run_experiment

GOLDEN_RUNS = {
    "ex1-redraw": (
        {"example": 1, "rho_mode": "redraw"},
        "06e85045ff36cd8df513d1ed8667b3072ecd38d835aa6bc6b9abc1da3879947e",
    ),
    "ex2-fixed": (
        {"example": 2, "rho_mode": "fixed"},
        "9798ad6a48178663b2a48b20a77229245fc6172b25abcc8820c899abd07e0f77",
    ),
    "ex3-explicit": (
        {
            "example": 3,
            "kT_rule": "power:4.1",
            "rho_mode": "explicit",
            "rho_values": [0.8, 0.6, 0.4],
        },
        "ffc87143fa56fa504a28e46b81504b6e7038945e8bfdcace0ed4fc1395aada3b",
    ),
}

GOLDEN_POSITIVITY = "9de165f5aef75deffa2c4107861afb35347bf30cc3871eababa491e266f84e83"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_efmse_csv_bytes(name, workers, tmp_path):
    fields, want = GOLDEN_RUNS[name]
    config = config_from_dict(
        {**fields, "T_grid": [30, 60], "N": 20, "seed": 0, "formats": ["csv"]}
    )
    emit_reports(run_experiment(config, workers=workers), config.formats, tmp_path)
    assert _sha256(tmp_path / "efmse.csv") == want


def test_positivity_record_bytes(tmp_path):
    path = run_diagnostics("positivity", {"N": 10, "T": 50}, 0, tmp_path)
    assert _sha256(path) == GOLDEN_POSITIVITY
