"""The top-level ``kdspin`` surface: the closed-form API, and the README code that uses it."""

import importlib
import re
import warnings
from pathlib import Path

import kdspin

PRODUCT_NAMES = {
    "ContrastBatch", "ContrastResult", "FitConvergenceError", "FitModel", "FixedParams", "GridSpec",
    "LocusPoint", "NewtonStatus", "PolarizationPair", "ScatterConfig", "SweepTile", "TaylorTensor",
    "elliptic_left", "elliptic_polarization", "evaluate_fit", "fit_locus", "locus_probabilities",
    "low_momentum_matrix", "minimize_contrast", "minimize_contrast_batch", "minimum_locus", "run_sweep",
    "spin_matrix", "spin_matrix_batch", "taylor_error", "taylor_tensor",
}

# the Dirac-algebra tensor and the Newton-era Bloch helpers: the tests' reference, by module
REFERENCE_NAMES = {
    "dirac": ["bispinor_u", "dirac_adjoint", "gamma", "pauli", "slash"],
    "compton": ["compton_tensor", "contract_polarization"],
    "kinematics": ["build_kinematics", "KinematicSet", "energy", "minkowski_dot"],
    "contrast": ["BlochPair", "bloch_spinors", "contrast_at", "canonicalize", "contrast_derivatives",
                 "DegenerateDenominatorError"],
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_exports_the_closed_form_api_only():
    assert len(kdspin.__all__) == len(PRODUCT_NAMES) == 26
    assert set(kdspin.__all__) == PRODUCT_NAMES
    for name in kdspin.__all__:
        getattr(kdspin, name)
    for module_name, names in REFERENCE_NAMES.items():
        module = importlib.import_module(f"kdspin.{module_name}")
        for name in names:
            assert not hasattr(kdspin, name), name
            value = getattr(module, name)
            assert value.__module__ == module.__name__ and value.__name__ == name


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].value < 1e-30
    assert namespace["batch"].value.shape == (101,)
