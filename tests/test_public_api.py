"""The top-level ``kdspin`` surface: the closed-form API, and the README code that uses it."""

import dataclasses
import importlib
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import kdspin
from kdspin.contrast import BlochPair
from kdspin.kinematics import build_kinematics

PRODUCT_NAMES = {
    "ContrastBatch", "ContrastResult", "FitConvergenceError", "FitModel", "FixedParams", "GridSpec",
    "LocusPoint", "NewtonStatus", "PolarizationPair", "ScatterConfig", "SweepTile", "TaylorTensor",
    "elliptic_left", "elliptic_polarization", "evaluate_fit", "fit_locus", "locus_probabilities",
    "low_momentum_matrix", "minimize_contrast", "minimize_contrast_batch", "minimum_locus", "run_sweep",
    "spin_matrix", "spin_matrix_batch", "taylor_error", "taylor_tensor",
}

# the Dirac-algebra tensor and the Newton-era Bloch helpers: the tests' reference, by module
REFERENCE_NAMES = {
    "dirac": ["bispinor_u", "dirac_adjoint", "slash"],
    "compton": ["compton_tensor", "contract_polarization"],
    "kinematics": ["build_kinematics", "KinematicSet", "energy", "minkowski_dot"],
    "contrast": ["BlochPair", "bloch_spinors", "contrast_at", "contrast_derivatives",
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


def test_records_are_immutable_tuples_without_generated_code():
    modules = ["kdspin", *(f"kdspin.{name}" for name in ("cli", "compton", "contrast", "dirac", "kinematics",
                                                         "sweep", "taylor"))]
    for module in map(importlib.import_module, modules):
        for name, value in vars(module).items():
            assert not (isinstance(value, type) and dataclasses.is_dataclass(value)), f"{module.__name__}.{name}"
    cfg = kdspin.ScatterConfig(0.02, 0, 1)
    assert cfg == kdspin.ScatterConfig(q_l=0.02, q2=0, q3=1) == (0.02, 0, 1)  # the README's positional form
    assert type(cfg) is kdspin.ScatterConfig and cfg.q3 == 1
    # a validated record checks what _replace and _make build, as its constructor does
    with pytest.raises(ValueError, match="q_l must be positive"):
        cfg._replace(q_l=-1.0)
    with pytest.raises(ValueError, match="branch must be 'left' or 'right'"):
        kdspin.FitModel._make(("middle", np.zeros(3), (0.0, 1.0)))
    pol = kdspin.elliptic_polarization(math.pi / 4)
    spec = kdspin.GridSpec("q2", "q3", (0.0, 0.1), (0.9, 1.0), 2, 2)
    records = [
        cfg, build_kinematics(cfg), pol, BlochPair(0.1, 0.2),
        kdspin.minimize_contrast(kdspin.spin_matrix(cfg, pol)),
        kdspin.minimize_contrast_batch(kdspin.spin_matrix_batch(0.02, np.zeros(2), np.ones(2), pol.left, pol.right)),
        kdspin.taylor_tensor(cfg), kdspin.FixedParams(), spec, kdspin.run_sweep(spec),
        kdspin.minimum_locus([0.5])[0], kdspin.FitModel("left", np.zeros(3), (0.0, 0.9)),
    ]
    assert len({type(record) for record in records}) == 12
    for record in records:
        fields = ("left", "right") if record is pol else record._fields
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.5)
