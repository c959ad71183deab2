"""Self-tests of the benchmark: its output check, its tracer and its runs.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads
from tracer import Tracer

import kdspin

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _configs(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.05, 0.05, n), rng.uniform(0.0, 1.05, n), rng.uniform(0.0, math.pi / 2, n)


def test_oracle_matrix_matches_spin_matrix():
    q2, q3, theta = _configs(200)
    m = oracle.spin_matrices(workloads.Q_L, q2, q3, oracle.elliptic_left(theta), oracle.RIGHT_Z)
    ref = np.array([
        kdspin.spin_matrix(kdspin.ScatterConfig(q_l=workloads.Q_L, q2=a, q3=b), kdspin.elliptic_polarization(t))
        for a, b, t in zip(q2, q3, theta)
    ])
    assert np.max(np.abs(m - ref)) < 1e-12


def test_check_accepts_program_output_and_rejects_1e3_perturbation():
    q2, q3, theta = _configs(300)
    _, value, prob_a, prob_b, status = workloads.point_calls(q2, q3, theta)
    m = oracle.spin_matrices(workloads.Q_L, q2, q3, oracle.elliptic_left(theta), oracle.RIGHT_Z)
    assert not oracle.contrast_misses(value, prob_a, prob_b, m).any()
    assert oracle.contrast_misses(value * (1 + 1e-3), prob_a, prob_b, m).all()
    assert oracle.contrast_misses(value + 1e-3, prob_a, prob_b, m).all()
    assert oracle.contrast_misses(np.full_like(value, np.nan), prob_a, prob_b, m).all()


#: contrasts the seed reported on the 201 x 201 reference tile (theta = pi/4)
#: where Newton stalls at the alpha = 0 pole
POLE_STALLS = [
    (0.0, 1.014, 0.028683140035591043),
    (-0.0005000000000000004, 1.0145, 0.03178126345456483),
    (0.0, 1.0145, 0.0315770120223846),
    (0.0005000000000000004, 1.0145, 0.03178126345456483),
    (0.0, 1.0150000000000001, 0.03474957842317423),
]


def test_check_rejects_the_seed_pole_stall_points():
    q2, q3, reported = (np.array(col) for col in zip(*POLE_STALLS))
    m = oracle.spin_matrices(workloads.Q_L, q2, q3, oracle.elliptic_left(math.pi / 4), oracle.RIGHT_Z)
    exact, lam_min, lam_max = oracle.eigen_contrast(m)
    # exact probabilities, so the contrast alone must trip the check
    assert oracle.contrast_misses(reported, lam_min, lam_max, m).all()
    assert not oracle.contrast_misses(exact, lam_min, lam_max, m).any()


def test_exactly_zero_contrast_point_passes_with_absolute_floor():
    m = oracle.spin_matrices(workloads.Q_L, 0.0, 1.0, oracle.elliptic_left(math.pi / 4), oracle.RIGHT_Z)
    exact, lam_min, lam_max = oracle.eigen_contrast(m)
    assert exact[0] < 1e-20
    assert not oracle.contrast_misses(np.array([1e-14]), lam_min, lam_max, m).any()


def test_locus_roots_match_reference_and_program():
    roots = oracle.locus_roots(workloads.Q_L, 0.0, np.array([0.3, 1.0]))
    assert roots[1] == pytest.approx(1.27324, abs=1e-4)  # 4/pi in the limit
    point = kdspin.minimum_locus([0.3])[0]
    assert abs(point.inv_theta - roots[0]) <= oracle.LOCUS_ATOL


def test_tracer_counts_and_restores():
    originals = {name: getattr(kdspin, name) for name in ("spin_matrix", "minimize_contrast")}
    with Tracer() as tracer:
        assert kdspin.minimize_contrast is not originals["minimize_contrast"]
        workloads.point_calls(*_configs(20))
    assert all(getattr(kdspin, name) is func for name, func in originals.items())
    tensor = tracer.span("compton.compton_tensor")
    assert tensor.calls == 20
    assert tracer.span("dirac.bispinor_u").calls == 80
    assert 0.0 < tensor.self_s < tensor.total_s
    assert tracer.span("contrast.minimize_contrast").calls == 20


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    # requests reproduce their piece of the whole command's output
    assert record["problems"] == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
