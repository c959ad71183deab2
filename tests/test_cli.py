import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdspin
from kdspin import cli
from kdspin.cli import main, parse_angle, parse_polarization
from kdspin.sweep import FitConvergenceError


def parse_kv(output):
    pairs = {}
    for line in output.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_parse_angle_tokens():
    assert parse_angle("0.5") == 0.5
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/4") == math.pi / 4.0
    assert parse_angle("3pi/8") == 3.0 * math.pi / 8.0
    assert parse_angle("-pi/2") == -math.pi / 2.0
    assert parse_angle("2pi") == 2.0 * math.pi
    for bad in ("four", "pi/0"):
        with pytest.raises(ValueError):
            parse_angle(bad)


def test_parse_polarization():
    vec = parse_polarization("0,0,1,0,0,-1")
    assert np.array_equal(vec, [0.0, 1.0, -1.0j])
    with pytest.raises(ValueError):
        parse_polarization("1,2,3")


def test_point_reference_scenario(capsys):
    code = main(["point", "--q3", "1", "--theta", "pi/4"])
    out = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert float(out["contrast"]) < 1e-3
    assert float(out["alpha"]) == pytest.approx(7.0 * math.pi / 4.0, abs=1e-2)
    assert out["status"] == "converged_gradient"


def test_point_low_momentum(capsys):
    code = main(["point", "--q3", "0", "--theta", "0.02"])
    out = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert float(out["alpha"]) == pytest.approx(1.5 * math.pi, abs=0.05)
    assert float(out["phi"]) == 0.0


def test_point_linear_smoke(capsys):
    code = main(["point", "--q3", "0", "--q2", "0", "--theta", "0"])
    out = parse_kv(capsys.readouterr().out)
    assert code in (0, 3)
    assert math.isfinite(float(out["contrast"]))


def test_point_bad_polarization(capsys):
    code = main(["point", "--pol-l", "1,0,0,0,0,0"])  # beam-axis component
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_sweep_minimal_csv(tmp_path, capsys):
    out = tmp_path / "tile.csv"
    code = main(
        [
            "sweep",
            "--axes", "q2,q3",
            "--x-range", "-0.01,0.01",
            "--y-range", "0.99,1.01",
            "--nx", "2",
            "--ny", "2",
            "--theta", "pi/4",
            "--workers", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,contrast,alpha,phi,prob_A,prob_B,status"
    assert len(lines) == 5  # header + 4 points
    first = lines[1].split(",")
    assert float(first[0]) == -0.01 and float(first[1]) == 0.99  # row-major, y outer


def test_sweep_rerun_byte_identical(tmp_path):
    args = [
        "sweep",
        "--axes", "q3,theta",
        "--x-range", "0,0.4",
        "--y-range", "0.2,0.9",
        "--nx", "3",
        "--ny", "3",
        "--workers", "1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_workers_byte_identical(tmp_path):
    args = [
        "sweep",
        "--axes", "q2,q3",
        "--x-range", "-0.02,0.02",
        "--y-range", "0.98,1.02",
        "--nx", "3",
        "--ny", "4",
        "--theta", "pi/4",
    ]
    serial, parallel = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(args + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(args + ["--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_heatmap(tmp_path):
    out = tmp_path / "tile.csv"
    code = main(
        [
            "sweep",
            "--axes", "q2,q3",
            "--x-range", "-0.05,0.05",
            "--y-range", "0.95,1.05",
            "--nx", "4",
            "--ny", "3",
            "--workers", "1",
            "--out", str(out),
            "--heatmap-column", "contrast",
            "--log-scale",
        ]
    )
    assert code == 0
    pgm = tmp_path / "tile.pgm"
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert len(raw) == len(b"P5\n4 3\n255\n") + 12  # one byte per pixel
    sidecar = (tmp_path / "tile.pgm.txt").read_text()
    assert "column=contrast" in sidecar
    assert "scale=log10" in sidecar
    assert "min=" in sidecar and "max=" in sidecar


def test_sweep_unwritable_output(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--axes", "q2,q3",
            "--x-range", "-0.01,0.01",
            "--y-range", "0.99,1.01",
            "--nx", "2",
            "--ny", "2",
            "--workers", "1",
            "--out", str(tmp_path / "missing-dir" / "tile.csv"),
        ]
    )
    assert code == 4


def test_sweep_bad_axes(capsys):
    code = main(
        [
            "sweep",
            "--axes", "q2,theta",
            "--x-range", "0,1",
            "--y-range", "0,1",
            "--out", "unused.csv",
            "--workers", "1",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--theta", "pi/0"],
        ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1",
         "--out", "unused.csv", "--workers", "0"],
        ["locus-fit", "--out", "unused", "--workers", "-3"],
        ["locus-fit", "--out", "unused", "--q3-points", "0"],
        ["locus-fit", "--out", "unused", "--q3-points", "-1"],
        ["taylor-check", "--halvings", "0"],
        ["taylor-check", "--halvings", "-1"],
    ],
)
def test_bad_flag_value_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_failed_points_recorded(tmp_path, capsys):
    # 1/theta = 0 has no ellipticity angle: that row fails, the rest run
    out = tmp_path / "tile.csv"
    code = main(
        [
            "sweep",
            "--axes", "q3,inv_theta",
            "--x-range", "0,1",
            "--y-range", "0,50",
            "--nx", "2",
            "--ny", "2",
            "--workers", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    status = [line.rsplit(",", 1)[1] for line in out.read_text().strip().splitlines()[1:]]
    assert status == ["failed_ZeroDivisionError"] * 2 + ["converged_gradient"] * 2
    err = capsys.readouterr().err
    assert err == "sweep: 2 of 4 points failed (failed_ZeroDivisionError: 2)\n"


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--axes", "q2,q3"])
    assert err.value.code == 2


def test_sweep_csv_floats_round_trip(tmp_path):
    out = tmp_path / "tile.csv"
    main(
        [
            "sweep",
            "--axes", "q2,q3",
            "--x-range", "-0.013,0.017",
            "--y-range", "0.97,1.03",
            "--nx", "3",
            "--ny", "2",
            "--theta", "pi/4",
            "--workers", "1",
            "--out", str(out),
        ]
    )
    for line in out.read_text().strip().splitlines()[1:]:
        for token in line.split(",")[:-1]:  # all but the status column
            assert repr(float(token)) == token


def test_locus_fit_report_endpoints(tmp_path, capsys):
    prefix = tmp_path / "run"
    code = main(
        [
            "locus-fit",
            "--q3-points", "41",
            "--workers", "2",
            "--out", str(prefix),
        ]
    )
    assert code == 0
    report = parse_kv(capsys.readouterr().out)
    assert float(report["left.eval_at_0"]) == pytest.approx(50.13, abs=1.0)
    assert float(report["right.eval_at_1"]) == pytest.approx(4.005 / math.pi, rel=0.02)
    fit_text = (tmp_path / "run_fit.txt").read_text()
    assert "left.a1=" in fit_text and "right.b3=" in fit_text
    prob_lines = (tmp_path / "run_probabilities.csv").read_text().strip().splitlines()
    assert prob_lines[0] == "q3,prob_A,prob_B,alpha,phi"
    assert len(prob_lines) == 42


def test_locus_fit_minimal_skips_fit(tmp_path, capsys):
    prefix = tmp_path / "locus"
    code = main(
        [
            "locus-fit",
            "--q3-points", "3",
            "--workers", "1",
            "--out", str(prefix),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fit skipped" in out
    lines = (tmp_path / "locus_locus.csv").read_text().strip().splitlines()
    assert lines[0] == "q3,inv_theta,alpha"
    assert len(lines) == 4  # header + 3 rows


@pytest.mark.parametrize("flags", [["--q3-max", "1.05"], ["--q3-min", "-0.2"]])
def test_locus_fit_outside_fit_domain_skips_fit(flags, tmp_path, capsys):
    code = main(["locus-fit", "--q3-points", "41", "--out", str(tmp_path / "run"), *flags])
    captured = capsys.readouterr()
    assert "fit skipped: q3=" in captured.out and "outside fit domain [0, 1]" in captured.out
    assert "Traceback" not in captured.err
    rows = (tmp_path / "run_locus.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 41
    unbracketed = sum(row.split(",")[1] == "nan" for row in rows)
    assert code == (0 if unbracketed <= 0.05 * len(rows) else 3)
    assert not (tmp_path / "run_fit.txt").exists()
    assert not (tmp_path / "run_probabilities.csv").exists()


def test_locus_fit_unconverged_fit_exits_3(tmp_path, capsys, monkeypatch):
    def unconverged(locus):
        raise FitConvergenceError("left branch not converged after 200 damped iterations")

    monkeypatch.setattr("kdspin.cli.fit_locus", unconverged)
    code = main(["locus-fit", "--q3-points", "9", "--q3-min", "0.8", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: left branch not converged" in err
    assert "Traceback" not in err
    assert (tmp_path / "run_locus.csv").is_file()


@pytest.mark.parametrize(
    "flags",
    [
        ["--inv-theta-min", "5", "--inv-theta-max", "2"],
        ["--inv-theta-min", "0"],
        ["--inv-theta-points", "1"],
        ["--inv-theta-points", "0"],
    ],
)
def test_locus_fit_bad_search_range_exits_2(flags, tmp_path, capsys):
    code = main(["locus-fit", "--q3-points", "3", "--out", str(tmp_path / "run"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--q3-max", "inf"], ["--q3-min", "nan"], ["--q2", "nan"]])
def test_locus_fit_nonfinite_momentum_exits_2(flags, tmp_path, capsys):
    code = main(["locus-fit", "--q3-points", "3", "--out", str(tmp_path / "run"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flags",
    [
        ["--x-range", "0,inf"],
        ["--y-range", "nan,1"],
        ["--x-range", "-1e308,1e308"],  # finite ends, but the width overflows
        ["--ql", "nan"],
        ["--q2", "nan"],
        ["--theta", "nan"],
    ],
)
def test_sweep_nonfinite_input_exits_2(flags, tmp_path, capsys):
    out = tmp_path / "tile.csv"
    argv = ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--nx", "2", "--ny", "2"]
    code = main([*argv, "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--ql", "1e200"], ["--q3", "1e160"]])
def test_point_huge_momentum_exits_2(flags, capsys):
    code = main(["point", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_one_parser_serves_many_calls(tmp_path, capsys, monkeypatch):
    # each call must act as the same command run alone in a fresh process
    sweep = ["sweep", "--axes", "q2,q3", "--x-range", "-0.05,0.05", "--y-range", "0.95,1.05",
             "--nx", "4", "--ny", "3", "--out", "tile.csv"]
    calls = [
        [*sweep, "--pol-l", "0,0,1,0,0,1", "--heatmap-column", "contrast", "--log-scale"],
        [*sweep, "--workers", "0"],
        sweep,
        ["locus-fit", "--q2", "0.01", "--q3-points", "41", "--out", "run"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(kdspin.__file__).parents[1])}
    assert cli.build_parser() is cli.build_parser()
    for k, argv in enumerate(calls):
        here, alone = tmp_path / f"here{k}", tmp_path / f"alone{k}"
        here.mkdir()
        alone.mkdir()
        monkeypatch.chdir(here)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        ref = subprocess.run([sys.executable, "-m", "kdspin.cli", *argv], cwd=alone, env=env,
                             capture_output=True, text=True)
        assert (code, capsys.readouterr().out) == (ref.returncode, ref.stdout)
        files = [sorted((p.name, p.read_bytes()) for p in d.iterdir()) for d in (here, alone)]
        assert files[0] == files[1]
    assert sorted(p.name for p in (tmp_path / "here2").iterdir()) == ["tile.csv"]


def test_taylor_check_default_ladder(capsys):
    code = main(["taylor-check", "--scale", "1e-2", "--halvings", "3"])
    out = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert float(out["order"]) == pytest.approx(3.0, abs=0.2)


def test_taylor_check_zero_scale(capsys):
    code = main(["taylor-check", "--scale", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "error=0.0" in out


def test_taylor_check_out_of_domain_warns(capsys):
    code = main(["taylor-check", "--scale", "0.2", "--halvings", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning" in out
