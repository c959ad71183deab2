import argparse
import errno
import io
import math
import os
import pathlib
import subprocess
import sys
import threading
from pathlib import Path, PurePosixPath

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import kdspin
from kdspin import cli
from kdspin.cli import main, parse_angle, parse_polarization
from kdspin.compton import PolarizationPair, elliptic_polarization, spin_matrix
from kdspin.kinematics import ScatterConfig
from kdspin.sweep import FixedParams, GridSpec, SweepTile, run_sweep


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


@pytest.mark.parametrize("flags, left, right", [
    ([], None, None),
    (["--theta", "0.3"], None, None),
    (["--pol-l", "0,0,1,0,0,1"], [0.0, 1.0, 1.0j], None),
    (["--pol-r", "0,0,0,0,1,1"], None, [0.0, 0.0, 1.0 + 1.0j]),
    (["--theta", "0.3", "--pol-r", "0,0,1,0,0,0"], None, [0.0, 1.0, 0.0]),
    (["--pol-l", "0,0,0,1,0,0", "--pol-r", "0,0,1,0,0,0"], [0.0, 1.0j, 0.0], [0.0, 1.0, 0.0]),
])
def test_point_beam_flags_replace_one_elliptic_beam(flags, left, right, capsys):
    # each of --pol-l and --pol-r replaces its beam of the elliptic pair at --theta (default pi/4)
    assert main(["point", "--q3", "0.5", *flags]) == 0
    out = parse_kv(capsys.readouterr().out)
    pol = elliptic_polarization(0.3 if "--theta" in flags else math.pi / 4.0)
    pair = PolarizationPair(left=pol.left if left is None else left, right=pol.right if right is None else right)
    matrix = spin_matrix(ScatterConfig(q_l=0.02, q2=0.0, q3=0.5), pair)
    printed = [complex(float(out[f"m{r}{c}_re"]), float(out[f"m{r}{c}_im"])) for r in range(2) for c in range(2)]
    assert printed == matrix.ravel().tolist()


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


#: argvs whose flag value a type callable rejects, and the last stderr line: its ValueError's message
FLAG_VALUE_ERRORS = {
    ("sweep", "--axes", "q2,q3", "--x-range", "0,x", "--y-range", "0,1", "--out", "unused.csv"):
        "kdspin sweep: error: argument --x-range: could not convert string to float: 'x'",
    ("sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--out", "unused.csv", "--workers", "1.5"):
        "kdspin sweep: error: argument --workers: invalid literal for int() with base 10: '1.5'",
    ("point", "--theta", "foo"):
        "kdspin point: error: argument --theta: cannot parse angle 'foo' (use radians or e.g. 'pi/4', '3pi/8')",
    ("taylor-check", "--theta", "pi/0"):
        "kdspin taylor-check: error: argument --theta: cannot parse angle 'pi/0': zero denominator",
    ("point", "--pol-r", "1,2,3"):
        "kdspin point: error: argument --pol-r: polarization needs 6 numbers (re,im pairs), got 3",
    ("taylor-check", "--pol-l", "0,0,1,0,x,0"): "kdspin taylor-check: error: argument --pol-l: could not convert "
                                                "string to float: 'x'",
    ("locus-fit", "--out", "unused", "--q3-points", "x"):
        "kdspin locus-fit: error: argument --q3-points: invalid literal for int() with base 10: 'x'",
    # a value of '--' after '=', which Python 3.11's argparse would drop and store as []
    ("sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--out=--"):
        "kdspin sweep: error: argument --out: expected one argument",
    ("point", "--ql=--"): "kdspin point: error: argument --ql: expected one argument",
    ("point", "--theta=--"): "kdspin point: error: argument --theta: expected one argument",
    ("taylor-check", "--halvings=--"): "kdspin taylor-check: error: argument --halvings: expected one argument",
    ("locus-fit", "--out=--"): "kdspin locus-fit: error: argument --out: expected one argument",
}


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
        # flags a command does not read: the taylor ladder sets every momentum, q3 is a sweep axis
        ["taylor-check", "--ql", "7"],
        ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--out", "unused.csv", "--q3", "0.5"],
        *map(list, FLAG_VALUE_ERRORS),
    ],
)
def test_bad_flag_value_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if tuple(argv) in FLAG_VALUE_ERRORS:  # the message says what is wrong with the value
        assert err.splitlines()[-1] == FLAG_VALUE_ERRORS[tuple(argv)]


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


def reference_tile_csv(tile):
    """The tile CSV as a plain loop writes it: str of each point's Python values."""
    lines = ["x,y,contrast,alpha,phi,prob_A,prob_B,status"]
    columns = [c.tolist() for c in (tile.contrast, tile.alpha, tile.phi, tile.prob_a, tile.prob_b, tile.status)]
    for j, y in enumerate(tile.y.tolist()):
        for i, x in enumerate(tile.x.tolist()):
            lines.append(",".join(str(v) for v in [x, y] + [column[j][i] for column in columns]))
    return "\n".join(lines) + "\n"


def test_tile_csv_matches_reference_writer():
    grid = dict(x_range=(-20.0, 20.0), y_range=(-20.0, 20.0), nx=7, ny=7)
    tiles = [
        # an inv_theta grid through 0: a failed_ZeroDivisionError row
        run_sweep(GridSpec("q3", "inv_theta", fixed=FixedParams(q2=-0.03), **grid)),
        # q_l <= 0: every point failed_ValueError, all NaN
        run_sweep(GridSpec("q2", "q3", fixed=FixedParams(q_l=-0.02), **grid)),
    ]
    special = np.array([[math.nan, math.inf, -0.0], [-math.inf, 0.0, 1e-310]])
    status = np.array([["converged_gradient", "failed_ValueError", "failed_ZeroDivisionError"]] * 2, dtype=object)
    tiles.append(SweepTile(tiles[0].spec, np.array([-0.0, 0.1, 1e300]), np.array([0.0, -2.5]),
                           special, -special, special[::-1], special[:, ::-1], special * 0.5, status))
    for tile in tiles:
        stream = io.StringIO()
        cli.write_tile_csv(tile, stream)
        assert stream.getvalue() == reference_tile_csv(tile)
    assert "failed_ZeroDivisionError" in reference_tile_csv(tiles[0])


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


@pytest.mark.filterwarnings("error")
def test_locus_fit_unconverged_fit_exits_3(tmp_path, capsys):
    # at q2 = 0.05 the left branch's c3 runs to 0: the fit collapses to a V and is not written
    code = main(["locus-fit", "--q2", "0.05", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("error:") == 1 and "error: left branch degenerates: c3 ran to 1e-08" in err
    assert "Traceback" not in err
    assert (tmp_path / "run_locus.csv").is_file()
    assert not (tmp_path / "run_fit.txt").exists()
    assert not (tmp_path / "run_probabilities.csv").exists()


@pytest.mark.parametrize("rerun, code", [(["--q3-points", "3"], 0), (["--q2", "0.05"], 3)])
def test_locus_fit_without_a_fit_removes_the_previous_fit(rerun, code, tmp_path, capsys):
    # a skipped (exit 0) or failed (exit 3) fit leaves no earlier run's fit report or probabilities
    prefix = str(tmp_path / "run")
    assert main(["locus-fit", "--out", prefix]) == 0
    stale = [tmp_path / "run_fit.txt", tmp_path / "run_probabilities.csv"]
    assert all(path.is_file() for path in stale)
    capsys.readouterr()
    assert main(["locus-fit", "--out", prefix, *rerun]) == code
    assert not any(path.exists() for path in stale)
    assert (tmp_path / "run_locus.csv").is_file()
    assert main(["locus-fit", "--out", prefix, *rerun]) == code  # nothing left to remove
    err = capsys.readouterr().err
    assert err.count("error:") == (0 if code == 0 else 2)


def test_locus_fit_unremovable_previous_fit_exits_4(tmp_path, capsys):
    # an OSError other than a missing file, as from unlinking a directory, exits 4 on one last line
    (tmp_path / "run_fit.txt").mkdir()
    assert main(["locus-fit", "--q3-points", "3", "--out", str(tmp_path / "run")]) == 4
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.splitlines()[-1].startswith("error: [Errno 21] Is a directory")
    assert err.count("error:") == 1 and (tmp_path / "run_fit.txt").is_dir()


#: q3 at the edges of a one-q3 request (signed zeros, a subnormal-scale value, beyond the fit's [0, 1])
ONE_Q3_VALUES = ["0", "-0", "0.5", "1", "1e-300", "2", "-1.5"]


@pytest.mark.parametrize("flags", [[], ["--q2", "0.3"], ["--ql", "1e-3"], ["--ql", "1e-5"]], ids=" ".join)
def test_one_q3_request_is_its_batch_row(flags, tmp_path, monkeypatch, capsys):
    # a one-q3 request runs on Python floats from argv to its row: that row is the default command's at the
    # same q3 (as the benchmark requests it), and the first row of a five-point command from that q3 (linspace's
    # first point, 0.0 for -0), bit for bit, with the exit code and stderr of its own bracketing
    monkeypatch.chdir(tmp_path)
    main(["locus-fit", *flags, "--out", "default"])
    default = Path("default_locus.csv").read_text().splitlines()
    capsys.readouterr()
    grid, codes = np.linspace(0.0, 1.0, 201).tolist(), set()
    for q3, expected in [*((repr(grid[i]), default[1 + i]) for i in (0, 7, 100, 179, 180, 181, 200)),
                         *((q3, None) for q3 in ONE_Q3_VALUES)]:
        code = main(["locus-fit", *flags, f"--q3-min={q3}", f"--q3-max={q3}", "--q3-points", "1", "--out", "one"])
        err = capsys.readouterr().err
        header, row = Path("one_locus.csv").read_text().splitlines()
        main(["locus-fit", *flags, f"--q3-min={q3}", f"--q3-max={float(q3) + 1.0}", "--q3-points", "5",
              "--out", "many"])
        many = Path("many_locus.csv").read_text().splitlines()
        assert [header, row] == [default[0], expected or row] == many[:2], q3
        unbracketed = row.endswith(",nan,nan")
        assert (code, err) == ((3, f"unbracketed: q3={float(q3) or 0.0!r}\n") if unbracketed else (0, "")), q3
        assert capsys.readouterr().err.startswith(err)  # the five-point command's first q3 is this one
        codes.add(code)
    assert codes == ({0, 3} if flags else {0})  # each flag set leaves some minimum outside 1/theta in (1, 100)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(["", "/", "//", "///", "////"]),
                  st.lists(st.sampled_from(["", ".", "..", "a", ".b", "c.", " ", "_", "d_"]), max_size=6))
def test_posix_name_is_str_of_path(root, parts):
    name = root + "/".join(parts)
    assert cli._posix_name(name) == str(PurePosixPath(name))


def test_locus_fit_names_its_outputs_as_path_does(tmp_path, monkeypatch, capsys):
    # the names a locus-fit prints, and an unwritable one's error line, are str(Path(name)) of each output,
    # for prefixes spelled with empty and '.' parts, a trailing '/', and a missing directory
    monkeypatch.chdir(tmp_path)
    Path("d").mkdir()
    seen = set()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(["", f"{tmp_path}/", f"{tmp_path}//./"]),
                      st.lists(st.sampled_from(["d", ".", "", "nodir"]), max_size=4), st.sampled_from(["p", "", "."]),
                      st.sampled_from(["1", "41"]))
    def check(base, dirs, last, points):
        prefix = base + "/".join([*dirs, last])
        if not prefix:
            return
        code = main(["locus-fit", "--q3-points", points, "--out", prefix])
        out, err = capsys.readouterr()
        locus, fit, probabilities = (str(Path(prefix + suffix)) for suffix in ("_locus.csv", "_fit.txt",
                                                                                "_probabilities.csv"))
        seen.add(code)
        if code == 4:
            assert (out, err) == ("", f"error: [Errno 2] No such file or directory: {locus!r}\n")
        else:
            assert code == 0 and out.startswith(f"wrote {locus} ({points} points)\n") and Path(locus).is_file()
            assert out.endswith(f"wrote {fit} and {probabilities}\n" if points == "41" else "left / 0 right\n")

    check()
    assert seen == {0, 4}


def test_one_q3_request_builds_no_path_and_calls_no_linspace(tmp_path, monkeypatch, capsys):
    # one q3 stays a Python float and the output names str: no np.linspace, no pathlib.Path; the guard sees
    # both where they run, in a many-q3 locus and in a sweep
    monkeypatch.chdir(tmp_path)
    calls, linspace, new = [], np.linspace, pathlib.Path.__new__
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: calls.append("linspace") or linspace(*args, **kwargs))
    monkeypatch.setattr(pathlib.Path, "__new__", staticmethod(lambda cls, *args: calls.append("Path") or new(cls, *args)))
    for q3 in ("0.5", "-0", "1e-300"):
        assert main(["locus-fit", "--q3-min", q3, "--q3-max", q3, "--q3-points", "1", "--out", "one"]) == 0
    assert main(["locus-fit", "--ql", "1e-3", "--q3-points", "1", "--q3-min", "0.5", "--out", "./one"]) == 3
    assert calls == []
    assert main(["locus-fit", "--q3-points", "3", "--out", "many"]) == 0
    assert calls == ["linspace"]
    assert main(["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--nx", "2", "--ny", "2",
                 "--out", "tile.csv"]) == 0
    assert "Path" in calls


def test_csv_writers_take_python_floats(tmp_path, monkeypatch, capsys):
    # the writers print repr, which for a numpy float names its type ('np.float64(0.5)'): every value they see
    # is a Python float, on a locus, a fit's probabilities, one q3's float path and a tile
    seen, write_csv = set(), cli._write_csv

    def recording(stream, header, rows):
        rows = [tuple(row) for row in rows]
        seen.update(type(v) for row in rows for v in row)
        write_csv(stream, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recording)
    monkeypatch.chdir(tmp_path)
    for argv in (["locus-fit", "--q3-points", "41", "--out", "many"],
                 ["locus-fit", "--q3-min", "0.5", "--q3-max", "0.5", "--q3-points", "1", "--out", "one"],
                 ["locus-fit", "--ql", "1e-3", "--q3-points", "5", "--out", "unbracketed"],
                 ["sweep", "--axes", "q3,inv_theta", "--x-range", "0,1", "--y-range", "-1,1", "--nx", "3",
                  "--ny", "3", "--out", "tile.csv"]):
        assert main(argv) in (0, 3)
    assert seen == {float}
    for path in tmp_path.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            tokens = line.split(",")[: -1 if path.name == "tile.csv" else None]  # a tile's last column is its status
            assert [repr(float(token)) for token in tokens] == tokens, path.name


@pytest.mark.filterwarnings("error")
def test_locus_fit_profile_without_a_minimum_exits_3(monkeypatch, tmp_path, capsys):
    # c3 profile slopes of one sign leave no root to refine: the fit is reported, not written
    profile = kdspin.sweep._fit_profile

    def one_sign(x, y, c3):
        c1, c2, ss, slope = profile(x, y, c3)
        return c1, c2, ss, np.abs(slope)

    monkeypatch.setattr(kdspin.sweep, "_fit_profile", one_sign)
    code = main(["locus-fit", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("error:") == 1 and "error: left branch: the c3 profile has no minimum between" in err
    assert "Traceback" not in err
    assert (tmp_path / "run_locus.csv").is_file()
    assert not (tmp_path / "run_fit.txt").exists()


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
@pytest.mark.parametrize("flags", [
    ["--q3-max", "inf"], ["--q3-min", "nan"], ["--q2", "nan"],
    # finite ends whose width overflows: linspace would warn and give inf and NaN
    ["--q3-min", "-1e308", "--q3-max", "1e308"], ["--q3-min", "-1e308", "--q3-max", "1e308", "--q3-points", "1"],
    ["--q3-min", "-inf", "--q3-max", "inf"],
])
def test_locus_fit_nonfinite_momentum_exits_2(flags, tmp_path, capsys):
    code = main(["locus-fit", "--q3-points", "3", "--out", str(tmp_path / "run"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--ql", "1e200"], ["--q2", "1e200"]])
def test_locus_fit_extreme_momentum_exits_2(flags, tmp_path, capsys):
    # the beam matrices overflow; no numpy warning may leak out
    code = main(["locus-fit", "--q3-points", "3", "--out", str(tmp_path / "run"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ql", ["1e-200", "1e-20"])
def test_locus_fit_tiny_momentum_is_unbracketed(ql, tmp_path, capsys):
    # 1/theta ~ 1/q_l lies far outside the range, except at q3 = 1 where tan(theta) -> 1
    code = main(["locus-fit", "--ql", ql, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert "unbracketed: q3=0.5\n" in err
    rows = [line.split(",") for line in (tmp_path / "run_locus.csv").read_text().splitlines()[1:]]
    inv_theta = {float(row[0]): float(row[1]) for row in rows}
    assert math.isnan(inv_theta[1.0]) or abs(inv_theta[1.0] - 4.0 / math.pi) <= 1e-15 * 4.0 / math.pi


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ql", ["1e-301", "1e-320"])
def test_locus_fit_point_without_minimum_outside_range_is_unbracketed(ql, tmp_path, capsys):
    # at q3 = 0.5, 1/theta ~ 1/q_l (6.7e300, or inf at 1e-320) lies far above the range, where the matrix
    # is too small to have a minimum: the point is unbracketed, and the run exits 3, not 2
    one_q3 = ["--q3-points", "1", "--q3-min", "0.5", "--q3-max", "0.5"]
    code = main(["locus-fit", "--ql", ql, *one_q3, "--out", str(tmp_path / "run")])
    assert (code, capsys.readouterr().err) == (3, "unbracketed: q3=0.5\n")
    assert (tmp_path / "run_locus.csv").read_text() == "q3,inv_theta,alpha\n0.5,nan,nan\n"


@pytest.mark.filterwarnings("error")
def test_locus_fit_bracketed_point_without_minimum_exits_2(tmp_path, capsys):
    # at q_l = 1e-301 only q3 = 1 is bracketed, at 1/theta = 4/pi, and its matrix lies under DEGENERATE_FLOOR
    code = main(["locus-fit", "--ql", "1e-301", "--out", str(tmp_path / "run")])
    assert (code, capsys.readouterr().err) == (2, "error: no contrast minimum at q3=1.0, 1/theta=1.2732395447351628\n")


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
@pytest.mark.parametrize(
    "argv", [["point", "--theta", "inf"], ["point", "--theta", "nan"], ["taylor-check", "--theta", "-inf"]]
)
def test_nonfinite_theta_exits_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: theta must be finite, got {float(argv[-1])!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("axes", ["q3,theta", "q3,inv_theta"])
def test_sweep_beam_pair_on_theta_axis_exits_2(axes, tmp_path, capsys):
    # the y axis sets the left beam there, so --pol-l would go unread
    out = tmp_path / "tile.csv"
    argv = ["sweep", "--axes", axes, "--x-range", "0,1", "--y-range", "1,2", "--nx", "2", "--ny", "2"]
    code = main([*argv, "--out", str(out), "--pol-l", "0,0,1,0,0,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
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
    written = set()
    for k, argv in enumerate(calls):
        here, alone = tmp_path / f"here{k}", tmp_path / f"alone{k}"
        here.mkdir()
        alone.mkdir()
        ref = subprocess.run([sys.executable, "-m", "kdspin.cli", *argv], cwd=alone, env=env,
                             capture_output=True, text=True)
        for name in os.listdir(alone):  # the in-process run rewrites outputs longer than its own
            (here / name).write_bytes(b"junk\n" * 13107)
            written.add(name)
        monkeypatch.chdir(here)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (ref.returncode, ref.stdout)
        files = [sorted((p.name, p.read_bytes()) for p in d.iterdir()) for d in (here, alone)]
        assert files[0] == files[1]
    assert sorted(p.name for p in (tmp_path / "here2").iterdir()) == ["tile.csv"]
    assert written == {"tile.csv", "tile.pgm", "tile.pgm.txt", "run_locus.csv", "run_fit.txt", "run_probabilities.csv"}


_SWEEP = ["sweep", "--axes", "q2,q3", "--x-range", "-0.05,0.05", "--y-range", "0.95,1.05", "--out", "t.csv"]
_LOCUS = ["locus-fit", "--out", "run"]
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "--q3", "1"], ["Point"], ["--", "point"], ["-h", "point"],
    ["--q3", "1", "point"], ["point"], ["point", "-h"], ["point", "--q3", "1", "--theta", "pi/4"], ["point", "--q3=1"],
    ["point", "--q3", "-1"], ["point", "--theta", "-pi/2"], ["point", "--q3", "x"], ["point", "--bogus"],
    ["point", "-x"], ["point", "extra"], ["point", "--q3", "1", "extra", "--bogus", "2"], ["point", "point"],
    ["point", "--", "--q3", "1"], ["point", "--q", "1"], ["point", "--q3", "1", "--q3", "2"],
    ["point", "--pol-l", "0,0,1,0,0,1", "--pol-r", "1,2,3"], ["point", "--pol-r", "0,0,0,0,1,0", "--ql", "1e-3"],
    ["sweep"], ["sweep", "--help"], _SWEEP, [*_SWEEP, "--nx", "x"], [*_SWEEP, "--workers", "0"],
    ["sweep", "--axes", "q2,q3", "--x-range=-0.05,0.05", "--y-range", "-1,1", "--out", "t.csv"],
    [*_SWEEP, "--heatmap-column", "bogus"], [*_SWEEP, "--log"], [*_SWEEP, "--heat", "contrast"],
    [*_SWEEP, "--q2", "nan", "--theta", "-0.5"], ["sweep", "--out", "a", "b"],
    ["locus-fit"], _LOCUS, [*_LOCUS, "--q3-m", "0.5"], [*_LOCUS, "--q3-p", "5"], ["locus-fit", "--out"],
    [*_LOCUS, "--q3-min", "-0.5", "--q3-max", "-0.1"], [*_LOCUS, "--q3-points", "0"], [*_LOCUS, "extra"],
    ["taylor-check"], ["taylor-check", "-h"], ["taylor-check", "--scale", "-1"],
    ["taylor-check", "--halvings", "-2"], ["taylor-check", "--scale=1e-3", "--halvings", "3"],
    # the benchmark's requests: one two-row tile strip and one locus point
    ["sweep", "--axes", "q2,q3", "--x-range", "-0.05,0.05", "--y-range", "0.9535,0.954", "--theta", "pi/4",
     "--nx", "41", "--ny", "2", "--heatmap-column", "contrast", "--log-scale", "--workers", "1",
     "--out", "strip.csv"],
    ["locus-fit", "--q3-min", "0.035", "--q3-max", "0.035", "--q3-points", "1", "--workers", "1",
     "--out", "point"],
]


def _parse_outcome(parse, argv, capsys):
    """Namespace (without ``command``, arrays as lists, as a repr so that NaN equals NaN) or
    SystemExit code, with what was printed."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    else:
        fields = vars(args)
        fields.pop("command", None)
        outcome = repr({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()})
    return outcome, capsys.readouterr()


def _two_pass_parse(argv):
    """The reference ``parse_argv`` must equal: the top-level parser's ``parse_args`` of the joined argv."""
    return cli.build_parser().parse_args(cli._join_dashed_values(list(argv)))


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "<none>")
def test_one_pass_parse_equals_two_pass_parse(argv, capsys):
    assert _parse_outcome(cli.parse_argv, argv, capsys) == _parse_outcome(_two_pass_parse, argv, capsys)


def test_fuzz_argvs_parse_as_two_pass_parse(capsys):
    # the exit-code fuzz's 400 argvs, each parsed only: the exact-flag path takes most of them
    from test_cli_fuzz import FLAGS, _argvs

    argvs = [argv for command in FLAGS for argv in _argvs(command)]
    for argv in argvs:
        assert _parse_outcome(cli.parse_argv, argv, capsys) == _parse_outcome(_two_pass_parse, argv, capsys), argv
    exact = [argv for argv in argvs if cli._parse_exact(cli._parsers()[2][argv[0]], cli._join_dashed_values(argv)[1:])]
    assert len(argvs) == 400 and len(exact) > 300, len(exact)


#: tokens beside each command's own flags and values: help, ``--``, abbreviations, a store_true flag or a
#: flag given an '=' value argparse treats apart, positionals, and values with dashes, spaces or none
ODD_TOKENS = ["--", "-", "", "-h", "--help", "-x", "--bogus", "extra", "point", "--q", "--q3-m", "--heat", "--log",
              "--out=", "--out=--", "--out=-", "--log-scale=1", "--log-scale=", "--theta=pi/4", "--ql=-1", "--q3=",
              "--heatmap-column=contrast", "--x-range=-0.05,0.05"]
ANY_VALUES = ["0.5", "1", "3", "0", "-1", "-0.5", "1e-3", "nan", "-inf", "pi/4", "-pi/2", "3pi/8", "x", "", "a b",
              " 1", "- 1", "1,2", "0,1", "-0.05,0.05", "0,0,1,0,0,1", "q2,q3", "contrast", "bogus", "-", "--", "-x"]
#: values every flag's type and choices accept (a count flag's "1" included), by flag
GOOD_VALUES = {"--heatmap-column": ["contrast", "phi"], "--theta": ["pi/4", "-pi/2", "0.3"],
               "--pol-l": ["0,0,1,0,0,1", "0,0,0,0,1,0"], "--pol-r": ["0,0,1,0,0,1", "0,0,0,0,1,0"]}
REQUIRED = {"sweep": ["--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--out", "t.csv"],
            "locus-fit": ["--out", "run"]}


@pytest.mark.parametrize("command", ["point", "sweep", "locus-fit", "taylor-check"])
def test_exact_flag_parse_equals_two_pass_parse(command, capsys):
    # token sequences over the command's flags with good or any values, in the next token or after '=',
    # flags alone (repeated ones among them) and ODD_TOKENS, after the required flags or not: the
    # namespace (key order included), or SystemExit code, stdout and stderr, equal argparse's
    flags = sorted(flag for flag in cli._parsers()[1][command]._option_string_actions if flag.startswith("--"))
    flag = st.sampled_from(flags)
    good = st.sampled_from([(f, value) for f in flags for value in GOOD_VALUES.get(f, ["1", "3", "-2"])])
    pair = st.tuples(flag, st.sampled_from(ANY_VALUES))
    odd = st.one_of(pair, pair.map(lambda p: ("=".join(p),)), st.tuples(flag), st.tuples(st.sampled_from(ODD_TOKENS)))
    exact = []

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 3), st.lists(st.one_of(good, good.map(lambda p: ("=".join(p),))), max_size=5),
                      st.lists(odd, max_size=2), st.integers(0, 5))
    def check(required, chunks, odd_chunks, at):  # the required flags first, three times in four
        chunks[at:at] = odd_chunks
        argv = [command, *(REQUIRED.get(command, []) if required else []), *(t for c in chunks for t in c)]
        outcome = _parse_outcome(cli.parse_argv, argv, capsys)
        assert outcome == _parse_outcome(_two_pass_parse, argv, capsys), argv
        exact.append(cli._parse_exact(cli._parsers()[2][command], cli._join_dashed_values(argv)[1:]) is not None)

    check()
    assert min(sum(exact), len(exact) - sum(exact)) >= 20, sum(exact)  # both paths, often


@pytest.mark.parametrize("argv, joined", [
    ([], []),
    (["--"], ["--"]),
    (["-"], ["-"]),
    (["---"], ["---"]),
    ([""], [""]),
    (["--a=-1", "-2"], ["--a=-1", "-2"]),
    (["--a", "-1", "-2"], ["--a=-1", "-2"]),
    (["--a", "--b", "-1"], ["--a", "--b=-1"]),
    (["--theta", "-pi/2"], ["--theta=-pi/2"]),
    (["--", "-1"], ["--=-1"]),
    (["--a", "-"], ["--a=-"]),
    (["--a", ""], ["--a", ""]),
    (["--a", "x", "-1"], ["--a", "x", "-1"]),
    (["point", "--q3", "-1"], ["point", "--q3=-1"]),
    (["point", "--q3", "1", "-x"], ["point", "--q3", "1", "-x"]),
])
def test_join_dashed_values(argv, joined):
    # a '--flag' with no '=' takes a following single-dash token as its value, once
    assert cli._join_dashed_values(argv) == joined


@pytest.mark.parametrize("argv, parses", [
    (["point", "--q3", "1"], []),
    (["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--nx", "2", "--ny", "2", "--out", "t.csv"],
     []),
    (["locus-fit", "--q3-min", "0.5", "--q3-max", "0.5", "--q3-points", "1", "--out", "run"], []),
    (["taylor-check", "--halvings", "2"], []),
    (["locus-fit", "--q3-min", "0.5", "--q3-max", "0.5", "--q3-p", "1", "--out", "run"], ["kdspin locus-fit"]),
], ids=["point", "sweep", "locus-fit", "taylor-check", "abbreviated"])
def test_one_parse_per_call(argv, parses, tmp_path, capsys, monkeypatch):
    # an argv of exact flags skips argparse's parse; any other, here an abbreviation, is parsed once,
    # by its command's parser alone
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: calls.append(self.prog) or parse_known_args(self, *a, **k))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert calls == parses


def test_sweep_to_dev_null():
    argv = ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--nx", "2", "--ny", "2"]
    assert main([*argv, "--out", os.devnull]) == 0


def test_outputs_rewritten_in_place(tmp_path, capsys):
    # a new output gets open()'s mode under the umask; an old one keeps its inode, links and mode
    argv = ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--nx", "2", "--ny", "2",
            "--heatmap-column", "contrast", "--out", str(tmp_path / "tile.csv")]
    outputs = [tmp_path / name for name in ("tile.csv", "tile.pgm", "tile.pgm.txt")]
    old_umask = os.umask(0o002)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old_umask)
    assert [p.stat().st_mode & 0o777 for p in outputs] == [0o664] * 3
    fresh = [p.read_bytes() for p in outputs]
    for p in outputs:
        p.chmod(0o600)
        p.write_bytes(b"x" * 65536)
        os.link(p, f"{p}.link")
    inodes = [p.stat().st_ino for p in outputs]
    assert main(argv) == 0
    assert [p.read_bytes() for p in outputs] == fresh
    assert [Path(f"{p}.link").read_bytes() for p in outputs] == fresh
    assert [(p.stat().st_ino, p.stat().st_mode & 0o777) for p in outputs] == [(i, 0o600) for i in inodes]


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes a read-only file")
def test_read_only_output_exits_4(tmp_path, capsys):
    out = tmp_path / "tile.csv"
    out.write_bytes(b"kept\n")
    out.chmod(0o444)
    argv = ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--nx", "2", "--ny", "2"]
    assert main([*argv, "--out", str(out)]) == 4
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("command", [["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1",
                                      "--nx", "2", "--ny", "2"], ["locus-fit", "--q3-points", "3"]])
def test_directory_output_exits_4(command, tmp_path, capsys):
    # a locus-fit prefix names the directory "<prefix>_locus.csv"
    (tmp_path / "run_locus.csv").mkdir()
    out = tmp_path if command[0] == "sweep" else tmp_path / "run"
    assert main([*command, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


def test_writer_closes_fd_when_stream_fails(tmp_path, monkeypatch):
    # an os.write failing partway propagates, leaves no descriptor open and cuts the file to the bytes written
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 8192)
    real_write = os.write
    calls = []

    def fail_third_call(fd, data):
        calls.append(fd)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return real_write(fd, data[:1000])

    before = len(os.listdir("/proc/self/fd"))
    with monkeypatch.context() as m:
        m.setattr(os, "write", fail_third_call)
        with pytest.raises(OSError, match="No space left"):
            with cli._overwrite(path) as handle:
                handle.write("a" * 1500)
                assert handle.tell() == 1500
                handle.write("b" * 4096)
    assert len(os.listdir("/proc/self/fd")) == before
    assert path.read_bytes() == b"a" * 1500


def test_writer_streams_to_a_fifo(tmp_path):
    # a FIFO, like /dev/null, is written through and never sought or cut
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with cli._overwrite(fifo) as handle:
        handle.write("x" * 100_000)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"x" * 100_000]


def rendered_outputs(monkeypatch, *argvs):
    """The files ``main`` writes for each of ``argvs``, as its writers render them in memory (text into
    io.StringIO, bytes into io.BytesIO), keyed by path; nothing reaches the disk."""
    files = {}

    class Render:
        def __init__(self, path):
            self.path, self.text, self.data = Path(path), io.StringIO(), io.BytesIO()

        def __enter__(self):
            return self

        def write(self, chunk):
            (self.text if isinstance(chunk, str) else self.data).write(chunk)

        def __exit__(self, *exc):
            files[self.path] = self.text.getvalue().encode("ascii") + self.data.getvalue()

    with monkeypatch.context() as m:
        m.setattr(cli, "_overwrite", Render)
        for argv in argvs:
            assert main(argv) == 0
    return files


# every writer: tile CSV, log-scale P5 heatmap and sidecar, then the locus CSV, fit report and probabilities
WRITER_COMMANDS = [
    ["sweep", "--axes", "q2,q3", "--x-range", "-0.05,0.05", "--y-range", "0.95,1.05", "--theta", "pi/4",
     "--nx", "9", "--ny", "7", "--heatmap-column", "contrast", "--log-scale", "--out", "tile.csv"],
    ["locus-fit", "--q3-points", "41", "--inv-theta-points", "100", "--out", "run"],
]
WRITER_OUTPUTS = ["run_fit.txt", "run_locus.csv", "run_probabilities.csv", "tile.csv", "tile.pgm", "tile.pgm.txt"]


def counted_ftruncate(monkeypatch):
    """Lengths passed to os.ftruncate from now on; the calls still run."""
    cuts, real_ftruncate = [], os.ftruncate

    def ftruncate(fd, length):
        cuts.append(length)
        real_ftruncate(fd, length)

    monkeypatch.setattr(os, "ftruncate", ftruncate)
    return cuts


@pytest.mark.parametrize("old", ["fresh", "longer", "equal", "shorter"])
def test_writers_match_their_in_memory_rendering(old, tmp_path, monkeypatch, capsys):
    # the bytes on disk are the rendering, whatever the old file held; only a longer old file is cut
    monkeypatch.chdir(tmp_path)
    rendered = rendered_outputs(monkeypatch, *WRITER_COMMANDS)
    assert sorted(map(str, rendered)) == WRITER_OUTPUTS
    assert not any(path.exists() for path in rendered)
    if old != "fresh":
        for path, data in rendered.items():
            path.write_bytes(b"x" * (len(data) + {"longer": 4096, "equal": 0, "shorter": -len(data) // 2}[old]))
    cuts = counted_ftruncate(monkeypatch)
    for argv in WRITER_COMMANDS:
        assert main(argv) == 0
    assert {path: path.read_bytes() for path in rendered} == rendered
    assert sorted(cuts) == (sorted(map(len, rendered.values())) if old == "longer" else [])


def test_writers_survive_short_writes(tmp_path, monkeypatch, capsys):
    # an os.write that takes at most 1 KB per call still gets every byte out
    monkeypatch.chdir(tmp_path)
    rendered = rendered_outputs(monkeypatch, *WRITER_COMMANDS)
    real_write, sizes = os.write, []

    def write_1k(fd, data):
        sizes.append(real_write(fd, data[:1024]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", write_1k)
    for argv in WRITER_COMMANDS:
        assert main(argv) == 0
    assert {path: path.read_bytes() for path in rendered} == rendered
    assert max(sizes) == 1024 and sum(sizes) == sum(map(len, rendered.values()))


def test_writers_to_dev_null(tmp_path, monkeypatch, capsys):
    # every byte of the CSV goes to /dev/null, which is never cut; the heatmap still lands on disk
    monkeypatch.chdir(tmp_path)
    argv = [*WRITER_COMMANDS[0][:-1], os.devnull, "--heatmap-out", "tile.pgm"]
    rendered = rendered_outputs(monkeypatch, argv)
    null, real_write, sent = os.stat(os.devnull), os.write, []

    def write(fd, data):
        if os.path.samestat(os.fstat(fd), null):
            sent.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    cuts = counted_ftruncate(monkeypatch)
    assert main(argv) == 0
    assert b"".join(sent) == rendered.pop(Path(os.devnull))
    assert {path: path.read_bytes() for path in rendered} == rendered
    assert cuts == []


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["1e-320", "1e300"])
def test_taylor_check_nonfinite_spin_matrix_exits_2(scale, capsys):
    # at a subnormal scale the expansion equals the spin matrix exactly (error 0,
    # at the rounding floor); 1e300 overflows the matrix
    code = main(["taylor-check", "--scale", scale, "--halvings", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "error=" not in captured.out
    assert captured.out == ""  # no domain warning before a rung fails


def test_sweep_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # stands in for a grid too large for memory, which a host that overcommits might allocate
    def out_of_memory(spec, workers=1):
        raise MemoryError("Unable to allocate 373. GiB for an array with shape (5, 100000, 100000)")

    monkeypatch.setattr("kdspin.cli.run_sweep", out_of_memory)
    argv = ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1",
            "--nx", "100000", "--ny", "100000", "--out", str(tmp_path / "big.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: Unable to allocate 373. GiB for an array with shape (5, 100000, 100000)\n"
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("flags, path, code", [
    pytest.param(["--out", "."], ".", errno.EISDIR, id="."),
    pytest.param(["--out", "/"], "/", errno.EISDIR, id="/"),
    pytest.param(["--out", "tile"], "tile", errno.EISDIR, id="tile"),
    pytest.param(["--out", "t.csv", "--heatmap-out", "tile"], "tile", errno.EISDIR, id="heatmap-directory"),
    pytest.param(["--out", "t.csv", "--heatmap-out", "h.pgm"], "h.pgm.txt", errno.EISDIR, id="sidecar-directory"),
    pytest.param(["--out", "nodir/t.csv"], "nodir/t.csv", errno.ENOENT, id="out-missing-directory"),
    pytest.param(["--out", "t.csv", "--heatmap-out", "nodir/h.pgm"], "nodir/h.pgm", errno.ENOENT,
                 id="heatmap-missing-directory"),
])
def test_sweep_out_directory_exits_4_before_the_grid(flags, path, code, tmp_path, capsys, monkeypatch):
    # each output's write would fail: that is known before any point is evaluated, and no CSV is written
    def evaluate(spec, workers=1):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr("kdspin.cli.run_sweep", evaluate)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tile").mkdir()
    (tmp_path / "h.pgm.txt").mkdir()
    argv = ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", *flags,
            "--heatmap-column", "contrast"]
    exit_code = main(argv)
    captured = capsys.readouterr()
    assert exit_code == 4
    assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: '{path}'\n"
    assert captured.out == "" and sorted(os.listdir(tmp_path)) == ["h.pgm.txt", "tile"]
    assert os.listdir(tmp_path / "tile") == [] and os.listdir(tmp_path / "h.pgm.txt") == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beam", [["--pol-l", "0,0,0,0,0,0"], ["--pol-r", "0,0,5e-324,0,0,0"]])
def test_taylor_check_dark_beam_names_zero_matrix(beam, capsys):
    # a dark beam zeroes the spin matrix: no rounding is involved, and point names it so too
    code = main(["taylor-check", *beam])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: spin-propagation matrix is numerically zero at scale 0.01\n"
    assert main(["point", *beam]) == 2
    assert capsys.readouterr().err == "error: spin-propagation matrix is numerically zero\n"


@pytest.mark.filterwarnings("error")
def test_taylor_check_long_ladder_stops_at_first_floor_rung(capsys):
    # 2.0 ** 1024 overflows; the ladder stops at rung 11, its first at the rounding floor
    code = main(["taylor-check", "--halvings", "1100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: the expansion's error") and captured.err.count("\n") == 1
    assert f"at scale {1e-2 / 2.0**11!r} is at the rounding floor" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_taylor_check_rounding_floor_exits_2(capsys):
    # the first rung's gap is the O(q^3) remainder, the second's is rounding
    # (below 8 eps max|M|): no order is printed, and no rung either
    code = main(["taylor-check", "--scale", "1e-5", "--halvings", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: the expansion's error") and captured.err.count("\n") == 1
    assert "rounding floor" in captured.err and captured.out == ""


THETA_WITH_POL_L = "--theta is not read when --pol-l is given: --pol-l sets the left beam"
HEATMAP_SWEEP = ["sweep", "--axes", "q2,q3", "--x-range", "-0.05,0.05", "--y-range", "0.95,1.05",
                 "--heatmap-column", "contrast"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--axes", "q2", "--x-range", "0,1", "--y-range", "0,1"], "--axes needs two comma-separated names"),
        (["sweep", "--axes", "q2,q3", "--x-range", "0,1,2", "--y-range", "0,1"], "axis ranges are (low, high) pairs"),
        # a flag the grid's axes set would go unread
        (["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--q2", "0.7"],
         "--q2 is not read on a q2,q3 sweep: its x axis sets it"),
        (["sweep", "--axes", "q3,theta", "--x-range", "0,1", "--y-range", "0,1", "--theta", "0.3"],
         "--theta is not read on a q3,theta sweep: its y axis sets it"),
        (["sweep", "--axes", "q3,inv_theta", "--x-range", "0,1", "--y-range", "1,2", "--theta", "0.3"],
         "--theta is not read on a q3,inv_theta sweep: its y axis sets it"),
        (["taylor-check", "--scale", "-1"], "--scale must be nonnegative"),
        # inf would print the domain warning, and nan would be blamed on q_l
        (["taylor-check", "--scale", "inf"], "--scale must be finite, got inf"),
        (["taylor-check", "--scale", "nan"], "--scale must be finite, got nan"),
        # the beams' product, not a momentum, overflows the spin matrix
        (["taylor-check", "--pol-l", "0,0,1e200,0,0,0", "--pol-r", "0,0,1e200,0,0,0"],
         "spin matrix or its expansion is not finite at q_l=0.01, q2=0.01, q3=0.01 with the given beams\n"),
        # --pol-l sets the left beam, so --theta would go unread
        (["point", "--q3", "0.5", "--pol-l", "0,0,1,0,0,0", "--theta", "0.3"], THETA_WITH_POL_L),
        (["taylor-check", "--scale", "0", "--pol-l", "0,0,1,0,0,0", "--theta", "0.3"], THETA_WITH_POL_L),
        (["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--pol-l", "0,0,1,0,0,0",
          "--theta", "0.3"], THETA_WITH_POL_L),
        # the heatmap or its sidecar would overwrite the CSV
        ([*HEATMAP_SWEEP, "--out", "t.pgm"], "the heatmap t.pgm or its sidecar t.pgm.txt would overwrite the CSV"),
        ([*HEATMAP_SWEEP, "--heatmap-out", "./tile.csv"], "the heatmap tile.csv or its sidecar"),
        ([*HEATMAP_SWEEP, "--heatmap-out", "t", "--out", "t.txt"], "the heatmap t or its sidecar t.txt"),
        # a heatmap flag without a heatmap column would go unread
        (["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--heatmap-out", "t.pgm"],
         "--heatmap-out is not read without --heatmap-column"),
        (["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--log-scale"],
         "--log-scale is not read without --heatmap-column"),
        # an empty path names no file: not the default heatmap, ".", or a prefix "" for "_locus.csv"
        ([*HEATMAP_SWEEP, "--heatmap-out="], "--heatmap-out must not be empty"),
        (["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--out="], "--out must not be empty"),
        (["locus-fit", "--q3-points", "1", "--out="], "--out must not be empty"),
    ],
    ids=["one-axis", "three-ends", "unread-q2", "unread-theta", "unread-theta-inv", "negative-scale", "inf-scale",
         "nan-scale", "taylor-beams-overflow", "point-theta-pol-l", "taylor-theta-pol-l", "sweep-theta-pol-l",
         "pgm-is-out", "heatmap-out-is-out", "sidecar-is-out", "heatmap-out-without-column", "log-scale-without-column",
         "empty-heatmap-out", "empty-out", "empty-locus-out"],
)
def test_rejected_input_exits_2(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["sweep", "--nx", "3", "--ny", "3", "--out", "tile.csv", *argv[1:]] if argv[0] == "sweep" else argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_heatmap_onto_existing_csv_exits_2(tmp_path, capsys):
    # a symlink to the CSV names the CSV; a symlink loop names no file, and writing it exits 4
    out, link, loop = tmp_path / "tile.csv", tmp_path / "link.pgm", tmp_path / "loop"
    out.write_bytes(b"kept\n")
    link.symlink_to(out)
    loop.symlink_to(loop)
    argv = [*HEATMAP_SWEEP, "--nx", "3", "--ny", "3"]
    assert main([*argv, "--out", str(out), "--heatmap-out", str(link)]) == 2
    assert out.read_bytes() == b"kept\n"
    assert main([*argv, "--out", str(loop)]) == 4
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("scale", [[], ["--log-scale"]], ids=["linear", "log10"])
def test_heatmap_of_column_without_finite_value(scale, tmp_path, capsys):
    # a dark left beam fails every point: the pixels are all 0 and the sidecar maps [0, 0]
    out = tmp_path / "tile.csv"
    argv = ["sweep", "--axes", "q2,q3", "--x-range", "0,1", "--y-range", "0,1", "--nx", "3", "--ny", "2",
            "--pol-l", "0,0,0,0,0,0", "--heatmap-column", "contrast", "--out", str(out), *scale]
    assert main(argv) == 0
    assert capsys.readouterr().err == "sweep: 6 of 6 points failed (failed_ValueError: 6)\n"
    assert (tmp_path / "tile.pgm").read_bytes() == b"P5\n3 2\n255\n" + bytes(6)
    sidecar = (tmp_path / "tile.pgm.txt").read_text().splitlines()
    assert "min=0.0" in sidecar and "max=0.0" in sidecar
