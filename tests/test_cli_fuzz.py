"""Seeded fuzz of the CLI's exit-code contract over all four commands.

Every argv either returns 0, 2, 3 or 4 from ``main`` or exits through
argparse with ``SystemExit(2)``; no other exception escapes, no numpy warning
is raised (the module runs under ``filterwarnings("error")``), and stderr holds
at most one ``error:`` line.  Values come from the float extremes (±1.7e308,
±inf, NaN, subnormals, signed zeros), pi fractions and ordinary values, with
range pairs whose width overflows; grids are at most 3 x 3 and loci at most 7
points, so the whole fuzz runs in under a second.
"""

import random

import pytest

from kdspin.cli import HEATMAP_COLUMNS, main

EXTREMES = ["1.7e308", "-1.7e308", "inf", "-inf", "nan", "5e-324", "-5e-324", "2.2e-308", "0", "-0.0"]
ORDINARY = ["0.02", "1e-3", "0.5", "1", "-1", "0.05", "2"]
FLOATS = EXTREMES + ORDINARY * 2  # an ordinary value half the time, so later checks are reached too
ANGLES = FLOATS + ["pi/4", "-pi/2", "3pi/8", "pi", "-0.0pi", "pi/0", "x"]
EDGE_RANGES = ["-1.7e308,1.7e308", "1.7e308,-1.7e308", "0,1.7e308", "-inf,0", "0,nan", "-0.0,0",
               "5e-324,1e-323", "1,0", "0,1,2"]  # the first two overflow their width
RANGES = EDGE_RANGES + ["0,1", "-0.05,0.05", "0.95,1.05", "1,2"] * 3
BEAMS = ["0,0,1,0,0,1", "0,0,0,0,0,0", "0,0,1e308,0,1e308,0", "0,0,1.7e308,0,0,1.7e308", "nan,0,0,0,0,0",
         "1,0,0,0,0,0", "0,0,inf,0,0,0", "0,0,5e-324,0,0,0", "1,2,3"]

COMMON = {"--ql": FLOATS, "--q2": FLOATS}
BEAM_FLAGS = {"--theta": ANGLES, "--pol-l": BEAMS, "--pol-r": BEAMS}
FLAGS = {
    "point": {**COMMON, **BEAM_FLAGS, "--q3": FLOATS},
    "sweep": {
        **COMMON, **BEAM_FLAGS,
        "--axes": ["q2,q3", "q3,theta", "q3,inv_theta"] * 3 + ["q2", "theta,q3"],
        "--x-range": RANGES, "--y-range": RANGES,
        "--nx": ["2", "3", "1"], "--ny": ["2", "3", "0"],
        "--workers": ["1", "2"] * 2 + ["0"],
        "--heatmap-column": [*HEATMAP_COLUMNS] * 2 + ["bogus"],
        "--heatmap-out": ["h.pgm", "tile.csv"],
        "--log-scale": [None],
    },
    "locus-fit": {
        **COMMON,
        "--q3-min,--q3-max": EDGE_RANGES[:2] * 3 + RANGES,
        "--q3-points": ["1", "2", "5", "7"] * 2 + ["0"],
        "--inv-theta-min,--inv-theta-max": RANGES + ["1,100"] * 20,
        "--inv-theta-points": ["3", "2", "400"],
        "--workers": ["1"] * 4 + ["0"],
    },
    "taylor-check": {**BEAM_FLAGS, "--scale": FLOATS, "--halvings": ["1", "2", "3", "0"]},
}
# given first, so a drawn flag overrides them: the required flags, and grids and loci kept tiny
BASE = {
    "point": [],
    "sweep": ["--axes", "q2,q3", "--x-range", "-0.05,0.05", "--y-range", "0.95,1.05", "--nx", "3", "--ny", "3"],
    "locus-fit": ["--q3-points", "7"],
    "taylor-check": [],
}
OUT = {"sweep": ["tile.csv"] * 5 + ["."], "locus-fit": ["run"], "taylor-check": [None], "point": [None]}
PER_COMMAND = 100


def _argvs(command: str) -> list[list[str]]:
    """``PER_COMMAND`` seeded argvs of ``command``: ``BASE``, then each flag with probability
    1/4 and a value drawn from its pool."""
    rng = random.Random(f"kdspin-fuzz-{command}")
    flags = FLAGS[command]
    argvs = []
    for _ in range(PER_COMMAND):
        argv = [command, *BASE[command]]
        for flag, pool in flags.items():
            if rng.random() < 0.25:
                value = rng.choice(pool)
                if value is None:
                    argv.append(flag)
                elif "," in flag:  # two flags given as one "low,high" pair
                    for name, end in zip(flag.split(","), value.split(",")):
                        argv += [name, end]
                else:
                    argv += [flag, value]
        out = rng.choice(OUT[command])
        argvs.append(argv if out is None else [*argv, "--out", out])
    return argvs


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", list(FLAGS))
def test_exit_code_contract(command, tmp_path, capsys, monkeypatch):
    for k, argv in enumerate(_argvs(command)):
        run = tmp_path / str(k)
        run.mkdir()
        monkeypatch.chdir(run)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, ("argparse", 2)), (argv, code, err)
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
        if code in (2, 4):
            assert err.startswith("error:"), (argv, err)
