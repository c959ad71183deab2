"""Command-line driver: single-point evaluation, sweeps, locus fits, checks.

Outputs are plain CSV tables (locale-independent, full round-trip float
precision) and binary portable graymap (P5) heatmaps with a key=value
sidecar recording the value mapping.  Exit codes: 0 success, 2 invalid
parameters, 3 locus bracketing or fit failure, 4 unwritable output.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import stat
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .compton import PolarizationPair, elliptic_polarization, spin_matrix
from .contrast import DEGENERATE_FLOOR, minimize_contrast
from .kinematics import ScatterConfig
from .sweep import (
    FitConvergenceError,
    FixedParams,
    GridSpec,
    SweepTile,
    evaluate_fit,
    fit_locus,
    locus_probabilities,
    minimum_locus,
    run_sweep,
)
from .taylor import DOMAIN_LIMIT, taylor_error

_PI_TOKEN = re.compile(r"^([+-]?\d*\.?\d*)pi(?:/(\d*\.?\d+))?$")

HEATMAP_COLUMNS = ("contrast", "alpha", "phi", "prob_A", "prob_B")


def parse_angle(text: str) -> float:
    """Angle in radians from a float literal or a pi fraction like 'pi/4'."""
    token = text.strip().lower().replace(" ", "")
    try:
        return float(token)
    except ValueError:
        pass
    match = _PI_TOKEN.match(token)
    if match is None:
        raise ValueError(f"cannot parse angle {text!r} (use radians or e.g. 'pi/4', '3pi/8')")
    coef_text, denom_text = match.groups()
    if coef_text in ("", "+"):
        coef = 1.0
    elif coef_text == "-":
        coef = -1.0
    else:
        coef = float(coef_text)
    value = coef * math.pi
    if denom_text is not None:
        denom = float(denom_text)
        if denom == 0.0:
            raise ValueError(f"cannot parse angle {text!r}: zero denominator")
        value /= denom
    return value


def parse_polarization(text: str) -> np.ndarray:
    """Complex 3-vector from six comma-separated numbers re1,im1,...,re3,im3."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6:
        raise ValueError(f"polarization needs 6 numbers (re,im pairs), got {len(parts)}")
    values = [float(p) for p in parts]
    return np.array([complex(values[2 * i], values[2 * i + 1]) for i in range(3)])


def parse_positive_int(text: str) -> int:
    """Integer flag value of at least 1 (--workers, --q3-points, --halvings)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _flag_type(parse):
    """``parse`` as an argparse ``type``: argparse prints an ArgumentTypeError's message, not a ValueError's."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _format(value) -> str:
    return repr(float(value))


def _posix_name(name: str) -> str:
    """``str(pathlib.PurePosixPath(name))`` without the path object: a root of '//' (not '///') or '/' kept,
    then the parts that are neither empty nor '.'."""
    root = "//" if name[:2] == "//" and name[2:3] != "/" else "/" if name[:1] == "/" else ""
    return root + "/".join([part for part in name.split("/") if part and part != "."]) or "."


def _polarization_from_args(args) -> PolarizationPair:
    if args.pol_l is not None and args.theta is not None:
        raise ValueError("--theta is not read when --pol-l is given: --pol-l sets the left beam")
    theta = FixedParams._field_defaults["theta"] if args.theta is None else args.theta  # None unless given
    pol = elliptic_polarization(theta)
    if args.pol_l is None and args.pol_r is None:
        return pol
    return PolarizationPair(left=pol.left if args.pol_l is None else args.pol_l,
                            right=pol.right if args.pol_r is None else args.pol_r)


class _overwrite:
    """ASCII text (or bytes) written straight to ``path``'s descriptor, not emptied on open: on ext4 a
    truncate to zero makes ``close`` start writeback. Cut on close only where the old file was longer;
    keeps inode, links and mode."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)

    def __enter__(self):
        return self

    def write(self, data) -> None:
        view = memoryview(data.encode("ascii") if isinstance(data, str) else data)
        while view:  # a short write leaves the rest for the next call
            view = view[os.write(self.fd, view):]

    def tell(self) -> int:
        return os.lseek(self.fd, 0, os.SEEK_CUR)

    def __exit__(self, *exc) -> None:
        try:
            info = os.fstat(self.fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > (end := self.tell()):  # not /dev/null or a FIFO
                os.ftruncate(self.fd, end)
        finally:
            os.close(self.fd)


def _stat(path):
    """``os.stat(path)``, or the errno of the OSError it raises (not the exception, whose traceback
    would tie the caller's frame, and the tile it comes to hold, into a cycle)."""
    try:
        return os.stat(path)
    except OSError as exc:
        return exc.errno


def _same_file(a, a_stat, b, b_stat) -> bool:
    """Whether paths ``a`` and ``b``, of these ``_stat``s, name one file: one inode if both exist,
    else one resolved path."""
    if isinstance(a_stat, int) or isinstance(b_stat, int):
        return os.path.realpath(a) == os.path.realpath(b)
    return os.path.samestat(a_stat, b_stat)


def _write_csv(stream, header: str, rows) -> None:
    """Header line, then one comma-joined line per row of Python floats, each as its ``repr`` (``str`` adds a call)."""
    stream.write("".join([header + "\n", *(",".join(map(repr, row)) + "\n" for row in rows)]))


def write_tile_csv(tile: SweepTile, stream) -> None:
    """Row-major (y outer, x inner) tile CSV as ``_write_csv`` writes it, formatting x and y once."""
    xs = list(map(repr, tile.x.tolist()))
    columns = (tile.contrast, tile.alpha, tile.phi, tile.prob_a, tile.prob_b)
    stream.write("x,y,contrast,alpha,phi,prob_A,prob_B,status\n")
    for j, y in enumerate(tile.y.tolist()):
        fields = (map(repr, column[j].tolist()) for column in columns)
        rows = zip(xs, [repr(y)] * len(xs), *fields, tile.status[j].tolist())
        stream.write("\n".join(map(",".join, rows)) + "\n")


def write_heatmap_pgm(tile: SweepTile, column: str, path: Path, log_scale: bool) -> None:
    """8-bit binary P5 graymap of one tile column plus a sidecar text file.

    Image row 0 holds the first y value; the sidecar records the column,
    the linear or log10 mapping and its min/max so values can be recovered.
    """
    values = np.array(getattr(tile, column.lower()), dtype=float)
    finite = np.isfinite(values)
    if log_scale:
        positive = values[finite & (values > 0.0)]
        floor = float(positive.min()) if positive.size else 1.0
        values = np.log10(np.maximum(values, floor))
        finite = np.isfinite(values)
    kept = values[finite]
    vmin, vmax = (float(kept.min()), float(kept.max())) if kept.size else (0.0, 0.0)
    if vmax > vmin:
        scaled = (values - vmin) / (vmax - vmin) * 255.0
    else:
        scaled = np.zeros_like(values)
    scaled[~np.isfinite(scaled)] = 0.0
    pixels = np.minimum(np.maximum(np.rint(scaled), 0.0), 255.0).astype(np.uint8)
    ny, nx = pixels.shape
    with _overwrite(path) as handle:
        handle.write(f"P5\n{nx} {ny}\n255\n".encode("ascii") + pixels.tobytes())
    sidecar = [
        f"column={column}",
        f"scale={'log10' if log_scale else 'linear'}",
        f"min={_format(vmin)}",
        f"max={_format(vmax)}",
        f"nx={nx}",
        f"ny={ny}",
        f"x_first={_format(tile.x[0])}",
        f"x_last={_format(tile.x[-1])}",
        f"y_first={_format(tile.y[0])}",
        f"y_last={_format(tile.y[-1])}",
        "row0=y_first",
    ]
    with _overwrite(f"{path}.txt") as handle:
        handle.write("\n".join(sidecar) + "\n")


def cmd_point(args) -> int:
    cfg = ScatterConfig(q_l=args.ql, q2=args.q2, q3=args.q3)
    pol = _polarization_from_args(args)
    matrix = spin_matrix(cfg, pol)
    result = minimize_contrast(matrix)
    for r in range(2):
        for c in range(2):
            print(f"m{r}{c}_re={_format(matrix[r, c].real)}")
            print(f"m{r}{c}_im={_format(matrix[r, c].imag)}")
    print(f"contrast={_format(result.value)}")
    print(f"alpha={_format(result.alpha)}")
    print(f"phi={_format(result.phi)}")
    print(f"prob_A={_format(result.prob_a)}")
    print(f"prob_B={_format(result.prob_b)}")
    print(f"iterations={result.iterations}")
    print(f"status={result.status.value}")
    return 0


def cmd_sweep(args) -> int:
    if len(args.axes) != 2:
        raise ValueError(f"--axes needs two comma-separated names, got {','.join(args.axes)!r}")
    x_name, y_name = args.axes
    # --q2 and --theta are None unless given, and the grid's axes set one of them
    flag, given, setter = ("--q2", args.q2, "x axis") if x_name == "q2" else ("--theta", args.theta, "y axis")
    pol = _polarization_from_args(args) if (args.pol_l is not None or args.pol_r is not None) else None
    if given is not None and math.isfinite(given):  # GridSpec takes the default, so its checks come first
        setattr(args, flag[2:], None)
    # a beam pair has read --theta already, so FixedParams takes the default theta beside it
    default = FixedParams._field_defaults
    fixed = FixedParams(q_l=args.ql, q2=default["q2"] if args.q2 is None else args.q2,
                        theta=default["theta"] if args.theta is None or pol is not None else args.theta, pol=pol)
    spec = GridSpec(x_name, y_name, tuple(args.x_range), tuple(args.y_range), args.nx, args.ny, fixed)
    if given is not None:  # after GridSpec, which reports an unsupported pair or a non-finite value first
        raise ValueError(f"{flag} is not read on a {x_name},{y_name} sweep: its {setter} sets it")
    if args.heatmap_column is None and (args.heatmap_out is not None or args.log_scale):
        raise ValueError(f"{'--log-scale' if args.log_scale else '--heatmap-out'} is not read without --heatmap-column")
    if "" in (args.out, args.heatmap_out):  # Path("") is "."
        raise ValueError(f"{'--out' if args.out == '' else '--heatmap-out'} must not be empty")
    out = Path(args.out)
    # a nameless --out ("." or "/") is a directory, rejected below
    pgm = Path(args.heatmap_out) if args.heatmap_out else out.with_suffix(".pgm") if out.name else None
    outputs = [out, pgm, f"{pgm}.txt"] if args.heatmap_column is not None and pgm else [out]
    stats = [_stat(path) for path in outputs]
    if any(_same_file(out, stats[0], path, path_stat) for path, path_stat in zip(outputs[1:], stats[1:])):
        raise ValueError(f"the heatmap {pgm} or its sidecar {pgm}.txt would overwrite the CSV {out}")
    for path, path_stat in zip(outputs, stats):  # the error its write would raise, before the grid rather than after it
        if isinstance(path_stat, int):  # OSError picks the errno's subclass, as os.open raises it
            if path_stat != errno.ENOENT or not os.path.isdir(os.path.dirname(path) or "."):
                raise OSError(path_stat, os.strerror(path_stat), str(path))
        elif stat.S_ISDIR(path_stat.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tile = run_sweep(spec, workers=args.workers)
    with _overwrite(out) as handle:
        write_tile_csv(tile, handle)
    print(f"wrote {out} ({spec.nx * spec.ny} points)")
    failed = Counter(tile.status[np.isnan(tile.contrast)].tolist())
    if failed:
        counts = ", ".join(f"{name}: {n}" for name, n in sorted(failed.items()))
        print(
            f"sweep: {sum(failed.values())} of {tile.status.size} points failed ({counts})",
            file=sys.stderr,
        )
    if args.heatmap_column is not None:
        write_heatmap_pgm(tile, args.heatmap_column, pgm, args.log_scale)
        print(f"wrote {pgm} and {pgm}.txt")
    return 0


def cmd_locus_fit(args) -> int:
    if not args.out:  # a prefix "" would name "_locus.csv"
        raise ValueError("--out must not be empty")
    fixed = FixedParams(q_l=args.ql, q2=args.q2)
    if not math.isfinite(args.q3_max - args.q3_min):  # an inf or NaN end, or a width linspace would overflow
        raise ValueError("--q3-min and --q3-max must be finite with a finite width, "
                         f"got {args.q3_min!r}, {args.q3_max!r}")
    lo, hi = args.q3_min, args.q3_max
    # one q3 stays a Python float: linspace's arithmetic for one point, arange(1) * (hi - lo) + lo (-0.0 gives 0.0)
    q3_values = [0.0 * (hi - lo) + lo] if args.q3_points == 1 else np.linspace(lo, hi, args.q3_points)
    points = minimum_locus(
        q3_values,
        inv_theta_range=(args.inv_theta_min, args.inv_theta_max),
        inv_theta_points=args.inv_theta_points,
        fixed=fixed,
    )

    # every output's name as str(Path(name)) spells it: the stem's last part ends in '_', so a suffix keeps that
    stem = _posix_name(f"{args.out}_")
    locus_path, fit_path, prob_path = stem + "locus.csv", stem + "fit.txt", stem + "probabilities.csv"
    with _overwrite(locus_path) as handle:
        _write_csv(handle, "q3,inv_theta,alpha", ((p.q3, p.inv_theta, p.alpha) for p in points))
    print(f"wrote {locus_path} ({len(points)} points)")

    failed = [p for p in points if not p.bracketed]
    for p in failed:
        print(f"unbracketed: q3={_format(p.q3)}", file=sys.stderr)
    code = 0 if len(failed) <= 0.05 * len(points) else 3

    good = [(p.q3, p.inv_theta) for p in points if p.bracketed]
    try:
        left, right = fit_locus(good)
    except (ValueError, FitConvergenceError) as exc:
        for stale in (fit_path, prob_path):  # a previous run's fit, not this run's
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
        if isinstance(exc, FitConvergenceError):
            raise
        print(f"fit skipped: {exc}")
        return code

    def branch_rms(model, data):
        errs = [evaluate_fit(model, q) - v for q, v in data if model.domain[0] - 1e-12 <= q <= model.domain[1] + 1e-12]
        return math.sqrt(sum(e * e for e in errs) / len(errs))

    report = [
        f"left.a1={_format(left.params[0])}",
        f"left.a2={_format(left.params[1])}",
        f"left.a3={_format(left.params[2])}",
        f"right.b1={_format(right.params[0])}",
        f"right.b2={_format(right.params[1])}",
        f"right.b3={_format(right.params[2])}",
        f"left.eval_at_0={_format(evaluate_fit(left, 0.0))}",
        f"left.eval_at_split={_format(evaluate_fit(left, left.domain[1]))}",
        f"right.eval_at_split={_format(evaluate_fit(right, right.domain[0]))}",
        f"right.eval_at_1={_format(evaluate_fit(right, 1.0))}",
        f"left.rms={_format(branch_rms(left, good))}",
        f"right.rms={_format(branch_rms(right, good))}",
    ]
    with _overwrite(fit_path) as handle:
        handle.write("\n".join(report) + "\n")
    for line in report:
        print(line)

    trace = locus_probabilities(left, right, [q3 for q3, _ in good], fixed=fixed)
    with _overwrite(prob_path) as handle:
        rows = ((r.q3, r.prob_a, r.prob_b, r.alpha, r.phi) for r in trace)
        _write_csv(handle, "q3,prob_A,prob_B,alpha,phi", rows)
    print(f"wrote {fit_path} and {prob_path}")
    return code


def cmd_taylor_check(args) -> int:
    pol = _polarization_from_args(args)  # checked even where the scale-0 shortcut reads no beam
    if args.scale == 0.0:
        print("scale=0.0 error=0.0")
        print("order=exact (expansion coincides with the amplitude at the origin)")
        return 0
    if args.scale < 0.0:
        raise ValueError("--scale must be nonnegative")
    if not math.isfinite(args.scale):
        raise ValueError(f"--scale must be finite, got {args.scale!r}")
    scales, errors = [], []
    for k in range(args.halvings + 1):  # check every rung before printing anything
        h = math.ldexp(args.scale, -k)
        cfg = ScatterConfig(q_l=h, q2=h, q3=h)
        err = taylor_error(cfg, pol)
        matrix = spin_matrix(cfg, pol)
        if np.abs(matrix.view(float)).max() <= DEGENERATE_FLOOR:  # minimize_contrast's zero matrix
            raise ValueError(f"spin-propagation matrix is numerically zero at scale {_format(h)}")
        floor = 8.0 * np.finfo(float).eps * float(np.abs(matrix).max())
        if err <= floor:
            raise ValueError(f"the expansion's error {_format(err)} at scale {_format(h)} is at the rounding "
                             f"floor 8 eps max|M| = {_format(floor)}, where no convergence order can be read")
        scales.append(h)
        errors.append(err)
    if args.scale > DOMAIN_LIMIT:
        print(f"warning: scale {args.scale} exceeds the expansion domain ({DOMAIN_LIMIT})")
    for h, err in zip(scales, errors):
        print(f"scale={_format(h)} error={_format(err)}")
    order = float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
    print(f"order={_format(order)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose flags reject a value of '--' given after '=' (``--out=--``), as they reject
    ``--out --``: Python 3.10 and 3.11's argparse drops that '--' and stores [] without calling the flag's type.

    ``_get_values`` is argparse's private hook for a flag's strings; the check runs before argparse's own
    handling, so it does not rely on that dropping, but it was run on Python 3.11 alone (``requires-python``
    is >= 3.10).  ``test_bad_flag_value_exits_2``'s ``=--`` cases fail on any version where the hook is gone."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.nargs is None:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    """The kdspin parser, built once per process and shared by every ``main()``
    call (each ``parse_args`` returns a fresh namespace); callers must not mutate it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, tuple]]:
    """``build_parser()``, its command parsers by name, and each one's table for ``_parse_exact``: namespace defaults
    in argparse's order (actions', then ``set_defaults``), long flags that store a value or True, required dests."""
    parser = _Parser(  # its command parsers are _Parsers too
        prog="kdspin",
        description="Spin-dependent two-photon Bragg diffraction: contrast maps and fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive_int = _flag_type(parse_positive_int)

    def add_momenta(p):
        p.add_argument("--ql", type=float, default=0.02, help="photon momentum q_l (default 0.02)")
        p.add_argument("--q2", type=float, default=0.0, help="transverse momentum q2")

    def add_beams(p):
        p.add_argument(
            "--theta",
            type=_flag_type(parse_angle),
            help="left-beam ellipticity angle (radians or 'pi/4' style; default pi/4)",
        )
        p.add_argument("--pol-l", type=_flag_type(parse_polarization), default=None, metavar="RE,IM,...",
                       help="left amplitude as re,im pairs (instead of --theta)")
        p.add_argument("--pol-r", type=_flag_type(parse_polarization), default=None, metavar="RE,IM,...",
                       help="right amplitude as re,im pairs (default 0,0,0,0,1,0)")

    p_point = sub.add_parser("point", help="single configuration: matrix, contrast, angles")
    add_momenta(p_point)
    p_point.add_argument("--q3", type=float, default=0.0, help="transverse momentum q3")
    add_beams(p_point)
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV (optional P5 heatmap)")
    add_momenta(p_sweep)
    add_beams(p_sweep)  # --pol-l/--pol-r only on a q2,q3 grid
    p_sweep.set_defaults(q2=None)  # so cmd_sweep can reject --q2 or --theta when the grid's axes set it
    p_sweep.add_argument("--axes", required=True, type=lambda s: tuple(s.split(",")),
                         help="axis pair: q2,q3 or q3,theta or q3,inv_theta")
    floats = _flag_type(lambda s: [float(v) for v in s.split(",")])
    p_sweep.add_argument("--x-range", required=True, type=floats, metavar="LO,HI")
    p_sweep.add_argument("--y-range", required=True, type=floats, metavar="LO,HI")
    p_sweep.add_argument("--nx", type=int, default=201)
    p_sweep.add_argument("--ny", type=int, default=201)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--workers", type=positive_int, default=os.cpu_count() or 1,
                         help="accepted for compatibility; evaluation runs in one process")
    p_sweep.add_argument("--heatmap-column", choices=HEATMAP_COLUMNS, default=None)
    p_sweep.add_argument("--heatmap-out", default=None, help="heatmap path (default: out with .pgm)")
    p_sweep.add_argument("--log-scale", action="store_true", help="log10 heatmap mapping")
    p_sweep.set_defaults(func=cmd_sweep)

    p_locus = sub.add_parser("locus-fit", help="minimum locus over 1/theta, two-branch fit")
    add_momenta(p_locus)
    p_locus.add_argument("--q3-min", type=float, default=0.0)
    p_locus.add_argument("--q3-max", type=float, default=1.0)
    p_locus.add_argument("--q3-points", type=positive_int, default=201)
    p_locus.add_argument("--inv-theta-min", type=float, default=1.0)
    p_locus.add_argument("--inv-theta-max", type=float, default=100.0)
    p_locus.add_argument("--inv-theta-points", type=int, default=400,
                         help="accepted for compatibility (at least 3); the locus is a closed form")
    p_locus.add_argument("--out", required=True, help="output path prefix")
    p_locus.add_argument("--workers", type=positive_int, default=os.cpu_count() or 1,
                         help="accepted for compatibility; evaluation runs in one process")
    p_locus.set_defaults(func=cmd_locus_fit)

    p_taylor = sub.add_parser("taylor-check", help="convergence order of the expansion")
    add_beams(p_taylor)  # the ladder sets q_l = q2 = q3 = scale
    p_taylor.add_argument("--scale", type=float, default=1e-2,
                          help="largest momentum scale of the halving ladder")
    p_taylor.add_argument("--halvings", type=positive_int, default=4)
    p_taylor.set_defaults(func=cmd_taylor_check)

    exact = {}
    for name, p in sub.choices.items():
        defaults = {}
        for dest, value in [(a.dest, a.default) for a in p._actions] + [*p._defaults.items()]:
            if dest is not argparse.SUPPRESS and value is not argparse.SUPPRESS:
                defaults.setdefault(dest, value)
        flags = {flag: a for flag, a in p._option_string_actions.items() if flag.startswith("--")
                 and type(a) in (argparse._StoreAction, argparse._StoreTrueAction) and a.nargs in (None, 0)}
        exact[name] = defaults, flags, [a.dest for a in p._actions if a.required]
    return parser, sub.choices, exact


def _join_dashed_values(argv: list[str]) -> list[str]:
    """Merge '--flag -0.05,0.05' into '--flag=-0.05,0.05' so argparse does not
    mistake leading-dash values (negative ranges, '-pi/2') for option names."""
    joined: list[str] = []
    open_flag = False  # the last kept token is a '--flag' with no '='
    for token in argv:
        if open_flag and token.startswith("-") and not token.startswith("--"):
            joined[-1] += f"={token}"
            open_flag = False
        else:
            joined.append(token)
            open_flag = token.startswith("--") and "=" not in token
    return joined


def _parse_exact(table: tuple, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace a command's parser returns for ``tokens``, from its ``_parsers`` table, or None for argparse
    to parse them: a token not exactly a flag (help, ``--``, an abbreviation), a store_true flag given a value, a
    value missing, ``--``, dash-led in the next token or rejected by its type or choices, a missing required flag."""
    defaults, flags, required = table
    given, tokens = {}, iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        action = flags.get(flag)
        if action is None or eq and action.nargs == 0:
            return None
        if action.nargs is None:
            value = value if eq else next(tokens, "-")
            if value == "--" or value.startswith("-") and not eq:
                return None
            try:
                value = value if action.type is None else action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse reports as an error
                return None
            if action.choices is not None and value not in action.choices:
                return None
        given[action.dest] = action.const if action.nargs == 0 else value
    return argparse.Namespace(**{**defaults, **given}) if all(dest in given for dest in required) else None


def parse_argv(argv) -> argparse.Namespace:
    """``build_parser().parse_args`` of ``argv``, dashed values joined, in one pass: a first token that names
    a command goes to ``_parse_exact``, else to that command's parser alone; the top-level parser does the rest."""
    argv = _join_dashed_values(list(argv))
    parser, commands, exact = _parsers()
    if argv and argv[0] in commands:
        args = _parse_exact(exact[argv[0]], argv[1:])
        if args is None:
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one kdspin command; returns its exit code.

    ``argv`` is parsed once (``parse_argv``): an argv of exact flags with
    valid values without argparse, any other by argparse.  A
    flag value that argparse rejects (an unparsable number or angle, a count
    such as ``--workers`` below 1, '--' as in ``--out=--``, a missing required
    flag) raises
    ``SystemExit(2)`` after argparse prints its usage and ``error:`` line.
    Otherwise an exception from the command prints one ``error:`` line on
    stderr and sets the exit code: 2 for a ValueError (a rejected combination
    of values, such as an unsupported ``--axes`` pair or a non-finite momentum)
    or a MemoryError (a grid too large for memory), 3 for a
    FitConvergenceError, 4 for an OSError (an unwritable output).
    """
    if argv is None:
        argv = sys.argv[1:]
    args = parse_argv(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # invalid parameters, or a grid too large for memory
        error, code = exc, 2
    except FitConvergenceError as exc:
        error, code = exc, 3
    except OSError as exc:
        error, code = exc, 4
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
