"""The three kdspin benchmark workloads, timed from outside the package.

Each workload drives kdspin through ``kdspin.cli.main`` or its public
functions.  An untraced run first runs the workload's whole command once,
which gives the outputs that are checked point by point against the closed
forms in ``oracle``.  It then times short *requests* cut from that
command: a two-row strip of the tile, one q3 point of the locus, one point
of the stream.  The requests repeat in rounds, and each request is
summarized by its fastest repeat (see ``Workload.end_to_end``).
``Workload.traced`` reruns the whole command with ``--workers 1`` under
``tracer.Tracer`` and reports per-layer numbers instead.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

Q_L = 0.02
TILE_X = (-0.05, 0.05)
TILE_Y = (0.95, 1.05)
TILE_THETA = math.pi / 4.0
INV_THETA_RANGE = (1.0, 100.0)

#: fresh interpreters started per run to time ``import kdspin``; between
#: rounds one is started every SETUP_EVERY_S
SETUP_REPS = 9
SETUP_EVERY_S = 3.0
#: requests timed per run (drawn from the seed), and the fewest rounds over them
TILE_REQUESTS = 5
LOCUS_REQUESTS = 4
STREAM_REQUESTS = 1000
MIN_ROUNDS = 3
#: requests and rounds, alternating untraced and traced, behind trace.overhead_frac
OVERHEAD_REQUESTS = 4
OVERHEAD_ROUNDS = 12
#: a run is incorrect once more than this share of its points miss the closed
#: form or report non-convergence; fewer are reported in exact_frac and
#: converged_frac, which carry their own bounds
ERROR_BUDGET = 1e-3
#: RSS sampling period of the whole command
RSS_PERIOD_S = 0.05


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -------------------------------------------------------------------------
# measurement helpers


def _sub_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(reps: int) -> list[float]:
    """Wall time of fresh interpreters that run ``import kdspin``."""
    env = _sub_env()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kdspin"], env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


_IMPORT_SPLIT = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import kdspin; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def import_split(reps: int) -> tuple[float, float]:
    """Median seconds spent importing numpy, then kdspin, in fresh interpreters."""
    numpy_s, kdspin_s = [], []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_SPLIT],
            env=_sub_env(), check=True, cwd=ROOT, capture_output=True, text=True,
        ).stdout.split()
        numpy_s.append(float(out[0]))
        kdspin_s.append(float(out[1]))
    return statistics.median(numpy_s), statistics.median(kdspin_s)


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children", encoding="ascii") as handle:
                    kids = [int(v) for v in handle.read().split()]
            except FileNotFoundError:
                continue
            found.extend(kids)
            todo.extend(kids)
    return found


class RssSampler:
    """Peak of this process's VmRSS plus its descendants' (pool workers).

    Samples every ``RSS_PERIOD_S`` on a daemon thread while active.  Shared
    pages of forked workers count once per process.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        me = os.getpid()
        total = _rss_kb(me) + sum(_rss_kb(pid) for pid in _descendants(me))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._stop.clear()
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def run_cli(argv: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one ``kdspin.cli.main`` call, stdout muted."""
    from kdspin import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return time.perf_counter() - start, code


def environment(seed: int) -> dict:
    """Host, toolchain and code identity recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the benchmark also runs from plain source exports
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -------------------------------------------------------------------------
# points and their check


@dataclass
class Tally:
    """Point counts of one run.

    ``failed`` points failed outright (``failed_*`` status, unbracketed,
    lost rows); ``nonconverged`` ones report another non-converged status;
    ``wrong`` ones miss the closed form.  ``problems`` lists failed
    structural checks.
    """

    attempted: int = 0
    failed: int = 0
    nonconverged: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def add_points(self, status, misses) -> None:
        self.attempted += len(status)
        self.failed += sum(1 for s in status if s.startswith("failed"))
        self.nonconverged += sum(1 for s in status if not s.startswith(("converged", "failed")))
        self.wrong += int(np.count_nonzero(misses))

    @property
    def fail_count(self) -> int:
        return self.failed + self.nonconverged

    @property
    def correct(self) -> bool:
        return (
            not self.problems
            and self.failed == 0
            and self.attempted > 0
            and max(self.wrong, self.fail_count) <= ERROR_BUDGET * self.attempted
        )


def point_call(q2: float, q3: float, theta: float) -> tuple[int, tuple]:
    """One ``minimize_contrast(spin_matrix(...))`` call, as in the README.

    Returns its latency (ns) and (contrast, prob_A, prob_B, status).  Looks
    the functions up on the package at call time, so a tracer's wrappers
    apply.
    """
    import kdspin

    start = time.perf_counter_ns()
    try:
        cfg = kdspin.ScatterConfig(q_l=Q_L, q2=q2, q3=q3)
        res = kdspin.minimize_contrast(kdspin.spin_matrix(cfg, kdspin.elliptic_polarization(theta)))
    except (ValueError, ArithmeticError) as exc:
        return time.perf_counter_ns() - start, (math.nan, math.nan, math.nan, f"failed_{type(exc).__name__}")
    lat = time.perf_counter_ns() - start
    return lat, (res.value, res.prob_a, res.prob_b, res.status.value)


def point_calls(q2, q3, theta):
    """``point_call`` over arrays: latencies (ns), contrast, prob_A, prob_B, status."""
    lat = np.empty(len(q2), dtype=np.int64)
    outputs = []
    for i in range(len(q2)):
        lat[i], out = point_call(float(q2[i]), float(q3[i]), float(theta[i]))
        outputs.append(out)
    value, prob_a, prob_b = (np.array([o[k] for o in outputs], dtype=float) for k in range(3))
    return lat, value, prob_a, prob_b, [o[3] for o in outputs]


def check_points(tally: Tally, q2, q3, theta, value, prob_a, prob_b, status) -> None:
    m = oracle.spin_matrices(Q_L, q2, q3, oracle.elliptic_left(theta), oracle.RIGHT_Z)
    tally.add_points(status, oracle.contrast_misses(value, prob_a, prob_b, m))


# -------------------------------------------------------------------------
# workloads


@dataclass
class Settings:
    seed: int
    seconds: float
    small: bool = False


class Workload:
    """Common runner: whole command, timed request rounds, check, report.

    A request is a short piece of the workload's command, with an output
    that must equal that piece of the whole command's output.  The run
    draws its requests from the seed and repeats them in rounds, in a new
    order each round, until ``--seconds`` have been spent in them.
    """

    name = ""
    pool_speedup = 0.0  # workloads without a process pool report 0

    def __init__(self, settings: Settings) -> None:
        self.s = settings
        self.tally = Tally()
        self.rng = np.random.default_rng(settings.seed)
        self.run_id = f"{self.name}-{settings.seed}-{os.getpid()}"
        self.dir = WORK / self.run_id
        self.dir.mkdir(parents=True, exist_ok=True)

    # hooks ------------------------------------------------------------
    def command(self, workers: int) -> float:
        """Run the whole command once; returns its wall time in seconds."""
        raise NotImplementedError

    def requests(self) -> list:
        """The run's requests, drawn from the seed; called before ``command``."""
        raise NotImplementedError

    def request(self, key) -> float:
        """Run one request; returns its latency in seconds.  Checks its output untimed."""
        raise NotImplementedError

    def check(self) -> None:
        """Check the outputs of the whole command against the closed forms."""
        raise NotImplementedError

    def warm(self) -> None:
        """Warm this process up on a small input (the traced run's first step)."""
        raise NotImplementedError

    # shared ------------------------------------------------------------
    def rounds(self, keys: list, setup: list[float]) -> tuple[np.ndarray, int]:
        """Time ``keys`` in rounds until ``--seconds`` have been spent in them.

        Returns each request's fastest latency and the number of rounds.
        Round r runs pinned to the r-th CPU of this process's affinity set
        (cycling), so its repeats meet each CPU's contention.  Between
        rounds, one set-up time is appended to ``setup`` every
        ``SETUP_EVERY_S``, with the full affinity set.
        """
        cpus = sorted(os.sched_getaffinity(0))
        best = np.full(len(keys), math.inf)
        spent, done = 0.0, 0
        last_setup = time.perf_counter()
        try:
            while done < MIN_ROUNDS or spent < self.s.seconds:
                os.sched_setaffinity(0, {cpus[done % len(cpus)]})
                for i in self.rng.permutation(len(keys)):
                    latency = self.request(keys[i])
                    best[i] = min(best[i], latency)
                    spent += latency
                os.sched_setaffinity(0, cpus)
                done += 1
                if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    setup += setup_times(1)
                    last_setup = time.perf_counter()
        finally:
            os.sched_setaffinity(0, cpus)
        return best, done

    def end_to_end(self) -> tuple[dict, dict]:
        setup = setup_times(SETUP_REPS // 3)
        keys = self.requests()
        with RssSampler() as rss:
            command_s = self.command(nproc())
        self.request(keys[0])  # warm-up
        best, rounds = self.rounds(keys, setup)
        setup += setup_times(max(0, SETUP_REPS - len(setup)))
        self.check()
        # Other tenants of a shared host slow each CPU by up to about 2x in
        # spells of a second or so.  A request's fastest repeat, over rounds
        # spread across the run on alternating CPUs, tracks the code's own speed.
        best_ms = best * 1e3
        t = self.tally
        metrics = {
            "latency_p50_ms": (float(np.percentile(best_ms, 50)), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss.peak_mb, "MB"),
            "converged_frac": (1.0 - t.fail_count / t.attempted, "ratio"),
            "exact_frac": (1.0 - t.wrong / t.attempted, "ratio"),
        }
        details = {
            "command_wall_s": command_s,
            "requests": len(keys),
            "rounds": rounds,
            "latency_p90_ms": float(np.percentile(best_ms, 90)),
            "latency_p99_ms": float(np.percentile(best_ms, 99)),
            "latency_max_ms": float(best_ms.max()),
            "request_best_ms": {str(k): round(float(v), 4) for k, v in zip(keys, best_ms)},
            "setup_samples_s": setup,
        }
        return metrics, details

    def traced(self) -> dict:
        """Per-layer metrics of one traced ``--workers 1`` command."""
        imports = import_split(SETUP_REPS)
        keys = self.requests()
        self.warm()
        self.time_pool()
        with Tracer() as tracer:
            traced = self.command(1)
        self.check()
        return layer_metrics(
            tracer, traced, self.trace_overhead(keys), *imports, pool_speedup=self.pool_speedup
        )

    def time_pool(self) -> None:
        """Untraced commands behind ``pool_speedup``; only a workload with a pool has them."""

    def trace_overhead(self, keys: list) -> float:
        """Tracing overhead: traced over untraced latency of the same requests, minus 1.

        The requests alternate untraced and traced, in rounds, and each side
        keeps its fastest repeat (as in ``rounds``); the result is the median
        over requests.
        """
        keys = keys[:OVERHEAD_REQUESTS]
        best = np.full((2, len(keys)), math.inf)
        for r in range(OVERHEAD_ROUNDS):
            for i, key in enumerate(keys):
                for traced in (r % 2, 1 - r % 2):
                    with Tracer() if traced else contextlib.nullcontext():
                        best[traced, i] = min(best[traced, i], self.request(key))
        return float(np.median(best[1] / best[0])) - 1.0


# tile ---------------------------------------------------------------------


class Tile(Workload):
    """The README reference tile through ``kdspin sweep``.

    A request is a strip of the tile through the same command with
    ``--workers 1``: two adjacent rows, every ``stride``-th column.  The
    coarser full-width grid hits the tile's columns exactly, so the strip's
    CSV lines must equal the whole tile's.
    """

    name = "tile-q2q3"

    def __init__(self, settings: Settings) -> None:
        super().__init__(settings)
        self.n = 21 if settings.small else 201
        self.stride = 2 if settings.small else 5
        self.ys = np.linspace(*TILE_Y, self.n)
        self.out = self.dir / "tile.csv"
        self.strip_out = self.dir / "strip.csv"
        self.lines: list[str] = []
        self.sweep_s: dict[int, float] = {}  # run_sweep seconds by worker count

    def argv(self, n: int, workers: int, out: Path, y_range=TILE_Y, ny=None) -> list[str]:
        return [
            "sweep", "--axes", "q2,q3",
            "--x-range", f"{TILE_X[0]},{TILE_X[1]}", "--y-range", f"{y_range[0]!r},{y_range[1]!r}",
            "--theta", "pi/4", "--nx", str(n), "--ny", str(ny or n),
            "--heatmap-column", "contrast", "--log-scale",
            "--workers", str(workers), "--out", str(out),
        ]

    def warm(self) -> None:
        run_cli(self.argv(21, 1, self.dir / "warm.csv"))

    def command(self, workers: int) -> float:
        wall, code = run_cli(self.argv(self.n, workers, self.out))
        if code != 0:
            self.tally.problems.append(f"sweep exited {code}")
        self.lines = self.out.read_text(encoding="ascii").splitlines()
        return wall

    def requests(self) -> list:
        count = 4 if self.s.small else TILE_REQUESTS
        return sorted(int(j) for j in self.rng.choice(self.n - 1, count, replace=False))

    def request(self, j: int) -> float:
        y_range = (float(self.ys[j]), float(self.ys[j + 1]))
        wall, code = run_cli(self.argv((self.n - 1) // self.stride + 1, 1, self.strip_out, y_range, 2))
        if code != 0:
            self.tally.problems.append(f"strip sweep exited {code}")
        elif self.strip_out.read_text(encoding="ascii").splitlines() != self.lines[:1] + [
            line for row in (j, j + 1) for line in self.lines[1 + row * self.n: 1 + (row + 1) * self.n: self.stride]
        ]:
            self.tally.problems.append(f"strip of rows {j}, {j + 1} differs from the whole tile")
        return wall

    def check(self) -> None:
        t = self.tally
        rows = list(csv.reader(self.lines))
        if rows[0] != ["x", "y", "contrast", "alpha", "phi", "prob_A", "prob_B", "status"]:
            t.problems.append(f"unexpected CSV header {rows[0]}")
        rows = rows[1:]
        expected = self.n * self.n
        if len(rows) != expected:
            t.problems.append(f"CSV has {len(rows)} rows, expected {expected}")
            t.attempted += expected
            t.failed += abs(expected - len(rows))
            return
        grid_x = np.tile(np.linspace(*TILE_X, self.n), self.n)
        grid_y = np.repeat(self.ys, self.n)
        cols = np.array([[float(v) for v in r[:7]] for r in rows])
        if not (np.array_equal(cols[:, 0], grid_x) and np.array_equal(cols[:, 1], grid_y)):
            t.problems.append("CSV grid coordinates are not the requested linspace grid")
        m = oracle.spin_matrices(Q_L, grid_x, grid_y, oracle.elliptic_left(TILE_THETA), oracle.RIGHT_Z)
        t.add_points([r[7] for r in rows], oracle.contrast_misses(cols[:, 2], cols[:, 5], cols[:, 6], m))
        pgm = self.out.with_suffix(".pgm")
        header = f"P5\n{self.n} {self.n}\n255\n".encode("ascii")
        data = pgm.read_bytes()
        if not data.startswith(header) or len(data) != len(header) + expected:
            t.problems.append("heatmap P5 file has a wrong header or size")
        if not Path(str(pgm) + ".txt").is_file():
            t.problems.append("heatmap sidecar missing")

    def time_pool(self) -> None:
        """Untraced commands at nproc, 1, 1 and nproc workers, timing ``run_sweep``.

        The symmetric order cancels a steady drift of host speed.
        """
        for workers in (nproc(), 1, 1, nproc()):
            with Tracer(layers=(("sweep", "run_sweep"),)) as stopwatch:
                self.command(workers)
            self.sweep_s[workers] = self.sweep_s.get(workers, 0.0) + stopwatch.span("sweep.run_sweep").total_s

    @property
    def pool_speedup(self) -> float:
        return self.sweep_s[1] / self.sweep_s[nproc()]


# locus --------------------------------------------------------------------


class Locus(Workload):
    """The default ``kdspin locus-fit`` run: locus, two-branch fit, trace.

    A request is one q3 point of the locus, through the same command with
    ``--q3-points 1 --workers 1`` (too few points to fit, so only the locus
    search and its CSV run).
    """

    name = "locus-fit"
    #: q3 grid (low, high, points) of the default command and of small runs;
    #: the small one keeps five points on each side of the branch split (a fit needs four)
    Q3_FULL = (0.0, 1.0, 201)
    Q3_SMALL = (0.8, 1.0, 9)

    def __init__(self, settings: Settings) -> None:
        super().__init__(settings)
        self.q3 = self.Q3_SMALL if settings.small else self.Q3_FULL
        self.q3_values = np.linspace(*self.q3)
        self.prefix = self.dir / "locus"
        self.point_prefix = self.dir / "point"
        self.locus_lines: list[str] = []

    def argv(self, workers: int, prefix: Path, q3) -> list[str]:
        lo, hi, n = q3
        return [
            "locus-fit", "--q3-min", repr(lo), "--q3-max", repr(hi), "--q3-points", str(n),
            "--workers", str(workers), "--out", str(prefix),
        ]

    def warm(self) -> None:
        run_cli(self.argv(1, self.dir / "warm", self.Q3_SMALL))

    def command(self, workers: int) -> float:
        wall, code = run_cli(self.argv(workers, self.prefix, self.q3))
        if code != 0:
            self.tally.problems.append(f"locus-fit exited {code}")
        self.locus_lines = Path(f"{self.prefix}_locus.csv").read_text(encoding="ascii").splitlines()
        return wall

    def requests(self) -> list:
        count = LOCUS_REQUESTS if not self.s.small else 4
        return sorted(int(i) for i in self.rng.choice(self.q3[2], count, replace=False))

    def request(self, i: int) -> float:
        q3 = float(self.q3_values[i])
        wall, code = run_cli(self.argv(1, self.point_prefix, (q3, q3, 1)))
        if code != 0:
            self.tally.problems.append(f"locus-fit at q3 = {q3!r} exited {code}")
        elif Path(f"{self.point_prefix}_locus.csv").read_text(encoding="ascii").splitlines() != (
            [self.locus_lines[0], self.locus_lines[1 + i]]
        ):
            self.tally.problems.append(f"locus point q3 = {q3!r} differs from the whole locus")
        return wall

    def check(self) -> None:
        t = self.tally
        locus_path, fit_path, prob_path = (
            Path(f"{self.prefix}{suffix}") for suffix in ("_locus.csv", "_fit.txt", "_probabilities.csv")
        )
        with open(locus_path, encoding="ascii", newline="") as handle:
            rows = list(csv.reader(handle))
        lo, hi, n = self.q3
        t.attempted += n
        if rows[0] != ["q3", "inv_theta", "alpha"] or len(rows) != n + 1:
            t.problems.append("locus CSV has a wrong header or row count")
            t.failed += n
            return
        q3 = np.array([float(r[0]) for r in rows[1:]])
        inv = np.array([float(r[1]) for r in rows[1:]])
        if not np.array_equal(q3, self.q3_values):
            t.problems.append("locus q3 values are not the requested grid")
        exact = oracle.locus_roots(Q_L, 0.0, q3)
        inside = (exact > INV_THETA_RANGE[0]) & (exact < INV_THETA_RANGE[1])
        bracketed = np.isfinite(inv)
        # an unbracketed point is an outright failure; a bracketed one is
        # wrong when it misses the root, or when no root lies in range
        t.failed += int(np.count_nonzero(~bracketed))
        with np.errstate(invalid="ignore"):
            wrong = bracketed & ~(inside & (np.abs(inv - exact) <= oracle.LOCUS_ATOL))

        fit = dict(line.split("=", 1) for line in fit_path.read_text(encoding="ascii").split())
        left = [float(fit[f"left.a{i}"]) for i in (1, 2, 3)]
        right = [float(fit[f"right.b{i}"]) for i in (1, 2, 3)]
        with open(prob_path, encoding="ascii", newline="") as handle:
            prows = list(csv.reader(handle))
        if prows[0] != ["q3", "prob_A", "prob_B", "alpha", "phi"] or len(prows) - 1 != int(bracketed.sum()):
            t.problems.append("probability CSV has a wrong header or row count")
            t.wrong += int(np.count_nonzero(wrong))
            return
        pq3, prob_a, prob_b = (np.array([float(r[i]) for r in prows[1:]]) for i in (0, 1, 2))
        fitted = np.where(
            pq3 <= 0.9,  # the branch split of the fit
            left[0] + left[1] * np.sqrt(pq3**2 + left[2]),
            right[0] + right[1] * np.sqrt((pq3 - 1.0) ** 2 + right[2]),
        )
        m = oracle.spin_matrices(Q_L, 0.0, pq3, oracle.elliptic_left(1.0 / fitted), oracle.RIGHT_Z)
        _, lam_min, lam_max = oracle.eigen_contrast(m)
        with np.errstate(invalid="ignore"):
            prob_ok = (np.abs(prob_a - lam_min) <= oracle.PROB_RTOL * lam_max) & (
                np.abs(prob_b - lam_max) <= oracle.PROB_RTOL * lam_max
            )
        # a q3 point counts once, whether its locus value or its trace row misses
        wrong[np.flatnonzero(bracketed)] |= ~prob_ok
        t.wrong += int(np.count_nonzero(wrong))


# point stream ---------------------------------------------------------------


class Stream(Workload):
    """Closed loop, one client: independent random N = 1 point evaluations.

    A request is one point.  The whole command is one pass over the run's
    points; every request must repeat that pass's output for its point.
    """

    name = "point-stream"

    def __init__(self, settings: Settings) -> None:
        super().__init__(settings)
        self.count = 50 if settings.small else STREAM_REQUESTS
        self.points: list[tuple[float, float, float]] = []
        self.outputs: list[tuple] = []

    @staticmethod
    def draw(rng: np.random.Generator, n: int):
        """n independent configurations (q2, q3, theta)."""
        return (
            rng.uniform(-0.05, 0.05, n),
            rng.uniform(0.0, 1.05, n),
            rng.uniform(0.0, math.pi / 2.0, n),
        )

    def warm(self) -> None:
        point_calls(*self.draw(np.random.default_rng([self.s.seed, 1]), 200))

    def requests(self) -> list:
        self.points = [tuple(map(float, p)) for p in zip(*self.draw(self.rng, self.count))]
        return list(range(self.count))

    def command(self, workers: int) -> float:
        start = time.perf_counter()
        self.outputs = [point_call(*point)[1] for point in self.points]
        return time.perf_counter() - start

    def request(self, i: int) -> float:
        lat, out = point_call(*self.points[i])
        first = self.outputs[i]
        if out != first and not (math.isnan(out[0]) and math.isnan(first[0])):
            self.tally.problems.append(f"point {self.points[i]} gave {out}, the whole pass {first}")
        return lat / 1e9

    def check(self) -> None:
        q2, q3, theta = (np.array(col) for col in zip(*self.points))
        value, prob_a, prob_b = (np.array([out[k] for out in self.outputs]) for k in range(3))
        check_points(self.tally, q2, q3, theta, value, prob_a, prob_b, [out[3] for out in self.outputs])


WORKLOADS = {cls.name: cls for cls in (Tile, Locus, Stream)}


# -------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(
    tracer: Tracer, traced_s: float, overhead_frac: float, numpy_s: float, kdspin_s: float,
    pool_speedup: float = 0.0,
) -> dict:
    """Per-layer metrics of one traced run, in the order BENCHMARK.json lists them.

    Layers the workload does not exercise report 0, pool_speedup included.
    """
    sp = tracer.span
    c = tracer.counters

    def per_call(name: str) -> float:
        s = sp(name)
        return s.total_s / s.calls * 1e6 if s.calls else 0.0

    minimize = sp("contrast.minimize_contrast")
    tensor = sp("compton.compton_tensor")
    locus_points = c["locus_points"]
    return {
        "compton.compton_tensor.calls": (tensor.calls, "count"),
        "compton.compton_tensor.self_s": (tensor.self_s, "s"),
        "compton.compton_tensor.us_per_call": (per_call("compton.compton_tensor"), "us"),
        "compton.compton_tensor.share": (tensor.total_s / traced_s, "ratio"),
        "dirac.bispinor_u.calls": (sp("dirac.bispinor_u").calls, "count"),
        "dirac.bispinor_u.us_per_call": (per_call("dirac.bispinor_u"), "us"),
        "kinematics.build_kinematics.us_per_call": (per_call("kinematics.build_kinematics"), "us"),
        "compton.contract_polarization.calls": (sp("compton.contract_polarization").calls, "count"),
        "compton.contract_polarization.us_per_call": (per_call("compton.contract_polarization"), "us"),
        "compton.elliptic_polarization.calls": (sp("compton.elliptic_polarization").calls, "count"),
        "compton.elliptic_polarization.us_per_call": (per_call("compton.elliptic_polarization"), "us"),
        "contrast.minimize_contrast.calls": (minimize.calls, "count"),
        "contrast.minimize_contrast.self_s": (minimize.self_s, "s"),
        "contrast.minimize_contrast.us_per_call": (per_call("contrast.minimize_contrast"), "us"),
        "contrast.minimize_contrast.share": (minimize.total_s / traced_s, "ratio"),
        "contrast.minimize_contrast.newton_iters_mean": (
            c["newton_iters"] / minimize.calls if minimize.calls else 0.0, "count"),
        "contrast.minimize_contrast.nonconverged": (c["nonconverged"], "count"),
        "sweep.minimum_locus.self_s": (sp("sweep.minimum_locus").self_s, "s"),
        "sweep.minimum_locus.minimizations_per_point": (
            c["locus_minimizations"] / locus_points if locus_points else 0.0, "count"),
        "sweep.minimum_locus.unbracketed": (c["unbracketed"], "count"),
        "sweep.fit_locus.s": (sp("sweep.fit_locus").total_s, "s"),
        "sweep.locus_probabilities.s": (sp("sweep.locus_probabilities").total_s, "s"),
        "sweep.run_sweep.self_s": (sp("sweep.run_sweep").self_s, "s"),
        "sweep.run_sweep.pool_speedup": (pool_speedup, "ratio"),
        "cli.write_tile_csv.s": (sp("cli.write_tile_csv").total_s, "s"),
        "cli.write_tile_csv.bytes": (c["csv_bytes"], "bytes"),
        "cli.write_heatmap_pgm.s": (sp("cli.write_heatmap_pgm").total_s, "s"),
        "import.numpy_s": (numpy_s, "s"),
        "import.kdspin_s": (kdspin_s, "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
