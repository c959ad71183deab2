"""Per-layer spans recorded from outside kdspin, by wrapping its functions.

Every public layer function is replaced, in every kdspin module that holds
a reference to it, by a wrapper that records one span per call: calls,
inclusive time, and self time (the span minus the time covered by its
child spans).  Spans are aggregated in memory per layer name; nothing in
kdspin itself changes, and ``Tracer.uninstall`` restores the originals.

Only calls in this process are seen, so traced runs use ``--workers 1``.
"""

from __future__ import annotations

import importlib
from time import perf_counter

#: kdspin modules whose attributes may reference a layer function
MODULES = (
    "kdspin",
    "kdspin.kinematics",
    "kdspin.dirac",
    "kdspin.compton",
    "kdspin.contrast",
    "kdspin.taylor",
    "kdspin.sweep",
    "kdspin.cli",
)

#: (defining module, function) of every traced layer boundary
LAYERS = (
    ("kinematics", "build_kinematics"),
    ("dirac", "bispinor_u"),
    ("compton", "compton_tensor"),
    ("compton", "contract_polarization"),
    ("compton", "elliptic_polarization"),
    ("compton", "spin_matrix"),
    ("contrast", "minimize_contrast"),
    ("sweep", "run_sweep"),
    ("sweep", "minimum_locus"),
    ("sweep", "fit_locus"),
    ("sweep", "locus_probabilities"),
    ("cli", "write_tile_csv"),
    ("cli", "write_heatmap_pgm"),
)


class Span:
    """Aggregate of all spans of one layer."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs span-recording wrappers over the kdspin layer functions.

    Besides spans it keeps layer counters read from the wrapped calls:
    Newton iterations and non-converged results of ``minimize_contrast``,
    minimizations and unbracketed points under ``minimum_locus``, and the
    bytes ``write_tile_csv`` wrote.
    """

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, float] = {
            "newton_iters": 0,
            "nonconverged": 0,
            "locus_points": 0,
            "locus_minimizations": 0,
            "unbracketed": 0,
            "csv_bytes": 0,
        }
        self._child_time: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _wrap(self, name: str, func):
        record = self.span(name)
        stack = self._child_time
        before = getattr(self, "_before_" + func.__name__, None)
        after = getattr(self, "_after_" + func.__name__, None)

        def traced(*args, **kwargs):
            token = before() if before else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                record.calls += 1
                record.total_s += elapsed
                record.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after:
                after(args, result, token)
            return result

        return traced

    # counters read at the layer boundaries ---------------------------------

    def _after_minimize_contrast(self, args, result, token) -> None:
        self.counters["newton_iters"] += result.iterations
        if not result.status.value.startswith("converged"):
            self.counters["nonconverged"] += 1

    def _before_minimum_locus(self):
        return self.span("contrast.minimize_contrast").calls

    def _after_minimum_locus(self, args, result, token) -> None:
        self.counters["locus_points"] += len(result)
        self.counters["locus_minimizations"] += self.span("contrast.minimize_contrast").calls - token
        self.counters["unbracketed"] += sum(1 for p in result if not p.bracketed)

    def _after_write_tile_csv(self, args, result, token) -> None:
        self.counters["csv_bytes"] += args[1].tell()

    # installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, attr in self.layers:
            func = getattr(importlib.import_module("kdspin." + module_name), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", func)
            for module in modules:
                if getattr(module, attr, None) is func:
                    self._saved.append((module, attr, func))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
