"""Span tracer for the traced benchmark run.

Wraps the public functions of each giasim module, and the LAPACK entry points
of ``numpy.linalg``, by patching the module attribute their caller looks up
at call time. Nothing in the package changes; the end-to-end run (``--trace 0``)
never imports this file.

Two kinds of span are recorded, aggregated in memory per name:

- layer spans (``system.*``, ``gia.*``, ``assignment.*``, ``feedback.*``,
  ``harness.*``): calls, inclusive time and self time. Self time excludes
  nested layer spans only, so the layer self times partition the sweep.
- kernel spans (``linalg.*``): calls and time. They are counted at the
  ``numpy.linalg`` boundary and do not subtract from the enclosing layer,
  giving a second, orthogonal split of the same wall time into LAPACK and
  everything else.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

ROOT_SPAN = "harness.run_sweep"

# span name -> (module, attribute) pairs, patched where the caller looks them up:
# harness imports draw_channels by name, everything else is reached through
# its module (gia.*, asg.*, fb.*) or by a module-global name inside harness.
LAYER_PATCHES = {
    "system.draw_channels": (("giasim.harness", "draw_channels"),),
    "gia.build_potentials": (("giasim.gia", "build_potentials"),),
    "gia.build_transceivers": (("giasim.gia", "build_transceivers"),),
    "gia.user_rate": (("giasim.gia", "user_rate"),),
    "assignment.build_preferences": (("giasim.assignment", "build_preferences"),),
    "assignment.match": (
        ("giasim.assignment", "fca_match"),
        ("giasim.assignment", "gale_shapley"),
        ("giasim.assignment", "breaking_step"),
    ),
    "assignment.centralized_search": (("giasim.assignment", "centralized_search"),),
    "assignment.is_stable": (("giasim.assignment", "is_stable"),),
    "feedback.omega_matrix": (("giasim.feedback", "omega_matrix"),),
    "feedback.allocate": (
        ("giasim.feedback", "dba_allocate"),
        ("giasim.feedback", "eba_allocate"),
    ),
    "feedback.quantize": (("giasim.feedback", "quantize"),),
    "feedback.model_quantize": (("giasim.feedback", "model_quantize"),),
    "feedback.generate_codebook": (("giasim.feedback", "generate_codebook"),),
    "feedback.quantized_decoder": (("giasim.feedback", "quantized_decoder"),),
    "feedback.rinr": (
        ("giasim.feedback", "rinr"),
        ("giasim.feedback", "rinr_upper_bound"),
    ),
    "harness.throughput": (("giasim.harness", "throughput"),),
    "harness.baselines": (
        ("giasim.harness", "baseline_rb"),
        ("giasim.harness", "baseline_fdma"),
    ),
}

KERNEL_PATCHES = {
    "linalg.svd": (("numpy.linalg", "svd"),),
    "linalg.eigh": (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh")),
    "linalg.solve": (("numpy.linalg", "solve"),),
}


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregated span statistics plus the stability-oracle verdict count."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in (ROOT_SPAN, *LAYER_PATCHES, *KERNEL_PATCHES)}
        self.unstable = 0
        self._child_time = []  # one accumulator per open layer span

    def layer(self, name: str, fn):
        stats = self.stats[name]
        stack = self._child_time

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - nested

        return wrapper

    def kernel(self, name: str, fn):
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stats.calls += 1
                stats.total += time.perf_counter() - t0

        return wrapper

    def stability_oracle(self, fn):
        def wrapper(*args, **kwargs):
            verdict = fn(*args, **kwargs)
            if verdict is False:
                self.unstable += 1
            return verdict

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every span in, and restore the originals on exit.

        A missing attribute is an error: patching would otherwise create it
        and the span would silently never fire.
        """
        saved = []
        try:
            for table, wrap in ((LAYER_PATCHES, self.layer), (KERNEL_PATCHES, self.kernel)):
                for name, targets in table.items():
                    for module_name, attr in targets:
                        module = importlib.import_module(module_name)
                        if not hasattr(module, attr):
                            raise AttributeError(
                                f"span {name}: {module_name}.{attr} does not exist"
                            )
                        original = getattr(module, attr)
                        patched = wrap(name, original)
                        if name == "assignment.is_stable":
                            patched = self.stability_oracle(patched)
                        saved.append((module, attr, original))
                        setattr(module, attr, patched)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_root(self, fn, *args, **kwargs):
        """Call fn as the root span (the public sweep entry point)."""
        return self.layer(ROOT_SPAN, fn)(*args, **kwargs)

    def metrics(self, trials: int) -> dict:
        """Per-layer metrics normalized per trial, as (value, unit) pairs."""
        s = self.stats
        root = s[ROOT_SPAN]
        out = {}

        def calls(name):
            out[f"{name}.calls_per_trial"] = (s[name].calls / trials, "calls/trial")

        def ms(name, seconds=None):
            value = s[name].self_time if seconds is None else seconds
            out[f"{name}.ms_per_trial"] = (1e3 * value / trials, "ms/trial")

        for name in ("system.draw_channels", "gia.build_potentials",
                     "gia.build_transceivers", "gia.user_rate"):
            calls(name)
            ms(name)
        for name in ("assignment.build_preferences", "assignment.match",
                     "assignment.centralized_search", "assignment.is_stable"):
            ms(name)
        out["assignment.is_stable.unstable"] = (self.unstable, "count")
        for name in ("feedback.omega_matrix", "feedback.allocate"):
            ms(name)
        for name in ("feedback.quantize", "feedback.model_quantize",
                     "feedback.generate_codebook"):
            calls(name)
            ms(name)
        searches = s["feedback.quantize"].calls
        hit_ratio = 1.0 - s["feedback.generate_codebook"].calls / searches if searches else 0.0
        out["feedback.codebook_hit_ratio"] = (hit_ratio, "ratio")
        for name in ("feedback.quantized_decoder", "feedback.rinr",
                     "harness.throughput", "harness.baselines"):
            ms(name)
        out["harness.self_ms_per_trial"] = (1e3 * root.self_time / trials, "ms/trial")
        for name in ("linalg.svd", "linalg.eigh"):
            calls(name)
            ms(name, s[name].total)
        calls("linalg.solve")
        lapack = sum(s[name].total for name in KERNEL_PATCHES)
        out["linalg.lapack_share"] = (lapack / root.total, "ratio")
        out["trace.span_coverage"] = (1.0 - root.self_time / root.total, "ratio")
        return out

    def silent(self, required) -> list:
        """Names in ``required`` whose span never fired."""
        return [name for name in required if self.stats[name].calls == 0]
