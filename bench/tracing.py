"""Layer spans and counts for the traced run, recorded from outside the program.

``install`` wraps public functions, methods and constructors of
``leakage_lab`` at their module or class attribute, so every call the
CLI makes through that name opens a span. A span's self time is its
duration minus the time of the spans it encloses; totals are kept in
memory per layer name and read when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

# timed layers and counters, in the order BENCHMARK.json lists them
TIMED_LAYERS = (
    "simulate.trial_loop",
    "core.product_alphabet",
    "core.digit_matrix",
    "core.iid_prior",
    "simulate.learner_channel",
    "measures.empirical_dp",
    "jsonio.load",
    "core.channel_init",
    "measures.maximal_leakage",
    "measures.approx_max_information",
    "verify.soundness",
    "verify.composition",
    "verify.maxinfo",
    "cli.build_parser",
    "jsonio.dumps",
)
COUNTS = (
    "simulate.trials",
    "core.product_alphabets_built",
    "core.states_enumerated",
    "jsonio.bytes_loaded",
    "core.channels_built",
    "measures.maximal_leakage_calls",
    "measures.approx_max_information_calls",
    "verify.instances",
    "jsonio.bytes_emitted",
)


class Tracer:
    """Self time per layer and counts, for single-threaded callers."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._enclosed: list[float] = []

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as ``layer``; ``count(args, result)`` adds to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enclosed.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[layer] += elapsed - self._enclosed.pop()
                if self._enclosed:
                    self._enclosed[-1] += elapsed
            if count is not None:
                for name, amount in count(args, result):
                    self.counts[name] += amount
            return result

        return traced

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Mean self time and count per round of ``rounds`` identical rounds."""
        out = {f"{layer}_s": {"value": self.self_s[layer] / rounds, "unit": "s"}
               for layer in TIMED_LAYERS}
        for name in COUNTS:
            if self.counts[name] % rounds:
                raise RuntimeError(f"{name} = {self.counts[name]} differs between rounds")
            unit = "B" if name.startswith("jsonio.bytes") else "count"
            out[name] = {"value": self.counts[name] // rounds, "unit": unit}
        return out


def _modules():
    names = ("core", "measures", "simulate", "verify", "cli", "jsonio", "ledger", "bounds")
    return [importlib.import_module(f"leakage_lab.{name}") for name in names]


def _patch_everywhere(tracer: Tracer, home, attr: str, layer: str, count=None) -> None:
    """Replace ``home.attr`` in every leakage_lab module that imported it by name."""
    original = getattr(home, attr)
    traced = tracer.wrap(layer, original, count)
    for module in _modules():
        if getattr(module, attr, None) is original:
            setattr(module, attr, traced)


def _patch_method(tracer: Tracer, cls, attr: str, layer: str, count=None) -> None:
    setattr(cls, attr, tracer.wrap(layer, getattr(cls, attr), count))


def install(tracer: Tracer) -> None:
    from leakage_lab import cli, core, jsonio, measures, simulate, verify

    # only simulate's own binding: verify imports map_chunked for its sweeps
    simulate.map_chunked = tracer.wrap(
        "simulate.trial_loop", simulate.map_chunked,
        lambda args, _: [("simulate.trials", args[1])],
    )
    _patch_method(
        tracer, core.ProductAlphabet, "__init__", "core.product_alphabet",
        lambda args, _: [("core.product_alphabets_built", 1),
                         ("core.states_enumerated", len(args[0]))],
    )
    _patch_method(tracer, core.ProductAlphabet, "digit_matrix", "core.digit_matrix")
    _patch_method(tracer, core.Channel, "__init__", "core.channel_init",
                  lambda args, _: [("core.channels_built", 1)])
    _patch_everywhere(tracer, core, "iid_prior", "core.iid_prior")
    _patch_everywhere(tracer, simulate, "learner_channel", "simulate.learner_channel")
    _patch_everywhere(tracer, measures, "empirical_dp", "measures.empirical_dp")
    _patch_everywhere(tracer, measures, "maximal_leakage", "measures.maximal_leakage",
                      lambda args, _: [("measures.maximal_leakage_calls", 1)])
    _patch_everywhere(tracer, measures, "approx_max_information",
                      "measures.approx_max_information",
                      lambda args, _: [("measures.approx_max_information_calls", 1)])
    for suite in tuple(verify.SUITES):
        verify.SUITES[suite] = tracer.wrap(
            f"verify.{suite}", verify.SUITES[suite],
            lambda args, _: [("verify.instances", args[0])],
        )
    cli.build_parser = tracer.wrap("cli.build_parser", cli.build_parser)
    jsonio.load_path = tracer.wrap(
        "jsonio.load", jsonio.load_path,
        lambda args, _: [("jsonio.bytes_loaded", os.path.getsize(args[0]))],
    )
    jsonio.dumps = tracer.wrap(
        "jsonio.dumps", jsonio.dumps,
        lambda _, text: [("jsonio.bytes_emitted", len(text.encode("utf-8")))],
    )
