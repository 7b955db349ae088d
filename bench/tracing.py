"""Spans around the program's public layer functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
ipdhyp module that imports it (and ``HypExpression.evaluate`` on its
class); ``uninstall`` puts the originals back.  A span is
[layer, start, end, parent index, child busy time, attributes]; spans stay
in memory until ``write`` saves them.  Busy time is end - start; self time
is busy time minus the busy time of the span's direct children.
"""

from __future__ import annotations

import json
import time

import mpmath as mp

import ipdhyp
from ipdhyp import charpoly, cli, coeffs, hypeval, kernel, transforms, verify

MODULES = (ipdhyp, kernel, coeffs, charpoly, hypeval, transforms, verify, cli)

#: layer -> (defining module, public function names).
LAYERS = {
    "kernel.terminating_pfq": (kernel, ("terminating_pfq",)),
    "coeffs": (coeffs, ("coeff_C", "coeff_D", "coeff_Y", "w_poly_coeffs", "norlund_g")),
    "charpoly.build": (
        charpoly,
        ("build_Q", "build_P", "build_Qhat", "build_Phat", "build_T", "build_L", "w_poly"),
    ),
    "charpoly.find_roots": (charpoly, ("find_roots",)),
    "hypeval": (hypeval, ("eval_pfq",)),
    "transforms.assemble": (
        transforms,
        (
            "apply_mp1", "apply_mp2", "expand_to_gauss", "apply_degenerate_single",
            "apply_degenerate_p", "apply_degenerate_vector", "apply_two_free",
        ),
    ),
    "verify.sample": (verify, ("sample_params",)),
    "verify.check": (verify, ("evaluate_case",)),
    "verify.run_suite": (verify, ("run_suite",)),
    "cli": (cli, ("cli_dispatch",)),
}

LAYER, START, END, PARENT, CHILD_BUSY, ATTRS = range(6)


def _hypeval_attrs(args, kwargs, result):
    fun, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    if fun.terminal_index() is not None:
        regime = "terminating"
    elif mp.mpmathify(x) == 1:
        regime = "unit"
    else:
        regime = "geometric"
    return {"regime": regime, "terms": result.terms_used if result is not None else 0}


ATTRIBUTES = {
    "hypeval": _hypeval_attrs,
    "charpoly.find_roots": lambda args, kwargs, result: {"degree": args[0].degree},
    "verify.sample": lambda args, kwargs, result: {"cases": len(result) if result else 0},
    "verify.check": lambda args, kwargs, result: {"samples": result.samples if result else 0},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        attributes = ATTRIBUTES.get(layer)

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD_BUSY] += span[END] - span[START]
                if attributes is not None:
                    span[ATTRS] = attributes(args, kwargs, result)

        return traced

    def install(self) -> None:
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for module in MODULES:
                    if getattr(module, name, None) is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        evaluate = transforms.HypExpression.evaluate
        self._restore.append((transforms.HypExpression, "evaluate", evaluate))
        transforms.HypExpression.evaluate = self._wrap("transforms.evaluate", evaluate)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self, traced_run_s: float, untraced_run_s: float) -> dict:
        """The per-layer metrics, by name, as (value, unit)."""
        spans = self.spans

        def nested_in(span, layer):
            parent = span[PARENT]
            while parent >= 0:
                if spans[parent][LAYER] == layer:
                    return True
                parent = spans[parent][PARENT]
            return False

        def of(layer, **attrs):
            return [
                s for s in spans
                if s[LAYER] == layer and all(s[ATTRS][k] == v for k, v in attrs.items())
            ]

        def busy(selected):
            # outermost spans only, so a layer calling itself is counted once
            return sum(s[END] - s[START] for s in selected if not nested_in(s, s[LAYER]))

        def self_time(selected):
            return sum(s[END] - s[START] - s[CHILD_BUSY] for s in selected)

        out = {}
        for regime in ("geometric", "unit", "terminating"):
            selected = of("hypeval", regime=regime)
            out[f"hypeval.{regime}.calls"] = (len(selected), "count")
            out[f"hypeval.{regime}.busy_s"] = (busy(selected), "s")
            if regime == "geometric":
                terms = sum(s[ATTRS]["terms"] for s in selected)
                out["hypeval.geometric.terms"] = (terms, "count")
                out["hypeval.geometric.us_per_term"] = (
                    1e6 * busy(selected) / terms if terms else 0.0, "us",
                )
        out["hypeval.busy_share"] = (busy(of("hypeval")) / traced_run_s, "ratio")

        builds, roots = of("charpoly.build"), of("charpoly.find_roots")
        out["charpoly.build.calls"] = (len(builds), "count")
        out["charpoly.build.self_s"] = (self_time(builds), "s")
        out["charpoly.find_roots.calls"] = (len(roots), "count")
        out["charpoly.find_roots.busy_s"] = (busy(roots), "s")
        out["charpoly.find_roots.degree_sum"] = (sum(s[ATTRS]["degree"] for s in roots), "count")

        coefficient = of("coeffs")
        out["coeffs.calls"] = (len(coefficient), "count")
        out["coeffs.self_s"] = (self_time(coefficient), "s")
        terminating = of("kernel.terminating_pfq")
        out["kernel.terminating_pfq.calls"] = (len(terminating), "count")
        out["kernel.terminating_pfq.busy_s"] = (busy(terminating), "s")

        for layer in ("transforms.assemble", "transforms.evaluate"):
            selected = of(layer)
            out[f"{layer}.calls"] = (len(selected), "count")
            out[f"{layer}.self_s"] = (self_time(selected), "s")

        samples = of("verify.sample")
        cases = sum(s[ATTRS]["cases"] for s in samples)
        sampler_roots = sum(1 for s in roots if nested_in(s, "verify.sample"))
        out["verify.sample.self_s"] = (self_time(samples), "s")
        out["verify.sample.find_roots_per_case"] = (sampler_roots / cases if cases else 0.0, "ratio")
        checks = of("verify.check")
        out["verify.check.self_s"] = (self_time(checks), "s")
        out["verify.points"] = (sum(s[ATTRS]["samples"] for s in checks), "count")
        out["cli.self_s"] = (self_time(of("cli")), "s")
        out["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
        return out
