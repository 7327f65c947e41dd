"""Span tracing of tanglekit from outside the library.

Hooks replace functions of the program's modules with timing wrappers
for the length of a traced phase and put the originals back afterwards;
the library itself is never edited.  A function imported by name into
other modules (``from .bracket import bracket_vector``) is replaced in
every tanglekit module that holds it, so calls through any of those
names are seen.

Each call of a hooked function is a span: name, start, end and the index
of the enclosing span.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus the time of the
hooked calls nested directly inside it.  Ring arithmetic is called far
too often to keep every span, so those hooks are leaves: their time and
counts are added up and subtracted from the enclosing span's self time,
but no span is stored for them.

A hook whose target no longer exists is reported as missing, and the
metrics that depend on it are reported as 0 and listed as missing.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter


def _moves(tr, args, result):
    tr.counts["tangles.moves"] += len(result.moves)


def _mul(tr, args, result):
    a, b = args
    tr.counts["ring.mul_calls"] += 1
    coeffs = getattr(b, "coeffs", None)
    tr.counts["ring.mul_term_pairs"] += len(a.coeffs) * (1 if coeffs is None else len(coeffs))


def _span(p) -> int:
    return p.max_exp() - p.min_exp() if not p.is_zero else 0


def _normalize(tr, args, result):
    num, den = args
    tr.counts["ring.normalize_calls"] += 1
    if not num.is_zero and _span(result.den) < _span(den):
        tr.counts["ring.normalize_reduced"] += 1


def _states(tr, args, result):
    tr.counts["oracle.states"] += 2 ** len(args[1])


# (span name, group, module, attribute, stored as a span, counter)
HOOKS = (
    ("cli.main", "cli", "tanglekit.cli", "main", True, None),
    ("rationals.continued_fraction", "rationals", "tanglekit.rationals", "continued_fraction", True, None),
    ("rationals.canonical_form", "rationals", "tanglekit.rationals", "canonical_form", True, None),
    ("rationals.parity", "rationals", "tanglekit.rationals", "parity", True, None),
    ("tangles.to_twist_word", "tangles.word", "tanglekit.tangles", "to_twist_word", True, _moves),
    ("tangles.rational_to_diagram", "tangles.diagram", "tanglekit.tangles", "rational_to_diagram", True, None),
    ("tangles.cable_diagram", "tangles.diagram", "tanglekit.tangles", "cable_diagram", True, None),
    ("bracket.bracket_vector", "bracket", "tanglekit.bracket", "bracket_vector", True, None),
    ("bracket.ratio_invariant", "bracket", "tanglekit.bracket", "ratio_invariant", True, None),
    ("bracket.c_invariant", "bracket", "tanglekit.bracket", "c_invariant", True, None),
    ("ring.mul", "ring.mul", "tanglekit.ring", "LaurentPoly.__mul__", False, _mul),
    ("ring.normalize", "ring.normalize", "tanglekit.ring", "RatFunc.normalized", False, _normalize),
    ("tl.colored_element", "tl", "tanglekit.tl", "colored_element", True, None),
    ("tl.colored_expand", "tl", "tanglekit.tl", "colored_expand", True, None),
    ("tl.bni_basis", "tl.build", "tanglekit.tl", "bni_basis", True, None),
    ("tl.jones_wenzl", "tl.build", "tanglekit.tl", "jones_wenzl", True, None),
    ("tl.tile_element", "tl.build", "tanglekit.tl", "tile_element", True, None),
    ("tl.kink_element", "tl.build", "tanglekit.tl", "kink_element", True, None),
    ("tl.quantum_coeffs", "tl.build", "tanglekit.tl", "quantum_coeffs", True, None),
    ("annulus.closure_bracket", "annulus", "tanglekit.annulus", "closure_bracket", True, None),
    ("annulus.colored_closure", "annulus", "tanglekit.annulus", "colored_closure", True, None),
    ("annulus.chebyshev_convert", "annulus", "tanglekit.annulus", "chebyshev_convert", True, None),
    ("oracle.bracket_of_diagram", "oracle", "tanglekit.oracle", "bracket_of_diagram", True, None),
    ("oracle.matchings_of_diagram", "oracle", "tanglekit.oracle", "matchings_of_diagram", True, None),
    ("oracle.closure_coefficients", "oracle", "tanglekit.oracle", "closure_coefficients", True, None),
    ("oracle.annular_closure", "oracle", "tanglekit.oracle", "annular_closure", True, None),
    ("kernel.resolve_states", "kernel", "tanglekit.kernel", "resolve_states", True, _states),
)

# Counter -> the hook that feeds it.
COUNTER_HOOK = {
    "tangles.moves": "tangles.to_twist_word",
    "ring.mul_calls": "ring.mul",
    "ring.mul_term_pairs": "ring.mul",
    "ring.normalize_calls": "ring.normalize",
    "ring.normalize_reduced": "ring.normalize",
    "oracle.states": "kernel.resolve_states",
}

# Per-layer metric -> (what it sums, the spans or group it reads, unit).
# "self": summed self time of the named spans; "group": time inside the
# outermost span of a group; "count": a counter.  Times and counts are
# per tangle evaluated in the traced phase.
LAYER_METRICS = {
    "cli.self_s": ("self", ("cli.main",), "s/tangle"),
    "rationals.s": ("group", "rationals", "s/tangle"),
    "tangles.moves": ("count", "tangles.moves", "count/tangle"),
    "tangles.diagram_s": ("group", "tangles.diagram", "s/tangle"),
    "bracket.self_s": ("self", ("bracket.bracket_vector", "bracket.ratio_invariant",
                                "bracket.c_invariant"), "s/tangle"),
    "ring.mul_calls": ("count", "ring.mul_calls", "count/tangle"),
    "ring.mul_term_pairs": ("count", "ring.mul_term_pairs", "count/tangle"),
    "ring.mul_s": ("group", "ring.mul", "s/tangle"),
    "ring.normalize_calls": ("count", "ring.normalize_calls", "count/tangle"),
    "ring.normalize_s": ("group", "ring.normalize", "s/tangle"),
    "tl.self_s": ("self", ("tl.colored_element", "tl.colored_expand"), "s/tangle"),
    "tl.build_s": ("group", "tl.build", "s/tangle"),
    "annulus.self_s": ("self", ("annulus.closure_bracket", "annulus.colored_closure",
                                "annulus.chebyshev_convert"), "s/tangle"),
    "oracle.states": ("count", "oracle.states", "count/tangle"),
    "oracle.kernel_s": ("group", "kernel", "s/tangle"),
    "oracle.self_s": ("self", ("oracle.bracket_of_diagram", "oracle.matchings_of_diagram",
                               "oracle.closure_coefficients", "oracle.annular_closure"), "s/tangle"),
}


class Tracer:
    """Collects spans, self times, group times and counters."""

    def __init__(self):
        self.spans = []
        self.self_s = {}
        self.group_s = {}
        self.counts = dict.fromkeys(COUNTER_HOOK, 0)
        self.missing = []
        self._stack = []
        self._depth = {}
        self._patches = []
        self._hooks = HOOKS

    # -- hooks --------------------------------------------------------------

    def _wrap(self, name, group, fn, stored, counter):
        tracer = self
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        group_s = self.group_s
        depth = self._depth
        self_s.setdefault(name, 0.0)
        group_s.setdefault(group, 0.0)
        depth.setdefault(group, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if stored:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            depth[group] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                depth[group] -= 1
                if not depth[group]:
                    group_s[group] += elapsed
                if stored:
                    spans[index] = (name, start, end, parent)
            if counter is not None:
                try:
                    counter(tracer, args, result)
                except AttributeError:
                    tracer._missing(name)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def install(self, hooks=HOOKS):
        """Replace every hooked function; returns the names found missing."""
        self._hooks = hooks
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "tanglekit" or k.startswith("tanglekit."))]
        for name, group, modname, attr, stored, counter in hooks:
            mod = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(meth)
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not callable(fn):
                    self._missing(name)
                    continue
                wrapped = self._wrap(name, group, fn, stored, counter)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                for key, value in list(vars(cls).items()):
                    if value is raw:
                        self._patches.append((cls, key, raw))
                        setattr(cls, key, wrapped)
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self._missing(name)
                continue
            wrapped = self._wrap(name, group, fn, stored, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, key, fn))
                        setattr(m, key, wrapped)
        return self.missing

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, tangles: int) -> dict:
        """Per-layer metrics, per tangle evaluated."""
        out = {}
        per = 1.0 / max(tangles, 1)
        for metric, (kind, source, unit) in LAYER_METRICS.items():
            if kind == "self":
                value = sum(self.self_s.get(s, 0.0) for s in source)
            elif kind == "group":
                value = self.group_s.get(source, 0.0)
            else:
                value = self.counts[source]
            out[metric] = {"value": value * per, "unit": unit}
        calls = self.counts["ring.normalize_calls"]
        out["ring.normalize_reduced_ratio"] = {
            "value": self.counts["ring.normalize_reduced"] / calls if calls else 0.0,
            "unit": "ratio"}
        kernel_s = self.group_s.get("kernel", 0.0)
        out["oracle.states_per_s"] = {
            "value": self.counts["oracle.states"] / kernel_s if kernel_s else 0.0,
            "unit": "1/s"}
        return out

    def missing_metrics(self) -> list:
        """Per-layer metrics that read a hook found missing."""
        def hooks_read(kind, source):
            if kind == "self":
                return set(source)
            if kind == "group":
                return {name for name, group, *_ in self._hooks if group == source}
            return {COUNTER_HOOK[source]}

        reads = {m: hooks_read(kind, source) for m, (kind, source, _) in LAYER_METRICS.items()}
        reads["ring.normalize_reduced_ratio"] = {"ring.normalize"}
        reads["oracle.states_per_s"] = {"kernel.resolve_states"}
        return [m for m, names in reads.items() if names & set(self.missing)]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
