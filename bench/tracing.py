"""Per-layer tracing from outside the package.

`install` replaces module attributes with timing wrappers, at the binding each
caller actually looks up (`amendment.projectable`, not
`projection.projectable`).  A span records its self time: its duration minus
the time of the spans it encloses.  A recursive function is timed only at its
outermost call.  Counter hooks count without opening a span, so their time
stays with the enclosing layer.  A metric whose hooks are all missing from the
package reads 0 instead of failing the run, and its name is listed in
`Tracer.missing()`; `verifier.memo_hit_ratio` reads 0 when there was no lookup.

While a span is open its bindings are put back to the original functions, so
recursive and nested calls run unwrapped: tracing adds no stack frames per
recursion level, and deep inputs fail or pass exactly as they do untraced.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# Span name -> the (module, attribute) bindings it wraps.  A dotted attribute
# names a method on a class.
SPANS = {
    "cli.main": [("cli", "main")],
    "syntax.parse": [("syntax", "parse_source")],
    "syntax.render": [
        ("syntax", name)
        for name in (
            "render_program", "render_unit", "render_chor",
            "render_sp_program", "render_network", "render_behaviour",
        )
    ],
    "cc.enabled": [("cc", "_enabled")],
    "cc.order_key": [("cc", "_transition_key")],
    "cc.wf": [("cc", "wf_violations")],
    "cc.traces": [("cc", "traces")],
    "sp.enabled": [("sp", "_enabled")],
    "sp.order_key": [("sp", "_transition_key")],
    "sp.traces": [("sp", "traces")],
    "projection.epp": [("projection", "epp")],
    "projection.project_failures": [("projection", "project_failures")],
    "amendment.amend": [("amendment", "amend")],
    # Both bounded explorations of the verifier: the multiset-keyed search and
    # the terminal-configuration search behind `implements`.
    "verifier.reach": [("verifier", "_reach"), ("verifier", "_terminal_analysis")],
    "verifier.amended_view": [("verifier", "_amended_view")],
    "verifier.max_insertions": [("verifier", "_program_max_insertions")],
    "verifier.cfg_key": [("verifier", "_cfg_key")],
    # A checker's self time is the matching it does between explorations.
    "verifier.match": [
        ("verifier", name)
        for name in (
            "check_naive_correspondence", "check_amend_complete", "check_amend_sound",
            "check_intermediate_formulation", "check_epp_correspondence",
            "check_implements", "check_implements_network",
        )
    ],
}

COUNTERS = {
    "projection.merge": ("projection", "merge"),
    "amendment.projectable": ("amendment", "projectable"),
    "amendment.add_selections": ("amendment", "add_selections"),
    "verifier.memo": ("verifier", "_Space.enabled"),
}

# Reported metric -> (unit, source, how the value is read).
METRICS = {
    "syntax.parse_s": ("s", "syntax.parse", "self"),
    "syntax.parse_calls": ("count", "syntax.parse", "calls"),
    "syntax.render_s": ("s", "syntax.render", "self"),
    "cli.main_self_s": ("s", "cli.main", "self"),
    "cli.calls": ("count", "cli.main", "calls"),
    "cc.enabled_s": ("s", "cc.enabled", "self"),
    "cc.enabled_calls": ("count", "cc.enabled", "calls"),
    "cc.transitions": ("count", "cc.enabled", "items"),
    "cc.order_key_s": ("s", "cc.order_key", "self"),
    "cc.wf_s": ("s", "cc.wf", "self"),
    "cc.wf_calls": ("count", "cc.wf", "calls"),
    "cc.traces_s": ("s", "cc.traces", "self"),
    "cc.trace_entries": ("count", "cc.traces", "items"),
    "sp.enabled_s": ("s", "sp.enabled", "self"),
    "sp.enabled_calls": ("count", "sp.enabled", "calls"),
    "sp.order_key_s": ("s", "sp.order_key", "self"),
    "sp.traces_s": ("s", "sp.traces", "self"),
    "sp.trace_entries": ("count", "sp.traces", "items"),
    "projection.epp_s": ("s", "projection.epp", "self"),
    "projection.project_failures_s": ("s", "projection.project_failures", "self"),
    "projection.merge_calls": ("count", "projection.merge", "calls"),
    "projection.merge_failed": ("count", "projection.merge", "items"),
    "amendment.amend_s": ("s", "amendment.amend", "self"),
    "amendment.amend_calls": ("count", "amendment.amend", "calls"),
    "amendment.projectable_calls": ("count", "amendment.projectable", "calls"),
    "amendment.selections_inserted": ("count", "amendment.add_selections", "items"),
    "verifier.reach_s": ("s", "verifier.reach", "self"),
    "verifier.reach_calls": ("count", "verifier.reach", "calls"),
    "verifier.match_s": ("s", "verifier.match", "self"),
    "verifier.memo_hit_ratio": ("ratio", "verifier.memo", "ratio"),
    "verifier.amended_view_s": ("s", "verifier.amended_view", "self"),
    "verifier.max_insertions_s": ("s", "verifier.max_insertions", "self"),
    "verifier.cfg_key_s": ("s", "verifier.cfg_key", "self"),
    "verifier.states_explored": ("count", "verifier.match", "items"),
    "verifier.exhausted": ("count", "verifier.match", "exhausted"),
}


def _items(name: str, args: tuple, result) -> int:
    """The per-call quantity some hooks count beyond calls."""
    if name in ("cc.enabled", "cc.traces", "sp.traces"):
        return len(result)
    if name == "projection.merge":
        return result is None
    if name == "amendment.add_selections":
        return len(args[2])
    if name == "verifier.match":
        return result.stats.states_explored
    return 0


class Tracer:
    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.exhausted: Counter = Counter()
        self.hits: Counter = Counter()
        self.installed: set[str] = set()
        self._stack: list[list[float]] = []
        # span name -> [(owner, attribute, original, wrapper)]
        self._bindings: dict[str, list] = {}
        self._undo: list = []

    def _span(self, name: str, fn):
        bindings = self._bindings.setdefault(name, [])

        def wrapper(*args, **kwargs):
            for owner, leaf, original, _ in bindings:
                setattr(owner, leaf, original)
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._stack.pop()
                for owner, leaf, _, wrapped in bindings:
                    setattr(owner, leaf, wrapped)
                self.self_s[name] += took - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += took
            self.items[name] += _items(name, args, result)
            if name == "verifier.match" and result.verdict == "resource-exhausted":
                self.exhausted[name] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn):
        if name == "verifier.memo":
            def memo_lookup(space, cfg):
                self.calls[name] += 1
                self.hits[name] += cfg in space._memo
                return fn(space, cfg)

            return memo_lookup

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            self.items[name] += _items(name, args, result)
            return result

        return wrapper

    def _patch(self, modules: dict, name: str, module: str, attr: str, make) -> None:
        owner = modules.get(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if owner is None or original is None:
            return
        wrapper = make(name, original)
        setattr(owner, leaf, wrapper)
        self._bindings.setdefault(name, []).append((owner, leaf, original, wrapper))
        self._undo.append((owner, leaf, original))
        self.installed.add(name)

    def install(self, modules: dict) -> None:
        """Wrap every hook found in `modules` (short module name -> module)."""
        for name, bindings in SPANS.items():
            for module, attr in bindings:
                self._patch(modules, name, module, attr, self._span)
        for name, (module, attr) in COUNTERS.items():
            self._patch(modules, name, module, attr, self._counter)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def metrics(self) -> dict:
        out = {}
        for metric, (unit, source, read) in METRICS.items():
            if source not in self.installed:
                value = 0
            elif read == "self":
                value = self.self_s[source]
            elif read == "calls":
                value = self.calls[source]
            elif read == "items":
                value = self.items[source]
            elif read == "exhausted":
                value = self.exhausted[source]
            else:
                lookups = self.calls[source]
                value = self.hits[source] / lookups if lookups else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def missing(self) -> list[str]:
        """The metrics whose hooks are all missing from the package."""
        return [metric for metric, (_, source, _) in METRICS.items()
                if source not in self.installed]
