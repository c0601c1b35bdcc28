"""Per-layer tracing of the package from outside its source.

``Tracer.installed()`` rebinds each traced public function, in every package
module that binds it, to a wrapper that records a span (name, start, end,
parent, pass id) in memory, and restores the original bindings on exit.
Functions look their callees up in module globals at call time, so wrapping
``precoding.channel_matrix`` catches the precoder's calls and wrapping
``specfun.bessel_j`` catches ``analysis``'s ``specfun.bessel_j(...)`` calls.

The wrappers also keep two exact counters: distinct (channel object,
subcarrier) pairs seen by ``channel_matrix`` and distinct channel objects
seen by each precoder builder.  Channels are held until the pass ends, so
object ids cannot be reused within a pass.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import time

TRACED = {
    "arraymodel": ("generate_channel", "channel_matrix", "steering_uca"),
    "cxlinalg": ("svd", "water_filling", "block_diag"),
    "precoding": ("build_dpp", "build_classic_hybrid"),
    "analysis": ("spectrum_efficiency", "spectrum_efficiency_optimal", "exact_gain",
                 "dpp_exact_gain", "dpp_gain_subarray_sum", "avg_gain_ps_numeric",
                 "avg_gain_ps_upper", "avg_gain_ps_lower", "avg_gain_ttd",
                 "min_ttd_count"),
    "specfun": ("bessel_j", "hypergeom_1f2", "hypergeom_2f3", "integrate",
                "inverse_1f2_threshold"),
    "xpcli": ("load_scenario", "run"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
BUILDERS = ("precoding.build_dpp", "precoding.build_classic_hybrid")
PASS_SPAN = "bench.pass"


def per_layer_names() -> list:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"),
                  (f"{span}.errors", "count")]
    names.append(("arraymodel.channel_matrix.unique_frac", "ratio"))
    names += [(f"{b}.channels", "count") for b in BUILDERS]
    names += [("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio")]
    return names


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        # (pass id, span id, parent id, name, start, end, ok) of the first
        # traced pass; later passes only contribute statistics, which keeps
        # memory and the span file small
        self.spans = []
        self.pass_id = 0
        self._stack = [0]  # span id 0: no parent
        self._ids = itertools.count(1)
        self._pairs = set()
        self._builder_channels = {b: set() for b in BUILDERS}
        self._held = {}
        self._originals = self.bindings()

    def bindings(self) -> list:
        """(module, attribute, function) for every binding a trace rebinds."""
        out = []
        for mod_name, fns in TRACED.items():
            for fn in fns:
                original = getattr(self.modules[mod_name], fn)
                for module in self.modules.values():
                    if module.__dict__.get(fn) is original:
                        out.append((module, fn, original))
        return out

    def leftovers(self) -> bool:
        """Whether any binding still differs from the one found at start."""
        return any(module.__dict__.get(attr) is not fn for module, attr, fn in self._originals)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        wrappers, replaced = {}, []
        try:
            for module, attr, original in self.bindings():
                name = f"{original.__module__.rpartition('.')[2]}.{attr}"
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, original)
                replaced.append((module, attr, original))
                setattr(module, attr, wrappers[name])
            yield self
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    def _hook(self, name):
        pairs, held = self._pairs, self._held
        if name == "arraymodel.channel_matrix":
            def hook(args):
                held[id(args[0])] = args[0]
                pairs.add((id(args[0]), args[1]))
            return hook
        if name in BUILDERS:
            seen = self._builder_channels[name]

            def hook(args):
                held[id(args[0])] = args[0]
                seen.add(id(args[0]))
            return hook
        return None

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        hook = self._hook(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((tracer.pass_id, sid, parent, name, start, end, ok))

        return wrapper

    @contextlib.contextmanager
    def traced_pass(self):
        """Root span of one pass; yields a dict filled with its per-layer
        statistics when the pass ends."""
        self.pass_id += 1
        self._pairs.clear()
        self._held.clear()
        for seen in self._builder_channels.values():
            seen.clear()
        first = len(self.spans)
        stats = {}
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield stats
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.pass_id, sid, 0, PASS_SPAN, start, end, True))
            stats.update(self._stats(self.spans[first:], sid, end - start))
            self._held.clear()
            if self.pass_id > 1:  # spans of the first traced pass are kept
                del self.spans[first:]

    def _stats(self, spans, root, duration) -> dict:
        names = {s[1]: s[3] for s in spans}
        child = {}
        for _, _, parent, _, start, end, _ in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        stats = {f"{n}.{k}": 0 for n in SPAN_NAMES for k in ("calls", "errors")}
        stats.update({f"{n}.self_s": 0.0 for n in SPAN_NAMES})
        covered = 0.0
        for _, sid, parent, name, start, end, ok in spans:
            if name == PASS_SPAN:
                continue
            stats[f"{name}.calls"] += 1
            stats[f"{name}.errors"] += not ok
            stats[f"{name}.self_s"] += (end - start) - child.get(sid, 0.0)
            # outermost spans of non-runner layers: their union is the time
            # the pass spent inside the library layers
            if not name.startswith("xpcli.") and (
                    parent == root or names.get(parent, "").startswith("xpcli.")):
                covered += end - start
        calls = stats["arraymodel.channel_matrix.calls"]
        stats["arraymodel.channel_matrix.unique_frac"] = len(self._pairs) / calls if calls else 0.0
        for b in BUILDERS:
            stats[f"{b}.channels"] = len(self._builder_channels[b])
        stats["trace.coverage"] = covered / duration
        return stats

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        epoch = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for pid, sid, parent, name, start, end, ok in self.spans:
                fh.write(json.dumps({"pass": pid, "id": sid, "parent": parent or None,
                                     "name": name, "start": start - epoch,
                                     "end": end - epoch, "ok": ok},
                                    separators=(",", ":")) + "\n")


def exact_counts(stats: dict) -> dict:
    """The entries of a pass's statistics that repeat exactly run to run."""
    return {k: v for k, v in stats.items()
            if k.endswith((".calls", ".errors", ".channels", ".unique_frac"))}


def median_stats(per_pass: list) -> dict:
    """Median of each timed statistic over traced passes; counts are taken
    from the first pass (callers check they repeat)."""
    out = dict(per_pass[0])
    for key in out:
        if key.endswith((".self_s", "coverage")):
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
