"""The layer table and the tracer behind the benchmark's traced run.

Tracing lives here, in the benchmark's own files, and reaches the
library only by replacing the table's functions where their callers
look them up: every ``nlconcepts`` module attribute bound to the
function, or the class attribute for a method. Nothing under ``src/``
is changed.

Each entry of ``LAYERS`` is ``(metric name, module, attribute, kind)``:

* ``span``  - one span per call: name, start, end, parent, run id.
  Its metrics are ``<name>.calls`` and ``<name>.s``, the self time:
  the span's duration minus the part its child spans and timed leaves
  cover.
* ``leaf``  - a hot function: calls and summed time, kept per enclosing
  span instead of one span per call.
* ``count`` - the hottest functions (about 10^6 calls a run): calls per
  enclosing span only, so the tracer adds as little as it can.

A function that no longer exists is reported as an absent layer and
reads 0; it does not stop the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

LAYERS = (
    ("io.load_pool", "nlconcepts.io", "load_pool", "span"),
    ("dsl.eval_shape", "nlconcepts.dsl.shape", "eval_shape", "leaf"),
    ("dsl.number_extension", "nlconcepts.dsl.number", "number_extension", "leaf"),
    ("prior.extract_features", "nlconcepts.prior", "extract_features", "leaf"),
    ("prior.prior_logweight", "nlconcepts.prior", "prior_logweight", "count"),
    ("likelihood.trial_member", "nlconcepts.likelihood", "EvalCache.trial_member", "count"),
    ("likelihood.pool_shape_logliks", "nlconcepts.likelihood", "pool_shape_logliks", "span"),
    ("likelihood.pool_number_logliks", "nlconcepts.likelihood", "pool_number_logliks", "span"),
    ("posterior.dedup_weights", "nlconcepts.posterior", "dedup_weights", "span"),
    ("posterior.predict_response", "nlconcepts.posterior", "predict_response", "span"),
    ("posterior.predict_membership", "nlconcepts.posterior", "predict_membership", "span"),
    ("fit.fit_params", "nlconcepts.fit", "fit_params", "span"),
    ("fit.loss_and_grad", "nlconcepts.fit", "loss_and_grad", "span"),
    ("harness.run_number_experiment", "nlconcepts.harness", "run_number_experiment", "span"),
    ("harness.build_number_task", "nlconcepts.harness", "build_number_task", "span"),
    ("harness.number_top_verbalizations", "nlconcepts.harness", "number_top_verbalizations", "span"),
    ("harness.run_online_experiment", "nlconcepts.harness", "run_online_experiment", "span"),
    ("harness.fit_online_params", "nlconcepts.harness", "fit_online_params", "span"),
    ("harness.build_shape_task", "nlconcepts.harness", "build_shape_task", "span"),
    ("propose.propose", "nlconcepts.propose.backends", "propose", "span"),
    ("propose.translate_pool", "nlconcepts.propose.backends", "translate_pool", "span"),
    ("propose.build_prompt", "nlconcepts.propose.prompts", "build_prompt", "leaf"),
    ("propose.translation_prompt", "nlconcepts.propose.backends", "translation_prompt", "leaf"),
    ("propose.replay.lookup", "nlconcepts.propose.replay", "ReplayStore.lookup", "span"),
    ("propose.replay.get", "nlconcepts.propose.replay", "ReplayStore.get", "span"),
    ("propose.replay.record", "nlconcepts.propose.replay", "ReplayStore.record", "span"),
    ("propose.replay.fingerprint", "nlconcepts.propose.replay", "fingerprint", "leaf"),
)

ROOT_SPAN = "bench.pass"


def resolve(module: str, attr: str):
    """(owner, attribute name, function) for a table entry, or None
    when the module, class or function is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, name, fn


def _load_pool_result(tracer, pool):
    tracer.counters["io.hypotheses"] += len(pool)
    tracer.counters["io.unparsed"] += sum(1 for h in pool if not h.parsed)


def _replay_get_result(tracer, completions):
    tracer.counters["propose.replay.hits"] += completions is not None


# Counts taken from a function's return value, where the work happens.
RESULT_COUNTERS = {
    "io.load_pool": _load_pool_result,
    "propose.replay.get": _replay_get_result,
}


class Tracer:
    """Spans and counters kept in memory, written out when the run ends."""

    def __init__(self, run_prefix: str):
        self.run_prefix = run_prefix
        self.run_id = None
        self.spans = []  # (name, start, end, parent index, run id, self s, leaves)
        self._stack = []  # open spans: [index, child s, leaves]
        self._in_leaf = False
        self.leaf_totals = {}  # name -> [calls, s]
        self.counters = {"io.hypotheses": 0, "io.unparsed": 0, "propose.replay.hits": 0}
        self.absent = []
        self._patched = []  # (owner, attribute, original)

    # -- installing -----------------------------------------------------

    def install(self, layers=LAYERS) -> None:
        for name, module, attr, kind in layers:
            found = resolve(module, attr)
            if found is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            owner, attr_name, fn = found
            wrapped = self._wrap(name, kind, fn)
            if isinstance(owner, type):
                self._patch(owner, attr_name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "nlconcepts" and not mod_name.startswith("nlconcepts."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, kind, fn):
        if kind == "span":
            return functools.wraps(fn)(self._span_wrapper(name, fn))
        if kind == "leaf":
            return functools.wraps(fn)(self._leaf_wrapper(name, fn))
        return functools.wraps(fn)(self._count_wrapper(name, fn))

    def _span_wrapper(self, name, fn):
        on_result = RESULT_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            return self.call_in_span(name, fn, args, kwargs, on_result)

        return wrapper

    def call_in_span(self, name, fn, args=(), kwargs=None, on_result=None):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0, None]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.spans[index] = (
                name, start, end, parent, self.run_id, duration - frame[1], frame[2]
            )
            if stack:
                stack[-1][1] += duration
        if on_result is not None:
            on_result(self, result)
        return result

    def _leaf_wrapper(self, name, fn):
        totals = self.leaf_totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            if self._in_leaf:  # time once, at the outermost leaf
                totals[0] += 1
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._in_leaf = False
                totals[0] += 1
                totals[1] += duration
                if self._stack:
                    frame = self._stack[-1]
                    frame[1] += duration
                    self._leaf_into(frame, name, duration)

        return wrapper

    def _count_wrapper(self, name, fn):
        totals = self.leaf_totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            totals[0] += 1
            if self._stack:
                self._leaf_into(self._stack[-1], name, 0.0)
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _leaf_into(frame, name, duration) -> None:
        if frame[2] is None:
            frame[2] = {}
        entry = frame[2].get(name)
        if entry is None:
            frame[2][name] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration

    # -- reading --------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, each a per-pass average over `passes`."""
        calls, self_s, durations = {}, {}, {}
        for name, start, end, _parent, _run, own, _leaves in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            durations.setdefault(name, []).append(end - start)
        for name, (n, s) in self.leaf_totals.items():
            calls[name] = n
            self_s[name] = s

        def per_pass(table, name):
            return table.get(name, 0) / passes

        def p50_us(name):
            values = durations.get(name)
            return statistics.median(values) * 1e6 if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        epochs = sum(
            1
            for name, _s, _e, parent, _r, _o, _l in self.spans
            if name == "fit.loss_and_grad" and parent >= 0 and self.spans[parent][0] == "fit.fit_params"
        )
        fit_wall = sum(durations.get("fit.fit_params", ()))
        out = {}
        for name, _module, _attr, _kind in LAYERS:
            out[f"{name}.calls"] = per_pass(calls, name)
            out[f"{name}.s"] = per_pass(self_s, name)
        out["fit.epoch_us"] = ratio(fit_wall, epochs) * 1e6
        out["likelihood.cache_hit_ratio"] = (
            1.0 - ratio(calls.get("dsl.eval_shape", 0), calls["likelihood.trial_member"])
            if calls.get("likelihood.trial_member")
            else 0.0
        )
        out["io.hypotheses"] = self.counters["io.hypotheses"] / passes
        out["io.unparsed"] = self.counters["io.unparsed"] / passes
        out["propose.replay.lookup.p50_us"] = p50_us("propose.replay.lookup")
        out["propose.replay.record.p50_us"] = p50_us("propose.replay.record")
        out["propose.replay.hit_ratio"] = ratio(
            self.counters["propose.replay.hits"], calls.get("propose.replay.get", 0)
        )
        return out

    def self_s_by_call(self, passes: int) -> dict:
        """Per-pass self time of each module (the first part of a layer
        name), grouped by the top-level call it ran under: the span or
        leaf that the pass itself called."""
        out = {}
        top = []  # index of each span's top-level ancestor, -1 for a pass
        for index, (name, _s, _e, parent, _r, own, leaves) in enumerate(self.spans):
            if parent < 0:
                top.append(-1)
                for leaf, (_n, s) in (leaves or {}).items():
                    _add_self_s(out, leaf, leaf, s / passes)
                continue
            top.append(index if top[parent] < 0 else top[parent])
            call = self.spans[top[index]][0]
            _add_self_s(out, call, name, own / passes)
            for leaf, (_n, s) in (leaves or {}).items():
                _add_self_s(out, call, leaf, s / passes)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, run, own, leaves) in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": run,
                    "self_s": own,
                }
                if leaves:
                    row["leaves"] = {k: {"calls": n, "s": s} for k, (n, s) in leaves.items()}
                handle.write(json.dumps(row) + "\n")


def _add_self_s(table, call, layer, seconds) -> None:
    group = table.setdefault(call, {})
    module = layer.split(".")[0]
    group[module] = group.get(module, 0.0) + seconds
