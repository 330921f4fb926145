"""Span recorder for the traced run, installed from outside the program.

Each traced name is replaced, in the module where callers look it up, by a
wrapper that records a span: name, start, end, parent and a work count.
`from .x import y` copies a name into the importing module, so those copies
are wrapped where they live (for example `evaluation.encode_chart`), while
`grammar.*` and `semantics.*` are looked up through their module and are
wrapped there. A name that a later refactor removes is reported as absent
rather than crashing. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result) -> int:
    return int(np.shape(args[0])[0]) if args else 0


def _forward_name(args, kwargs) -> str:
    train = kwargs.get("train", args[3] if len(args) > 3 else False)
    return "encoder.forward_batch." + ("train" if train else "infer")


def _grad_rows(args, kwargs, result) -> int:
    return int(np.shape(args[1])[0]) if len(args) > 1 else 0


def _result_len(args, kwargs, result) -> int:
    return 0 if result is None else len(result)


# (module, attribute, span name or name function, count function or None);
# a count function sees (args, kwargs, result) once the call has returned.
TARGETS = (
    ("corpus", "load_corpus", "corpus.load_corpus", None),
    ("corpus", "build_samples", "corpus.build_samples", _result_len),
    ("evaluation", "build_samples", "corpus.build_samples", _result_len),
    ("corpus", "fact_from_dict", "facts.fact_from_dict", None),
    ("corpus", "validate_fact", "facts.validate_fact", None),
    ("grammar", "validate_fact", "facts.validate_fact", None),
    ("grammar", "derive_rules", "grammar.derive_rules", None),
    ("grammar", "encode_one_hot", "grammar.encode_one_hot", None),
    ("semantics", "load_vector_store", "semantics.load_vector_store", None),
    ("semantics", "extract_tokens", "semantics.extract_tokens", None),
    ("semantics", "encode_semantics", "semantics.encode_semantics", None),
    ("corpus", "encode_chart", "encoder.encode_chart", None),
    ("evaluation", "encode_chart", "encoder.encode_chart", None),
    ("learning", "forward_batch", _forward_name, _rows),
    ("evaluation", "forward_batch", _forward_name, _rows),
    ("learning", "backward_batch", "encoder.backward_batch", _grad_rows),
    ("encoder", "load_checkpoint", "encoder.load_checkpoint", None),
    ("encoder", "save_checkpoint", "encoder.save_checkpoint", None),
    ("learning", "train", "learning.train", None),
    ("evaluation", "train", "learning.train", None),
    ("learning", "combined_loss", "learning.combined_loss", None),
    ("learning", "batch_loss_from_embeddings", "learning.batch_loss_from_embeddings", None),
    ("learning", "loss_gradients_wrt_embeddings", "learning.loss_gradients_wrt_embeddings", None),
    ("learning", "backward", "learning.backward", None),
    ("learning", "adam_step", "learning.adam_step", None),
    ("evaluation", "build_index", "evaluation.build_index", None),
    ("evaluation", "save_index", "evaluation.save_index", None),
    ("evaluation", "load_index", "evaluation.load_index", None),
    ("evaluation", "compute_metrics", "evaluation.compute_metrics", None),
    ("evaluation", "nearest", "evaluation.nearest", "candidates"),
    ("evaluation", "run_ablation", "evaluation.run_ablation", None),
)


class SpanRecorder:
    """Nested spans of one thread, kept as [name, start, end, parent, count]."""

    def __init__(self, candidates=None):
        # candidates(anchor_id) -> distance evaluations of one same-dataset nearest().
        self.candidates = candidates
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.lookups = 0
        self.hits = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.begin(name(args, kwargs) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec.end(idx)
                if count:
                    rec.spans[idx][4] = count(args, kwargs, result)

        return wrapper

    def _nearest_count(self, args, kwargs, result) -> int:
        return self.candidates(args[1] if len(args) > 1 else kwargs["anchor"])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            mod = importlib.import_module(f"chartembed.{module}")
            if not hasattr(mod, attr):
                self.absent.append(f"{module}.{attr}")
                continue
            if count == "candidates":
                count = self._nearest_count
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name, count))

        store_cls = getattr(importlib.import_module("chartembed.semantics"), "VectorStore", None)
        if store_cls is None or not hasattr(store_cls, "lookup"):
            self.absent.append("semantics.VectorStore.lookup")
            return
        lookup = store_cls.lookup
        rec = self

        @functools.wraps(lookup)
        def counted_lookup(store, word):
            rec.lookups += 1
            rec.hits += word in store
            return lookup(store, word)

        self._patch(store_cls, "lookup", counted_lookup)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps([name, start, end, parent, count]) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class SpanTable:
    """Per-name durations, self times and counts of a recorder's spans."""

    def __init__(self, rec: SpanRecorder):
        spans = rec.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.dur: dict[str, list[float]] = {}
        self.self_time: dict[str, list[float]] = {}
        self.count: dict[str, list[int]] = {}
        for i, (name, start, end, _, count) in enumerate(spans):
            self.dur.setdefault(name, []).append(end - start)
            self.self_time.setdefault(name, []).append(end - start - child_time[i])
            self.count.setdefault(name, []).append(count)
        self.spans = spans
        self.child_time = child_time

    def total_s(self, name: str) -> float:
        return float(sum(self.dur.get(name, ())))

    def self_s(self, name: str) -> float:
        return float(sum(self.self_time.get(name, ())))

    def calls(self, name: str) -> int:
        return len(self.dur.get(name, ()))

    def ms(self, name: str) -> float:
        return 1000.0 * _median(self.dur.get(name, ()))

    def self_ms(self, name: str) -> float:
        return 1000.0 * _median(self.self_time.get(name, ()))

    def count_total(self, name: str) -> int:
        return int(sum(self.count.get(name, ())))

    def per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.count_total(name) / calls if calls else 0.0

    def step_intervals_ms(self) -> list[float]:
        """Time between consecutive adam_step returns within one train call."""
        ends: dict[int, list[float]] = {}
        for name, _, end, parent, _ in self.spans:
            if name == "learning.adam_step":
                ends.setdefault(parent, []).append(end)
        return [
            1000.0 * (b - a) for seq in ends.values() for a, b in zip(seq, seq[1:])
        ]

    def uncovered_s(self, idx: int) -> float:
        name, start, end, _, _ = self.spans[idx]
        return end - start - self.child_time[idx]


def layer_metrics(
    t: SpanTable, rec: SpanRecorder, distinct_charts: int, variant_s: dict[str, float]
) -> dict:
    """Per-layer metrics as {name: (value, unit)}; a layer never called reads 0."""
    steps = t.step_intervals_ms()
    out = {
        "corpus.load_corpus.s": (t.total_s("corpus.load_corpus"), "s"),
        "corpus.build_samples.self_s": (t.self_s("corpus.build_samples"), "s"),
        "corpus.build_samples.quads": (t.count_total("corpus.build_samples"), "count"),
        "facts.fact_from_dict.s": (t.total_s("facts.fact_from_dict"), "s"),
        "facts.validate_fact.s": (t.total_s("facts.validate_fact"), "s"),
        "grammar.derive_rules.s": (t.total_s("grammar.derive_rules"), "s"),
        "grammar.derive_rules.calls": (t.calls("grammar.derive_rules"), "count"),
        "grammar.encode_one_hot.s": (t.total_s("grammar.encode_one_hot"), "s"),
        "grammar.encode_one_hot.calls": (t.calls("grammar.encode_one_hot"), "count"),
        "semantics.load_vector_store.s": (t.total_s("semantics.load_vector_store"), "s"),
        "semantics.extract_tokens.s": (t.total_s("semantics.extract_tokens"), "s"),
        "semantics.encode_semantics.s": (t.total_s("semantics.encode_semantics"), "s"),
        "semantics.lookups": (rec.lookups, "count"),
        "semantics.in_store_ratio": (rec.hits / rec.lookups if rec.lookups else 0.0, "ratio"),
        "encoder.encode_chart.calls": (t.calls("encoder.encode_chart"), "count"),
        "encoder.encode_chart.s": (t.total_s("encoder.encode_chart"), "s"),
        "encoder.encode_chart.per_chart": (
            t.calls("encoder.encode_chart") / distinct_charts, "ratio"
        ),
        "encoder.forward_batch.train.ms_p50": (t.ms("encoder.forward_batch.train"), "ms"),
        "encoder.forward_batch.train.rows_per_call": (
            t.per_call("encoder.forward_batch.train"), "count"
        ),
        "encoder.backward_batch.ms_p50": (t.ms("encoder.backward_batch"), "ms"),
        "encoder.backward_batch.rows_per_call": (t.per_call("encoder.backward_batch"), "count"),
        "encoder.forward_batch.infer.s": (t.total_s("encoder.forward_batch.infer"), "s"),
        "encoder.load_checkpoint.ms": (t.ms("encoder.load_checkpoint"), "ms"),
        "encoder.save_checkpoint.ms": (t.ms("encoder.save_checkpoint"), "ms"),
        "learning.combined_loss.self_ms": (t.self_ms("learning.combined_loss"), "ms"),
        "learning.batch_loss_from_embeddings.ms": (
            t.ms("learning.batch_loss_from_embeddings"), "ms"
        ),
        "learning.loss_gradients_wrt_embeddings.ms": (
            t.ms("learning.loss_gradients_wrt_embeddings"), "ms"
        ),
        "learning.backward.self_ms": (t.self_ms("learning.backward"), "ms"),
        "learning.adam_step.ms": (t.ms("learning.adam_step"), "ms"),
        "learning.train.self_s": (t.self_s("learning.train"), "s"),
        "learning.step_ms_p50": (_median(steps), "ms"),
        "learning.step_ms_p90": (_quantile(steps, 90), "ms"),
        "evaluation.build_index.self_s": (t.self_s("evaluation.build_index"), "s"),
        "evaluation.save_index.s": (t.total_s("evaluation.save_index"), "s"),
        "evaluation.load_index.s": (t.total_s("evaluation.load_index"), "s"),
        "evaluation.compute_metrics.self_s": (t.self_s("evaluation.compute_metrics"), "s"),
        "evaluation.nearest.calls": (t.calls("evaluation.nearest"), "count"),
        "evaluation.nearest.candidates": (t.count_total("evaluation.nearest"), "count"),
        "evaluation.nearest.ms": (t.ms("evaluation.nearest"), "ms"),
    }
    for variant, seconds in variant_s.items():
        out[f"evaluation.run_ablation.{variant}.s"] = (seconds, "s")
    return out
