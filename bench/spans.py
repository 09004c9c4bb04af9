"""Span tracing installed from outside the program.

`Tracer.install()` replaces each layer-boundary function of the cb2cf
package by a timing wrapper. The replacement is done by module attribute,
for every module attribute that holds the original object, so aliases made
by `from .x import f` (for example `evaluation.train`, `cli.train_sgns`,
`features.tokenize`) get their own wrapper. `uninstall()` restores every
attribute. Untraced runs never call `install()`.

Each wrapper records a span (name, start, end, parent span) in memory.
Per-layer figures are computed from the spans after the run; a layer's self
time is the duration of its spans minus the part covered by their child
spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

import cb2cf
from cb2cf import cli, corpus, data, evaluation, features, model, net, sgns

LAYERS = ("cli", "data", "corpus", "sgns", "features", "net", "model", "evaluation")

# Every module whose attributes may alias a traced function.
_MODULES = (cb2cf, cli, data, corpus, sgns, features, model, net, evaluation)


def _sgns_mode(args) -> str:
    return "sgns.train_sgns.item" if isinstance(args[0], sgns.CooccurrenceSets) \
        else "sgns.train_sgns.word"


# Functions traced with a span: (owner, attribute, span name). A callable
# span name picks the name from the call's arguments.
_SPANS = (
    (cli, "main", "cli.main"),
    (data, "load_ratings", "data.load_ratings"),
    (data, "cooccurrence_from_ratings", "data.cooccurrence_from_ratings"),
    (data, "load_metadata", "data.load_metadata"),
    (corpus, "tokenize", "corpus.tokenize"),
    (corpus, "build_vocabulary", "corpus.build_vocabulary"),
    (sgns, "train_sgns", _sgns_mode),
    (sgns, "similarity_search", "sgns.similarity_search"),
    (sgns.EmbeddingTable, "save", "sgns.table_io"),
    (sgns.EmbeddingTable, "load", "sgns.table_io"),
    (features, "fit_kmeans", "features.fit_kmeans"),
    (features, "fit_feature_context", "features.fit_feature_context"),
    (features, "featurize_item", "features.featurize_item"),
    (model, "build_model", "model.build_model"),
    (model, "train", "model.train"),
    (model, "predict", "model.predict"),
    (model, "forward", "model.forward"),
    (model, "backward", "model.backward"),
    (net, "conv1d_maxpool_forward", "net.conv_forward"),
    (net, "conv1d_maxpool_backward", "net.conv_backward"),
    (net.Adam, "step", "net.adam"),
    (net.Adam, "step_rows", "net.adam"),
    (evaluation, "run_evaluation", "evaluation.run_evaluation"),
    (evaluation, "run_system", "evaluation.run_system"),
    (evaluation, "mpr", "evaluation.mpr"),
    (evaluation, "mean_ndcg", "evaluation.mean_ndcg"),
    (evaluation, "mse_metric", "evaluation.mse_metric"),
)

# Inner-loop functions whose results are only counted: a span per call
# would cost more than the work it measures.
_COUNTED = (
    (sgns, "build_item_pairs", "sgns.item_pairs"),
    (sgns, "build_word_pairs", "sgns.word_pairs"),
)


class Tracer:
    """Spans and counters of one traced phase, held in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name(args) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts recorded at the boundary ---------------------------------

    def _observers(self):
        counts = self.counts

        def ratings(args, kwargs, result):
            counts["data.rating_rows"] += sum(len(h.events) for h in result)

        def featurized(args, kwargs, result):
            counts["features.items"] += 1

        def forwarded(args, kwargs, result):
            net_model, bundle = args[0], args[1]
            if kwargs.get("train"):
                counts["model.train_examples"] += 1
            indices = getattr(bundle, "text_indices", None)
            if indices is not None:
                counts["model.text_fill_sum"] += len(indices) / net_model.spec.text_length
                counts["model.text_fill_n"] += 1

        def trained(args, kwargs, result):
            if result.epochs:
                best = -1 if result.best_epoch is None else result.best_epoch
                counts["model.useful_epoch_sum"] += (best + 1) / result.epochs
                counts["model.train_calls"] += 1

        def predicted(args, kwargs, result):
            counts["model.predicted_items"] += len(result)

        def scored(args, kwargs, result):
            counts["evaluation.items"] += len(args[0])
            counts["evaluation.catalog_items"] = len(args[1])

        return {
            "data.load_ratings": ratings,
            "features.featurize_item": featurized,
            "model.forward": forwarded,
            "model.train": trained,
            "model.predict": predicted,
            "evaluation.mpr": scored,
        }

    # -- installation ----------------------------------------------------

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        observers = self._observers()
        plan = []
        targets = [(owner, attr, False, name) for owner, attr, name in _SPANS]
        targets += [(owner, attr, True, key) for owner, attr, key in _COUNTED]
        for owner, attr, counted, name in targets:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if counted:
                wrapper = self._counter(name, original)
            elif isinstance(original, classmethod):
                wrapper = classmethod(self._span(name, original.__func__))
            else:
                wrapper = self._span(name, original, observers.get(name))
            plan.append((owner, attr, original, wrapper))
        return plan

    def install(self) -> None:
        """Put every wrapper in place: on classes by attribute, on modules
        wherever an attribute holds the original function."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, original, wrapper in self._plan:
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _MODULES:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total seconds and call count; per layer: self seconds."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_seconds = [0.0] * len(self.names)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            seconds[name] += duration
            calls[name] += 1
            parent = self.parents[i]
            if parent >= 0:
                child_seconds[parent] += duration
        self_seconds: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            self_seconds[layer] += (self.ends[i] - self.starts[i]) - child_seconds[i]
        return seconds, calls, self_seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced phase, as name -> (value, unit).

    A layer the workload does not exercise reports 0 for its times and
    counts, and 0 for a ratio whose base is 0.
    """
    seconds, calls, self_seconds = tracer.totals()
    c = tracer.counts
    s = seconds.get
    item_s = s("sgns.train_sgns.item", 0.0)
    word_s = s("sgns.train_sgns.word", 0.0)
    search_calls = calls.get("sgns.similarity_search", 0)
    featurized = c["features.items"]
    train_s = s("model.train", 0.0)
    metric_s = (s("evaluation.mpr", 0.0) + s("evaluation.mean_ndcg", 0.0)
                + s("evaluation.mse_metric", 0.0))
    out = {
        "sgns.item_s": (item_s, "s"),
        "sgns.item_pairs": (c["sgns.item_pairs"], "count"),
        "sgns.item_us_per_pair": (_ratio(item_s * 1e6, c["sgns.item_pairs"]), "us"),
        "sgns.word_s": (word_s, "s"),
        "sgns.word_pairs": (c["sgns.word_pairs"], "count"),
        "sgns.word_us_per_pair": (_ratio(word_s * 1e6, c["sgns.word_pairs"]), "us"),
        "sgns.table_io_s": (s("sgns.table_io", 0.0), "s"),
        "sgns.similarity_search.calls": (search_calls, "count"),
        "sgns.similarity_search.ms_per_call": (
            _ratio(s("sgns.similarity_search", 0.0) * 1e3, search_calls), "ms"),
        "data.load_ratings_s": (s("data.load_ratings", 0.0), "s"),
        "data.cooccurrence_from_ratings_s": (s("data.cooccurrence_from_ratings", 0.0), "s"),
        "data.rating_rows": (c["data.rating_rows"], "count"),
        "data.load_metadata_s": (s("data.load_metadata", 0.0), "s"),
        "corpus.tokenize_s": (s("corpus.tokenize", 0.0), "s"),
        "corpus.build_vocabulary_s": (s("corpus.build_vocabulary", 0.0), "s"),
        "features.fit_kmeans_s": (s("features.fit_kmeans", 0.0), "s"),
        "features.fit_feature_context_s": (s("features.fit_feature_context", 0.0), "s"),
        "features.items": (featurized, "count"),
        "features.ms_per_item": (
            _ratio(s("features.featurize_item", 0.0) * 1e3, featurized), "ms"),
        "model.train_s": (train_s, "s"),
        "model.train_examples": (c["model.train_examples"], "count"),
        "model.train_ms_per_example": (
            _ratio(train_s * 1e3, c["model.train_examples"]), "ms"),
        "model.useful_epoch_share": (
            _ratio(c["model.useful_epoch_sum"], c["model.train_calls"]), "ratio"),
        "model.predict_ms_per_item": (
            _ratio(s("model.predict", 0.0) * 1e3, c["model.predicted_items"]), "ms"),
        "model.text_fill": (_ratio(c["model.text_fill_sum"], c["model.text_fill_n"]), "ratio"),
        "net.conv_forward_s": (s("net.conv_forward", 0.0), "s"),
        "net.conv_backward_s": (s("net.conv_backward", 0.0), "s"),
        "net.adam_s": (s("net.adam", 0.0), "s"),
        "evaluation.mpr_s": (s("evaluation.mpr", 0.0), "s"),
        "evaluation.ndcg_s": (s("evaluation.mean_ndcg", 0.0), "s"),
        "evaluation.mse_s": (s("evaluation.mse_metric", 0.0), "s"),
        "evaluation.metric_ms_per_item": (
            _ratio(metric_s * 1e3, c["evaluation.items"]), "ms"),
        "evaluation.catalog_items": (c["evaluation.catalog_items"], "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_seconds[layer], "s")
    return out
