"""Trace deporder's public functions from outside the package.

`Tracer.instrument()` replaces each traced function with a wrapper in every
`deporder` module that holds it, so imported aliases such as
`deporder.synthesis.load_model` and `deporder.cli.freeness` are traced too.
Each call records a span (name, start, end, parent, busy time) in memory;
the generator `sjt_enumerate` records one span whose busy time counts only
the time spent inside it.  Counters are kept at the same boundaries.

Run as a script, it traces one `deporder` command line in this process:

    python3 perfbench/tracer.py OUT_PREFIX -- train --treebank DIR --out DIR

and writes OUT_PREFIX.json (counters and per-layer self times) and
OUT_PREFIX.spans.tsv.gz (every span) when the command ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("treebank", "features", "sjt", "model", "synthesis", "langmodel", "cli")
FILTER_SPANS = ("treebank.filter_for_generation", "treebank.generation_drop_reason")


def _tokens(args, result, ns):
    return {"treebank.parse_tokens": sum(len(t) for t in result)}


_DROP_COUNTERS = {"fanout": "treebank.sents_dropped_fanout",
                  "nonprojective": "treebank.sents_dropped_nonproj"}


def _drop(args, result, ns):
    return {_DROP_COUNTERS[result]: 1} if result else {}


def _enum(args, result, ns):
    n = args[1].n
    return {f"model.enum_calls.n{n}": 1, f"model.enum_ns.n{n}": ns,
            "model.orders_scored": math.factorial(n)}


def _train(args, result, ns):
    meta = result.training_meta
    return {"model.train_iterations": meta.iterations,
            "model.train_converged": int(meta.converged),
            "max:model.grad_inf_norm": meta.grad_inf_norm}


def _compile(args, result, ns):
    return {"model.distinct_configs": len(args[0].groups)}


# (module, attribute, annotate): the traced functions, by layer.  An
# attribute with a dot names a method of a class in that module.
TARGETS = [
    ("treebank", "parse_conllu", _tokens),
    ("treebank", "serialize_conllu", None),
    ("treebank", "filter_for_generation", None),
    ("treebank", "generation_drop_reason", _drop),
    ("treebank", "local_configs", None),
    ("treebank", "touched_fraction", None),
    ("features", "extract", None),
    ("features", "build_h_whitelist", None),
    ("sjt", "sjt_enumerate", None),
    ("model", "enumerate_scores", _enum),
    ("model", "train", _train),
    ("model", "_CompiledCorpus.__init__", _compile),
    ("model", "_CompiledCorpus.objective_and_gradient", None),
    ("model", "freeness", None),
    ("model", "interpolate", None),
    ("model", "load_model", None),
    ("model", "save_model", None),
    ("synthesis", "synthesize_language", None),
    ("synthesis", "load_language_models", None),
    ("synthesis", "permute_tree", None),
    ("synthesis", "sample_ordering", None),
    ("synthesis", "RngStream.uniform", None),
    ("langmodel", "train_trigram", None),
    ("langmodel", "perplexity", None),
    ("langmodel", "select_source", None),
    ("langmodel", "load_lm", None),
    ("langmodel", "save_lm", None),
    ("cli", "main", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_permute", None),
    ("cli", "cmd_batch", None),
    ("cli", "cmd_stats", None),
    ("cli", "cmd_perplexity", None),
    ("cli", "cmd_select", None),
]
GENERATORS = {"sjt.sjt_enumerate"}


class Tracer:
    """Spans and counters for one process; spans stay in memory until `write`."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, busy_ns]
        self.spans: list = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, end - start]
            if annotate is not None:
                self._count(annotate(args, result, end - start))
            return result

        return traced

    def _wrap_generator(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            return _TimedIterator(spans, name, fn(*args, **kwargs),
                                  stack[-1] if stack else -1)

        return traced

    def _count(self, increments):
        for key, value in increments.items():
            if key.startswith("max:"):
                key = key[4:]
                self.maxima[key] = max(self.maxima.get(key, value), value)
            else:
                self.counters[key] += value

    def instrument(self) -> None:
        """Replace every target, and every alias of it, with a traced wrapper."""
        package = importlib.import_module("deporder")
        modules = [package] + [importlib.import_module(f"deporder.{m}")
                               for m in LAYERS]
        for module_name, attr, annotate in TARGETS:
            module = importlib.import_module(f"deporder.{module_name}")
            name = ".".join([module_name, *(part.strip("_") for part in attr.split("."))])
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._replace(owner, method, original,
                              self._wrap(name, original, annotate))
                continue
            original = getattr(module, attr)
            wrapper = (self._wrap_generator(name, original) if name in GENERATORS
                       else self._wrap(name, original, annotate))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, original, wrapper)

    def _replace(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, original))

    def restore(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def summary(self) -> dict:
        """Counters plus calls, busy and self nanoseconds per span name and
        self nanoseconds per layer."""
        child_ns = [0] * len(self.spans)
        for _, _, _, parent, busy in self.spans:
            if parent >= 0:
                child_ns[parent] += busy
        out = Counter(self.counters)
        for k, (name, _, _, parent, busy) in enumerate(self.spans):
            self_ns = busy - child_ns[k]
            out[f"calls:{name}"] += 1
            out[f"ns:{name}"] += busy
            out[f"self_ns:{name}"] += self_ns
            out[f"layer_self_ns:{name.split('.')[0]}"] += self_ns
            if name in FILTER_SPANS and (
                    parent < 0 or self.spans[parent][0] not in FILTER_SPANS):
                out["treebank.filter_ns"] += busy
        return {"counters": dict(out), "maxima": self.maxima,
                "spans": len(self.spans)}

    def write(self, prefix: str) -> None:
        Path(f"{prefix}.json").write_text(json.dumps(self.summary(), indent=1,
                                                     sort_keys=True))
        with gzip.open(f"{prefix}.spans.tsv.gz", "wt", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\tbusy_ns\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


class _TimedIterator:
    """Iterates a generator, counting only the time spent inside it."""

    __slots__ = ("_spans", "_name", "_it", "_parent", "_start", "_busy", "_done")

    def __init__(self, spans, name, it, parent):
        self._spans, self._name, self._it, self._parent = spans, name, it, parent
        self._start = None
        self._busy = 0
        self._done = False

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter_ns()
        try:
            return next(self._it)
        except StopIteration:
            self._done = True
            raise
        finally:
            end = time.perf_counter_ns()
            self._busy += end - start
            if self._start is None:
                self._start = start
            if self._done:
                self._spans.append([self._name, self._start, end, self._parent,
                                    self._busy])


def main(argv: list[str]) -> int:
    prefix, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py OUT_PREFIX -- DEPORDER_ARGS...")
    tracer = Tracer()
    tracer.instrument()
    from deporder import cli
    try:
        return cli.main(command)
    finally:
        tracer.restore()
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
