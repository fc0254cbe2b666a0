"""Synthetic treebank generation.

A synthesized language keeps a substrate treebank's tokens, dominance
structure, and labels, but resamples the left-to-right order of noun and/or
verb dependents from models trained on superstrate languages.  Output
directories are named `<sub>`, `<sub>~<rN>@N`, `<sub>~<rV>@V`, or
`<sub>~<rN>@N~<rV>@V`, each holding `<dirname>-ud-{train,dev,test}.conllu`
plus a `manifest.tsv` of key/value lines.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import DEFAULT_LAMBDA, DEFAULT_SEED, SpecError, __version__
from .model import OrderingModel, enumerate_scores, interpolate, load_language_models
from .treebank import (LANG_ID, DepTree, LocalConfig, children_map,
                       generation_drop_reason, local_configs, parse_conllu, read_split,
                       write_whole)

# like `random` for SHA-512, take the interpreter's own SHA-256 first:
# hashlib would load OpenSSL's libcrypto only to seed the random streams
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

SPLITS = ("train", "dev", "test")

_DEPS_ENTRY = re.compile(r"^(\d+):(.+)$")


@dataclass(frozen=True)
class LanguageSpec:
    """What to synthesize: substrate, per-class superstrates, blend, seed."""

    substrate: str
    superstrate_n: str | None = None
    superstrate_v: str | None = None
    lam: float = DEFAULT_LAMBDA
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for lang in (self.substrate, self.superstrate_n, self.superstrate_v):
            if lang is not None and not LANG_ID.match(lang):
                raise SpecError(f"bad language id {lang!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise SpecError(f"interpolation weight must be in [0, 1], got {self.lam}")

    @property
    def dirname(self) -> str:
        name = self.substrate
        if self.superstrate_n is not None:
            name += f"~{self.superstrate_n}@N"
        if self.superstrate_v is not None:
            name += f"~{self.superstrate_v}@V"
        return name

    @classmethod
    def parse(cls, name: str, lam: float = DEFAULT_LAMBDA,
              seed: int = DEFAULT_SEED) -> "LanguageSpec":
        parts = name.split("~")
        substrate = parts[0]
        superstrates: dict[str, str] = {}
        for part in parts[1:]:
            lang, sep, pos_class = part.rpartition("@")
            if not sep or pos_class not in ("N", "V") or pos_class in superstrates:
                raise SpecError(f"bad spec fragment {part!r} in {name!r}")
            superstrates[pos_class] = lang
        spec = cls(substrate, superstrates.get("N"), superstrates.get("V"),
                   lam, seed)
        if spec.dirname != name:
            raise SpecError(f"spec {name!r} is not in canonical form "
                            f"(expected {spec.dirname!r})")
        return spec


class RngStream:
    """Deterministic, platform-independent random stream.

    The state is a Mersenne Twister seeded from the SHA-256 hash of the
    derivation key, so equal keys give equal draw sequences everywhere.
    One sentence's stream has the key (seed, spec dirname, split, 0-based
    ordinal of the sentence in its split).  The digest comes from the
    interpreter's builtin SHA-256 module, or from `hashlib` where the
    interpreter lacks one; either gives the same digest, so the same stream.
    """

    VERSION = "sha256-mt19937/1"

    def __init__(self, *key_parts):
        self.key = "\x1f".join(str(p) for p in key_parts)
        digest = sha256(self.key.encode("utf-8")).digest()
        self._rng = random.Random(int.from_bytes(digest[:16], "big"))

    def uniform(self) -> float:
        """One draw from [0, 1)."""
        return self._rng.random()


def sample_ordering(model: OrderingModel, config: LocalConfig,
                    rng: RngStream) -> tuple[int, ...]:
    """Exact sample from the model's distribution over the n! orderings.

    Accumulates normalized probabilities in SJT order and returns the first
    ordering whose cumulative probability reaches a single uniform draw (the
    last one if rounding leaves the total short of it).  A one-element
    configuration returns the identity without consuming a draw.
    """
    if config.n == 1:
        return (1,)
    scored = enumerate_scores(model, config)
    k = int(np.searchsorted(scored.cdf, rng.uniform(), side="left"))
    return scored[0][min(k, len(scored[0]) - 1)]


def _prepare(tree: DepTree) -> tuple:
    """What permuting `tree` reads, whatever the models, worked out once:
    (source id, drop reason, plan), a kept tree's plan being (its comments'
    text, its tokens' fields, its heads in visiting order, its range line
    count, its count of deps fields cleared).  A token's fields are columns
    2 to 6 joined, head, relation, deps as (head, relation) entries ("_"
    unless every entry is `<digits>:<relation>` with a head in the tree,
    which no reordering changes), and misc with `OrigIdx=`.  A head is (index,
    units: itself and its dependents in surface order with their subtrees'
    sizes, and the class index and configuration it is sampled with, or None)."""
    reason = generation_drop_reason(tree)
    if reason is not None:
        return tree.source_id, reason, None
    sampled = {config.source[1]: (k, config) for k, pos_class in enumerate("NV")
               for config in local_configs(tree, pos_class) if config.n > 1}
    dependents = {k: [t.index for t in deps] for k, deps in children_map(tree).items()}
    # depth-first from the root, children in surface order: the order of the
    # draws; explicit stacks rather than recursion, so a tree of any depth fits
    visits, stack = [], [tree.root.index]
    while stack:
        visits.append(stack.pop())
        stack.extend(reversed(dependents.get(visits[-1], ())))
    size = [1] * (len(tree) + 1)
    for k in reversed(visits):
        size[tree.tokens[k - 1].head] += size[k]
    heads = [(k, tuple((u, 1 if u == k else size[u]) for u in sorted(dependents[k] + [k])),
              sampled.get(k)) for k in visits if k in dependents]
    fields, cleared = [], 0
    for tok in tree.tokens:
        deps = tok.deps
        if deps != "_":
            entries = [_DEPS_ENTRY.match(entry) for entry in deps.split("|")]
            if all(m and int(m[1]) <= len(tree) for m in entries):
                deps = tuple((int(m[1]), m[2]) for m in entries)
            else:
                deps, cleared = "_", cleared + 1
        fields.append((f"{tok.form}\t{tok.lemma}\t{tok.upos}\t{tok.xpos}\t{tok.feats}",
                       tok.head, tok.deprel, deps,
                       ("" if tok.misc == "_" else f"{tok.misc}|") + f"OrigIdx={tok.index}"))
    comments = "".join(line + "\n" for line in tree.comments)
    return tree.source_id, None, (comments, fields, heads, len(tree.ranges), cleared)


def permute_tree(tree: DepTree, model_n: OrderingModel | None,
                 model_v: OrderingModel | None, rng: RngStream) -> DepTree:
    """Resample dependent order at every noun/verb head of a filtered tree.

    Nodes are visited depth-first from the root with children in their
    original surface order; that order fixes how random draws are consumed.
    Subtrees move as units, so the output is projective by construction.
    Indices are reassigned left to right, heads remapped, and every token's
    misc field gains `OrigIdx=<original index>`.  A None model leaves that
    class in its original order.  Multiword range lines do not survive
    reordering and are dropped.  The result is the parse of the text that
    `synthesize_language` writes for the tree, with the tree's source id.
    """
    source_id, reason, plan = _prepare(tree)
    if reason is not None:
        raise ValueError(f"tree {source_id!r} not eligible for generation ({reason})")
    (out,) = parse_conllu(_permute(plan, model_n, model_v, rng), "lenient")
    return DepTree(out.tokens, out.comments, (), source_id)


def _permute(plan: tuple, model_n: OrderingModel | None,
             model_v: OrderingModel | None, rng: RngStream) -> str:
    """The CoNLL-U block of `permute_tree` of the tree `_prepare` gave `plan` for."""
    comments, fields, heads = plan[:3]
    models = (model_n, model_v)
    new = [0] + [1] * len(fields)  # each subtree's first index, then its head's own
    for k, units, sampled in heads:  # a head comes before its dependents
        if sampled is not None and models[sampled[0]] is not None:
            order = sample_ordering(models[sampled[0]], sampled[1], rng)
            units = [units[pos - 1] for pos in order]
        at = new[k]
        for unit, span in units:
            new[unit] = at
            at += span
    lines = [""] * len(fields)
    for k, (columns, head, deprel, deps, misc) in enumerate(fields, start=1):
        if deps != "_":
            deps = "|".join(f"{new[h]}:{relation}" for h, relation in deps)
        lines[new[k] - 1] = f"{new[k]}\t{columns}\t{new[head]}\t{deprel}\t{deps}\t{misc}\n"
    return comments + "".join(lines) + "\n"


def _cached(cache: dict, key: tuple, make):
    """`cache[key]`, set to `make()` when `key` is new."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


def synthesize_language(spec: LanguageSpec, substrate_dir: str | Path,
                        model_dir: str | Path, out_root: str | Path,
                        mode: str = "lenient", cache: dict | None = None) -> Path:
    """Produce the three splits of one synthetic language plus its manifest.

    Reads every input first: the N and V model files of each language the
    spec names, each file once (none when the spec names no superstrate),
    and `<substrate>-ud-{train,dev,test}.conllu` from `substrate_dir`.  Then
    drops non-projective and high-fanout trees, permutes the rest with the
    interpolated models, and only then writes byte-deterministic output
    under `out_root/<spec dirname>`, so a spec that fails on a missing or
    malformed input writes nothing.  Writing deletes any old `manifest.tsv`,
    then puts each split and last the manifest in place whole, through
    `treebank.write_whole`: a directory without a manifest is incomplete.

    `cache`, a dict the caller owns, keeps for later calls given it each
    language's models, each blend with its scores of heads of up to
    `model.MEMO_MAX_N` elements, and each split's `_prepare` plans (about
    1.25 times the parsed trees' memory, which it does not keep).  A file
    is not read again once cached, so drop the dict when inputs may change.
    Reuse never changes a byte.  `batch` keeps one dict per task, a run of
    at most ceil(specs / jobs) consecutive specs with one substrate.
    """
    cache = {} if cache is None else cache
    superstrates = (spec.superstrate_n, spec.superstrate_v)
    model_n = model_v = None
    if superstrates != (None, None):
        pairs = {lang: _cached(cache, ("models", model_dir, lang),
                               lambda: load_language_models(model_dir, lang))
                 for lang in dict.fromkeys((spec.substrate,) + superstrates)
                 if lang is not None}
        model_n, model_v = (
            None if sup is None
            else _cached(cache, ("blend", model_dir, spec.substrate, sup, k, spec.lam),
                         lambda: interpolate(pairs[sup][k], pairs[spec.substrate][k],
                                             spec.lam))
            for k, sup in enumerate(superstrates))
    inputs = {split: _cached(cache, ("split", substrate_dir, spec.substrate, split, mode),
                             lambda: list(map(_prepare, read_split(
                                 substrate_dir, spec.substrate, split, mode))))
              for split in SPLITS}

    manifest: list[tuple[str, str]] = [
        ("spec", spec.dirname),
        ("substrate", spec.substrate),
        ("superstrate_n", spec.superstrate_n or "-"),
        ("superstrate_v", spec.superstrate_v or "-"),
        ("lambda", repr(spec.lam)),
        ("seed", str(spec.seed)),
        ("rng", RngStream.VERSION),
        ("rng_derivation",
         "per-sentence stream keyed on seed, spec dirname, split, 0-based ordinal"),
        ("tool_version", __version__),
    ]
    outputs: dict[str, str] = {}
    for split, trees in inputs.items():
        blocks: list[str] = []
        dropped: dict[str, list[str]] = {"nonprojective": [], "fanout": []}
        for ordinal, (source_id, reason, plan) in enumerate(trees):
            if reason is not None:
                dropped[reason].append(source_id)
                continue
            rng = RngStream(spec.seed, spec.dirname, split, ordinal)
            blocks.append(_permute(plan, model_n, model_v, rng))
        outputs[f"{spec.dirname}-ud-{split}.conllu"] = "".join(blocks)
        manifest.extend([
            (f"{split}_input_sentences", str(len(trees))),
            (f"{split}_kept", str(len(blocks))),
            (f"{split}_dropped_nonprojective", str(len(dropped["nonprojective"]))),
            (f"{split}_dropped_fanout", str(len(dropped["fanout"]))),
            (f"{split}_dropped_ids",
             ",".join(dropped["nonprojective"] + dropped["fanout"]) or "-"),
            (f"{split}_multiword_lines_dropped", str(sum(plan[3] for *_, plan in trees if plan))),
            (f"{split}_deps_fields_cleared", str(sum(plan[4] for *_, plan in trees if plan))),
        ])
    outputs["manifest.tsv"] = "".join(f"{k}\t{v}\n" for k, v in manifest)

    out_dir = Path(out_root) / spec.dirname
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.tsv").unlink(missing_ok=True)
    for name, text in outputs.items():
        write_whole(out_dir / name, text)
    return out_dir


def cross_product_specs(languages: list[str]) -> list[str]:
    """Every spec name over the given substrates with each superstrate slot
    ranging over the languages plus "leave unpermuted"."""
    choices: list[str | None] = [None] + list(languages)
    names = []
    for substrate in languages:
        for sup_n in choices:
            for sup_v in choices:
                names.append(LanguageSpec(substrate, sup_n, sup_v).dirname)
    return names
