"""Synthetic treebank generation.

A synthesized language keeps a substrate treebank's tokens, dominance
structure, and labels, but resamples the left-to-right order of noun and/or
verb dependents from models trained on superstrate languages.  Output
directories are named `<sub>`, `<sub>~<rN>@N`, `<sub>~<rV>@V`, or
`<sub>~<rN>@N~<rV>@V`, each holding `<dirname>-ud-{train,dev,test}.conllu`
plus a `manifest.tsv` of key/value lines.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import DEFAULT_LAMBDA, DEFAULT_SEED, SpecError, __version__
from .model import OrderingModel, enumerate_scores, interpolate, load_model
from .treebank import (DepTree, LocalConfig, Token, children_map,
                       generation_drop_reason, local_configs, read_split,
                       serialize_conllu)

SPLITS = ("train", "dev", "test")

_LANG_ID = re.compile(r"^[A-Za-z0-9_]+$")
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
            if lang is not None and not _LANG_ID.match(lang):
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
    ordinal of the sentence in its split).
    """

    VERSION = "sha256-mt19937/1"

    def __init__(self, *key_parts):
        self.key = "\x1f".join(str(p) for p in key_parts)
        digest = hashlib.sha256(self.key.encode("utf-8")).digest()
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
    orders, scores = enumerate_scores(model, config)
    weights = np.exp(scores - scores.max())
    probs = weights / weights.sum()
    k = int(np.searchsorted(np.cumsum(probs), rng.uniform(), side="left"))
    return orders[min(k, len(orders) - 1)]


def _append_misc(misc: str, key: str, value) -> str:
    entry = f"{key}={value}"
    return entry if misc == "_" else f"{misc}|{entry}"


def _remap_deps(deps: str, index_map: dict[int, int]) -> str:
    # Whole field is cleared unless every entry is plain <digits>:<relation>
    # with a remappable head.
    if deps == "_":
        return "_"
    out = []
    for entry in deps.split("|"):
        m = _DEPS_ENTRY.match(entry)
        if not m or int(m.group(1)) not in index_map:
            return "_"
        out.append(f"{index_map[int(m.group(1))]}:{m.group(2)}")
    return "|".join(out)


def permute_tree(tree: DepTree, model_n: OrderingModel | None,
                 model_v: OrderingModel | None, rng: RngStream) -> DepTree:
    """Resample dependent order at every noun/verb head of a filtered tree.

    Nodes are visited depth-first from the root with children in their
    original surface order; that order fixes how random draws are consumed.
    Subtrees move as units, so the output is projective by construction.
    Indices are reassigned left to right, heads remapped, and every token's
    misc field gains `OrigIdx=<original index>`.  A None model leaves that
    class in its original order.  Multiword range lines do not survive
    reordering and are dropped.
    """
    reason = generation_drop_reason(tree)
    if reason is not None:
        raise ValueError(f"tree {tree.source_id!r} not eligible for generation "
                         f"({reason})")
    dependents = children_map(tree)
    sampled = {config.source[1]: (model, config)
               for pos_class, model in (("N", model_n), ("V", model_v))
               if model is not None
               for config in local_configs(tree, pos_class)}
    # explicit stacks rather than recursion, so a tree of any depth fits
    plans: dict[int, list[Token]] = {}  # each head's units in output order
    heads = [tree.root]
    while heads:
        head = heads.pop()
        deps = dependents.get(head.index, [])
        units = sorted(deps + [head], key=lambda t: t.index)
        if head.index in sampled:
            order = sample_ordering(*sampled[head.index], rng)
            units = [units[pos - 1] for pos in order]
        plans[head.index] = units
        heads.extend(reversed(deps))

    linearized: list[Token] = []
    pending = [(tree.root, True)]  # (token, whether to expand its subtree)
    while pending:
        tok, expand = pending.pop()
        if expand:
            pending.extend((unit, unit.index != tok.index)
                           for unit in reversed(plans[tok.index]))
        else:
            linearized.append(tok)

    index_map = {0: 0}
    for new_index, tok in enumerate(linearized, start=1):
        index_map[tok.index] = new_index
    tokens = tuple(
        replace(tok,
                index=index_map[tok.index],
                head=index_map[tok.head],
                deps=_remap_deps(tok.deps, index_map),
                misc=_append_misc(tok.misc, "OrigIdx", tok.index))
        for tok in linearized)
    return DepTree(tokens, tree.comments, (), tree.source_id)


def load_language_models(model_dir: str | Path, language: str
                         ) -> tuple[OrderingModel, OrderingModel]:
    """Load the N and V models of one language from `<lang>-<class>.model` files."""
    model_dir = Path(model_dir)
    models = []
    for pos_class in ("N", "V"):
        path = model_dir / f"{language}-{pos_class}.model"
        if not path.exists():
            raise SpecError(f"missing model file {path}")
        model = load_model(path)
        if model.pos_class != pos_class:
            raise SpecError(f"{path} declares POS class {model.pos_class!r}")
        models.append(model)
    return models[0], models[1]


def synthesize_language(spec: LanguageSpec, substrate_dir: str | Path,
                        model_dir: str | Path, out_root: str | Path,
                        mode: str = "lenient") -> Path:
    """Produce the three splits of one synthetic language plus its manifest.

    Reads every input first: the N and V model files of each language the
    spec names, each file once (none when the spec names no superstrate),
    and `<substrate>-ud-{train,dev,test}.conllu` from `substrate_dir`.  Then
    drops non-projective and high-fanout trees, permutes the rest with the
    interpolated models, and only then writes byte-deterministic output
    under `out_root/<spec dirname>`, so a spec that fails on a missing or
    malformed input writes nothing.  Writing deletes any old `manifest.tsv`,
    then puts each split and last the manifest in place whole, through a
    temporary file and `os.replace`: a directory without a manifest is
    incomplete.
    """
    superstrates = (spec.superstrate_n, spec.superstrate_v)
    model_n = model_v = None
    if superstrates != (None, None):
        pairs = {lang: load_language_models(model_dir, lang)
                 for lang in dict.fromkeys((spec.substrate,) + superstrates)
                 if lang is not None}
        model_n, model_v = (
            None if sup is None
            else interpolate(pairs[sup][k], pairs[spec.substrate][k], spec.lam)
            for k, sup in enumerate(superstrates))
    inputs = {split: read_split(substrate_dir, spec.substrate, split, mode)
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
        out_trees: list[DepTree] = []
        dropped: dict[str, list[str]] = {"nonprojective": [], "fanout": []}
        mwt_dropped = 0
        deps_cleared = 0
        for ordinal, tree in enumerate(trees):
            reason = generation_drop_reason(tree)
            if reason is not None:
                dropped[reason].append(tree.source_id)
                continue
            rng = RngStream(spec.seed, spec.dirname, split, ordinal)
            permuted = permute_tree(tree, model_n, model_v, rng)
            mwt_dropped += len(tree.ranges)
            # remapping never invents a deps value, so cleared = lost count
            deps_cleared += (sum(1 for t in tree.tokens if t.deps != "_")
                             - sum(1 for t in permuted.tokens if t.deps != "_"))
            out_trees.append(permuted)
        outputs[f"{spec.dirname}-ud-{split}.conllu"] = serialize_conllu(out_trees)
        manifest.extend([
            (f"{split}_input_sentences", str(len(trees))),
            (f"{split}_kept", str(len(out_trees))),
            (f"{split}_dropped_nonprojective", str(len(dropped["nonprojective"]))),
            (f"{split}_dropped_fanout", str(len(dropped["fanout"]))),
            (f"{split}_dropped_ids",
             ",".join(dropped["nonprojective"] + dropped["fanout"]) or "-"),
            (f"{split}_multiword_lines_dropped", str(mwt_dropped)),
            (f"{split}_deps_fields_cleared", str(deps_cleared)),
        ])
    outputs["manifest.tsv"] = "".join(f"{k}\t{v}\n" for k, v in manifest)

    out_dir = Path(out_root) / spec.dirname
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.tsv").unlink(missing_ok=True)
    for name, text in outputs.items():
        temp = out_dir / f"{name}.tmp"
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, out_dir / name)
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
