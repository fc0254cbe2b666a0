"""Seeded generated treebanks for the benchmark workloads.

Sentences come from `random_projective_tree` in
`tests/fixtures/generate_fixtures.py`, the generator behind the `xx`
fixture, with the same length range (3 to 12 tokens).  A split is stratified:
it holds an exact number of noun/verb heads with 5, 6 and 7 elements and an
exact number of sentences that generation drops for fan-out.  Those few
large heads carry most of the cost of training, scoring and sampling (cost
grows with n!), so fixing their counts makes every seed do about the same
amount of work while the sentences themselves change with the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

from generate_fixtures import random_projective_tree

NOUN_VERB_TAGS = frozenset({"NOUN", "PROPN", "PRON", "VERB"})
TRACKED_SIZES = (5, 6, 7)
GENERATION_FANOUT = 8  # a node with this many elements drops its tree


def _signature(sentence) -> Counter:
    """Tracked features of one sentence: large noun/verb heads, fan-out drop."""
    children: Counter = Counter()
    tags = {}
    for row in sentence.rows:
        tags[int(row[0])] = row[3]
        children[int(row[6])] += 1
    sig: Counter = Counter()
    if 1 + max((c for h, c in children.items() if h != 0), default=0) >= GENERATION_FANOUT:
        sig["fanout"] += 1
    for index, tag in tags.items():
        n = 1 + children[index]
        if tag in NOUN_VERB_TAGS and n in TRACKED_SIZES:
            sig[f"n{n}"] += 1
    return sig


def stratified_split(rnd: random.Random, prefix: str, plain: int,
                     quotas: dict[str, int]) -> list:
    """`plain` sentences with no tracked feature plus sentences that fill
    `quotas` exactly (keys `n5`, `n6`, `n7`, `fanout`), in draw order."""
    taken: Counter = Counter()
    kept = []
    plain_left = plain
    while plain_left or taken != Counter(quotas):
        sentence = random_projective_tree(rnd, "", rnd.randint(3, 12))
        sig = _signature(sentence)
        if not sig:
            if not plain_left:
                continue
            plain_left -= 1
        elif any(taken[k] + v > quotas.get(k, 0) for k, v in sig.items()):
            continue
        taken += sig
        sentence.sent_id = f"{prefix}-{len(kept) + 1}"
        kept.append(sentence)
    return kept


def write_split(path: Path, sentences) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(s.block() + "\n" for s in sentences), encoding="utf-8")
    return len(sentences)


# Quotas follow the generator's own rates per sentence (about 0.25 heads
# with n=5, 0.12 with n=6, 0.04 with n=7, and 0.013 fan-out drops).
TRAIN_GEN = {"train": (120, {"n5": 50, "n6": 23, "n7": 8, "fanout": 3})}
DEEP_GEN = {
    "train": (90, {"n5": 38, "n6": 17, "n7": 6, "fanout": 2}),
    "dev": (45, {"n5": 19, "n6": 9, "n7": 3, "fanout": 1}),
    "test": (45, {"n5": 19, "n6": 9, "n7": 3, "fanout": 1}),
}


def write_language(root: Path, language: str, seed: int, layout) -> dict[str, int]:
    """Write `<root>/<language>/<language>-ud-<split>.conllu` for each split of
    `layout`; return sentence counts per split."""
    rnd = random.Random(f"perfbench/{language}/{seed}")
    counts = {}
    for split, (plain, quotas) in layout.items():
        sentences = stratified_split(rnd, f"{language}-{split}", plain, quotas)
        counts[split] = write_split(
            root / language / f"{language}-ud-{split}.conllu", sentences)
    return counts
