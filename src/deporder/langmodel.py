"""Trigram language models with add-one smoothing, over tags or words.

Training counts and evaluation scores the same trigram events: those of the
sequence padded with two start sentinels and one end sentinel, each symbol
mapped into the vocabulary.  The conditional probability of w3 after (w1, w2) is

    (count(w1 w2 w3) + 1) / (count(w1 w2) + V)

where V is the prediction vocabulary size (the vocabulary minus the start
sentinel, which is never predicted).  Unseen histories therefore fall back
to the uniform 1/V.  The vocabulary is the universal tagset (tag mode) or
the training tokens seen at least `oov_threshold` times plus an OOV symbol
(word mode), and both sentinels.  Any other symbol, or one spelled like a
sentinel, maps to `X` (tag mode) or OOV (word mode).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import DEFAULT_OOV_THRESHOLD
from .treebank import DepTree, UPOS_TAGS, read_input, read_records, write_whole

BOS = "<s>"
EOS = "</s>"
OOV = "<unk>"


@dataclass(frozen=True)
class TrigramLM:
    mode: str  # "tag" or "word"
    vocabulary: frozenset[str]
    trigrams: dict[tuple[str, str, str], int]
    histories: dict[tuple[str, str], int]
    oov_threshold: int = DEFAULT_OOV_THRESHOLD

    @property
    def prediction_vocab_size(self) -> int:
        return len(self.vocabulary) - 1  # BOS is never predicted

    def map_symbol(self, symbol: str) -> str:
        if symbol in self.vocabulary and symbol != BOS and symbol != EOS:
            return symbol
        return OOV if self.mode == "word" else "X"

    def trigram_events(self, sequence: Sequence[str]) -> Iterable[tuple[str, str, str]]:
        """The trigrams of the padded, mapped sequence, in order."""
        padded = [BOS, BOS, *map(self.map_symbol, sequence), EOS]
        return zip(padded, padded[1:], padded[2:])

    def log2_conditional(self, w1: str, w2: str, w3: str) -> float:
        numerator = self.trigrams.get((w1, w2, w3), 0) + 1
        denominator = self.histories.get((w1, w2), 0) + self.prediction_vocab_size
        return math.log2(numerator / denominator)

    def sequence_log2prob(self, sequence: Sequence[str]) -> tuple[float, int]:
        """Total log2 probability and number of predicted positions
        (every symbol plus the end sentinel)."""
        total = 0.0
        for w1, w2, w3 in self.trigram_events(sequence):
            total += self.log2_conditional(w1, w2, w3)
        return total, len(sequence) + 1


def train_trigram(sequences: Sequence[Sequence[str]], mode: str = "tag",
                  oov_threshold: int = DEFAULT_OOV_THRESHOLD) -> TrigramLM:
    """Count the trigram events of the sequences.

    Word mode's vocabulary holds the tokens seen at least `oov_threshold`
    times in the corpus; rarer tokens map to the OOV symbol.
    """
    if mode not in ("tag", "word"):
        raise ValueError(f"unknown mode {mode!r}")
    if not sequences:
        raise ValueError("empty training corpus")
    counts = Counter(tok for seq in sequences for tok in seq) if mode == "word" else {}
    vocabulary = _vocabulary(mode, (tok for tok, c in counts.items() if c >= oov_threshold))
    events = TrigramLM(mode, vocabulary, {}, {}, oov_threshold).trigram_events
    trigrams = Counter(event for seq in sequences for event in events(seq))
    return TrigramLM(mode, vocabulary, dict(trigrams), _histories(trigrams), oov_threshold)


def _vocabulary(mode: str, words: Iterable[str]) -> frozenset[str]:
    """Tag mode: the universal tagset; word mode: `words` and OOV.  Both add BOS and EOS."""
    if mode == "tag":
        return UPOS_TAGS | {BOS, EOS}
    return frozenset(words) | {BOS, EOS, OOV}


def _histories(trigrams: dict[tuple[str, str, str], int]) -> dict[tuple[str, str], int]:
    """Count of each history (w1, w2): the sum of its trigrams' counts."""
    histories: Counter = Counter()
    for (w1, w2, _), count in trigrams.items():
        histories[(w1, w2)] += count
    return dict(histories)


def perplexity(lm: TrigramLM, sequences: Sequence[Sequence[str]]) -> float:
    """2 ** (mean negative log2 probability per predicted position)."""
    total = 0.0
    positions = 0
    for seq in sequences:
        log2p, n = lm.sequence_log2prob(seq)
        total += log2p
        positions += n
    if positions == 0:
        raise ValueError("nothing to evaluate")
    return 2.0 ** (-total / positions)


def select_source(candidates: Sequence[tuple[str, TrigramLM]],
                  target_sequences: Sequence[Sequence[str]]
                  ) -> tuple[str, list[tuple[str, float, int]]]:
    """Maximum-likelihood source for the target sequences.

    Returns the winning language id and the full table of
    (language, total log2 probability, rank), best first.  Ties are broken
    by lexicographic language id.  An empty target is a ValueError.
    """
    if not candidates:
        raise ValueError("no candidate language models")
    if not target_sequences:
        raise ValueError("nothing to evaluate")
    scored = []
    for language, lm in candidates:
        total = sum(lm.sequence_log2prob(seq)[0] for seq in target_sequences)
        scored.append((language, total))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    table = [(language, total, rank)
             for rank, (language, total) in enumerate(scored, start=1)]
    return table[0][0], table


def tag_sequences(trees: Iterable[DepTree]) -> list[list[str]]:
    return [[tok.upos for tok in tree.tokens] for tree in trees]


def word_sequences(trees: Iterable[DepTree]) -> list[list[str]]:
    return [[tok.form for tok in tree.tokens] for tree in trees]


def lm_to_text(lm: TrigramLM) -> str:
    """Line-oriented persistence: headers then `w1 w2 w3<TAB>count` lines.

    Symbols therefore must not contain whitespace; offenders are rejected.
    """
    for symbol in lm.vocabulary:
        if any(ch.isspace() for ch in symbol):
            raise ValueError(f"cannot persist symbol with whitespace: {symbol!r}")
    lines = [f"#mode {lm.mode}",
             f"#oov_threshold {lm.oov_threshold}",
             f"#vocab_size {len(lm.vocabulary)}"]
    for (w1, w2, w3) in sorted(lm.trigrams):
        lines.append(f"{w1} {w2} {w3}\t{lm.trigrams[(w1, w2, w3)]}")
    return "\n".join(lines) + "\n"


def _count(lineno: int, text: str) -> int:
    """A count field of line `lineno`: a non-negative integer."""
    if not text.strip().isdecimal():
        raise ValueError(f"line {lineno}: {text.strip()!r} is not a non-negative integer")
    return int(text)


def lm_from_text(text: str) -> TrigramLM:
    headers, records = read_records(text, ("mode", "oov_threshold", "vocab_size"))
    mode = headers.get("mode", (0, ""))[1]
    oov_threshold = _count(*headers.get("oov_threshold", (0, str(DEFAULT_OOV_THRESHOLD))))
    declared_vocab = _count(*headers["vocab_size"]) if "vocab_size" in headers else -1
    trigrams: dict[tuple[str, str, str], int] = {}
    for lineno, gram, sep, count in records:
        parts = tuple(gram.split(" "))
        if not sep or len(parts) != 3:
            raise ValueError(f"line {lineno}: expected `w1 w2 w3\\t<count>`")
        if parts in trigrams:
            raise ValueError(f"line {lineno}: repeated trigram {gram!r}")
        trigrams[parts] = _count(lineno, count)
    if mode not in ("tag", "word"):
        raise ValueError(f"bad or missing #mode header: {mode!r}")
    vocabulary = _vocabulary(mode, {symbol for gram in trigrams for symbol in gram})
    for (lineno, *_), (w1, w2, w3) in zip(records, trigrams):  # what no sequence yields
        if not {w1, w2, w3} <= vocabulary or w3 == BOS or EOS in (w1, w2) or w2 == BOS != w1:
            raise ValueError(f"line {lineno}: no sequence has the trigram {w1} {w2} {w3}")
    if declared_vocab >= 0 and declared_vocab != len(vocabulary):
        raise ValueError(f"vocabulary size mismatch: header says {declared_vocab}, "
                         f"reconstructed {len(vocabulary)}")
    return TrigramLM(mode, vocabulary, trigrams, _histories(trigrams), oov_threshold)


def save_lm(lm: TrigramLM, path: str | Path) -> None:
    """Write `lm_to_text(lm)` to `path` whole (`treebank.write_whole`)."""
    write_whole(path, lm_to_text(lm))


def load_lm(path: str | Path) -> TrigramLM:
    return read_input(path, "language model", lm_from_text)
