"""CoNLL-U treebanks: parsing, filtering, and local head+dependent configurations.

A treebank file holds blank-line-separated sentence blocks.  Each block is a
sequence of "# "-prefixed comment lines followed by 10-column tab-separated
token lines ("_" for empty fields).  Multiword range lines (ids like "3-4")
are preserved positionally but are not tokens.  Files end with a trailing
newline after the final blank line.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .sjt import MAX_N

logger = logging.getLogger(__name__)

# The closed universal POS tagset (17 tags).
UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})

# The closed universal relation set (40 relations).  Language-specific
# subtypes ("acl:rel") are matched on the prefix before ":".
UNIVERSAL_RELATIONS = frozenset({
    "acl", "advcl", "advmod", "amod", "appos", "aux", "auxpass", "case",
    "cc", "ccomp", "compound", "conj", "cop", "csubj", "csubjpass", "dep",
    "det", "discourse", "dislocated", "dobj", "expl", "foreign", "goeswith",
    "iobj", "list", "mark", "mwe", "name", "neg", "nmod", "nsubj",
    "nsubjpass", "nummod", "parataxis", "punct", "remnant", "reparandum",
    "root", "vocative", "xcomp",
})

# Synthetic relation carried by the head element inside its own configuration.
HEAD_RELATION = "head"

NOUN_CLASS_TAGS = frozenset({"NOUN", "PROPN", "PRON"})
VERB_CLASS_TAGS = frozenset({"VERB"})
POS_CLASSES = {"N": NOUN_CLASS_TAGS, "V": VERB_CLASS_TAGS}

# A node whose local configuration (head plus dependents) is larger than
# this makes the whole tree ineligible for generation: exact sampling
# enumerates every ordering, and the enumerator stops at MAX_N elements.
MAX_GENERATION_FANOUT = MAX_N

_RANGE_ID = re.compile(r"^\d+-\d+$")
_DECIMAL_ID = re.compile(r"^\d+\.\d+$")
_SENT_ID = re.compile(r"^#\s*sent_id\s*[=:]?\s*(\S+)\s*$")


class ConlluError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Token:
    """One token line.  `head` is the 1-based parent index, 0 for the root."""

    index: int
    form: str
    lemma: str = "_"
    upos: str = "X"
    xpos: str = "_"
    feats: str = "_"
    head: int = 0
    deprel: str = "root"
    deps: str = "_"
    misc: str = "_"


@dataclass(frozen=True)
class DepTree:
    """One parsed sentence.

    `comments` are the verbatim leading comment lines.  `ranges` holds
    multiword range lines as (anchor, line) pairs, where anchor is the index
    of the token the line precedes.
    """

    tokens: tuple[Token, ...]
    comments: tuple[str, ...] = ()
    ranges: tuple[tuple[int, str], ...] = ()
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def root(self) -> Token:
        for tok in self.tokens:
            if tok.head == 0:
                return tok
        raise ValueError(f"tree {self.source_id!r} has no root")


@dataclass(frozen=True)
class LocalConfig:
    """A head node plus its direct dependents, in surface order.

    Exactly one element carries the relation "head" (the head itself);
    dependents keep their relation as written, subtypes included, save that
    a dependent labelled "head" carries "dep".
    """

    elements: tuple[tuple[str, str], ...]
    source: tuple[str, int] = ("", 0)

    @property
    def n(self) -> int:
        return len(self.elements)


def _parse_token(fields: list[str], lineno: int) -> Token:
    try:
        index = int(fields[0])
    except ValueError:
        raise ConlluError(f"non-integer token id {fields[0]!r}", lineno)
    try:
        head = int(fields[6])
    except ValueError:
        raise ConlluError(f"non-integer head {fields[6]!r}", lineno)
    if index < 1:
        raise ConlluError(f"token id must be >= 1, got {index}", lineno)
    if head < 0:
        raise ConlluError(f"head must be >= 0, got {head}", lineno)
    if head == index:
        raise ConlluError(f"token {index} is its own head", lineno)
    return Token(index, fields[1], fields[2], fields[3], fields[4],
                 fields[5], head, fields[7], fields[8], fields[9])


def _check_closed_sets(tok: Token, lineno: int) -> None:
    if tok.upos not in UPOS_TAGS:
        raise ConlluError(f"unknown POS tag {tok.upos!r}", lineno)
    prefix = tok.deprel.split(":", 1)[0]
    if prefix not in UNIVERSAL_RELATIONS:
        raise ConlluError(f"unknown relation {tok.deprel!r}", lineno)


def _check_tree_structure(tokens: list[Token], first_line: int) -> None:
    roots = [t for t in tokens if t.head == 0]
    if len(roots) != 1:
        raise ConlluError(f"expected exactly one root, found {len(roots)}", first_line)
    n = len(tokens)
    children: dict[int, list[int]] = {}
    for t in tokens:
        if t.head > n:
            raise ConlluError(f"head {t.head} of token {t.index} out of range", first_line)
        children.setdefault(t.head, []).append(t.index)
    reached = set()
    stack = [0]
    while stack:
        for c in children.get(stack.pop(), ()):
            if c not in reached:
                reached.add(c)
                stack.append(c)
    if len(reached) != n:
        raise ConlluError("head indices contain a cycle", first_line)


def _parse_block(lines: list[str], first_line: int, ordinal: int, strict: bool) -> DepTree:
    """The tree of one block of non-blank lines; ConlluError at its first malformed line."""
    comments: list[str] = []
    tokens: list[Token] = []
    ranges: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=first_line):
        if line.startswith("#"):
            if tokens:
                raise ConlluError("comment after token lines", lineno)
            comments.append(line)
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise ConlluError(f"expected 10 columns, found {len(fields)}", lineno)
        if not fields[0].isdecimal():  # a multiword range or an empty node
            if _RANGE_ID.match(fields[0]):
                ranges.append((len(tokens) + 1, line))
                continue
            if _DECIMAL_ID.match(fields[0]):
                raise ConlluError(f"decimal token id {fields[0]!r} not supported", lineno)
        tok = _parse_token(fields, lineno)
        if tok.index != len(tokens) + 1:
            raise ConlluError(f"token id {tok.index} out of sequence", lineno)
        if strict:
            _check_closed_sets(tok, lineno)
        tokens.append(tok)
    if not tokens:
        raise ConlluError("sentence block has no token lines", first_line)
    _check_tree_structure(tokens, first_line)
    source_id = next((m.group(1) for m in map(_SENT_ID.match, comments) if m),
                     f"s{ordinal}")
    return DepTree(tuple(tokens), tuple(comments), tuple(ranges), source_id)


def parse_conllu(text: str, mode: str = "strict") -> list[DepTree]:
    """Parse CoNLL-U text into one DepTree per sentence block.

    Strict mode raises ConlluError on structural problems (column counts,
    bad head indices, cycles, root count) and on POS tags or relation
    prefixes outside the closed universal sets.  Lenient mode passes
    unknown tags and relations through verbatim and skips malformed
    sentences with a logged warning.  A sentence without a sent_id comment
    is named `s<k>`, k counting the sentences kept.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode {mode!r}")
    trees: list[DepTree] = []
    block: list[str] = []
    # a blank line past the end closes the last block
    for lineno, line in enumerate(text.split("\n") + [""], start=1):
        if line.strip():
            block.append(line)
        elif block:
            try:
                trees.append(_parse_block(block, lineno - len(block),
                                          len(trees) + 1, mode == "strict"))
            except ConlluError as exc:
                if mode == "strict":
                    raise
                logger.warning("skipping malformed sentence: %s", exc)
            block = []
    return trees


def read_split(treebank_dir: str | Path, language: str, split: str,
               mode: str = "strict") -> list[DepTree]:
    """Parse `<language>-ud-<split>.conllu` from a language directory."""
    path = Path(treebank_dir) / f"{language}-ud-{split}.conllu"
    if not path.exists():
        raise FileNotFoundError(f"missing split file {path}")
    return parse_conllu(path.read_text(encoding="utf-8"), mode)


def serialize_conllu(trees: list[DepTree]) -> str:
    """Render trees back to CoNLL-U text; inverse of `parse_conllu`."""
    blocks = []
    for tree in trees:
        lines = list(tree.comments)
        by_anchor: dict[int, list[str]] = {}
        for anchor, raw in tree.ranges:
            by_anchor.setdefault(anchor, []).append(raw)
        for tok in tree.tokens:
            lines.extend(by_anchor.get(tok.index, ()))
            lines.append("\t".join((str(tok.index), tok.form, tok.lemma,
                                    tok.upos, tok.xpos, tok.feats,
                                    str(tok.head), tok.deprel, tok.deps,
                                    tok.misc)))
        blocks.append("\n".join(lines) + "\n")
    return "".join(b + "\n" for b in blocks)


def children_map(tree: DepTree) -> dict[int, list[Token]]:
    """Map from head index (0 for the virtual root) to dependents in surface order."""
    out: dict[int, list[Token]] = {}
    for tok in tree.tokens:
        out.setdefault(tok.head, []).append(tok)
    return out


def is_projective(tree: DepTree) -> bool:
    """True iff every token strictly between an arc's endpoints descends from the arc's head.

    Tested as: each such token's head lies in the arc's span, ends included.
    Enough: a head chain inside the span reaches an end, and both ends
    descend from the arc's head.  Needed: if an inner token k had its head
    g outside, the arc g->k would cover an end, which must descend from g,
    while k descends from the arc's head: g and that head would form a cycle.
    """
    head_of = {tok.index: tok.head for tok in tree.tokens}
    for tok in tree.tokens:
        if tok.head == 0:
            continue
        lo, hi = min(tok.head, tok.index), max(tok.head, tok.index)
        for k in range(lo + 1, hi):
            if not lo <= head_of[k] <= hi:
                return False
    return True


def max_fanout(tree: DepTree) -> int:
    """Largest local configuration size (head plus dependents) over all nodes."""
    counts: dict[int, int] = {}
    for tok in tree.tokens:
        counts[tok.head] = counts.get(tok.head, 0) + 1
    return 1 + max((c for h, c in counts.items() if h != 0), default=0)


def generation_drop_reason(tree: DepTree) -> str | None:
    """Why generation must skip this tree: "nonprojective", "fanout", or None."""
    if not is_projective(tree):
        return "nonprojective"
    if max_fanout(tree) > MAX_GENERATION_FANOUT:
        return "fanout"
    return None


def filter_for_generation(trees: list[DepTree]) -> list[DepTree]:
    """The trees that are projective and free of nodes with 7+ dependents."""
    return [tree for tree in trees if generation_drop_reason(tree) is None]


def local_configs(tree: DepTree, pos_class: str) -> list[LocalConfig]:
    """One LocalConfig per node of the class: "N" (NOUN/PROPN/PRON) or "V" (VERB).

    Elements appear in the surface order of the sentence; the head element
    carries the synthetic relation "head", dependents their deprel verbatim
    save "head" itself, which gets "dep", the features' unknown-relation bucket.
    """
    try:
        tags = POS_CLASSES[pos_class]
    except KeyError:
        raise ValueError(f"unknown POS class {pos_class!r}; expected 'N' or 'V'") from None
    deps = children_map(tree)
    configs = []
    for tok in tree.tokens:
        if tok.upos not in tags:
            continue
        units = sorted(deps.get(tok.index, []) + [tok], key=lambda t: t.index)
        elements = tuple(
            (u.upos, HEAD_RELATION if u.index == tok.index
             else "dep" if u.deprel == HEAD_RELATION else u.deprel)
            for u in units
        )
        configs.append(LocalConfig(elements, (tree.source_id, tok.index)))
    return configs


def touched_fraction(trees: list[DepTree]) -> float:
    """Fraction of tokens that are N/V heads or direct dependents of one."""
    permutable = NOUN_CLASS_TAGS | VERB_CLASS_TAGS
    touched = 0
    total = 0
    for tree in trees:
        tag_of = {tok.index: tok.upos for tok in tree.tokens}
        for tok in tree.tokens:
            total += 1
            if tok.upos in permutable or tag_of.get(tok.head) in permutable:
                touched += 1
    return touched / total if total else 0.0
