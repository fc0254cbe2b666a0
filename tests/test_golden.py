"""Golden SHA-256 digests of trained model files, trigram language model
files and synthesized treebanks.

Any change to these output bytes must be deliberate: a move needs a golden
digest, a version bump and a CHANGES.md entry that says why the bytes moved.
Model files carry no version field, so the version bump is what marks a
model-byte move.  Regenerate with `python tests/test_golden.py OUT_DIR`,
which trains the fixture languages into OUT_DIR/models and synthesizes
under OUT_DIR/out.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from deporder import __version__
from deporder.langmodel import (lm_to_text, tag_sequences, train_trigram,
                                word_sequences)
from deporder.synthesis import LanguageSpec, synthesize_language

from conftest import UD_ROOT, load_split, save_fixture_models

MODEL_DIGESTS = {
    "nadj-N.model":
        "e3b72a797dc9e48cf6d517dbddab2a855c296ed7caf752c605231cd18b2f2307",
    "nadj-V.model":
        "ac42e6166a48b3bd6763c7007eba7b3b4b1c76ee891502a3e61b823550ba11b5",
    "sov-N.model":
        "7d2b8f791667db4d1deb33a700a713e0f169492ec9d99d6281ef4137c4a7cf72",
    "sov-V.model":
        "f8565e1b0d305a7bd0cbcb08e00e6f3bf46ff56bbb6d9ef0fcff27aa3b15e3b9",
    "xx-N.model":
        "a9a54fe2ca48a27d237b6e14e6a15825e1da309d0d066448c627f5c19b9a46b7",
    "xx-V.model":
        "9dda0b7bd86d2172b161aefdf38f09012da47cec6e13e591aa11368bc26a3a33",
}

# Trigram LMs of each mode, trained on the fixture `xx` train split.
LM_DIGESTS = {
    "tag": "a23a6372c74fa8f04079a6d17b878ae8ca1f78c7f410e12a3597467d118b60cc",
    "word": "494839d50538769f29b8fade21b893c6ad8d0f21cbb8724979eb54b82e335acc",
}

# A self-permutation, an N+V blend and a V-only blend.
TREEBANK_DIGESTS = {
    "xx~xx@N~xx@V":
        "e3e65fb1a9a88c778c0b4bf0b39613e54564f7216b807bc0f620f044026c7cda",
    "xx~nadj@N~sov@V":
        "52409e7fd919b3aeaf12d0624f8da4d3660f7c582996e18311c3461f6e219ee0",
    "nadj~sov@V":
        "1933bde2a5e7a7fc2399b597ce7d06088f7416da9e1bf0dafb4751894aaf1a1a",
}


def directory_digest(directory: Path) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def synthesized_digest(spec_name: str, model_dir: Path, out_root: Path) -> str:
    spec = LanguageSpec.parse(spec_name)
    out = synthesize_language(spec, UD_ROOT / spec.substrate, model_dir, out_root)
    return directory_digest(out)


def lm_digest(mode: str) -> str:
    trees = load_split("xx")
    sequences = tag_sequences(trees) if mode == "tag" else word_sequences(trees)
    text = lm_to_text(train_trigram(sequences, mode))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_model_file_digest(fixture_model_dir, name):
    digest = hashlib.sha256((fixture_model_dir / name).read_bytes()).hexdigest()
    assert digest == MODEL_DIGESTS[name]


@pytest.mark.parametrize("mode", sorted(LM_DIGESTS))
def test_language_model_digest(mode):
    assert lm_digest(mode) == LM_DIGESTS[mode]


@pytest.mark.parametrize("spec_name", sorted(TREEBANK_DIGESTS))
def test_synthesized_treebank_digest(fixture_model_dir, tmp_path, spec_name):
    assert synthesized_digest(spec_name, fixture_model_dir, tmp_path) \
        == TREEBANK_DIGESTS[spec_name]


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', text, re.MULTILINE) == [__version__]


if __name__ == "__main__":
    model_dir, out_root = Path(sys.argv[1]) / "models", Path(sys.argv[1]) / "out"
    model_dir.mkdir(parents=True)
    save_fixture_models(model_dir)
    for name in sorted(MODEL_DIGESTS):
        print(f'"{name}": "{hashlib.sha256((model_dir / name).read_bytes()).hexdigest()}",')
    for mode in sorted(LM_DIGESTS):
        print(f'"{mode}": "{lm_digest(mode)}",')
    for spec_name in TREEBANK_DIGESTS:
        print(f'"{spec_name}": "{synthesized_digest(spec_name, model_dir, out_root)}",')
