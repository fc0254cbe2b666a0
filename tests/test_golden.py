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
        "44df0f71187b6f5abe315d50ee903c984ff949eddbfd3ae4963723e540f14cec",
    "nadj-V.model":
        "3a7559eadf5f8dcc40f535219af30213f67abf535c9059acd305849acafaa36b",
    "sov-N.model":
        "30cf5420151e2239eaaf9c7493832fd95f6cbe5d6ce51d043d92f1cf36f85f42",
    "sov-V.model":
        "fafa25007e66d9d473b94639241863301009146de2e2bd704fdb8c15fc296d4f",
    "xx-N.model":
        "a3fb4e19cd2046e5a3e15ddb18ab39d87881d5c9db6c4b90112c2b5b63119354",
    "xx-V.model":
        "5402d3d7853be909ea32cd7914f5b1f764b7e2837980855c606bcd097569e002",
}

# Trigram LMs of each mode, trained on the fixture `xx` train split.
LM_DIGESTS = {
    "tag": "a23a6372c74fa8f04079a6d17b878ae8ca1f78c7f410e12a3597467d118b60cc",
    "word": "494839d50538769f29b8fade21b893c6ad8d0f21cbb8724979eb54b82e335acc",
}

# A self-permutation, an N+V blend and a V-only blend.
TREEBANK_DIGESTS = {
    "xx~xx@N~xx@V":
        "03f3493860dacb39c8cc7f9ffdb35b864438c882517471b4c88e76af9c8e8aed",
    "xx~nadj@N~sov@V":
        "110fb226468cc55d4fcc6e7dc27584d755f5c3a79548f761c8fbc792774d85de",
    "nadj~sov@V":
        "d6e381fc91ae481848a74c19a5f5fd848abcf8276afe4011bc902dee7755e404",
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
