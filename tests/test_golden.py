"""Golden SHA-256 digests of trained model files and synthesized treebanks.

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
from deporder.synthesis import LanguageSpec, synthesize_language

from conftest import UD_ROOT, save_fixture_models

MODEL_DIGESTS = {
    "nadj-N.model":
        "05ad51468b1e406690a6b2986e8dbd73cb6e3d270daab2106352d5ddbfbbc2ac",
    "nadj-V.model":
        "ba35417bb9f88fd58f931f3cbe02a53b65800908bf78a03f6cadace2a29a0d8f",
    "sov-N.model":
        "ef21001a886ed45aac05fa4698282889c7491356de66ce70ed5ce7914aedaff6",
    "sov-V.model":
        "fab8c13d620769eeaeebeb532b19c0a1c066ea4e89591b7ada678a9c1cb3d36e",
    "xx-N.model":
        "d71a9f586b50b7d23bf60c54e95930f8f0f9d6fe04dab9b0fb22eb1d625a4279",
    "xx-V.model":
        "c7e440d57a009658c7948f69700f2121961c5ac272bba797dc5f94a7128ee3fb",
}

# A self-permutation, an N+V blend and a V-only blend.
TREEBANK_DIGESTS = {
    "xx~xx@N~xx@V":
        "b3cc286b458e78f919c4b14e15f411ddbd57fc49469bb5a2db471b033e0699fa",
    "xx~nadj@N~sov@V":
        "e6c84c8a840788c8209349a24b5abefd09e6b85f10e947183a5a587f763c93d9",
    "nadj~sov@V":
        "10df82d68961544f1d95966dee57520ee166e64a8550719f2f1cddd53e6e4843",
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


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_model_file_digest(fixture_model_dir, name):
    digest = hashlib.sha256((fixture_model_dir / name).read_bytes()).hexdigest()
    assert digest == MODEL_DIGESTS[name]


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
    for spec_name in TREEBANK_DIGESTS:
        print(f'"{spec_name}": "{synthesized_digest(spec_name, model_dir, out_root)}",')
