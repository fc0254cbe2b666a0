"""Golden SHA-256 digests of trained model files and synthesized treebanks.

Any change to these output bytes must be deliberate: a move needs a golden
digest, a version bump and a CHANGES.md entry that says why the bytes moved.
Model files carry no version field, so the version bump is what marks a
model-byte move.  Regenerate with `python tests/test_golden.py OUT_DIR`,
which trains the fixture languages into OUT_DIR/models and synthesizes
under OUT_DIR/out.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from deporder.synthesis import LanguageSpec, synthesize_language

from conftest import UD_ROOT, save_fixture_models

MODEL_DIGESTS = {
    "nadj-N.model":
        "82d21eea99bf8cfd041ab89d0475d4eff85ec90a664600ebc88bf71d24fd43d5",
    "nadj-V.model":
        "88234d0d1e85adbb22de0ec180bc0ac2bc91a57a61ef7fb885b4cc05d5ffef2e",
    "sov-N.model":
        "394e4ca53f72cb74587bad8bd4d20ce61edfd419d461bdc0718b1e2c7ddc1e4d",
    "sov-V.model":
        "813230970ad93ffc8cfc6d4c43c2fb5f63bc1b18e9f86abcffc4391663fbde31",
    "xx-N.model":
        "c8a2e78dcf088e98f264af137ce5b9e62a8cc972cd575529e43fa4350d127fdc",
    "xx-V.model":
        "a0065308f2b2bdd6cc49b796d53a0a783a01215db8bc08a369e187fe8ca5a4a2",
}

# A self-permutation, an N+V blend and a V-only blend.
TREEBANK_DIGESTS = {
    "xx~xx@N~xx@V":
        "2e266a58c4d3fd2be5deed927f4acdd6a85086390cc1581b89f88813663beb96",
    "xx~nadj@N~sov@V":
        "9b42e08cee6e9cbb725673b5bc8d534971462c077813712a1c37a6e4b170efc2",
    "nadj~sov@V":
        "5913a84359327a1dce0f46a898af85a851f3940b2b48ce62bdf66a295ffa874e",
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


if __name__ == "__main__":
    model_dir, out_root = Path(sys.argv[1]) / "models", Path(sys.argv[1]) / "out"
    model_dir.mkdir(parents=True)
    save_fixture_models(model_dir)
    for name in sorted(MODEL_DIGESTS):
        print(f'"{name}": "{hashlib.sha256((model_dir / name).read_bytes()).hexdigest()}",')
    for spec_name in TREEBANK_DIGESTS:
        print(f'"{spec_name}": "{synthesized_digest(spec_name, model_dir, out_root)}",')
