"""Golden SHA-256 digests of trained model files and synthesized treebanks.

Any change to these output bytes must be deliberate: it comes with a version
bump and a CHANGES.md entry that says why the bytes moved.  Model files carry
no version field, so their digests must never move for a refactor.
Regenerate with `python tests/test_golden.py MODEL_DIR OUT_DIR` after
training the fixture languages into MODEL_DIR.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from deporder.synthesis import LanguageSpec, synthesize_language

from conftest import UD_ROOT

MODEL_DIGESTS = {
    "nadj-N.model":
        "614b2dfd24026dccfee38c86358c6229e608a18931bb0482f9924f240354da89",
    "nadj-V.model":
        "00c3b10aef85a691086eb9db7d10fc70b9b62eac955852b60c58635fe754278b",
    "sov-N.model":
        "5c55d5b7f15505b3e7acd7ab0ea34bad68824aae058e3724e2f1789ca1212fb4",
    "sov-V.model":
        "55f218d2b03ada4b1893f00ec74480ded36d1839b8ac14037f9ca524a2c579d2",
    "xx-N.model":
        "3986e6b4cac4d82baecbbb0b1e0a123a962affab08182d64596de2bbe34da70b",
    "xx-V.model":
        "e17a2978b389506aea06b175972c4a799afb9d11f9bbc83ec1c3b4fc336f1c49",
}

# A self-permutation, an N+V blend and a V-only blend.
TREEBANK_DIGESTS = {
    "xx~xx@N~xx@V":
        "49c6761c7f858e354b8793274bd609e834aea61b64ef8f1317912c5cd83e9869",
    "xx~nadj@N~sov@V":
        "3a7512a0f0eabffa3f03ed03ff39b13f3f424dc2b84f990369c0655d001a014f",
    "nadj~sov@V":
        "977cf9afa2fb3047e6f8f3574a2e2b7e6561fecf7c8f7da0dde26e357a25773e",
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
    model_dir, out_root = Path(sys.argv[1]), Path(sys.argv[2])
    for name in sorted(MODEL_DIGESTS):
        print(f'"{name}": "{hashlib.sha256((model_dir / name).read_bytes()).hexdigest()}",')
    for spec_name in TREEBANK_DIGESTS:
        print(f'"{spec_name}": "{synthesized_digest(spec_name, model_dir, out_root)}",')
