"""Golden SHA-256 digests of trained model files, trigram language model
files and synthesized treebanks.

Any change to these output bytes must be deliberate: a move needs a golden
digest, a version bump and a CHANGES.md entry that says why the bytes moved.
Model files carry their format version, not the tool version, so the
version bump is what marks a model-byte move.  A treebank digest covers every byte but the tool version
in the manifest, which is checked on its own, so a version bump alone
moves none of them.  Regenerate with `python tests/test_golden.py OUT_DIR`,
which trains the fixture languages into OUT_DIR/models and synthesizes
under OUT_DIR/out.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from deporder import __version__, cross_product_specs
from deporder.cli import main
from deporder.langmodel import (lm_to_text, tag_sequences, train_trigram,
                                word_sequences)
from deporder.synthesis import LanguageSpec, synthesize_language

from conftest import UD_ROOT, load_split, save_fixture_models

MODEL_DIGESTS = {
    "nadj-N.model":
        "dc453d8d00e0ebc28cd73a9ae059cb30df53d089fcb9aaa18ec6434cc9527b75",
    "nadj-V.model":
        "070fcc0a0a2774ba03c5167eef731ffceb8c52cfd6dd6b8170bdaedcae25a2d9",
    "sov-N.model":
        "11bab9ae97f83fb6ea81e36545f6bbd8c92eb204b10f9ffb51cb5379609eb524",
    "sov-V.model":
        "abea43f55ab4d63431e73d1abec2442fe3a40cb491be19fdc19f967deb839b43",
    "xx-N.model":
        "511a4be97c24120e7270eefad5c697444e2389b5a62e6a8a67150b7d7cb9dc43",
    "xx-V.model":
        "c1c2fb4ebcf12c2dc80ad055d7efc5265414368925b987ffcd8984dcfb39839f",
}

# Trigram LMs of each mode, trained on the fixture `xx` train split.
LM_DIGESTS = {
    "tag": "a23a6372c74fa8f04079a6d17b878ae8ca1f78c7f410e12a3597467d118b60cc",
    "word": "494839d50538769f29b8fade21b893c6ad8d0f21cbb8724979eb54b82e335acc",
}

# A self-permutation, an N+V blend and a V-only blend.
TREEBANK_DIGESTS = {
    "xx~xx@N~xx@V":
        "abfb68ec147f6c42007e9993e15414c403600a47a82dfec921293919083a04d2",
    "xx~nadj@N~sov@V":
        "9fef4380f0212b6fb01b5ccffa3b2623898fef28f403316fef023e11f34c3ef1",
    "nadj~sov@V":
        "8813d8eda3ef7423dffbdebebb45990cdf34f88d790f696d1ce07e0f70069894",
}


def directory_digest(directory: Path) -> str:
    """SHA-256 over every file's name and bytes, in name order, with the
    value of the manifest's `tool_version` line replaced by a fixed token,
    so a version bump alone moves no digest."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.tsv":
            data = re.sub(rb"(?m)^tool_version\t.*$", b"tool_version\tVERSION", data)
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def synthesize(spec_name: str, model_dir: Path, out_root: Path) -> Path:
    spec = LanguageSpec.parse(spec_name)
    return synthesize_language(spec, UD_ROOT / spec.substrate, model_dir, out_root)


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
    out = synthesize(spec_name, fixture_model_dir, tmp_path)
    assert directory_digest(out) == TREEBANK_DIGESTS[spec_name]
    manifest = (out / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    assert [line for line in manifest if line.startswith("tool_version\t")] \
        == [f"tool_version\t{__version__}"]


def test_batch_reuse_changes_no_byte(fixture_model_dir, tmp_path, capsys):
    # a batch task reuses inputs, blends and scores across its specs, so any
    # leak of one spec's state into the next would show as a byte moved
    names = cross_product_specs(["xx", "sov", "nadj"])
    for name in names:
        synthesize(name, fixture_model_dir, tmp_path / "solo")
    interleaved = [name for run in zip(names[:16], names[16:32], names[32:])
                   for name in run]
    for k, (order, jobs) in enumerate([(names, "1"), (names, "2"),
                                       (names[::-1], "1"), (interleaved, "2")]):
        specs = tmp_path / f"specs{k}.txt"
        specs.write_text("\n".join(order) + "\n", encoding="utf-8")
        assert main(["batch", "--specs", str(specs), "--data", str(UD_ROOT),
                     "--models", str(fixture_model_dir),
                     "--out", str(tmp_path / f"batch{k}"), "--jobs", jobs]) == 0
        assert capsys.readouterr().out.splitlines() == [f"done\t{n}" for n in order]
        for name in names:
            solo, batched = tmp_path / "solo" / name, tmp_path / f"batch{k}" / name
            assert sorted(p.name for p in batched.iterdir()) \
                == sorted(p.name for p in solo.iterdir())
            for path in solo.iterdir():
                assert (batched / path.name).read_bytes() == path.read_bytes(), \
                    f"{name}/{path.name} at --jobs {jobs}"


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
        print(f'"{spec_name}": "{directory_digest(synthesize(spec_name, model_dir, out_root))}",')
