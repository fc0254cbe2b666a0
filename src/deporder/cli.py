"""Command-line front end.

Subcommands cover the whole pipeline: train ordering models from a treebank,
permute a substrate into a synthetic language (singly or in batch), report
treebank statistics, train/evaluate trigram language models, pick a source
language for a target corpus, and validate treebank directories.  All
reports are tab-separated UTF-8 with a header row, and every subcommand is
deterministic for fixed inputs and flags.

Only `train`, `permute`, `batch` and `stats --models` train, score or sample
ordering models, so only they import `model` and `synthesis`, and numpy with
them; the other subcommands, `--help` and `--version` start without numpy.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import os
import sys
from pathlib import Path

from . import DEFAULT_LAMBDA, DEFAULT_SEED, SpecError, __version__
from .langmodel import (DEFAULT_OOV_THRESHOLD, load_lm, perplexity, save_lm,
                        select_source, tag_sequences, train_trigram,
                        word_sequences)
from .treebank import (ConlluError, filter_for_generation, is_projective,
                       local_configs, parse_conllu, read_split,
                       serialize_conllu, touched_fraction)

JOBS_ENV_VAR = "DEPORDER_JOBS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_BAD_DATA = 4
EXIT_MISMATCH = 5

_EPILOG = f"""\
exit codes:
  {EXIT_OK}  success
  {EXIT_USAGE}  command line usage error
  {EXIT_MISSING_INPUT}  missing input file or directory, or another file system error
  {EXIT_BAD_DATA}  malformed data or failed validation
  {EXIT_MISMATCH}  model or spec mismatch

environment:
  {JOBS_ENV_VAR}  default worker count for `batch` (overridden by --jobs)
"""


def cmd_train(args) -> int:
    from .model import save_model, train, usable_configs
    treebank_dir = Path(args.treebank)
    language = args.lang or treebank_dir.name
    mode = "lenient" if args.lenient else "strict"
    trees = read_split(treebank_dir, language, "train", mode)
    projective = [t for t in trees if is_projective(t)]
    configs = {pos_class: [c for t in projective for c in local_configs(t, pos_class)]
               for pos_class in ("N", "V")}
    for pos_class in configs:  # before fitting either class
        usable_configs(configs[pos_class], language, pos_class)
    models = [train(configs[pos_class], None, language=language,
                    pos_class=pos_class) for pos_class in configs]
    # write only once both classes have trained
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print("lang\tpos\tconfigs\titerations\tobjective\tconverged")
    for model in models:
        save_model(model, out_dir / f"{language}-{model.pos_class}.model")
        meta = model.training_meta
        print(f"{language}\t{model.pos_class}\t{len(configs[model.pos_class])}"
              f"\t{meta.iterations}\t{meta.objective:.6f}\t{meta.converged}")
        if not meta.converged:
            print(f"warning: {language} {model.pos_class}: training stopped after "
                  f"{meta.iterations} iterations before converging (gradient "
                  f"inf-norm {meta.grad_inf_norm:.3g})", file=sys.stderr)
    return EXIT_OK


def _synthesize_one(name: str, lam: float, seed: int, data: str, models: str,
                    out: str, mode: str) -> Path:
    from .synthesis import LanguageSpec, synthesize_language
    spec = LanguageSpec.parse(name, lam=lam, seed=seed)
    return synthesize_language(spec, Path(data) / spec.substrate, models, out,
                               mode)


def cmd_permute(args) -> int:
    mode = "strict" if args.strict else "lenient"
    print(_synthesize_one(args.spec, args.lam, args.seed, args.data,
                          args.models, args.out, mode))
    return EXIT_OK


def _queue(pool, call):
    """Start `call` in the pool; the returned callable gives its outcome."""
    try:
        return pool.submit(call).result
    except concurrent.futures.BrokenExecutor as exc:  # a worker died already
        future = concurrent.futures.Future()
        future.set_exception(exc)
        return future.result


def cmd_batch(args) -> int:
    specs_path = Path(args.specs)
    if not specs_path.exists():
        raise FileNotFoundError(f"missing spec list {specs_path}")
    # a repeated name would have two workers writing one directory
    lines = map(str.strip, specs_path.read_text(encoding="utf-8").splitlines())
    names = list(dict.fromkeys(
        line for line in lines if line and not line.startswith("#")))
    mode = "strict" if args.strict else "lenient"
    calls = [functools.partial(_synthesize_one, name, args.lam, args.seed,
                               args.data, args.models, args.out, mode)
             for name in names]
    jobs = min(args.jobs, len(names))  # the pool forks every worker at its first submit
    from . import synthesis  # noqa: F401  imported before the fork, the workers share it
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    failures = 0
    with pool or contextlib.nullcontext():
        if pool is not None:
            calls = [_queue(pool, call) for call in calls]
        # outcomes are reported in spec-list order whatever finishes first;
        # a worker that dies breaks the pool and fails every unfinished spec
        for name, call in zip(names, calls):
            try:
                print(f"done\t{call().name}")
            except (OSError, ValueError, concurrent.futures.BrokenExecutor) as exc:
                failures += 1
                print(f"failed\t{name}\t{exc}", file=sys.stderr)
    return EXIT_BAD_DATA if failures else EXIT_OK


def cmd_stats(args) -> int:
    treebank_dir = Path(args.treebank)
    language = args.lang or treebank_dir.name
    mode = "lenient" if args.lenient else "strict"
    trees = read_split(treebank_dir, language, "train", mode)
    kept = filter_for_generation(trees)
    total_tokens = sum(len(t) for t in trees)
    kept_tokens = sum(len(t) for t in kept)
    touched = touched_fraction(kept)
    r_value = "NA"
    if args.models:
        from .model import freeness
        from .synthesis import load_language_models
        model_n, model_v = load_language_models(args.models, language)
        dev_trees = read_split(treebank_dir, language, "dev", mode)
        dev_kept = filter_for_generation(dev_trees)
        r_value = f"{freeness(model_n, model_v, dev_kept):.3f}"
    print("lang\tsents_kept\tsents\ttokens_kept\ttokens\tT\tR")
    print(f"{language}\t{len(kept)}\t{len(trees)}\t{kept_tokens}"
          f"\t{total_tokens}\t{100.0 * touched:.1f}\t{r_value}")
    return EXIT_OK


def _sequences_from_file(path: Path, mode: str, parse_mode: str):
    if not path.exists():
        raise FileNotFoundError(f"missing treebank file {path}")
    trees = parse_conllu(path.read_text(encoding="utf-8"), parse_mode)
    return tag_sequences(trees) if mode == "tag" else word_sequences(trees)


def cmd_perplexity(args) -> int:
    parse_mode = "strict" if args.strict else "lenient"
    eval_seqs = _sequences_from_file(Path(args.eval), args.mode, parse_mode)
    if args.lm:
        lm = load_lm(args.lm)
        if lm.mode != args.mode:
            raise SpecError(f"{args.lm} is a {lm.mode}-mode model, not {args.mode}")
    else:
        train_seqs = _sequences_from_file(Path(args.train), args.mode, parse_mode)
        lm = train_trigram(train_seqs, args.mode, args.oov_threshold)
    value = perplexity(lm, eval_seqs)  # first, so a failing run writes nothing
    if args.save_lm:
        save_lm(lm, args.save_lm)
    positions = sum(len(s) + 1 for s in eval_seqs)
    print("eval\tmode\tpositions\tperplexity")
    print(f"{args.eval}\t{args.mode}\t{positions}\t{value!r}")
    return EXIT_OK


def cmd_select(args) -> int:
    parse_mode = "strict" if args.strict else "lenient"
    target = _sequences_from_file(Path(args.target), "tag", parse_mode)
    candidates = []
    for path in args.candidates:
        lm = load_lm(path)
        if lm.mode != "tag":
            raise SpecError(f"{path} is not a tag-mode language model")
        candidates.append((Path(path).stem, lm))
    _, table = select_source(candidates, target)
    print("language\tlog2prob\trank")
    for language, log2prob, rank in table:
        print(f"{language}\t{log2prob!r}\t{rank}")
    return EXIT_OK


def cmd_validate(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    files = sorted(directory.glob("*.conllu"))
    if not files:
        raise FileNotFoundError(f"no .conllu files under {directory}")
    failures = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        try:
            trees = parse_conllu(text, "strict")
            reparsed = parse_conllu(serialize_conllu(trees), "strict")
            if reparsed != trees:
                raise ValueError("serialize/parse round trip changed the trees")
            print(f"OK\t{path.name}\t{len(trees)}")
        except (ConlluError, ValueError) as exc:
            failures += 1
            print(f"FAIL\t{path.name}\t{exc}", file=sys.stderr)
    return EXIT_BAD_DATA if failures else EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer (from --jobs or ${JOBS_ENV_VAR})")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _add_synthesis_options(p: argparse.ArgumentParser) -> None:
    """The options `permute` and `batch` share."""
    p.add_argument("--data", required=True,
                   help="root directory of substrate language directories")
    p.add_argument("--models", required=True, help="directory of trained models")
    p.add_argument("--out", required=True, help="output root directory")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
                   help=f"substrate interpolation weight (default {DEFAULT_LAMBDA})")
    p.add_argument("--strict", action="store_true",
                   help="error on unknown tags/relations instead of passing through")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deporder",
        description="Learn dependent-order models from treebanks and "
                    "synthesize reordered treebanks.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train N and V ordering models from a treebank")
    p.add_argument("--treebank", required=True,
                   help="language directory holding <lang>-ud-train.conllu")
    p.add_argument("--out", required=True, help="output directory for model files")
    p.add_argument("--lang", help="language id (default: treebank directory name)")
    p.add_argument("--lenient", action="store_true",
                   help="tolerate unknown tags/relations and skip broken sentences")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("permute", help="synthesize one language from a spec")
    p.add_argument("--spec", required=True,
                   help="spec/directory name, e.g. en~fr@N~hi@V")
    _add_synthesis_options(p)
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser("batch", help="synthesize many languages from a spec list")
    p.add_argument("--specs", required=True,
                   help="newline-delimited file of spec names")
    _add_synthesis_options(p)
    # argparse passes a string default through `type` too
    p.add_argument("--jobs", type=_positive_int,
                   default=os.environ.get(JOBS_ENV_VAR, "1"),
                   help=f"parallel workers (default ${JOBS_ENV_VAR} or 1)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("stats", help="sentence/token counts, touched fraction, freeness")
    p.add_argument("--treebank", required=True, help="language directory")
    p.add_argument("--models", help="model directory (enables the R column)")
    p.add_argument("--lang", help="language id (default: treebank directory name)")
    p.add_argument("--lenient", action="store_true",
                   help="tolerate unknown tags/relations and skip broken sentences")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("perplexity", help="train/evaluate a trigram language model")
    p.add_argument("--eval", required=True, help="treebank file to evaluate")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--train", help="treebank file to train on")
    group.add_argument("--lm", help="previously saved language model")
    p.add_argument("--mode", choices=("tag", "word"), default="tag",
                   help="model over POS tags or word forms (default tag)")
    p.add_argument("--oov-threshold", type=_non_negative_int,
                   default=DEFAULT_OOV_THRESHOLD,
                   help="word mode: training count below which words become OOV "
                        f"(default {DEFAULT_OOV_THRESHOLD})")
    p.add_argument("--save-lm", help="write the trained model to this file")
    p.add_argument("--strict", action="store_true",
                   help="error on unknown tags/relations instead of passing through")
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("select", help="rank candidate sources for a target corpus")
    p.add_argument("--target", required=True, help="target treebank file")
    p.add_argument("--candidates", required=True, nargs="+",
                   help="tag-mode language model files (name gives the language id)")
    p.add_argument("--strict", action="store_true",
                   help="error on unknown tags/relations instead of passing through")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("validate", help="round-trip and invariant checks on a directory")
    p.add_argument("directory", help="directory of .conllu files")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ConlluError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA


if __name__ == "__main__":
    sys.exit(main())
