"""Command-line front end.

Subcommands cover the whole pipeline: train ordering models from a treebank,
permute a substrate into a synthetic language (singly or in batch), report
treebank statistics, train/evaluate trigram language models, pick a source
language for a target corpus, and validate treebank directories.  All
reports are tab-separated UTF-8 with a header row, and every subcommand is
deterministic for fixed inputs and flags.

Only `train`, `permute`, `batch` and `stats --models` train, score or sample
ordering models, so only they import `model`, and numpy with it; only
`permute` and `batch` import `synthesis`, only `perplexity` and `select`
import `langmodel`, and only `batch` imports `concurrent.futures`.  The
other subcommands, `--help` and `--version` start without numpy.

`train` fits the N model in its own process and the V model at the same
time in a forked child, and writes nothing until both are back.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import sys
from pathlib import Path

from . import DEFAULT_LAMBDA, DEFAULT_OOV_THRESHOLD, DEFAULT_SEED, SpecError, __version__
from .treebank import (LANG_ID, filter_for_generation, is_projective, local_configs,
                       parse_conllu, read_input, read_split, serialize_conllu,
                       touched_fraction)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_BAD_DATA = 4
EXIT_MISMATCH = 5

_EPILOG = f"""\
exit codes:
  {EXIT_OK}  success
  {EXIT_USAGE}  command line usage error
  {EXIT_MISSING_INPUT}  missing input file or directory, or another operating system error
  {EXIT_BAD_DATA}  malformed data or failed validation
  {EXIT_MISMATCH}  model or spec mismatch
"""


def _train_classes(configs: dict, language: str) -> list:
    """The N and V models of `configs`, fitted at once: N in this process, V
    in a forked child.

    The child sends back its model, or the exception its fit raised,
    pickled through a pipe, and leaves by `os._exit`, so it flushes none of
    the output it shares with this process.  An exception from the child is
    raised here; a child that dies without an answer raises
    ChildProcessError naming its class.  A failed fit here kills the child.
    The child is reaped on every path.
    """
    import os
    import pickle
    import signal
    import warnings
    from .model import train

    def fit(pos_class):
        return train(configs[pos_class], None, language=language, pos_class=pos_class)

    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork while other threads run, and
            # OpenBLAS keeps one; the child runs only its fit, then `os._exit`
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                answer = pickle.dumps(fit("V"))
            except BaseException as exc:  # raised again in the parent
                answer = pickle.dumps(exc)
            with open(write_end, "wb") as pipe:
                pipe.write(answer)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            model_n = fit("N")
            answer = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if not answer:
        code = os.waitstatus_to_exitcode(status)
        how = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"{language} V: the training process died ({how})")
    model_v = pickle.loads(answer)
    if isinstance(model_v, BaseException):
        raise model_v
    return [model_n, model_v]


def cmd_train(args) -> int:
    from .model import save_model, usable_configs
    language = args.lang or Path(args.treebank).name
    if not LANG_ID.match(language):  # a spec must be able to name the model files
        raise SpecError(f"bad language id {language!r}")
    trees = read_split(args.treebank, language, "train", args.parse_mode)
    projective = [t for t in trees if is_projective(t)]
    configs = {pos_class: [c for t in projective for c in local_configs(t, pos_class)]
               for pos_class in ("N", "V")}
    for pos_class in configs:  # before fitting either class
        usable_configs(configs[pos_class], language, pos_class)
    models = _train_classes(configs, language)
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
                    out: str, strict: bool, cache: dict | None = None) -> Path:
    from .synthesis import LanguageSpec, synthesize_language
    spec = LanguageSpec.parse(name, lam=lam, seed=seed)
    return synthesize_language(spec, Path(data) / spec.substrate, models, out,
                               "strict" if strict else "lenient", cache)


def _synthesize_task(names: list[str], *options) -> list[str]:
    """One `batch` task: each spec's report line, "done\t<dirname>" or
    "failed\t<name>\t<error>", an error other than a file system or data
    error naming its type.  The specs share one synthesis cache, which goes
    when the task returns."""
    cache: dict = {}
    lines = []
    for name in names:
        try:
            lines.append(f"done\t{_synthesize_one(name, *options, cache).name}")
        except (OSError, ValueError) as exc:
            lines.append(f"failed\t{name}\t{exc}")
        except Exception as exc:  # a fault in one spec fails that spec only
            lines.append(f"failed\t{name}\t{type(exc).__name__}: {exc}")
    return lines


def cmd_permute(args) -> int:
    print(_synthesize_one(args.spec, args.lam, args.seed, args.data,
                          args.models, args.out, args.strict))
    return EXIT_OK


def _queue(pool, call):
    """Start `call` in the pool; the returned callable gives its outcome."""
    import concurrent.futures
    try:
        return pool.submit(call).result
    except concurrent.futures.BrokenExecutor as exc:  # a worker died already
        future = concurrent.futures.Future()
        future.set_exception(exc)
        return future.result


def cmd_batch(args) -> int:
    # a repeated name would have two workers writing one directory
    names = read_input(args.specs, "spec list", lambda text: list(dict.fromkeys(
        line for line in map(str.strip, text.splitlines())
        if line and not line.startswith("#"))))
    # a task is a run of consecutive specs with one substrate, which share
    # its inputs; cutting runs at ceil(specs / jobs) bounds a task's spec
    # count, not its work: a spec's cost depends on its substrate, so a
    # worker can sit idle while another finishes a costlier task
    size = -(-len(names) // args.jobs)
    tasks = []
    for _, run in itertools.groupby(names, lambda name: name.split("~")[0]):
        run = list(run)
        tasks += (run[k:k + size] for k in range(0, len(run), size))
    calls = [functools.partial(_synthesize_task, task, args.lam, args.seed,
                               args.data, args.models, args.out, args.strict)
             for task in tasks]
    jobs = min(args.jobs, len(tasks))  # the pool forks every worker at its first submit
    import concurrent.futures
    from . import synthesis  # noqa: F401  imported before the fork, the workers share it
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    failures = 0
    with pool or contextlib.nullcontext():
        if pool is not None:
            calls = [_queue(pool, call) for call in calls]
        # outcomes are reported in spec-list order whatever finishes first;
        # a worker that dies breaks the pool and fails every unfinished spec
        for task, call in zip(tasks, calls):
            try:
                reports = call()
            except concurrent.futures.BrokenExecutor as exc:
                reports = [f"failed\t{name}\t{exc}" for name in task]
            for report in reports:
                failed = report.startswith("failed\t")
                failures += failed
                print(report, file=sys.stderr if failed else sys.stdout)
    return EXIT_BAD_DATA if failures else EXIT_OK


def cmd_stats(args) -> int:
    language = args.lang or Path(args.treebank).name
    trees = read_split(args.treebank, language, "train", args.parse_mode)
    kept = filter_for_generation(trees)
    total_tokens = sum(len(t) for t in trees)
    kept_tokens = sum(len(t) for t in kept)
    touched = touched_fraction(kept)
    r_value = "NA"
    if args.models:
        from .model import freeness, load_language_models
        model_n, model_v = load_language_models(args.models, language)
        dev_kept = filter_for_generation(read_split(args.treebank, language, "dev",
                                                    args.parse_mode))
        r_value = f"{freeness(model_n, model_v, dev_kept):.3f}"
    print("lang\tsents_kept\tsents\ttokens_kept\ttokens\tT\tR")
    print(f"{language}\t{len(kept)}\t{len(trees)}\t{kept_tokens}"
          f"\t{total_tokens}\t{100.0 * touched:.1f}\t{r_value}")
    return EXIT_OK


def _sequences_from_file(path: str, mode: str, strict: bool):
    from .langmodel import tag_sequences, word_sequences
    trees = read_input(path, "treebank file", lambda text: parse_conllu(
        text, "strict" if strict else "lenient"))
    return tag_sequences(trees) if mode == "tag" else word_sequences(trees)


def cmd_perplexity(args) -> int:
    from .langmodel import load_lm, perplexity, save_lm, train_trigram
    eval_seqs = _sequences_from_file(args.eval, args.mode, args.strict)
    if args.lm:
        lm = load_lm(args.lm)
        if lm.mode != args.mode:
            raise SpecError(f"{args.lm} is a {lm.mode}-mode model, not {args.mode}")
    else:
        train_seqs = _sequences_from_file(args.train, args.mode, args.strict)
        lm = train_trigram(train_seqs, args.mode, args.oov_threshold)
    value = perplexity(lm, eval_seqs)  # first, so a failing run writes nothing
    if args.save_lm:
        save_lm(lm, args.save_lm)
    positions = sum(len(s) + 1 for s in eval_seqs)
    print("eval\tmode\tpositions\tperplexity")
    print(f"{args.eval}\t{args.mode}\t{positions}\t{value!r}")
    return EXIT_OK


def cmd_select(args) -> int:
    from .langmodel import load_lm, select_source
    target = _sequences_from_file(args.target, "tag", args.strict)
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
        try:
            trees = parse_conllu(path.read_text(encoding="utf-8"), "strict")
            reparsed = parse_conllu(serialize_conllu(trees), "strict")
            if reparsed != trees:
                raise ValueError("serialize/parse round trip changed the trees")
            print(f"OK\t{path.name}\t{len(trees)}")
        except ValueError as exc:
            failures += 1
            print(f"FAIL\t{path.name}\t{exc}", file=sys.stderr)
    return EXIT_BAD_DATA if failures else EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


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

    # options that several subcommands share, each defined once
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="error on unknown tags/relations instead of passing through")
    synthesis = argparse.ArgumentParser(add_help=False, parents=[strict])
    synthesis.add_argument("--data", required=True,
                           help="root directory of substrate language directories")
    synthesis.add_argument("--models", required=True, help="directory of trained models")
    synthesis.add_argument("--out", required=True, help="output root directory")
    synthesis.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"random seed (default {DEFAULT_SEED})")
    synthesis.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
                           help=f"substrate interpolation weight (default {DEFAULT_LAMBDA})")
    treebank = argparse.ArgumentParser(add_help=False)
    treebank.add_argument("--treebank", required=True,
                          help="language directory holding <lang>-ud-train.conllu")
    treebank.add_argument("--lang", help="language id (default: treebank directory name)")
    treebank.add_argument("--lenient", dest="parse_mode", action="store_const",
                          const="lenient", default="strict",
                          help="tolerate unknown tags/relations and skip broken sentences")

    p = sub.add_parser("train", parents=[treebank],
                       help="train N and V ordering models from a treebank")
    p.add_argument("--out", required=True, help="output directory for model files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("permute", parents=[synthesis],
                       help="synthesize one language from a spec")
    p.add_argument("--spec", required=True,
                   help="spec/directory name, e.g. en~fr@N~hi@V")
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser("batch", parents=[synthesis],
                       help="synthesize many languages from a spec list")
    p.add_argument("--specs", required=True,
                   help="newline-delimited file of spec names")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers (default 1)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("stats", parents=[treebank],
                       help="sentence/token counts, touched fraction, freeness")
    p.add_argument("--models", help="model directory (enables the R column)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("perplexity", parents=[strict],
                       help="train/evaluate a trigram language model")
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
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("select", parents=[strict],
                       help="rank candidate sources for a target corpus")
    p.add_argument("--target", required=True, help="target treebank file")
    p.add_argument("--candidates", required=True, nargs="+",
                   help="tag-mode language model files (name gives the language id)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("validate", help="round-trip and invariant checks on a directory")
    p.add_argument("directory", help="directory of .conllu files")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code (argparse raises
    SystemExit for usage errors, `--help` and `--version`).

    The command runs with the cyclic garbage collector off, `batch`'s
    workers too, since no command leaves cyclic garbage that grows with its
    input; the collector's state is restored on return, whatever it was.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    finally:
        if enabled:
            gc.enable()


def run(argv=None) -> int:
    """`main` for a process of its own: the `deporder` console script and
    `python -m deporder.cli`.  The collector stays off to the end of the
    process, and `gc.freeze()` then moves every object out of its reach, so
    the interpreter's final collection at exit scans none of them."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
