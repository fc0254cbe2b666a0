"""End-to-end and per-layer benchmark of the deporder pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout of the repository; nothing is
installed or downloaded.  Each `deporder` step runs as its own process, as
a user would run it.  Workloads (see WORKLOADS):

  xprod      all 48 specs of the fixture cross product through `batch --jobs 2`
  train-gen  `train` on a generated, seeded 200-sentence treebank
  deep-gen   `permute` of one N+V spec, `stats --models`, trigram
             `perplexity` and `select`, on generated, seeded treebanks

With `--trace 0` the timed passes run untraced and the end-to-end metrics
are reported; with `--trace 1` one pass runs under perfbench/tracer.py and
the per-layer metrics are reported, with the tracing overhead measured
against an untraced pass.  Every run checks its outputs; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A full record (machine, versions, output digests, every check)
is written to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_UD = FIXTURES / "ud"
WORK = ROOT / ".perfbench"
SCHEMA_VERSION = 1
JOBS = 2  # workers for `batch`; the benchmark machine has 2 cores
RUN_DEADLINE_S = 170  # per workload, inside the 180 s a run may take
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0  # cheap set-ups repeat until this much time is spent
MAX_SETUPS = 15

# Metrics printed with a workload's table besides those of BENCHMARK.json.
# They are defined on one workload only, so they are not bounded there.
EXTRA_UNITS = {"specs_per_s": "1/s", "train_s": "s", "freeness_s": "s",
               "fail_frac": "frac"}
EXACT_COUNTERS = ("treebank.parse_calls", "model.load_calls",
                  "model.orders_scored", "features.extract_calls",
                  "model.og_evals", "model.train_iterations", "synthesis.draws")
# Which end-to-end metric each layer's metrics should move, and where.
LAYER_TARGETS = {
    "treebank": "specs_per_s on xprod; little effect elsewhere",
    "features": "train_s on train-gen; no change on xprod (extract_calls is 0)",
    "sjt": "sents_per_s and freeness_s on deep-gen",
    "model.enum n6-n7": "sents_per_s and freeness_s on deep-gen",
    "model.enum n2-n4": "sents_per_s on xprod (small-n scoring regressions)",
    "model.train": "train_s on train-gen; elsewhere only setup_s",
    "model.load": "specs_per_s on xprod",
    "synthesis": "sents_per_s on xprod and deep-gen",
    "langmodel": "wall_s on deep-gen only",
    "cli": "specs_per_s on xprod",
}


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


class Step:
    """One finished `deporder` process: exit code, output, wall time, peak RSS."""

    def __init__(self, args, rc, seconds, maxrss_kb, out_path, err_path):
        self.args, self.rc, self.seconds = args, rc, seconds
        self.maxrss_kb = maxrss_kb
        self.stdout = out_path.read_text(encoding="utf-8")
        self.stderr = err_path.read_text(encoding="utf-8")


def deporder(args: list[str], log_dir: Path, trace_prefix: Path | None = None) -> Step:
    """Run `deporder ARGS` in a new process and wait for it (and its workers).

    The peak RSS is the kernel's figure for the process and the children it
    waited for (the `batch` pool workers), i.e. the largest of them.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{len(list(log_dir.glob('*.out'))):02d}-{args[0]}"
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    if trace_prefix is None:
        argv = [sys.executable, "-m", "deporder.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_prefix), "--", *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions,
                         setsid=True)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    seconds = time.perf_counter() - start
    return Step(args, os.waitstatus_to_exitcode(status), seconds,
                usage.ru_maxrss, out_path, err_path)


class Checks:
    """Operations and output checks of one run; `failed / attempted` is fail_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED\t{what}", file=sys.stderr)
        return ok

    def verify(self, what: str, check) -> bool:
        """Record `check()` as one check; output it cannot read is a failure."""
        try:
            ok = bool(check())
        except (OSError, ValueError, LookupError) as exc:
            ok, what = False, f"{what}: {exc!r}"
        return self.expect(ok, what)

    def step(self, step: Step) -> Step:
        self.expect(step.rc == 0, f"deporder {' '.join(step.args)} exited "
                                  f"{step.rc}: {step.stderr.strip()[-300:]}")
        return step


def tree_digest(*paths: Path, replace: dict[str, str] | None = None) -> str:
    """SHA-256 over the relative names and bytes of every file under `paths`,
    after substituting run-specific directory names given in `replace`."""
    h = hashlib.sha256()
    for base in paths:
        if not base.exists():
            h.update(f"{base.name}\0missing\0".encode())
            continue
        files = (sorted(p for p in base.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
                 if base.is_dir() else [base])
        for path in files:
            data = path.read_bytes()
            for old, new in (replace or {}).items():
                data = data.replace(old.encode(), new.encode())
            h.update(f"{path.relative_to(base.parent)}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def read_conllu(path: Path) -> list[tuple[dict[str, str], list[list[str]]]]:
    """Minimal reader, independent of deporder: (comments, token rows) per sentence."""
    sentences = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        lines = [line for line in block.split("\n") if line]
        if not lines:
            continue
        comments = dict(re.match(r"#\s*(\S+)\s*=?\s*(.*)", line).groups()
                        for line in lines if line.startswith("#"))
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        sentences.append((comments, [r for r in rows if r[0].isdigit()]))
    return sentences


def alignment_error(substrate: Path, output: Path, dropped: set[str]) -> str | None:
    """Why `output` is not a reordering of the kept `substrate` sentences, or None.

    Each output sentence's OrigIdx values must be exactly 1..n, each token
    must carry its substrate token's form, lemma, tag and relation, and each
    head must point at the token that was its head in the substrate.
    """
    kept = [s for s in read_conllu(substrate) if s[0].get("sent_id") not in dropped]
    produced = read_conllu(output)
    if len(kept) != len(produced):
        return f"{len(produced)} sentences for {len(kept)} kept"
    for (_, source), (comments, rows) in zip(kept, produced):
        try:
            orig = [int(dict(kv.split("=", 1) for kv in row[9].split("|")
                             if "=" in kv)["OrigIdx"]) for row in rows]
        except (KeyError, ValueError):
            return f"{comments.get('sent_id')}: missing OrigIdx"
        if sorted(orig) != list(range(1, len(source) + 1)):
            return f"{comments.get('sent_id')}: OrigIdx {orig} is not 1..{len(source)}"
        for row, k in zip(rows, orig):
            src = source[k - 1]
            head = 0 if row[6] == "0" else orig[int(row[6]) - 1]
            if (row[1], row[2], row[3], row[7], head) != (src[1], src[2], src[3], src[7], int(src[6])):
                return f"{comments.get('sent_id')}: token {row[0]} differs from substrate token {k}"
    return None


def manifest(directory: Path) -> dict[str, str]:
    lines = (directory / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t", 1) for line in lines)


def check_synthesized(directory: Path, substrate_dir: Path, checks: Checks) -> None:
    """Validate one output language and check its alignment to the substrate."""
    from deporder import cli
    name = directory.name
    substrate = name.split("~")[0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["validate", str(directory)])
    checks.expect(rc == 0, f"deporder validate {name}")
    for split in ("train", "dev", "test"):
        out = directory / f"{name}-ud-{split}.conllu"

        def aligned():
            ids = manifest(directory)[f"{split}_dropped_ids"]
            dropped = set() if ids == "-" else set(ids.split(","))
            error = alignment_error(substrate_dir / f"{substrate}-ud-{split}.conllu",
                                    out, dropped)
            if error:
                raise ValueError(error)
            return True

        checks.verify(f"alignment {out.name}", aligned)


def check_models(model_dir: Path, languages: list[str], checks: Checks) -> None:
    """Each language's N and V models read back and write out to the same bytes."""
    from deporder.model import load_model, model_to_text
    for path in (model_dir / f"{lang}-{c}.model" for lang in languages for c in "NV"):
        def round_trip():
            model = load_model(path)
            return (all(math.isfinite(w) for w in model.weights.values())
                    and model_to_text(model) == path.read_text(encoding="utf-8"))

        checks.verify(f"model round trip {path.name}", round_trip)


def count_sentences(directory: Path) -> int:
    return sum(len(read_conllu(p)) for p in directory.rglob("*.conllu"))


class Pass:
    """One pass of a workload: its steps, their total and main-step time, the
    sentences the main step handled, the peak RSS and the output digest."""

    def __init__(self, steps: list[Step], main: Step, sentences: int, digest: str):
        self.steps, self.sentences, self.digest = steps, sentences, digest
        self.seconds = sum(s.seconds for s in steps)
        self.main_seconds = main.seconds
        self.rss_kb = max(s.maxrss_kb for s in steps)


def train_models(treebank: Path, models: Path, log_dir: Path, checks: Checks) -> None:
    checks.step(deporder(["train", "--treebank", str(treebank), "--out", str(models)], log_dir))


class Xprod:
    """`batch --jobs 2` over the 48-spec fixture cross product."""

    languages = ["xx", "sov", "nadj"]

    def setup(self, d: Path, seed: int, checks: Checks) -> dict:
        from deporder import cross_product_specs
        for lang in self.languages:
            train_models(FIXTURE_UD / lang, d / "models", d / "logs", checks)
        specs = cross_product_specs(self.languages)
        (d / "specs.txt").write_text("\n".join(specs) + "\n", encoding="utf-8")
        return {"dir": d, "specs": specs, "seed": seed, "languages": self.languages}

    def run(self, ctx, d: Path, checks: Checks, trace: Path | None = None,
            jobs: int = JOBS) -> Pass:
        args = ["batch", "--specs", str(ctx["dir"] / "specs.txt"),
                "--data", str(FIXTURE_UD), "--models", str(ctx["dir"] / "models"),
                "--out", str(d / "out"), "--seed", str(ctx["seed"]), "--jobs", str(jobs)]
        step = checks.step(deporder(args, d / "logs", trace))
        done = {line.split("\t")[1] for line in step.stdout.splitlines()
                if line.startswith("done\t")}
        for name in ctx["specs"]:
            checks.expect(name in done, f"spec {name} synthesized")
        return Pass([step], step, count_sentences(d / "out"), tree_digest(d / "out"))

    def extras(self, ctx, passes, step_times) -> dict:
        return {"specs_per_s": statistics.median(
            len(ctx["specs"]) / p.main_seconds for p in passes)}

    def check(self, ctx, d: Path, checks: Checks) -> None:
        for name in ctx["specs"]:
            check_synthesized(d / "out" / name, FIXTURE_UD / name.split("~")[0], checks)


class TrainGen:
    """`train` on a generated 200-sentence split."""


    def setup(self, d: Path, seed: int, checks: Checks) -> dict:
        import corpora
        counts = corpora.write_language(d / "data", "gen", seed, corpora.TRAIN_GEN)
        return {"dir": d, "treebank": d / "data" / "gen", "sentences": counts["train"]}

    def run(self, ctx, d: Path, checks: Checks, trace: Path | None = None) -> Pass:
        step = checks.step(deporder(["train", "--treebank", str(ctx["treebank"]),
                                     "--out", str(d / "models")], d / "logs", trace))
        (d / "models" / "train.tsv").write_text(step.stdout, encoding="utf-8")
        return Pass([step], step, ctx["sentences"], tree_digest(d / "models"))

    def extras(self, ctx, passes, step_times) -> dict:
        return {"train_s": statistics.median(step_times["train"])}

    def check(self, ctx, d: Path, checks: Checks) -> None:
        check_models(d / "models", ["gen"], checks)

        def finite_objectives():
            lines = (d / "models" / "train.tsv").read_text(encoding="utf-8").splitlines()
            rows = [line.split("\t") for line in lines[1:]]
            return len(rows) == 2 and all(math.isfinite(float(r[4])) for r in rows)

        checks.verify("train reports a finite objective for N and V", finite_objectives)


class DeepGen:
    """One N+V `permute`, `stats --models`, `perplexity` and `select` on
    generated `xx` splits."""

    spec = "xx~sov@N~xx@V"

    def setup(self, d: Path, seed: int, checks: Checks) -> dict:
        import corpora
        corpora.write_language(d / "data", "xx", seed, corpora.DEEP_GEN)
        for lang in ("xx", "sov"):
            train_models(FIXTURE_UD / lang, d / "models", d / "logs", checks)
        return {"dir": d, "data": d / "data", "models": d / "models", "seed": seed,
                "languages": ["xx", "sov"]}

    def run(self, ctx, d: Path, checks: Checks, trace: Path | None = None) -> Pass:
        logs = d / "logs"
        prefix = (lambda k: Path(f"{trace}-{k}")) if trace else (lambda k: None)
        out = d / "out" / self.spec
        split = {s: str(out / f"{self.spec}-ud-{s}.conllu") for s in ("train", "dev", "test")}
        permute = checks.step(deporder(
            ["permute", "--spec", self.spec, "--data", str(ctx["data"]),
             "--models", str(ctx["models"]), "--out", str(d / "out"),
             "--seed", str(ctx["seed"])], logs, prefix(0)))
        stats = checks.step(deporder(["stats", "--treebank", str(ctx["data"] / "xx"),
                                      "--models", str(ctx["models"])], logs, prefix(1)))
        steps = [permute, stats]
        lm_dir = d / "lm"
        lm_dir.mkdir(parents=True, exist_ok=True)
        lm_sources = {"synthetic": split["train"],
                      "xx": str(ctx["data"] / "xx" / "xx-ud-train.conllu"),
                      "sov": str(FIXTURE_UD / "sov" / "sov-ud-train.conllu")}
        for k, (name, source) in enumerate(lm_sources.items(), start=2):
            steps.append(checks.step(deporder(
                ["perplexity", "--train", source, "--eval", split["dev"],
                 "--save-lm", str(lm_dir / f"{name}.lm")], logs, prefix(k))))
        steps.append(checks.step(deporder(
            ["select", "--target", split["test"], "--candidates",
             *(str(lm_dir / f"{name}.lm") for name in lm_sources)], logs, prefix(5))))
        reports = d / "reports.txt"
        reports.write_text("".join(s.stdout for s in steps[1:]), encoding="utf-8")
        digest = tree_digest(d / "out", lm_dir, reports, replace={str(d): "PASS"})
        return Pass(steps, permute, count_sentences(d / "out"), digest)

    def extras(self, ctx, passes, step_times) -> dict:
        return {"freeness_s": statistics.median(step_times["stats"])}

    def check(self, ctx, d: Path, checks: Checks) -> None:
        check_synthesized(d / "out" / self.spec, ctx["data"] / "xx", checks)
        lines = (d / "reports.txt").read_text(encoding="utf-8").splitlines()
        checks.verify("freeness R is finite",
                      lambda: math.isfinite(float(lines[1].split("\t")[-1])))
        checks.verify("three finite perplexities", lambda: [
            math.isfinite(float(line.split("\t")[3]))
            for line in lines if "\ttag\t" in line] == [True] * 3)
        checks.verify("select ranks three candidates with finite log2 probabilities",
                      lambda: [math.isfinite(float(row.split("\t")[1])) for row in
                               lines[lines.index("language\tlog2prob\trank") + 1:]]
                      == [True] * 3)


WORKLOADS = {"xprod": Xprod(), "train-gen": TrainGen(), "deep-gen": DeepGen()}


def machine_info() -> dict:
    import numpy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine ran
    during this run, so runs made at different times can be compared."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def source_digest() -> str:
    """Digest of the program and benchmark sources: "the same code"."""
    return tree_digest(SRC / "deporder", HERE)


def layer_metrics(traced: list[Path], wall_traced: float, wall_plain: float) -> dict:
    """Per-layer metrics from the tracer summaries of one traced pass."""
    c: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for prefix in traced:
        summary = json.loads(Path(f"{prefix}.json").read_text())
        for key, value in summary["counters"].items():
            c[key] = c.get(key, 0) + value
        for key, value in summary["maxima"].items():
            maxima[key] = max(maxima.get(key, value), value)

    def calls(name):
        return c.get(f"calls:{name}", 0)

    def secs(key):
        return c.get(key, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "treebank.parse_calls": calls("treebank.parse_conllu"),
        "treebank.parse_s": secs("ns:treebank.parse_conllu"),
        "treebank.parse_tok_per_s": ratio(c.get("treebank.parse_tokens", 0),
                                          secs("ns:treebank.parse_conllu")),
        "treebank.serialize_s": secs("ns:treebank.serialize_conllu"),
        "treebank.filter_s": secs("treebank.filter_ns"),
        "treebank.sents_dropped_fanout": c.get("treebank.sents_dropped_fanout", 0),
        "treebank.sents_dropped_nonproj": c.get("treebank.sents_dropped_nonproj", 0),
        "features.extract_calls": calls("features.extract"),
        "features.extract_s": secs("ns:features.extract"),
        "features.whitelist_s": secs("ns:features.build_h_whitelist"),
        "sjt.enumerate_s": secs("ns:sjt.sjt_enumerate"),
    }
    for n in range(2, 8):
        enum_calls = c.get(f"model.enum_calls.n{n}", 0)
        m[f"model.enum_calls.n{n}"] = enum_calls
        m[f"model.enum_us_per_order.n{n}"] = ratio(
            c.get(f"model.enum_ns.n{n}", 0) / 1e3, enum_calls * math.factorial(n))
    og = "model.CompiledCorpus.objective_and_gradient"
    m.update({
        "model.orders_scored": c.get("model.orders_scored", 0),
        "model.compile_s": secs("ns:model.CompiledCorpus.init"),
        "model.distinct_configs": c.get("model.distinct_configs", 0),
        "model.og_evals": calls(og),
        "model.og_ms": ratio(secs(f"ns:{og}") * 1e3, calls(og)),
        "model.train_iterations": c.get("model.train_iterations", 0),
        "model.train_converged": c.get("model.train_converged", 0),
        "model.grad_inf_norm": maxima.get("model.grad_inf_norm", 0.0),
        "model.load_calls": calls("model.load_model"),
        "model.load_s": secs("ns:model.load_model"),
        "model.interpolate_s": secs("ns:model.interpolate"),
        "synthesis.sample_calls": calls("synthesis.sample_ordering"),
        "synthesis.draws": calls("synthesis.RngStream.uniform"),
        "synthesis.sample_self_s": secs("self_ns:synthesis.sample_ordering"),
        "synthesis.permute_tree_s": secs("ns:synthesis.permute_tree"),
        "synthesis.spec_s": ratio(secs("ns:synthesis.synthesize_language"),
                                  calls("synthesis.synthesize_language")),
        "langmodel.train_s": secs("ns:langmodel.train_trigram"),
        "langmodel.perplexity_s": secs("ns:langmodel.perplexity"),
        "langmodel.select_s": secs("ns:langmodel.select_source"),
        "trace.overhead_frac": wall_traced / wall_plain - 1.0,
    })
    for layer in ("treebank", "features", "model", "synthesis", "langmodel", "cli"):
        m[f"{layer}.self_s"] = secs(f"layer_self_ns:{layer}")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 declared: dict) -> tuple[Checks, dict, dict]:
    workload = WORKLOADS[name]
    run_dir = WORK / f"run-{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    checks = Checks()
    record: dict = {"ref_loop_ms": reference_loop_ms()}
    try:
        setup_times, setup_digests, ctx = [], set(), None
        while len(setup_times) < MIN_SETUPS or (
                sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS):
            d = run_dir / f"setup{len(setup_times)}"
            d.mkdir(parents=True)
            start = time.perf_counter()
            this = workload.setup(d, seed, checks)
            setup_times.append(time.perf_counter() - start)
            setup_digests.add(tree_digest(*(p for p in d.iterdir() if p.name != "logs"),
                                          replace={str(d): "SETUP"}))
            ctx = ctx or this
        checks.expect(len(setup_digests) == 1, "set-up gives the same bytes every time")
        check_models(ctx["dir"] / "models", ctx.get("languages", []), checks)

        passes: list[Pass] = []
        metrics: dict[str, float] = {}
        if not trace:
            while not passes or sum(p.seconds for p in passes) < seconds:
                passes.append(workload.run(ctx, run_dir / f"pass{len(passes)}", checks))
            wall = statistics.median(p.seconds for p in passes)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall,
                "sents_per_s": statistics.median(p.sentences / p.main_seconds for p in passes),
                "peak_rss_mb": max(p.rss_kb for p in passes) / 1024.0,
            }
        else:
            traced_dir = WORK / "results" / f"trace-{name}-seed{seed}"
            shutil.rmtree(traced_dir, ignore_errors=True)
            traced_dir.mkdir(parents=True)
            prefix = traced_dir / "trace"
            if name == "xprod":
                passes.append(workload.run(ctx, run_dir / "pass0", checks))
                plain = workload.run(ctx, run_dir / "pass1", checks, jobs=1)
                traced = workload.run(ctx, run_dir / "pass2", checks, prefix, jobs=1)
                passes += [plain, traced]
                extra = {"cli.pool_speedup": plain.seconds / passes[0].seconds}
            else:
                plain = workload.run(ctx, run_dir / "pass0", checks)
                traced = workload.run(ctx, run_dir / "pass1", checks, prefix)
                passes += [plain, traced]
                extra = {"cli.pool_speedup": 0.0}
            failed_specs = sum(s.stderr.count("failed\t") for p in passes for s in p.steps)
            extra["cli.specs_failed"] = failed_specs
            metrics = layer_metrics(sorted(p.with_suffix("") for p in traced_dir.glob("*.json")),
                                    traced.seconds, plain.seconds)
            metrics.update(extra)

        workload.check(ctx, run_dir / "pass0", checks)
        checks.expect(len({p.digest for p in passes}) == 1,
                      f"every pass gives the same output bytes ({len(passes)} passes"
                      f"{', jobs 1 and 2' if trace and name == 'xprod' else ''})")
        step_times = {}
        for p in passes:
            for s in p.steps:
                step_times.setdefault(s.args[0], []).append(s.seconds)
        if not trace:
            metrics.update(workload.extras(ctx, passes, step_times))
        record.update({
            "passes": len(passes),
            "pass_seconds": [p.seconds for p in passes],
            "setup_seconds": setup_times,
            "step_seconds": step_times,
            "output_sha256": passes[0].digest,
            "sentences": passes[0].sentences,
        })
        missing = [m for m in declared if m not in metrics]
        if missing:
            raise RuntimeError(f"benchmark did not produce {missing}")
        return checks, metrics, record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_exact_counters(name, seed, metrics, checks) -> dict:
    """Compare the exact counters with the last traced run of the same code and seed."""
    counters = {k: metrics[k] for k in EXACT_COUNTERS}
    path = WORK / "results" / f"counters-{name}-seed{seed}.json"
    current = {"source_sha256": source_digest(), "counters": counters}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["source_sha256"] == current["source_sha256"]:
            checks.expect(previous["counters"] == counters,
                          f"exact counters repeat: {previous['counters']} vs {counters}")
    path.write_text(json.dumps(current, indent=1, sort_keys=True))
    return counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure at least this long (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "deporder", FIXTURE_UD, FIXTURES / "generate_fixtures.py")
               if not p.exists()]
    if missing:
        print(f"error: not a deporder checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(FIXTURES)]

    declared_all = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared_all["run_seconds"]
    declared = {m["name"]: m["unit"] for m in
                declared_all["per_layer" if args.trace else "end_to_end"]}
    units = {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in
                               declared_all["end_to_end"] + declared_all["per_layer"]}}
    whys = {w["name"]: w["why"] for w in declared_all["workloads"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    attempted = failed = 0
    combined: dict[str, dict] = {}
    for name in names:
        signal.alarm(RUN_DEADLINE_S)
        checks, metrics, record = run_workload(name, args.seed, seconds,
                                               bool(args.trace), declared)
        if args.trace:
            record["exact_counters"] = check_exact_counters(name, args.seed,
                                                            metrics, checks)
        signal.alarm(0)
        attempted += checks.attempted
        failed += len(checks.failures)
        metrics["fail_frac"] = len(checks.failures) / checks.attempted
        print(f"# workload {name}: {whys[name]}")
        print(f"# reference loop {record['ref_loop_ms']:.1f} ms (machine speed)")
        for key, value in metrics.items():
            print(f"{name}\t{key}\t{value:.6g}\t{units[key]}")
        record.update({
            "schema_version": SCHEMA_VERSION, "workload": name, "why": whys[name],
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "machine": machine_info(), "source_sha256": source_digest(),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "attempted": checks.attempted, "failures": checks.failures,
            "layer_targets": LAYER_TARGETS,
        })
        out = WORK / "results" / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True))
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({f"{prefix}{k}": {"value": metrics[k], "unit": declared[k]}
                         for k in declared})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
