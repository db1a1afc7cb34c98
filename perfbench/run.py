"""minembed benchmark: runs the CLI pipeline on seeded synthetic inputs.

    python3 perfbench/run.py --workload mine --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository root is this file's parent's parent. This
process generates the workload's inputs (``setup_s``, the median of
several set-ups), then runs the pipeline as many times as fit in
``--seconds`` (at least twice). One pipeline run starts the stages one at a
time, each as its own ``python -m minembed`` process with BLAS pinned to
one thread: prepare, triplets (with the line-JSON provider in
``provider.py``), train, embed, eval --pairs, eval --qrels. After each
pipeline run, outside the timed region, every artifact is checked (see
``checks.py``) and compared byte for byte with the first run's.

With ``--trace 0`` the result carries the end-to-end metrics, each the
median over pipeline runs. Times are CPU seconds (user plus system) of the
stage processes, including the provider a stage waits for, and of this
process for ``setup_s``, scaled to a reference speed of the host (see
``REFERENCE_S``). On a shared virtual machine the hypervisor takes the CPU
away in bursts, which stretched wall time by up to twice between runs
minutes apart; CPU time leaves that wait out. The host's speed itself
still changed by up to a third between states; the scaling takes most of
that out. The stages are single-threaded (BLAS pinned), so on an idle
machine at reference speed wall and CPU time agree. The line before the
result carries every stage's wall, CPU and scaled CPU seconds and the
reference loop's seconds in every run.

With ``--trace 1`` pipeline runs alternate between untraced and traced
(stages run under ``tracing.py``), and the result carries the per-layer
metrics of the traced runs plus ``trace.overhead_frac``, the traced runs'
extra CPU time.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``attempted`` and ``failed`` count stages, so their ratio is the failure
fraction. The line before it gives the environment, the sample counts and
quartiles. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# The oracle in checks.py must reproduce the stages' single-threaded BLAS
# arithmetic, so the pin applies before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import contextlib
import hashlib
import json
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
from synth import Shape, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Half of each source is validation: val_loss averages a heavy-tailed
# per-anchor loss, and with a tenth of the corpus its spread between seeds
# was about a fifth.
TRAIN_FRAC = 0.5
KS = [1, 5, 10]
SETUP_REPEATS = 9
MIN_RUNS = 2
# The model's initialization and dropout seed stays fixed so that the quality
# guards (val_loss, mrr) vary with the generated data only; a random
# embedding table alone moves val_loss by about a quarter between seeds.
MODEL_SEED = 0
RUN_DEADLINE_S = 165.0  # every stage is killed past this point, so a run ends within three minutes
# The host's own speed drifts. On a shared 2-vCPU x86-64 VM one stage took
# 0.35, 0.46 or 0.52 CPU seconds for the same work, in states that lasted
# from seconds to minutes. A fixed reference loop, timed in this process
# before and after every timed step, tracks that state, and every reported
# time is scaled to the speed at which the loop takes REFERENCE_S.
REFERENCE_S = 0.045


@dataclass(frozen=True)
class Workload:
    shape: Shape
    min_distance: int
    cross_source: bool


# Why each workload exists is recorded in BENCHMARK.json. In short: `mine`
# makes triplet mining (quadratic negative sampling, the subprocess
# provider) and `prepare` on noisy input dominate; `train` makes the
# training step dominate; `retrieve` makes embedding and ranking a large
# pool dominate. Every workload runs every stage, so each end-to-end metric
# exists on each workload; the other stages are kept small.
WORKLOADS = {
    "mine": Workload(
        Shape(sources=8, docs_per_source=32, paragraphs_per_doc=6, markup_rate=1.0,
              boilerplate_paragraphs=16, pool_docs=200, pool_sentences_per_doc=8, pairs=1000, qrels=100,
              epochs=1, lora_only=True),
        min_distance=500, cross_source=True,
    ),
    "train": Workload(
        Shape(sources=4, docs_per_source=32, paragraphs_per_doc=8, markup_rate=0.2,
              boilerplate_paragraphs=1, pool_docs=200, pool_sentences_per_doc=8, pairs=1000, qrels=100,
              epochs=3, lora_only=False),
        min_distance=100, cross_source=False,
    ),
    "retrieve": Workload(
        Shape(sources=4, docs_per_source=20, paragraphs_per_doc=10, markup_rate=0.2,
              boilerplate_paragraphs=1, pool_docs=1000, pool_sentences_per_doc=12, pairs=2500, qrels=600,
              epochs=1, lora_only=False),
        min_distance=100, cross_source=False,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "prepare_sent_per_s": "sentences/s",
    "triplets_per_s": "triplets/s",
    "train_samples_per_s": "samples/s",
    "embed_texts_per_s": "texts/s",
    "eval_queries_per_s": "queries/s",
    "peak_rss_mb": "MB",
    "val_loss": "nats",
    "mrr": "ratio",
}
PER_LAYER_UNITS = {
    **{f"corpus.{m}_s": "s" for m in ("clean", "segment", "dedup", "split")},
    "corpus.docs": "count",
    "corpus.dedup_kept_ratio": "ratio",
    "triplets.negative_s": "s",
    "triplets.negative_calls": "count",
    "triplets.negative_scanned": "count",
    "triplets.negative_ok_ratio": "ratio",
    "triplets.paraphrase_s": "s",
    "triplets.paraphrase_calls": "count",
    "triplets.paraphrase_ok_ratio": "ratio",
    "encoder.tokenize_s": "s",
    "encoder.tokenize_calls": "count",
    "encoder.tokenize_useful_ratio": "ratio",
    "encoder.forward_s": "s",
    "encoder.forward_rows": "count",
    "encoder.backward_s": "s",
    "encoder.encode_s": "s",
    "encoder.checkpoint_save_s": "s",
    "encoder.checkpoint_load_s": "s",
    "trainer.steps": "count",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p90": "ms",
    "trainer.loss_s": "s",
    "trainer.adamw_s": "s",
    "trainer.adamw_bytes": "bytes",
    "trainer.val_s": "s",
    "metrics.rank_s": "s",
    "metrics.rank_entries": "count",
    "metrics.sim_flops": "flop",
    "metrics.score_s": "s",
    **{f"storage.{m}_s": "s" for m in ("write", "read", "digest")},
    **{f"storage.{m}_bytes": "bytes" for m in ("write", "read", "digest")},
    **{f"cli.{stage}.self_s": "s" for stage in ("prepare", "triplets", "train", "embed", "eval")},
    "trace.overhead_frac": "ratio",
}

# Artifacts that must be byte-identical across pipeline runs, by stage.
ARTIFACTS = {
    "prepare": ["manifest.jsonl"],
    "triplets": ["triplets.jsonl"],
    "train": ["run/train-report.jsonl", "run/train-log.jsonl"],  # plus run/epoch-*.cemb
    "embed": ["vectors.cevx", "vectors.cevx.ids"],
    "eval-pairs": ["eval-pairs.json"],
    "eval-qrels": ["eval-qrels.json"],
}


class StageFailed(Exception):
    """A stage exited non-zero or its output failed a check; the message
    starts with the stage's name."""


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def reference_loop() -> float:
    """CPU seconds of a fixed mix of interpreter work and one-thread matrix
    products."""
    matrix = np.full((128, 128), 0.5)
    start = time.process_time()
    total = 0
    for i in range(300_000):
        total += i * i
    {str(i): i for i in range(50_000)}
    for _ in range(40):
        matrix @ matrix
    return time.process_time() - start


def at_reference_speed(cpu: float, before: float, after: float) -> float:
    """``cpu`` seconds measured between two reference loops, scaled to the
    speed at which the loop takes REFERENCE_S."""
    return cpu * REFERENCE_S * 2.0 / (before + after)


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def run_stage(cmd: list[str], cwd: Path, stdout: Path, stderr: Path, deadline: float) -> tuple[int, float, float, int]:
    """Run one stage process; returns exit code, wall seconds, CPU seconds
    (user and system, of the stage and the children it waited for) and peak
    RSS in KiB."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=env, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        _kill_group(proc.pid)  # the provider of a killed stage
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One workload at one seed: inputs, pipeline runs, checks, metrics."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float, workload: Workload | None = None) -> None:
        self.name = name
        self.seed = seed
        self.workload = workload or WORKLOADS[name]
        self.shape = self.workload.shape
        self.work = work
        self.inputs = work / "inputs"
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] | None = None
        self.last_trace: dict | None = None

    def setup(self) -> float:
        """Generate the inputs several times; returns the median CPU seconds.
        Only the benchmark's own generator runs here, no minembed code."""
        self.inputs.mkdir(parents=True, exist_ok=True)
        times = []
        before = reference_loop()
        for _ in range(SETUP_REPEATS):
            start = time.process_time()
            write_inputs(self.shape, self.seed, self.inputs, self.name)
            cpu = time.process_time() - start
            after = reference_loop()
            times.append(at_reference_speed(cpu, before, after))
            before = after
        return statistics.median(times)

    def stages(self) -> list[tuple[str, list[str], str]]:
        w, seed = self.workload, str(self.seed)
        triplets = ["triplets", "--corpus", "manifest.jsonl", "--out", "triplets.jsonl",
                    "--min-distance", str(w.min_distance), "--seed", seed]
        if w.cross_source:
            triplets.append("--cross-source")
        triplets += ["--provider", f"{shlex.quote(sys.executable)} {shlex.quote(str(HERE / 'provider.py'))}"]
        return [
            ("prepare", ["prepare", "--in", "../inputs/docs.jsonl", "--out", "manifest.jsonl",
                         "--train-frac", str(TRAIN_FRAC), "--seed", seed], "prepare.out"),
            ("triplets", triplets, "triplets.out"),
            ("train", ["train", "--triplets", "triplets.jsonl", "--out-dir", "run",
                       "--config", "../inputs/train-config.json", "--seed", str(MODEL_SEED)], "train.out"),
            ("embed", ["embed", "--checkpoint", f"run/epoch-{self.shape.epochs}.cemb", "--texts", "../inputs/pool.jsonl",
                       "--out", "vectors.cevx", "--pooling", "mean"], "embed.out"),
            ("eval-pairs", ["eval", "--embeddings", "vectors.cevx", "--pairs", "../inputs/pairs.tsv"], "eval-pairs.json"),
            ("eval-qrels", ["eval", "--embeddings", "vectors.cevx", "--qrels", "../inputs/qrels.tsv"], "eval-qrels.json"),
        ]

    def pipeline(self, index: int, traced: bool) -> dict:
        """One pipeline run: stages, then checks. Returns its measurements."""
        it = self.work / f"run{index}"
        it.mkdir()
        walls: dict[str, float] = {}
        raw_cpus: dict[str, float] = {}
        cpus: dict[str, float] = {}  # at reference speed
        references = [reference_loop()]
        peak_kib = 0
        span_files = []
        for stage, args, stdout in self.stages():
            self.attempted += 1
            if traced:
                span_files.append(it / f"spans-{stage}.json")
                cmd = [sys.executable, str(HERE / "tracing.py"), span_files[-1].name, *args]
            else:
                cmd = [sys.executable, "-m", "minembed", *args]
            code, wall, cpu, kib = run_stage(cmd, it, it / stdout, it / f"{stage}.err", self.deadline)
            if code != 0:
                tail = (it / f"{stage}.err").read_text(errors="replace")[-2000:]
                raise StageFailed(f"{stage}: exit code {code}\n{tail}")
            references.append(reference_loop())
            walls[stage] = wall
            raw_cpus[stage] = cpu
            cpus[stage] = at_reference_speed(cpu, references[-2], references[-1])
            peak_kib = max(peak_kib, kib)
        measured = self.check(it)
        measured["stage_wall_s"], measured["stage_cpu_s"], measured["stage_ref_cpu_s"] = walls, raw_cpus, cpus
        measured["reference_s"] = references
        measured["work"] = {k: measured[k] for k in ("n_prepare", "n_triplets", "n_train", "n_embed", "n_eval")}
        measured["wall_s"] = sum(walls.values())
        measured["cpu_s"] = sum(cpus.values())
        measured["peak_rss_mb"] = peak_kib / 1024.0
        for key, stage in (("prepare_sent_per_s", "prepare"), ("triplets_per_s", "triplets"),
                           ("train_samples_per_s", "train"), ("embed_texts_per_s", "embed")):
            measured[key] = measured.pop(f"n_{stage}") / cpus[stage]
        measured["eval_queries_per_s"] = measured.pop("n_eval") / (cpus["eval-pairs"] + cpus["eval-qrels"])
        if traced:
            measured["layers"], measured["counts"], measured["stage_s"] = tracing.layer_metrics(span_files)
            self.last_trace = {path.stem: json.loads(path.read_text()) for path in span_files}
        return measured

    def check(self, it: Path) -> dict:
        """Correctness checks on one pipeline run's artifacts; returns the work counts."""
        w, shape = self.workload, self.shape
        stage = "prepare"
        try:
            manifest = checks.read_jsonl(it / "manifest.jsonl")
            checks.check_manifest(manifest, TRAIN_FRAC)
            stage = "triplets"
            triplet_rows = checks.read_jsonl(it / "triplets.jsonl")
            meta = json.loads((it / "triplets.jsonl.meta.json").read_text())
            checks.check_triplets(triplet_rows, manifest, meta, w.min_distance, w.cross_source)
            stage = "train"
            n_train = sum(1 for r in triplet_rows if r["split"] == "train")
            config = json.loads((self.inputs / "train-config.json").read_text())
            val_loss = checks.check_train(it / "run", config, n_train)
            stage = "embed"
            pool_ids = [r["sent_id"] for r in checks.read_jsonl(self.inputs / "pool.jsonl")]
            ids, matrix = checks.check_embeddings(it / "vectors.cevx", pool_ids)
            stage = "eval-pairs"
            pairs_report = json.loads((it / "eval-pairs.json").read_text())
            checks.check_pairs_eval(pairs_report, checks.read_tsv(self.inputs / "pairs.tsv"), ids, matrix, KS)
            stage = "eval-qrels"
            qrels_report = json.loads((it / "eval-qrels.json").read_text())
            checks.check_qrels_eval(qrels_report, checks.read_tsv(self.inputs / "qrels.tsv"), ids, matrix, KS)
        except (checks.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            raise StageFailed(f"{stage}: check failed: {exc!r}") from exc
        self.compare_bytes(it)
        return {
            "n_prepare": len(manifest),
            "n_triplets": len(triplet_rows),
            "n_train": n_train * shape.epochs,
            "n_embed": len(ids),
            "n_eval": pairs_report["n_queries"] + qrels_report["n_queries"],
            "val_loss": val_loss,
            "mrr": pairs_report["mrr"],
        }

    def compare_bytes(self, it: Path) -> None:
        files = {stage: list(names) for stage, names in ARTIFACTS.items()}
        files["train"] += sorted(str(p.relative_to(it)) for p in (it / "run").glob("epoch-*.cemb"))
        digests = {f"{stage}:{name}": _sha256(it / name) for stage, names in files.items() for name in names}
        if self.digests is None:
            self.digests = digests
            return
        for key, value in digests.items():
            if self.digests.get(key) != value:
                raise StageFailed(f"{key} is not byte-identical to the first pipeline run's")
        if digests.keys() != self.digests.keys():
            raise StageFailed("train: the set of checkpoints differs from the first pipeline run's")


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values), "values": values}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None
) -> tuple[dict, dict]:
    """Run one workload (or a stand-in ``workload`` under its name); returns
    the result object and a detail object."""
    started = time.monotonic()
    work = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(name, seed, work, started + RUN_DEADLINE_S, workload)
    runs: list[dict] = []
    traced_flags: list[bool] = []
    error = None
    try:
        setup_s = bench.setup()
        measure_start = time.monotonic()
        min_runs = 4 if trace else MIN_RUNS  # a traced run needs two plain and two traced runs
        while True:
            traced = trace and len(runs) % 2 == 1
            runs.append(bench.pipeline(len(runs), traced))
            traced_flags.append(traced)
            shutil.rmtree(work / f"run{len(runs) - 1}")
            elapsed = time.monotonic() - measure_start
            # Stop before a run that would end past the budget or the deadline.
            next_end = elapsed + elapsed / len(runs)
            if len(runs) >= min_runs and next_end > seconds or measure_start + next_end > bench.deadline:
                break
        if trace and not any(traced_flags):
            raise StageFailed("trace: no traced pipeline run fitted in the time limit")
    except StageFailed as exc:
        bench.failed += 1
        error = str(exc)
        print(f"FAILED {name} seed {seed}: {exc}", file=sys.stderr)
    finally:
        if bench.last_trace:
            (ROOT / ".perfbench" / f"trace-{name}-{seed}.json").write_text(json.dumps(bench.last_trace))
        shutil.rmtree(work, ignore_errors=True)

    detail: dict = {"workload": name, "seed": seed, "environment": environment(), "runs": len(runs)}
    metrics: dict = {}
    if error is None:
        plain = [r for r, t in zip(runs, traced_flags) if not t]
        if trace:
            traced_runs = [r for r, t in zip(runs, traced_flags) if t]
            series = {k: [r["layers"].get(k, 0.0) for r in traced_runs] for k in PER_LAYER_UNITS if k != "trace.overhead_frac"}
            series["trace.overhead_frac"] = [
                statistics.median(r["cpu_s"] for r in traced_runs) / statistics.median(r["cpu_s"] for r in plain) - 1.0
            ]
            units = PER_LAYER_UNITS
            stage_s = {k: statistics.median(r["stage_s"][k] for r in traced_runs) for k in traced_runs[0]["stage_s"]}
            layer = {k: statistics.median(v) for k, v in series.items()}
            detail["stage_s"] = stage_s
            detail["shares"] = {
                "adamw_of_train": layer["trainer.adamw_s"] / stage_s["cli.train"],
                "negative_of_triplets": layer["triplets.negative_s"] / stage_s["cli.triplets"],
                "rank_of_eval": layer["metrics.rank_s"] / stage_s["cli.eval"],
            }
            if any(r["counts"] != traced_runs[0]["counts"] for r in traced_runs):
                bench.failed += 1
                error = "computed counts differ between traced runs"
                print(f"FAILED {name} seed {seed}: {error}", file=sys.stderr)
        else:
            series = {k: [r[k] for r in plain] for k in END_TO_END_UNITS if k != "setup_s"}
            series["setup_s"] = [setup_s]
            units = END_TO_END_UNITS
        detail["metrics"] = {k: {**_quartiles(v), "unit": units[k]} for k, v in series.items()}
        detail["wall_s"] = _quartiles([r["wall_s"] for r in plain])
        detail["stage_runs"] = [{k: r[k] for k in ("stage_wall_s", "stage_cpu_s", "stage_ref_cpu_s", "reference_s", "work")} for r in plain]
        metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in series.items()}
    detail["fail_frac"] = bench.failed / max(1, bench.attempted)
    if error:
        detail["error"] = error
    result = {"correct": error is None, "attempted": max(1, bench.attempted), "failed": bench.failed, "metrics": metrics}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="minembed benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running stage is
    # killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "minembed" / "cli.py").is_file():
        print(f"perfbench: no minembed sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(detail))
        for key, m in result["metrics"].items():
            print(f"{name:9} {key:32} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": m for n, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
