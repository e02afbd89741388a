#!/usr/bin/env python3
"""End-to-end benchmark of the churnforge pipeline.

One run of a workload:

    python3 pipebench/run.py --workload wide --seed 1 --seconds 60 --trace 0

makes rounds of one set-up (``churnforge generate``), one pass of the
five pipeline stages ``featurize select train score evaluate``, each
stage its own process, and the checks of the outputs (``checks.py``). A
run makes at least three rounds, and more while ``--seconds`` allows;
round ``i`` generates its data with seed ``1000 * seed + i``. The last
line of standard output is one JSON object: ``correct``, the
``attempted`` and ``failed`` stage processes, and the end-to-end metrics
(``--trace 0``, medians over the rounds) or the per-layer metrics
(``--trace 1``).

A traced run makes the first round's set-up, one untraced pass and one
traced pass, whose stages record spans around their calls into each
layer (``stage.py``); the difference of the two passes is
``trace.overhead_s``.

    python3 pipebench/run.py --steady [--runs 5] [--seconds 60]

runs two interleaved sets of untraced runs of every workload, each run
with its own seed, and prints each end-to-end metric's median and
quartiles per set. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, before numpy is imported anywhere:
# no stage may run more threads than the two cores of the reference host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".pipebench_runs"
WORKLOADS = ("wide", "trees")
STAGES = checks.STAGES[1:]
GENERATED = ("cdr.csv", "cdr.header", "ground_truth.csv",
             "manifest_generate.json")
ROUNDS = 3  # fewest set-up + pipeline rounds in an untraced run

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
              "output_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for stage in STAGES:
        units[f"cli.{stage}_s"] = "s"
        units[f"cli.{stage}.self_s"] = "s"
        units[f"cli.{stage}_rss_mb"] = "MB"
    units.update({
        "cli.featurize.pool_rss_mb": "MB", "cli.hashed_mb": "MB",
        "simgen.generate_s": "s", "simgen.rows": "count",
        "cdr.ingest_s": "s", "cdr.rows": "count",
        "features.compute_matrix_s": "s", "features.cells": "count",
        "matrix.save_s": "s", "matrix.load_s": "s", "matrix.loads": "count",
        "matrix.read_mb": "MB", "matrix.written_mb": "MB",
        "labeling.compute_labels_s": "s",
        "selection.univariate_ttest_s": "s", "selection.univariate_r2_s": "s",
        "selection.tree_select_s": "s",
        "tree.DecisionTree.fit_s": "s", "tree.BaggedForest.fit_s": "s",
        "tree.BaggedForest.fit.self_s": "s", "tree.fits": "count",
        "tree.nodes": "count",
    })
    for family in checks.FAMILIES:
        units[f"models.kfold_cv_s.{family}"] = "s"
        units[f"models.train_s.{family}"] = "s"
    units.update({"models.predict_scores_s": "s", "models.fits": "count",
                  "host.probe_s": "s", "trace.overhead_s": "s"})
    return units


def log(message: str) -> None:
    print(f"pipebench: {message}", file=sys.stderr, flush=True)


class Runner:
    """Starts stage processes for one workload and counts them."""

    def __init__(self, workload: str):
        self.config = HERE / "workloads" / f"{workload}.cfg"
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("CHURNFORGE_WORKERS", None)  # the config sets workers

    def stage(self, stage: str, out: Path, seed: int, trace: bool = False):
        """Run one stage process; its wall time and report, or None."""
        report_path = out.parent / f"{out.name}.{stage}.json"
        cmd = [sys.executable, str(HERE / "stage.py"), str(report_path)]
        cmd += ["--trace"] if trace else []
        cmd += ["--", stage, "--config", str(self.config), "--out", str(out),
                "--seed", str(seed)]
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            self.failed += 1
            log(f"{stage} exited {proc.returncode}: {proc.stderr.strip()}")
            return wall, None
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
        return wall, report

    def pipeline(self, out: Path, seed: int, trace: bool = False):
        """Run the five stages on the inputs generated into ``out``.

        Returns {stage: (wall_s, report)}, stopping at the first failure.
        """
        results = {}
        for stage in STAGES:
            results[stage] = self.stage(stage, out, seed, trace)
            if results[stage][1] is None:
                break
        return results


def host_probe() -> float:
    """Wall time of a fixed numpy-and-Python job; tells machine drift apart."""
    import numpy as np

    start = time.perf_counter()
    a = np.random.default_rng(0).random((300, 300))
    for _ in range(100):
        a = a @ a
        a /= a.max()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def output_mb(out: Path) -> float:
    """Bytes that featurize..evaluate left in ``out``, in MB (10^6 bytes)."""
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name not in GENERATED) / 1e6


def same_outputs(a: Path, b: Path) -> bool:
    return all((a / f"manifest_{s}.json").read_bytes()
               == (b / f"manifest_{s}.json").read_bytes()
               for s in checks.STAGES)


def finish(runner: Runner, problems: list[str], metrics: dict[str, float],
           units: dict[str, str]) -> dict:
    for problem in problems:
        log(f"check failed: {problem}")
    return {"correct": not problems and runner.failed == 0,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def round_seed(seed: int, index: int) -> int:
    """The data seed of round ``index`` of the run with ``--seed seed``."""
    return 1000 * seed + index


def measure(runner: Runner, run_dir: Path, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics, as medians over rounds.

    A round generates its own data set (seed ``round_seed``) into a fresh
    directory, runs the pipeline there and checks the outputs. A run
    makes at least ROUNDS rounds and goes on while another round fits
    into ``seconds``. Different data sets per round keep one data set
    whose learners stop early (AdaBoost ends at a perfect weak learner)
    from setting the whole run's figures.
    """
    problems: list[str] = []
    rounds = []
    config = checks.read_config(runner.config)
    started = time.perf_counter()
    while True:
        out = run_dir / f"round{len(rounds)}"
        data_seed = round_seed(seed, len(rounds))
        setup_s, report = runner.stage("generate", out, data_seed)
        results = runner.pipeline(out, data_seed) if report is not None \
            else {}
        if report is None or any(r is None for _, r in results.values()):
            problems.append(f"{out.name}: a stage failed")
            break
        rounds.append({
            "setup_s": setup_s,
            "pipeline_s": sum(wall for wall, _ in results.values()),
            "peak_rss_mb": max(r["rss_mb"] for _, r in results.values()),
            "output_mb": output_mb(out)})
        problems += checks.run_checks(out, config, data_seed)
        shutil.rmtree(out)
        elapsed = time.perf_counter() - started
        if len(rounds) >= ROUNDS and \
                elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    for name in ("setup_s", "pipeline_s"):
        log(f"{name} per round: {[round(r[name], 3) for r in rounds]}")
    metrics = {name: statistics.median(r[name] for r in rounds)
               if rounds else 0.0 for name in END_TO_END}
    return finish(runner, problems, metrics, END_TO_END)


def layer_metrics(results: dict, out: Path) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time from traced stage reports."""
    metrics: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for stage, (wall, report) in results.items():
        spans = report["spans"]
        child_s = defaultdict(float)
        for _name, start, end, parent in spans:
            if parent is not None:
                child_s[parent] += end - start
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self_s = duration - child_s[i]
            layer_self[name.split(".")[0]] += self_s
            if parent is None:
                covered += duration
            if name.startswith("models.kfold_cv."):
                metrics[f"models.kfold_cv_s.{name.split('.')[2]}"] += duration
            elif name.startswith("models.train."):
                if parent is None or \
                        not spans[parent][0].startswith("models.kfold_cv."):
                    metrics[f"models.train_s.{name.split('.')[2]}"] += duration
            else:
                metrics[f"{name}_s"] += duration
            if name == "tree.BaggedForest.fit":
                metrics["tree.BaggedForest.fit.self_s"] += self_s
        for name, amount in report["counts"].items():
            metrics[name] += amount
        metrics[f"cli.{stage}_s"] = wall
        metrics[f"cli.{stage}.self_s"] = wall - covered
        metrics[f"cli.{stage}_rss_mb"] = report["rss_mb"]
        layer_self["cli"] += wall - covered
        if stage == "featurize":
            metrics["cli.featurize.pool_rss_mb"] = report["children_rss_mb"]
    for stage in checks.STAGES:
        manifest = json.loads((out / f"manifest_{stage}.json")
                              .read_text(encoding="utf-8"))
        for name in {**manifest["inputs"], **manifest["outputs"]}:
            metrics["cli.hashed_mb"] += (out / name).stat().st_size / 1e6
    return metrics, layer_self


def trace(runner: Runner, run_dir: Path, seed: int) -> dict:
    """Traced run: one untraced and one traced pass on the data set of
    the untraced run's first round; per-layer metrics."""
    units = per_layer_units()
    out = run_dir / "traced"
    data_seed = round_seed(seed, 0)
    _, gen_report = runner.stage("generate", out, data_seed, trace=True)
    if gen_report is None:
        return finish(runner, ["generate failed"], dict.fromkeys(units, 0.0),
                      units)
    (run_dir / "plain").mkdir()
    for name in GENERATED:
        os.link(out / name, run_dir / "plain" / name)
    plain = runner.pipeline(run_dir / "plain", data_seed)
    traced = runner.pipeline(out, data_seed, trace=True)
    if any(r is None for _, r in (*plain.values(), *traced.values())):
        return finish(runner, ["a stage failed"], dict.fromkeys(units, 0.0),
                      units)
    problems = checks.run_checks(out, checks.read_config(runner.config),
                                 data_seed)
    if not same_outputs(run_dir / "plain", out):
        problems.append("traced outputs differ from untraced outputs")
    metrics, layer_self = layer_metrics(traced, out)
    pipeline_s = sum(wall for wall, _ in traced.values())
    metrics["simgen.generate_s"] = sum(
        end - start for name, start, end, _ in gen_report["spans"]
        if name == "simgen.generate")
    metrics["simgen.rows"] = gen_report["counts"]["simgen.rows"]
    metrics["trace.overhead_s"] = pipeline_s - sum(
        wall for wall, _ in plain.values())
    shares = ", ".join(f"{layer} {100 * s / pipeline_s:.1f}%" for layer, s in
                       sorted(layer_self.items(), key=lambda kv: -kv[1]))
    print(f"traced pipeline_s {pipeline_s:.3f}; self time by layer: {shares}")
    return finish(runner, problems, metrics, units)


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "churnforge" / "cli.py").is_file():
        log(f"no churnforge sources under {SRC}")
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-",
                                    dir=RUNS_DIR))
    runner = Runner(workload)
    try:
        probes = [host_probe()]
        result = trace(runner, run_dir, seed) if traced else \
            measure(runner, run_dir, seed, seconds)
        probes.append(host_probe())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"host.probe_s start {probes[0]:.4f} end {probes[1]:.4f}")
    if traced:
        result["metrics"]["host.probe_s"]["value"] = statistics.median(probes)
    print(json.dumps(result))
    return 0


def steady(runs: int, seconds: float) -> int:
    """Two interleaved sets of runs per workload; spread and drift per metric.

    Run i of set A and run i of set B follow each other, in alternating
    order, so that a drift of the machine's speed reaches both sets alike.
    """
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    results: dict = {(w, s): [] for w in WORKLOADS for s in "AB"}
    for i in range(runs):
        for workload in WORKLOADS:
            for label in ("AB" if i % 2 == 0 else "BA"):
                seed = (1 if label == "A" else 2) * 1000 + i
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                results[(workload, label)].append(result)
                log(f"{workload} set {label} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4f}" for k, v in
                    result["metrics"].items()))
    ok = True
    for workload in WORKLOADS:
        runs_a, runs_b = results[(workload, "A")], results[(workload, "B")]
        for name, bound in bounds.items():
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            pooled = statistics.quantiles(a + b, n=4)
            spread = (pooled[2] - pooled[0]) / pooled[1]
            drift = statistics.median(b) / statistics.median(a) - 1
            line = f"{workload:6s} {name:12s} bound {bound:.2f}"
            for label, values in (("A", a), ("B", b)):
                q1, med, q3 = statistics.quantiles(values, n=4)
                line += f" | {label} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f}"
            line += f" | pooled spread {spread:.4f} drift {drift:+.4f}"
            print(line)
            ok &= abs(drift) <= bound and (
                name == "setup_s" or spread <= bound)
        shares = {(r["failed"] / r["attempted"]) for r in runs_a + runs_b}
        correct = all(r["correct"] for r in runs_a + runs_b)
        print(f"{workload:6s} correct {correct}, failed shares {sorted(shares)}")
        ok &= correct and len(shares) == 1
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="run two interleaved sets of runs per workload")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload with --steady")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args.runs, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
