"""churnforge command line: generate, featurize, select, train, score,
evaluate, or run the whole pipeline.

Every stage writes a manifest (config hash, seed, input hashes, output
hashes) next to its artifacts; reruns with identical config and inputs
produce byte-identical manifests at any worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import artifact
from . import cdr as cdr_mod
from . import features as feat_mod
from . import labeling as label_mod
from . import matrix as matrix_mod
from . import metrics as metrics_mod
from . import models as models_mod
from . import parallel
from . import selection as select_mod
from . import simgen as simgen_mod
from .config import PipelineConfig
from .features import ConfigError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

STAGES = ("generate", "featurize", "select", "train", "score", "evaluate")

_TALLY_LINES = 10  # most common reasons of rejected CDR rows printed


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def _write_manifest(stage: str, cfg: PipelineConfig, out: Path,
                    inputs: list[Path], outputs: dict[str, str]) -> None:
    """Inputs are hashed by reading them; ``outputs`` maps each output's
    file name to the sha256 its writer returned."""
    artifact.write_json(out / f"manifest_{stage}.json", {
        "stage": stage,
        "config_sha256": hashlib.sha256(cfg.canonical().encode()).hexdigest(),
        "seed": cfg.seed,
        "inputs": {p.name: _sha256(p) for p in inputs},
        "outputs": outputs,
    })


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing {path.name}: run `{hint}` first "
                                f"or point the config at existing data")
    return path


def _cdr_paths(cfg: PipelineConfig, out: Path) -> tuple[Path, Path]:
    cdr = Path(cfg._get("data.cdr")) if cfg._get("data.cdr") else out / "cdr.csv"
    header = Path(cfg._get("data.header")) if cfg._get("data.header") \
        else out / "cdr.header"
    return cdr, header


def stage_generate(cfg: PipelineConfig, out: Path) -> None:
    window = cfg.window()
    sim = simgen_mod.SimConfig(
        n_subscribers=cfg._get("simgen.n_subscribers"),
        window=window,
        target_churn_fraction=cfg._get("simgen.target_churn_fraction"),
        daily_call_rate=cfg._get("simgen.daily_call_rate"),
        daily_sms_rate=cfg._get("simgen.daily_sms_rate"),
        alter_pool_size=cfg._get("simgen.alter_pool_size"),
        churn_decay_days=cfg._get("simgen.churn_decay_days"),
        competitor_signal_strength=cfg._get("simgen.competitor_signal_strength"),
        seed=cfg.seed)
    stats = simgen_mod.generate(sim, str(out / "cdr.csv"),
                                str(out / "ground_truth.csv"), cfg.workers)
    outputs = {"cdr.csv": stats["cdr_sha256"],
               "ground_truth.csv": stats["truth_sha256"],
               "cdr.header": cdr_mod.write_header_sidecar(
                   window, str(out / "cdr.header"))}
    print(f"generate: {stats['rows']} rows, {stats['subscribers']} subscribers, "
          f"churn fraction {stats['churn_fraction']:.4f}")
    _write_manifest("generate", cfg, out, [], outputs)


def stage_featurize(cfg: PipelineConfig, out: Path) -> None:
    cdr_path, header_path = _cdr_paths(cfg, out)
    _require(cdr_path, "churnforge generate")
    _require(header_path, "churnforge generate")
    window = cdr_mod.read_header_sidecar(str(header_path))
    store = cdr_mod.ingest(str(cdr_path), window)
    if store.rejected:
        print(f"featurize: rejected {len(store.rejected)} malformed rows "
              f"(first: line {store.rejected[0].line_no}, "
              f"{store.rejected[0].reason})")
        tally = Counter(r.reason for r in store.rejected).most_common()
        for reason, count in tally[:_TALLY_LINES]:
            print(f"featurize:   {count} {reason}")
        if len(tally) > _TALLY_LINES:
            rest = sum(count for _, count in tally[_TALLY_LINES:])
            print(f"featurize:   {rest} for {len(tally) - _TALLY_LINES} "
                  f"other reasons")
    axes = cfg.axes()
    names = feat_mod.enumerate_features(axes, cfg.denominators())
    chunks = feat_mod.row_chunks(store, names, axes)
    outputs = {
        "matrix.cfm": matrix_mod.write(
            str(out / "matrix.cfm"), store.ego_ids, names,
            matrix_mod.check_chunks_finite(chunks, store.ego_ids, names)),
        "features.txt": artifact.write_text(
            out / "features.txt", "".join(n + "\n" for n in names))}
    train_range, eval_range = label_mod.split_windows(window)
    labels = label_mod.compute_labels(store, eval_range)
    outputs["labels.csv"] = label_mod.write_labels(labels,
                                                   str(out / "labels.csv"))
    print(f"featurize: {len(store)} subscribers x {len(names)} features "
          f"(train days {train_range}, eval days {eval_range})")
    _write_manifest("featurize", cfg, out, [cdr_path, header_path], outputs)


def _labels(out: Path, ego_ids: list[str]) -> label_mod.LabelSet:
    """The labels in ``labels.csv``, which must list ``ego_ids``, the
    rows of ``matrix.cfm``, in order."""
    path = _require(out / "labels.csv", "churnforge featurize")
    labels = label_mod.read_labels(str(path))
    if labels.ego_ids != ego_ids:
        raise ValueError(f"{path} and {out / 'matrix.cfm'} do not list the "
                         f"same egos in the same order")
    return labels


def stage_select(cfg: PipelineConfig, out: Path) -> None:
    matrix_path = _require(out / "matrix.cfm", "churnforge featurize")
    columns = matrix_mod.columns(str(matrix_path))
    labels = _labels(out, columns.ego_ids)
    try:
        t, r2, ranks = select_mod.scan(columns, labels, cfg.workers)
    except ValueError as exc:  # e.g. a non-finite cell
        raise ValueError(f"{matrix_path}: {exc}") from None
    k = cfg._get("selection.k")
    tree = select_mod.tree_select(
        ranks, labels, n_trees=cfg._get("selection.n_trees"), k=k,
        seed=cfg.seed, max_depth=cfg._get("selection.max_depth"),
        workers=cfg.workers)
    del ranks  # the rankings are written without the rank codes
    names = columns.feature_names
    r2_order = select_mod.ranked(names, r2)
    top = select_mod.ranked(names, tree)[:k]
    outputs = {
        name: select_mod.write_ranking(str(out / name), kind, names, scores,
                                       order)
        for name, kind, scores, order in (
            ("rank_ttest.csv", select_mod.T_STAT_ABS, t,
             select_mod.ranked(names, t)),
            ("rank_r2.csv", select_mod.R_SQUARED, r2, r2_order),
            ("rank_tree.csv", select_mod.TREE_IMPORTANCE, tree, top))}
    outputs["selected_features.txt"] = artifact.write_text(
        out / "selected_features.txt", "".join(names[i] + "\n" for i in top))
    best = r2_order[0]
    print(f"select: top {k} of {len(names)} features by "
          f"tree importance; best univariate r2 = "
          f"{names[best]} ({r2[best]:.3f})")
    _write_manifest("select", cfg, out, [matrix_path, out / "labels.csv"],
                    outputs)


def _selected_matrix(out: Path):
    matrix_path = _require(out / "matrix.cfm", "churnforge featurize")
    selected = _require(out / "selected_features.txt", "churnforge select")
    names = [line for line in
             selected.read_text(encoding="utf-8").splitlines() if line]
    if not names:
        raise ValueError(f"{selected}: names no features")
    return matrix_mod.load(str(matrix_path), names), selected


def stage_train(cfg: PipelineConfig, out: Path) -> None:
    sub, selected_path = _selected_matrix(out)
    labels = _labels(out, sub.ego_ids)
    folds = cfg._get("cv.folds")
    threshold = cfg._get("evaluate.threshold")

    def fit(family):
        spec = models_mod.ModelSpec(family=family,
                                    params=cfg.model_params(family),
                                    seed=cfg.seed)
        report = models_mod.kfold_cv(spec, sub, labels, k=folds,
                                     seed=cfg.seed, threshold=threshold)
        return report, models_mod.train(spec, sub, labels)

    # one task per family; files are written here, in roster order
    roster = cfg.roster()
    outputs = {}
    for family, (report, model) in zip(
            roster, parallel.map(fit, roster, cfg.workers), strict=True):
        outputs[f"cv_{family}.json"] = artifact.write_json(
            out / f"cv_{family}.json", report)
        outputs[f"model_{family}.cfmd"] = models_mod.save_model(
            model, str(out / f"model_{family}.cfmd"))
        print(f"train: {family} cv accuracy {report['mean']['accuracy']:.4f} "
              f"auc {report['mean']['auc']:.4f}")
    _write_manifest("train", cfg, out, [selected_path, out / "labels.csv"],
                    outputs)


def stage_score(cfg: PipelineConfig, out: Path) -> None:
    sub, selected_path = _selected_matrix(out)
    inputs = [selected_path]
    outputs = {}
    for family in cfg.roster():
        model_path = _require(out / f"model_{family}.cfmd", "churnforge train")
        model = models_mod.load_model(str(model_path))
        if model.family != family:
            raise ValueError(f"{model_path}: holds a {model.family} model, "
                             f"not {family}")
        try:
            scores = models_mod.predict_scores(model, sub)
        except ValueError as exc:  # e.g. a non-finite weight in the file
            raise ValueError(f"{model_path}: {exc}") from None
        outputs[f"scores_{family}.csv"] = models_mod.write_scores(
            sub.ego_ids, scores, str(out / f"scores_{family}.csv"))
        inputs.append(model_path)
    print(f"score: wrote churn scores for {len(outputs)} models")
    _write_manifest("score", cfg, out, inputs, outputs)


def _cv_mean(path: Path) -> dict:
    """The ``mean`` entry of the cv report at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(report, dict) or "mean" not in report:
        raise ValueError(f"{path}: no \"mean\" entry")
    return report["mean"]


def stage_evaluate(cfg: PipelineConfig, out: Path) -> None:
    matrix_path = _require(out / "matrix.cfm", "churnforge featurize")
    inactivity = matrix_mod.load(str(matrix_path), ["inactivity.full"])
    labels = _labels(out, inactivity.ego_ids)
    threshold = cfg._get("evaluate.threshold")
    bins = cfg._get("evaluate.bins")

    churn_rate = float(np.mean(labels.churned))
    majority_accuracy = max(churn_rate, 1.0 - churn_rate)
    baseline = models_mod.threshold_baseline(inactivity.values[:, 0],
                                             labels.churned)
    report = {
        "majority_accuracy": majority_accuracy,
        "churn_rate": churn_rate,
        "baseline": {"model": "baseline", "threshold": baseline.threshold,
                     "accuracy": baseline.accuracy},
        "models": [],
    }
    inputs = [out / "labels.csv"]
    outputs = {}
    for family in cfg.roster():
        scores_path = _require(out / f"scores_{family}.csv", "churnforge score")
        egos, scores = models_mod.read_scores(str(scores_path))
        if egos != labels.ego_ids:
            raise ValueError(f"{scores_path.name} egos do not match labels")
        rep = metrics_mod.classification_metrics(scores, labels.churned,
                                                 threshold)
        curve, auc = metrics_mod.roc_auc(scores, labels.churned)
        outputs[f"roc_{family}.csv"] = metrics_mod.write_roc_csv(
            curve, str(out / f"roc_{family}.csv"))
        # score read as predicted inactive-day fraction vs the realized one
        err_hist = metrics_mod.error_distribution(
            scores, labels.pct_inactive_eval, bins)
        outputs[f"error_hist_{family}.csv"] = metrics_mod.write_histogram_csv(
            err_hist, str(out / f"error_hist_{family}.csv"))
        cv_path = _require(out / f"cv_{family}.json", "churnforge train")
        report["models"].append({"model": family, "auc": auc, **rep,
                                 "cv_mean": _cv_mean(cv_path)})
        inputs += [cv_path, scores_path]
    hist = metrics_mod.inactivity_distribution(labels.pct_inactive_eval,
                                               bins)
    outputs["inactivity_hist.csv"] = metrics_mod.write_histogram_csv(
        hist, str(out / "inactivity_hist.csv"))
    outputs["report.json"] = artifact.write_json(out / "report.json", report)
    print(f"evaluate: majority {majority_accuracy:.4f}, "
          f"baseline {baseline.accuracy:.4f} @ {baseline.threshold:.4f}, "
          f"{len(report['models'])} model rows")
    _write_manifest("evaluate", cfg, out, inputs, outputs)


_STAGE_FN = {
    "generate": stage_generate,
    "featurize": stage_featurize,
    "select": stage_select,
    "train": stage_train,
    "score": stage_score,
    "evaluate": stage_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="churnforge",
        description="churn scoring pipeline over call detail records")
    parser.add_argument("subcommand", choices=STAGES + ("pipeline",))
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        workers = args.workers
        if workers is None:
            workers = os.environ.get("CHURNFORGE_WORKERS") or None
        cfg = PipelineConfig.from_file(
            args.config, {"seed": args.seed, "workers": workers})
        out = Path(args.out) if args.out else Path(cfg._get("out_dir"))
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    stages = list(STAGES) if args.subcommand == "pipeline" else [args.subcommand]
    try:
        for stage in stages:
            # the old manifest would vouch for a mix of old and new outputs
            # if this run failed after replacing some of them
            (out / f"manifest_{stage}.json").unlink(missing_ok=True)
            _STAGE_FN[stage](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:  # str() would quote the message
        print(f"data error: {exc.args[0]}", file=sys.stderr)
        return EXIT_DATA
    except (cdr_mod.CdrFormatError, FileNotFoundError, ValueError,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
