"""Correctness checks on one pipeline output directory.

Each check recomputes what it needs from the files with plain Python,
apart from the program: it imports nothing from ``churnforge``. The
matrix is read through its documented CFM1 layout (magic ``CFM1``,
``<II`` rows and columns, ``<I``-prefixed newline-joined ego ids and
feature names, then little-endian float64 columns).

``run_checks`` returns one line per failed check; an empty list means
the outputs are correct.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import random
import struct
from pathlib import Path

FAMILIES = ("linreg", "logreg", "linear_svm", "knn", "random_forest",
            "adaboost")
STAGES = ("generate", "featurize", "select", "train", "score", "evaluate")

# 2 measures x 4 kinds x 3 directions x 3 times of day x 3 day types x
# 7 counterparty classes = 1512 filter cells; each has 5 windows x 2
# statistics plus 2 full-window trend statistics; then 5 inactivity windows.
FEATURE_COUNT = 2 * 4 * 3 * 3 * 3 * 7 * (5 * 2 + 2) + 5

ACTIVITY = "activity.any.any.any.any.any.full.total"
DEGREE = "degree.any.any.any.any.any.full.total"
INACTIVITY = "inactivity.full"
COMPETITOR_SMS = "activity.sms.in.any.any.competitor.m4.total"
SAMPLE_SIZE = 20
MIN_CV_AUC = 0.85


class CheckFailed(Exception):
    pass


def read_config(path: Path) -> dict[str, str]:
    """The key=value pairs of a churnforge config file."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line]


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _labels(out: Path) -> list[tuple[str, bool]]:
    return [(row[0], row[1] == "1") for row in _csv_rows(out / "labels.csv")]


def check_labels(out: Path, config: dict, seed: int) -> None:
    """The churned flags equal the flags planted by the generator."""
    planted = [(row[0], row[1] == "1")
               for row in _csv_rows(out / "ground_truth.csv")]
    labels = _labels(out)
    if sorted(planted) != labels:
        wrong = sorted(set(labels) - set(planted))
        raise CheckFailed(f"labels.csv differs from ground_truth.csv "
                          f"({len(wrong)} rows, first {wrong[:1]})")


def check_feature_count(out: Path, config: dict, seed: int) -> None:
    names = _lines(out / "features.txt")
    if len(names) != FEATURE_COUNT or len(set(names)) != FEATURE_COUNT:
        raise CheckFailed(f"features.txt has {len(names)} entries "
                          f"({len(set(names))} distinct), "
                          f"expected {FEATURE_COUNT}")


def read_cfm1_columns(path: Path, wanted: list[str]):
    """Ego ids, feature names and the ``wanted`` columns of a CFM1 file."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"CFM1":
            raise CheckFailed(f"{path.name}: not a CFM1 matrix")
        n_rows, n_cols = struct.unpack("<II", fh.read(8))
        (ego_len,) = struct.unpack("<I", fh.read(4))
        egos = fh.read(ego_len).decode("utf-8").split("\n")
        (name_len,) = struct.unpack("<I", fh.read(4))
        names = fh.read(name_len).decode("utf-8").split("\n")
        base = fh.tell()
        columns = {}
        for name in wanted:
            if name not in names:
                raise CheckFailed(f"{path.name}: no column {name}")
            fh.seek(base + names.index(name) * n_rows * 8)
            raw = fh.read(n_rows * 8)
            if len(raw) != n_rows * 8:
                raise CheckFailed(f"{path.name}: column {name} is truncated")
            columns[name] = struct.unpack(f"<{n_rows}d", raw)
    if len(egos) != n_rows or len(names) != n_cols:
        raise CheckFailed(f"{path.name}: name tables do not match its shape")
    return egos, names, columns


def _study_window(out: Path):
    header = dict(line.split("=", 1) for line in _lines(out / "cdr.header"))
    start = datetime.date.fromisoformat(header["start_day"])
    epoch = int(datetime.datetime(start.year, start.month, start.day,
                                  tzinfo=datetime.timezone.utc).timestamp())
    train_months = int(header["train_months"])
    # month tiles alternate 31 and 30 days, starting at 31
    tiles, day = [], 0
    for i in range(train_months):
        tiles.append((day, day + (31 if i % 2 == 0 else 30)))
        day = tiles[-1][1]
    return epoch, tiles


def check_matrix(out: Path, config: dict, seed: int) -> None:
    """Four matrix cells of a seeded sample of subscribers, from cdr.csv."""
    wanted = [ACTIVITY, DEGREE, INACTIVITY, COMPETITOR_SMS]
    egos, names, columns = read_cfm1_columns(out / "matrix.cfm", wanted)
    if names != _lines(out / "features.txt"):
        raise CheckFailed("matrix.cfm feature names differ from features.txt")
    if egos != [ego for ego, _ in _labels(out)]:
        raise CheckFailed("matrix.cfm rows are not in labels.csv order")
    sample = set(random.Random(seed).sample(egos, min(SAMPLE_SIZE, len(egos))))
    epoch, tiles = _study_window(out)
    train_days = tiles[-1][1]
    m4_lo, m4_hi = tiles[3]
    events = {ego: 0 for ego in sample}
    alters = {ego: set() for ego in sample}
    days = {ego: set() for ego in sample}
    competitor_sms = {ego: 0 for ego in sample}
    with open(out / "cdr.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for ego, alter, ts, kind, direction, _dur, alter_class in reader:
            if ego not in sample:
                continue
            day = (int(ts) - epoch) // 86400
            if not 0 <= day < train_days:
                continue
            events[ego] += 1
            alters[ego].add(alter)
            days[ego].add(day)
            if (kind == "SMS" and direction == "IN"
                    and alter_class == "COMPETITOR" and m4_lo <= day < m4_hi):
                competitor_sms[ego] += 1
    row_of = {ego: i for i, ego in enumerate(egos)}
    for ego in sorted(sample):
        expected = {ACTIVITY: events[ego], DEGREE: len(alters[ego]),
                    INACTIVITY: 1.0 - len(days[ego]) / train_days,
                    COMPETITOR_SMS: competitor_sms[ego]}
        for name, want in expected.items():
            got = columns[name][row_of[ego]]
            if not math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12):
                raise CheckFailed(f"matrix.cfm {ego} {name} = {got!r}, "
                                  f"cdr.csv gives {want!r}")


def _scores(out: Path, family: str) -> list[tuple[str, float]]:
    return [(row[0], float(row[1]))
            for row in _csv_rows(out / f"scores_{family}.csv")]


def check_scores(out: Path, config: dict, seed: int) -> None:
    """Every score is finite, in [0, 1], and the rows are in label order."""
    egos = [ego for ego, _ in _labels(out)]
    for family in FAMILIES:
        scores = _scores(out, family)
        if [ego for ego, _ in scores] != egos:
            raise CheckFailed(f"scores_{family}.csv is not in label order")
        for ego, score in scores:
            if not (math.isfinite(score) and 0.0 <= score <= 1.0):
                raise CheckFailed(f"scores_{family}.csv {ego} = {score!r}")


def concordance(scores: list[float], positive: list[bool]) -> float:
    """P(score of a positive > score of a negative), ties counted half.

    Computed from midranks (the Mann-Whitney U statistic).
    """
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    n_pos = sum(positive)
    n_neg = len(positive) - n_pos
    rank_sum = sum(r for r, p in zip(ranks, positive) if p)
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def check_report(out: Path, config: dict, seed: int) -> None:
    """AUCs equal the concordance of the scores; CV and baseline floors."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    labels = _labels(out)
    churned = [c for _, c in labels]
    rate = sum(churned) / len(churned)
    majority = max(rate, 1.0 - rate)
    if not math.isclose(report["majority_accuracy"], majority, abs_tol=1e-12):
        raise CheckFailed(f"report majority accuracy "
                          f"{report['majority_accuracy']!r}, labels give "
                          f"{majority!r}")
    if report["baseline"]["accuracy"] < majority:
        raise CheckFailed(f"baseline accuracy {report['baseline']['accuracy']}"
                          f" is below majority accuracy {majority}")
    rows = {row["model"]: row for row in report["models"]}
    for family in FAMILIES:
        if family not in rows:
            raise CheckFailed(f"report.json has no row for {family}")
        auc = concordance([s for _, s in _scores(out, family)], churned)
        if not math.isclose(rows[family]["auc"], auc, abs_tol=1e-9):
            raise CheckFailed(f"report.json {family} auc "
                              f"{rows[family]['auc']!r}, scores give {auc!r}")
        cv_auc = rows[family]["cv_mean"]["auc"]
        if cv_auc < MIN_CV_AUC:
            raise CheckFailed(f"{family} cv auc {cv_auc:.4f} < {MIN_CV_AUC}")


def check_selected(out: Path, config: dict, seed: int) -> None:
    k = int(config.get("selection.k", "100"))
    selected = _lines(out / "selected_features.txt")
    known = set(_lines(out / "features.txt"))
    if len(selected) != k or len(set(selected)) != k:
        raise CheckFailed(f"selected_features.txt has {len(selected)} names "
                          f"({len(set(selected))} distinct), expected {k}")
    unknown = [name for name in selected if name not in known]
    if unknown:
        raise CheckFailed(f"selected feature {unknown[0]} not in features.txt")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_manifests(out: Path, config: dict, seed: int) -> None:
    """The sha256 of every file each manifest names, recomputed."""
    for stage in STAGES:
        manifest = json.loads((out / f"manifest_{stage}.json")
                              .read_text(encoding="utf-8"))
        for name, digest in {**manifest["inputs"],
                             **manifest["outputs"]}.items():
            if _sha256(out / name) != digest:
                raise CheckFailed(f"manifest_{stage}.json: sha256 of {name} "
                                  f"does not match")


CHECKS = (check_labels, check_feature_count, check_matrix, check_scores,
          check_report, check_selected, check_manifests)


def run_checks(out: Path, config: dict, seed: int) -> list[str]:
    failures = []
    for check in CHECKS:
        try:
            check(out, config, seed)
        except CheckFailed as exc:
            failures.append(f"{check.__name__}: {exc}")
        except Exception as exc:  # unreadable or malformed output
            failures.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return failures
