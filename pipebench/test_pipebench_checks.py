"""Tests of the benchmark's correctness checks on configs/small.cfg.

Every check passes on a clean pipeline run, and each one fails on a copy
of that run's output that was altered on purpose. Every alteration also
breaks a manifest hash.
"""

from __future__ import annotations

import itertools
import random
import shutil
import struct
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from churnforge.cli import main  # noqa: E402

CONFIG = ROOT / "configs" / "small.cfg"
SEED = 7


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipebench") / "out"
    assert main(["pipeline", "--config", str(CONFIG), "--out", str(out),
                 "--seed", str(SEED)]) == 0
    return out


def _failed(out: Path) -> set[str]:
    failures = checks.run_checks(out, checks.read_config(CONFIG), SEED)
    return {line.split(":")[0] for line in failures}


def _rewrite_csv_row(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[index + 1].split(",")
    lines[index + 1] = ",".join(edit(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def add_one_to_sampled_matrix_cell(out: Path) -> None:
    path = out / "matrix.cfm"
    egos, names, _ = checks.read_cfm1_columns(path, [])
    ego = random.Random(SEED).sample(egos, checks.SAMPLE_SIZE)[0]
    with open(path, "r+b") as fh:
        fh.seek(12)
        fh.seek(struct.unpack("<I", fh.read(4))[0], 1)
        fh.seek(struct.unpack("<I", fh.read(4))[0], 1)
        fh.seek((names.index(checks.ACTIVITY) * len(egos)
                 + egos.index(ego)) * 8, 1)
        at = fh.tell()
        (value,) = struct.unpack("<d", fh.read(8))
        fh.seek(at)
        fh.write(struct.pack("<d", value + 1.0))


def flip_first_label(out: Path) -> None:
    _rewrite_csv_row(out / "labels.csv", 0,
                     lambda f: [f[0], "0" if f[1] == "1" else "1", f[2]])


def zero_best_churner_score(out: Path) -> None:
    churned = [row[1] == "1" for row in checks._csv_rows(out / "labels.csv")]
    scores = checks._scores(out, "logreg")
    best = max((s, i) for i, (_, s) in enumerate(scores) if churned[i])[1]
    _rewrite_csv_row(out / "scores_logreg.csv", best,
                     lambda f: [f[0], "0.0"])


def score_out_of_range(out: Path) -> None:
    _rewrite_csv_row(out / "scores_knn.csv", 3, lambda f: [f[0], "1.5"])


def swap_two_score_rows(out: Path) -> None:
    path = out / "scores_linreg.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_last_feature(out: Path) -> None:
    path = out / "features.txt"
    path.write_text("".join(line + "\n" for line in
                            checks._lines(path)[:-1]), encoding="utf-8")


def repeat_a_selected_feature(out: Path) -> None:
    path = out / "selected_features.txt"
    names = checks._lines(path)
    path.write_text("".join(n + "\n" for n in names[:-1] + names[:1]),
                    encoding="utf-8")


def test_clean_run_passes_every_check(clean_run):
    assert _failed(clean_run) == set()


@pytest.mark.parametrize("alter, check", [
    (add_one_to_sampled_matrix_cell, "check_matrix"),
    (flip_first_label, "check_labels"),
    (zero_best_churner_score, "check_report"),
    (score_out_of_range, "check_scores"),
    (swap_two_score_rows, "check_scores"),
    (drop_last_feature, "check_feature_count"),
    (repeat_a_selected_feature, "check_selected"),
])
def test_altered_output_fails_its_check(clean_run, tmp_path, alter, check):
    out = tmp_path / "out"
    shutil.copytree(clean_run, out)
    alter(out)
    failed = _failed(out)
    assert check in failed
    assert "check_manifests" in failed


def test_concordance_matches_pairwise_count():
    rng = random.Random(0)
    scores = [rng.choice([0.1, 0.2, 0.2, 0.5, 0.9]) for _ in range(40)]
    positive = [rng.random() < 0.4 for _ in range(40)]
    pairs = [(p, n) for p, n in itertools.product(range(40), repeat=2)
             if positive[p] and not positive[n]]
    wins = sum(1.0 if scores[p] > scores[n] else
               0.5 if scores[p] == scores[n] else 0.0 for p, n in pairs)
    assert checks.concordance(scores, positive) == pytest.approx(
        wins / len(pairs), abs=1e-12)
