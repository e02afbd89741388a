"""Bad inputs make a stage exit 2 and name the file, on configs/small.cfg.

One pipeline run is shared; each test damages a copy of its output.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from churnforge import features as feat_mod
from churnforge import matrix as matrix_mod
from churnforge import simgen as simgen_mod
from churnforge.cli import EXIT_DATA, main
from churnforge.config import PipelineConfig
from churnforge.models import FAMILIES, load_model, save_model

SMALL_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "small.cfg")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "out"
    assert main(["pipeline", "--config", SMALL_CFG, "--out", str(out)]) == 0
    yield out
    shutil.rmtree(out)


@pytest.fixture
def run_copy(small_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(small_run, out)
    yield out
    shutil.rmtree(out)


def _stage(stage, out):
    return main([stage, "--config", SMALL_CFG, "--out", str(out)])


def _truncate(path, size):
    data = path.read_bytes()
    path.write_bytes(data[:size if size >= 0 else len(data) // 2])


# train, score and evaluate read only some columns, but still check that
# the file holds the whole value block
@pytest.mark.parametrize("size", [10, -1], ids=["10_bytes", "half"])
@pytest.mark.parametrize("stage", ["select", "train", "score", "evaluate"])
def test_truncated_matrix_fails_stage_with_path(run_copy, capsys, stage,
                                                size):
    path = run_copy / "matrix.cfm"
    _truncate(path, size)
    assert _stage(stage, run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and "truncated" in err


# byte 0 is the magic's first, byte 16 the ego table's first
@pytest.mark.parametrize("offset,message", [
    (0, "not a CFM1 matrix"),
    (16, "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["magic", "ego_table"])
@pytest.mark.parametrize("stage", ["select", "train", "score", "evaluate"])
def test_corrupt_matrix_header_fails_stage_with_path(run_copy, capsys, stage,
                                                     offset, message):
    path = run_copy / "matrix.cfm"
    data = bytearray(path.read_bytes())
    data[offset] = 0xFF
    path.write_bytes(bytes(data))
    assert _stage(stage, run_copy) == EXIT_DATA
    assert f"{path}: {message}" in capsys.readouterr().err


def _first_49_rows(lines):
    return lines[:50]


def _rows_1_and_2_swapped(lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


@pytest.mark.parametrize("damage", [_first_49_rows, _rows_1_and_2_swapped],
                         ids=["49_rows", "swapped_rows"])
@pytest.mark.parametrize("stage", ["select", "train", "evaluate"])
def test_labels_out_of_matrix_order_fail_with_both_paths(run_copy, capsys,
                                                         stage, damage):
    path = run_copy / "labels.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(damage(lines)), encoding="utf-8")
    assert _stage(stage, run_copy) == EXIT_DATA
    assert (f"{path} and {run_copy / 'matrix.cfm'} do not list the same "
            f"egos in the same order") in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["train", "score"])
def test_empty_selection_fails_with_path(run_copy, capsys, stage):
    selected = run_copy / "selected_features.txt"
    selected.write_text("", encoding="utf-8")
    assert _stage(stage, run_copy) == EXIT_DATA
    assert f"{selected}: names no features" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("{}", 'no "mean" entry'), ("[]", 'no "mean" entry'),
    ("{bad", "Expecting property name enclosed in double quotes"),
], ids=["no_mean", "list", "invalid_json"])
def test_bad_cv_report_fails_evaluate_with_path(run_copy, capsys, text,
                                                message):
    path = run_copy / "cv_knn.json"
    path.write_text(text, encoding="utf-8")
    assert _stage("evaluate", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err


def test_missing_cv_report_fails_evaluate_with_path(run_copy, capsys):
    # a report row without its cross-validated figures would pass unnoticed
    (run_copy / "cv_knn.json").unlink()
    assert _stage("evaluate", run_copy) == EXIT_DATA
    assert "missing cv_knn.json" in capsys.readouterr().err
    assert not (run_copy / "manifest_evaluate.json").exists()


@pytest.mark.parametrize("line,message", [
    ("total_days=184", "duplicate key: 'total_days=184'"),
    ("days=183", "unknown key: 'days=183'"),
    ("total_days 183", "expected key=value: 'total_days 183'"),
], ids=["duplicate", "unknown", "no_equals"])
def test_bad_header_sidecar_fails_featurize_with_line(run_copy, capsys, line,
                                                      message):
    path = run_copy / "cdr.header"
    path.write_text(path.read_text(encoding="utf-8") + line + "\n",
                    encoding="utf-8")
    assert _stage("featurize", run_copy) == EXIT_DATA
    assert f"{path}:5: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["train", "score"])
def test_selected_feature_the_matrix_lacks_fails_with_path(run_copy, capsys,
                                                           stage):
    selected = run_copy / "selected_features.txt"
    selected.write_text(selected.read_text(encoding="utf-8")
                        + "not.a.feature\n", encoding="utf-8")
    assert _stage(stage, run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{run_copy / 'matrix.cfm'}: no feature named 'not.a.feature'" \
        in err


def test_missing_feature_message_is_printed_without_quotes(run_copy, capsys):
    selected = run_copy / "selected_features.txt"
    selected.write_text(selected.read_text(encoding="utf-8")
                        + "not.a.feature\n", encoding="utf-8")
    assert _stage("score", run_copy) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {run_copy / 'matrix.cfm'}: "
        f"no feature named 'not.a.feature'\n")


@pytest.mark.parametrize("size", [6, -1], ids=["6_bytes", "half"])
@pytest.mark.parametrize("family", FAMILIES)
def test_truncated_model_fails_score_with_path(run_copy, capsys, family,
                                               size):
    path = run_copy / f"model_{family}.cfmd"
    _truncate(path, size)
    assert _stage("score", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and "truncated" in err


def _big_feature(model):
    model.fitted["forest"].trees[0].feature[0] = 10 ** 6


def _big_child(model):
    model.fitted["forest"].trees[0].left[0] = 10 ** 6


def _negative_feature(model):
    # numpy would read column -7 from the end
    model.fitted["trees"][0].feature[0] = -7


def _short_knn_labels(model):
    model.fitted["y"] = model.fitted["y"][:-5]


def _no_trees(model):
    model.fitted["forest"].trees = []


def _short_weights(model):
    model.fitted["w"] = model.fitted["w"][:-1]


def _short_mean(model):
    model.mean = model.mean[:-1]


def _nan_alpha(model):
    model.fitted["alphas"][0] = np.nan


@pytest.mark.parametrize("family,corrupt,message", [
    ("random_forest", _big_feature, "tree feature outside"),
    ("random_forest", _big_child, "tree child index outside"),
    ("adaboost", _negative_feature, "tree feature outside"),
    ("knn", _short_knn_labels, "labels for"),
    ("random_forest", _no_trees, "forest has no trees"),
    ("logreg", _short_weights, "weights for"),
    ("linreg", _short_mean, "means and"),
    ("adaboost", _nan_alpha, "non-finite scores"),
], ids=["big_feature", "big_child", "negative_feature", "short_knn_labels",
        "no_trees", "short_weights", "short_mean", "nan_alpha"])
def test_corrupt_model_fails_score_with_path(run_copy, capsys, family,
                                             corrupt, message):
    path = run_copy / f"model_{family}.cfmd"
    model = load_model(str(path))
    corrupt(model)
    save_model(model, str(path))
    assert _stage("score", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and message in err


@pytest.mark.parametrize("field,message", [
    ("family", "utf-8"), ("target", "unsupported target"),
    ("params", "params are not JSON")], ids=["family", "target", "params"])
def test_corrupt_model_header_fails_score_with_path(run_copy, capsys, field,
                                                    message):
    path = run_copy / "model_logreg.cfmd"
    data = path.read_bytes()
    params = json.dumps(load_model(str(path)).params, sort_keys=True)
    old, new = {"family": (b"logreg", b"\xfflogre"),
                "target": (b"binary", b"BINARY"),
                "params": (params.encode(), b"[" + params[1:].encode())}[field]
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    assert _stage("score", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_model_of_another_family_fails_score(run_copy, capsys):
    path = run_copy / "model_logreg.cfmd"
    shutil.copyfile(run_copy / "model_knn.cfmd", path)
    assert _stage("score", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and "holds a knn model" in err


@pytest.mark.parametrize("family", FAMILIES)
def test_trailing_bytes_fail_score_with_path(run_copy, capsys, family):
    path = run_copy / f"model_{family}.cfmd"
    path.write_bytes(path.read_bytes() + b"garbage")
    assert _stage("score", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and "7 trailing bytes" in err


def test_ego_id_with_comma_is_rejected(run_copy, capsys):
    cdr = run_copy / "cdr.csv"
    lines = cdr.read_text(encoding="utf-8").splitlines(keepends=True)
    hit = [i for i, line in enumerate(lines) if line.startswith("S000001,")]
    assert hit
    for i in hit:
        lines[i] = '"S0,001"' + lines[i][len("S000001"):]
    cdr.write_text("".join(lines), encoding="utf-8")

    assert _stage("featurize", run_copy) == 0
    printed = capsys.readouterr().out
    assert f"rejected {len(hit)} malformed rows" in printed
    assert f"line {hit[0] + 1}, ego_id contains a comma" in printed
    # the tally by reason
    assert (f"featurize:   {len(hit)} ego_id contains a comma, quote or "
            f"line break\n") in printed
    egos = [line.split(",")[0] for line in
            (run_copy / "labels.csv").read_text().splitlines()[1:]]
    assert "S0" not in egos and "S000001" not in egos
    assert _stage("select", run_copy) == 0


def test_nan_cell_fails_select_with_ego_and_feature(run_copy, capsys):
    """Each stage that reads the matrix names it, the ego and the feature
    of a nan in a column the stage reads."""
    path = run_copy / "matrix.cfm"
    clean = matrix_mod.load(str(path))
    first_selected = (run_copy / "selected_features.txt").read_text(
        encoding="utf-8").splitlines()[0]
    for stage, feature in (("select", clean.feature_names[7]),
                           ("train", first_selected),
                           ("score", first_selected),
                           ("evaluate", "inactivity.full")):
        values = clean.values.copy()
        values[3, clean.feature_names.index(feature)] = np.nan
        matrix_mod.save(matrix_mod.FeatureMatrix(
            clean.ego_ids, clean.feature_names, values), str(path))
        assert _stage(stage, run_copy) == EXIT_DATA, stage
        assert (f"{path}: non-finite value at ego {clean.ego_ids[3]}, "
                f"feature {feature}") in capsys.readouterr().err, stage


def _damage_line(path, line_no, damage):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line_no - 1] = damage(lines[line_no - 1].rstrip("\n")) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _set_last_field(value):
    return lambda line: line.rsplit(",", 1)[0] + "," + value


def _flip_churned(line):
    ego, churned, pct = line.split(",")
    return f"{ego},{1 - int(churned)},{pct}"


@pytest.mark.parametrize("file,stage,damage,message", [
    ("labels.csv", "select", lambda line: line.rsplit(",", 1)[0],
     "not enough values to unpack"),
    ("labels.csv", "train",
     lambda line: line.split(",")[0] + ",x," + line.split(",")[2],
     "invalid literal for int()"),
    ("labels.csv", "train",
     lambda line: line.split(",")[0] + ",2," + line.split(",")[2],
     "churned is 2, not 0 or 1"),
    ("labels.csv", "select", _flip_churned,
     "churned means an inactive fraction of 1.0"),
    ("scores_logreg.csv", "evaluate", lambda line: line.replace(",", ""),
     "not enough values to unpack"),
    *[("labels.csv", stage, _set_last_field(value),
       f"pct_inactive_eval is {value}, not in [0, 1]")
      for stage in ("select", "evaluate") for value in ("nan", "1.5", "-0.1")],
    *[("scores_knn.csv", "evaluate", _set_last_field(value),
       f"churn_score is {value}, not in [0, 1]")
      for value in ("nan", "inf", "1.5", "-0.1")],
], ids=["labels_two_fields", "labels_churned_x", "labels_churned_2",
        "labels_churned_disagrees_with_pct",
        "scores_no_comma",
        *[f"labels_pct_{value}-{stage}" for stage in ("select", "evaluate")
          for value in ("nan", "1.5", "-0.1")],
        *[f"scores_{value}" for value in ("nan", "inf", "1.5", "-0.1")]])
def test_malformed_row_fails_with_file_and_line(run_copy, capsys, file, stage,
                                                damage, message):
    path = run_copy / file
    _damage_line(path, 5, damage)
    assert _stage(stage, run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}: line 5: bad " in err and message in err


def _damage_cdr(out, form, damage):
    """Apply ``damage`` to the alter id of line 5 of ``cdr.csv``. In form
    ``csv`` the header's first field is quoted, and in forms ``cr`` and
    ``crlf`` lines end in CR or CRLF, so that the csv module reads the
    file; form ``plain`` leaves it plain."""
    cdr = out / "cdr.csv"
    lines = cdr.read_bytes().split(b"\n")
    if form == "csv":
        lines[0] = b'"ego_id"' + lines[0][len(b"ego_id"):]
    fields = lines[4].split(b",")
    fields[1] = damage(fields[1])
    lines[4] = b",".join(fields)
    cdr.write_bytes({"cr": b"\r", "crlf": b"\r\n"}.get(form, b"\n")
                    .join(lines))
    return cdr


_FORMS = ["plain", "csv", "cr", "crlf"]


@pytest.mark.parametrize("form", _FORMS, ids=_FORMS)
def test_oversized_cdr_field_fails_featurize_with_line(run_copy, capsys,
                                                       form):
    cdr = _damage_cdr(run_copy, form, lambda alter: b"A" * 200_000)
    assert _stage("featurize", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{cdr}: line 5: field larger than field limit (131072)" in err


@pytest.mark.parametrize("form", _FORMS, ids=_FORMS)
def test_invalid_utf8_in_cdr_fails_featurize_with_line(run_copy, capsys,
                                                       form):
    cdr = _damage_cdr(run_copy, form, lambda alter: alter + b"\xff")
    assert _stage("featurize", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{cdr}: line 5: " in err and "can't decode byte 0xff" in err


def test_failed_score_leaves_no_manifest(run_copy, capsys):
    # the first three models' scores are replaced before the fourth fails;
    # the old manifest must not vouch for them
    assert PipelineConfig.from_file(SMALL_CFG).roster()[3] == "knn"
    path = run_copy / "model_knn.cfmd"
    _truncate(path, -1)
    assert (run_copy / "manifest_score.json").exists()
    assert _stage("score", run_copy) == EXIT_DATA
    assert str(path) in capsys.readouterr().err
    assert not (run_copy / "manifest_score.json").exists()


_FEATURIZE_OUTPUTS = ("matrix.cfm", "features.txt", "labels.csv",
                      "manifest_featurize.json")


def test_nonfinite_cell_in_a_later_row_chunk_fails_featurize_cleanly(
        run_copy, capsys, monkeypatch):
    for name in _FEATURIZE_OUTPUTS:
        (run_copy / name).unlink()
    before = sorted(os.listdir(run_copy))
    # chunks of 32 rows: a nan in chunk 0 at column 9, and an inf in
    # chunk 1 at column 5, which comes first in column order
    monkeypatch.setattr(matrix_mod, "_BLOCK_VALUES", 1)
    row_chunks = feat_mod.row_chunks
    egos = []

    def damaged(store, *args):
        egos.extend(store.ego_ids)
        for i, chunk in enumerate(row_chunks(store, *args)):
            if i < 2:
                chunk[1, 9 - 4 * i] = [np.nan, np.inf][i]
            yield chunk

    monkeypatch.setattr(feat_mod, "row_chunks", damaged)
    assert _stage("featurize", run_copy) == EXIT_DATA
    err = capsys.readouterr().err
    first = feat_mod.enumerate_features(
        PipelineConfig.from_file(SMALL_CFG).axes())[5]
    assert f"non-finite value at ego {egos[33]}, feature {first}" in err
    assert sorted(os.listdir(run_copy)) == before


def test_generate_that_fails_mid_write_leaves_no_file(tmp_path, capsys,
                                                      monkeypatch):
    block = simgen_mod._Plan.block
    calls = []

    def fail_second(plan, idxs):
        calls.append(idxs)
        if len(calls) == 2:
            raise ValueError("block 2 failed")
        return block(plan, idxs)

    monkeypatch.setattr(simgen_mod._Plan, "block", fail_second)
    assert _stage("generate", tmp_path) == EXIT_DATA
    assert "block 2 failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
