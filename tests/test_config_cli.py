import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from churnforge.cli import main
from churnforge.config import _SCALARS, PipelineConfig
from churnforge.features import AxesConfig, ConfigError
from churnforge.models import FAMILIES
from conftest import config_error


ROOT = Path(__file__).resolve().parents[1]


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


SMALL_CFG = """
# small synthetic run
seed=9
simgen.n_subscribers=60
simgen.alter_pool_size=80
selection.k=12
selection.n_trees=8
selection.max_depth=8
models.random_forest.n_trees=8
models.adaboost.rounds=8
models.logreg.epochs=60
cv.folds=3
features.matrix_format=binary
"""


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = PipelineConfig.from_file(write_cfg(tmp_path / "c.txt",
                                                 "seed=5\ncv.folds=7\n"))
        assert cfg.seed == 5
        assert cfg._get("cv.folds") == 7
        assert cfg._get("simgen.n_subscribers") == 5000
        assert cfg.window().total_days == 183
        assert cfg._get("features.matrix_format") == "binary"

    def test_every_committed_config_parses_to_the_binary_matrix(self):
        paths = [p for d in ("configs", "pipebench/workloads")
                 for p in sorted((ROOT / d).glob("*.cfg"))]
        assert {p.parent.name for p in paths} == {"configs", "workloads"}
        for p in paths:
            cfg = PipelineConfig.from_file(str(p))
            assert cfg._get("features.matrix_format") == "binary", p

    def test_unknown_key_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            PipelineConfig.from_file(write_cfg(tmp_path / "c.txt",
                                               "simgen.subscribers=5\n"))

    def test_duplicate_key_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            PipelineConfig.from_file(write_cfg(tmp_path / "c.txt",
                                               "seed=1\nseed=2\n"))

    def test_type_error_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="not int"):
            PipelineConfig.from_file(write_cfg(tmp_path / "c.txt",
                                               "seed=banana\n"))

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = PipelineConfig.from_file(write_cfg(
            tmp_path / "c.txt", "# hello\n\nseed=3\n"))
        assert cfg.seed == 3

    def test_axes_restriction(self, tmp_path):
        cfg = PipelineConfig.from_file(write_cfg(
            tmp_path / "c.txt",
            "features.axes.kind=call,sms\nfeatures.axes.window=m1,full\n"))
        axes = cfg.axes()
        assert axes.kinds == ("call", "sms")
        assert axes.windows == ("m1", "full")

    @pytest.mark.parametrize("axis,attr,value", [
        ("measure", "measures", "degree"),
        ("kind", "kinds", "short_call"),
        ("direction", "directions", "out"),
        ("time_of_day", "times_of_day", "night"),
        ("day_type", "day_types", "weekend"),
        ("alter_class", "alter_classes", "mobile_money"),
        ("window", "windows", "m2"),
        ("statistic", "statistics", "trend_slope"),
    ])
    def test_each_axis_key_restricts_its_field(self, tmp_path, axis, attr,
                                               value):
        cfg = PipelineConfig.from_file(write_cfg(
            tmp_path / "c.txt", f"features.axes.{axis}={value}\n"))
        axes, default = cfg.axes(), AxesConfig()
        for other in ("measures", "kinds", "directions", "times_of_day",
                      "day_types", "alter_classes", "windows", "statistics"):
            want = (value,) if other == attr else getattr(default, other)
            assert getattr(axes, other) == want, other

    def test_unknown_axis_key_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown axis key"):
            PipelineConfig.from_file(write_cfg(
                tmp_path / "c.txt", "features.axes.colour=red\n"))

    def test_model_param_keys(self, tmp_path):
        cfg = PipelineConfig.from_file(write_cfg(
            tmp_path / "c.txt", "models.knn.k=7\n"))
        assert cfg.model_params("knn") == {"k": 7}
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(write_cfg(
                tmp_path / "d.txt", "models.knn.neighbors=7\n"))

    def test_bad_roster(self, tmp_path):
        with pytest.raises(ConfigError, match="models.roster"):
            PipelineConfig.from_file(write_cfg(
                tmp_path / "c.txt", "models.roster=logreg,magic\n"))

    @pytest.mark.parametrize("text,message", [
        ("seed=-1\n", "config key seed='-1' is out of range"),
        ("models.knn.k=two\n", "config key models.knn.k='two' is not int"),
        ("models.adaboost.max_depth=0\n",
         "config key models.adaboost.max_depth='0' is out of range"),
        ("window.start_day=2024-13-01\n",
         "config key window.start_day='2024-13-01' is out of range"),
        ("window.train_months=0\n",
         "config key window.train_months='0' is out of range"),
        ("window.total_days=100\n", "config key window.total_days: "
         "total_days=100 does not tile into 6 months"),
        ("features.short_call_threshold_s=0\n",
         "config key features.short_call_threshold_s='0' is out of range"),
        ("features.day_start_hour=21\n", "features.day_start_hour=21 and "
         "features.day_end_hour=20 must satisfy 0 <= start < end <= 24"),
        ("features.axes.kind=fax\n",
         "features.axes.kind: unknown dimension 'fax'"),
        ("models.roster=,\n", "models.roster is empty"),
        ("models.roster=knn,logreg,knn\n",
         "models.roster: family 'knn' listed twice"),
        ("evaluate.threshold=nan\n",
         "config key evaluate.threshold='nan' is out of range"),
    ], ids=["range", "type", "hyperparameter_range", "start_day",
            "months", "tiling", "short_call", "day_hours", "axis_dimension",
            "empty_roster", "repeated_family", "nan_threshold"])
    def test_bad_value_fatal_naming_the_key(self, tmp_path, text, message):
        assert message in config_error(tmp_path, text)

    def test_overrides_are_checked(self, tmp_path):
        path = write_cfg(tmp_path / "c.txt", "seed=3\n")
        cfg = PipelineConfig.from_file(path, {"seed": 4, "workers": None})
        assert (cfg.seed, cfg.workers) == (4, 1)
        with pytest.raises(ConfigError, match="config key seed='-1'"):
            PipelineConfig.from_file(path, {"seed": -1})
        with pytest.raises(ConfigError, match="config key workers='x'"):
            PipelineConfig.from_file(path, {"workers": "x"})

    def test_canonical_rendering_is_stable_and_sorted(self, tmp_path):
        a = PipelineConfig.from_file(write_cfg(tmp_path / "a.txt",
                                               "cv.folds=7\nseed=5\n"))
        b = PipelineConfig.from_file(write_cfg(tmp_path / "b.txt",
                                               "seed=5\ncv.folds=7\n"))
        assert a.canonical() == b.canonical()
        lines = a.canonical().splitlines()
        assert lines == sorted(lines)


def _readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table under ``header``, cells with
    their backticks stripped."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip().strip("`") for c in line.strip("|").split("|")])
    return rows


def test_readme_config_table_lists_every_key_and_default():
    scalars = {row[0]: row[1] for row in _readme_table(
        "| key | default | range |") if "<" not in row[0]}
    assert scalars == {k: str(p.default) or "empty"
                       for k, p in _SCALARS.items()}
    params = {f"models.{row[0]}.{row[1]}": row[2] for row in _readme_table(
        "| family | parameter | default | range |")}
    assert params == {f"models.{f}.{name}": str(p.default)
                      for f, family in FAMILIES.items()
                      for name, p in family.params.items()}


def test_every_default_passes_its_own_type_and_range():
    entries = list(_SCALARS.items()) + [
        (f"models.{f}.{name}", p) for f, family in FAMILIES.items()
        for name, p in family.params.items()]
    for key, p in entries:
        assert type(p.default) is p.type, key
        assert p.type(str(p.default)) == p.default, key
        assert p.ok(p.default), key


class TestCliErrors:
    def test_bad_config_exit_1(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.txt", "definitely.not.a.key=1\n")
        assert main(["featurize", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1

    def test_csv_matrix_format_exit_1_naming_the_key(self, tmp_path,
                                                      capsys):
        cfg = write_cfg(tmp_path / "c.txt", "features.matrix_format=csv\n")
        assert main(["featurize", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "config key features.matrix_format" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["featurize", "--config", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_missing_inputs_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.txt", "seed=1\n")
        assert main(["featurize", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_cdr_exit_2(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "cdr.csv").write_text("not,a,cdr\n")
        (out / "cdr.header").write_text("start_day=2024-01-01\n"
                                        "total_days=183\ntrain_months=4\n"
                                        "eval_months=2\n")
        cfg = write_cfg(tmp_path / "c.txt", "seed=1\n")
        assert main(["featurize", "--config", cfg, "--out", str(out)]) == 2

    def test_unknown_subcommand_exit_1(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.txt", "seed=1\n")
        assert main(["explode", "--config", cfg]) == 1


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.txt"
    cfg_path.write_text(SMALL_CFG)
    out = root / "out"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    yield cfg_path, out
    shutil.rmtree(root)


class TestPipeline:
    def test_completeness(self, pipeline_out):
        _, out = pipeline_out
        expected = {"cdr.csv", "cdr.header", "ground_truth.csv", "matrix.cfm",
                    "features.txt", "labels.csv", "rank_ttest.csv",
                    "rank_r2.csv", "rank_tree.csv", "selected_features.txt",
                    "report.json", "inactivity_hist.csv"}
        present = {p.name for p in out.iterdir()}
        assert expected <= present
        for family in ("linreg", "logreg", "linear_svm", "knn",
                       "random_forest", "adaboost"):
            assert f"model_{family}.cfmd" in present
            assert f"cv_{family}.json" in present
            assert f"scores_{family}.csv" in present
            assert f"roc_{family}.csv" in present
            assert f"error_hist_{family}.csv" in present

    def test_report_rows(self, pipeline_out):
        _, out = pipeline_out
        report = json.loads((out / "report.json").read_text())
        assert len(report["models"]) == 6
        for row in report["models"]:
            for metric in ("accuracy", "precision", "recall", "f_score", "auc"):
                assert 0.0 <= row[metric] <= 1.0
        assert "baseline" in report
        assert 0.0 <= report["majority_accuracy"] <= 1.0

    def test_manifests_declare_every_output(self, pipeline_out):
        _, out = pipeline_out
        declared = set()
        for mpath in out.glob("manifest_*.json"):
            declared |= set(json.loads(mpath.read_text())["outputs"])
        undeclared = {p.name for p in out.iterdir()} - declared - \
            {p.name for p in out.glob("manifest_*.json")}
        assert undeclared == set()

    def test_rerun_identical_manifests_any_worker_count(self, pipeline_out,
                                                        tmp_path):
        cfg_path, out = pipeline_out
        rerun = tmp_path / "rerun"
        env_backup = os.environ.pop("CHURNFORGE_WORKERS", None)
        try:
            assert main(["pipeline", "--config", str(cfg_path),
                         "--out", str(rerun), "--workers", "2"]) == 0
        finally:
            if env_backup is not None:
                os.environ["CHURNFORGE_WORKERS"] = env_backup
        for mpath in sorted(out.glob("manifest_*.json")):
            assert mpath.read_bytes() == (rerun / mpath.name).read_bytes(), \
                mpath.name

    def test_stage_isolation_cdr_not_reread(self, pipeline_out, tmp_path):
        cfg_path, out = pipeline_out
        iso = tmp_path / "iso"
        iso.mkdir()
        for p in out.iterdir():
            (iso / p.name).write_bytes(p.read_bytes())
        (iso / "cdr.csv").unlink()
        for stage in ("select", "train", "score", "evaluate"):
            assert main([stage, "--config", str(cfg_path),
                         "--out", str(iso)]) == 0, stage

    def test_scores_align_with_labels(self, pipeline_out):
        _, out = pipeline_out
        labels = (out / "labels.csv").read_text().splitlines()[1:]
        scores = (out / "scores_logreg.csv").read_text().splitlines()[1:]
        assert [l.split(",")[0] for l in labels] == \
            [s.split(",")[0] for s in scores]


def _snapshot(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("key,value", [
    ("seed", "-1"), ("simgen.alter_pool_size", "0"),
    ("window.total_days", "100"), ("features.day_start_hour", "21"),
    ("selection.n_trees", "0"), ("selection.k", "0"), ("models.knn.k", "0"),
    ("models.roster", "magic"), ("models.roster", "knn,knn"),
    ("cv.folds", "1"), ("evaluate.threshold", "nan"), ("evaluate.bins", "0"),
    ("--seed", "-1"),
])
def test_bad_value_refused_before_any_stage(pipeline_out, tmp_path, capsys,
                                            key, value):
    cfg_path, out = pipeline_out
    run = tmp_path / "out"
    shutil.copytree(out, run)
    before = _snapshot(run)
    argv = ["pipeline", "--out", str(run)]
    if key.startswith("--"):
        argv += [key, value, "--config", str(cfg_path)]
        key = key[2:]
    else:
        lines = [line for line in SMALL_CFG.splitlines()
                 if not line.startswith(f"{key}=")]
        argv += ["--config", write_cfg(tmp_path / "bad.cfg", "\n".join(
            lines + [f"{key}={value}\n"]))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert _snapshot(run) == before


def test_env_workers_fallback(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("seed=3\nsimgen.n_subscribers=15\n"
                        "simgen.alter_pool_size=30\n")
    monkeypatch.setenv("CHURNFORGE_WORKERS", "2")
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest_generate.json").read_text())
    assert manifest["seed"] == 3


def test_benchmark_tracer_installs():
    """``pipebench/stage.py`` wraps churnforge functions by name
    (``features.compute_matrix``, ``matrix.save``,
    ``selection.univariate_ttest``, ...); a rename or deletion of one of
    them fails here."""
    probe = ("import sys; sys.path[:0] = sys.argv[1:]; import stage; "
             "stage.Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", probe,
                           str(ROOT / "pipebench"), str(ROOT / "src")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
