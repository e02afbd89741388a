"""Run one churnforge stage in this process and report what it used.

    python3 stage.py REPORT.json [--trace] -- <churnforge arguments>

The stage is one ``churnforge.cli.main([...])`` call, exactly what the
``churnforge`` command runs. Afterwards REPORT.json holds the exit code,
the peak RSS of this process and of its reaped children (the featurize
pool), and, with ``--trace``, the layer spans and counts recorded around
the calls the CLI makes into each module.

Tracing wraps module attributes and class methods, never ``cli.stage_*``
(``cli._STAGE_FN`` holds direct references to those). The CLI reaches
its callees through module attributes, ``models.kfold_cv`` calls the
module-global ``train`` and ``predict_scores``, and the forests call the
``DecisionTree.fit``/``BaggedForest.fit`` class methods, so every one of
these calls passes through a wrapper. Spans stay in memory until the
stage ends.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time


class Tracer:
    """Spans (name, start, end, parent index) and named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is the span name, or a function of the call's arguments
        that returns it. ``on_result(args, kwargs, result)`` records counts.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [span_name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        from churnforge import cdr, features, labeling, matrix, models
        from churnforge import selection, simgen, tree

        def file_mb(path) -> float:
            return os.path.getsize(path) / 1e6

        def spec_family(args, kwargs):
            return (kwargs.get("spec") or args[0]).family

        self.wrap(simgen, "generate", "simgen.generate",
                  lambda a, k, r: self.count("simgen.rows", r["rows"]))
        self.wrap(cdr, "ingest", "cdr.ingest",
                  lambda a, k, r: self.count("cdr.rows", r.n_records))
        self.wrap(features, "compute_matrix", "features.compute_matrix",
                  lambda a, k, r: self.count("features.cells",
                                             r.shape[0] * r.shape[1]))
        self.wrap(matrix, "save", "matrix.save",
                  lambda a, k, r: self.count("matrix.written_mb",
                                             file_mb(a[1])))

        def on_load(args, kwargs, result):
            self.count("matrix.loads", 1)
            self.count("matrix.read_mb", file_mb(args[0]))

        self.wrap(matrix, "load", "matrix.load", on_load)
        self.wrap(labeling, "compute_labels", "labeling.compute_labels")
        for fn in ("univariate_ttest", "univariate_r2", "tree_select"):
            self.wrap(selection, fn, f"selection.{fn}")

        def on_tree(args, kwargs, result):
            self.count("tree.fits", 1)
            self.count("tree.nodes", len(result.feature))

        self.wrap(tree.DecisionTree, "fit", "tree.DecisionTree.fit", on_tree)
        self.wrap(tree.BaggedForest, "fit", "tree.BaggedForest.fit")
        self.wrap(models, "kfold_cv",
                  lambda a, k: f"models.kfold_cv.{spec_family(a, k)}")
        self.wrap(models, "train",
                  lambda a, k: f"models.train.{spec_family(a, k)}",
                  lambda a, k, r: self.count("models.fits", 1))
        self.wrap(models, "predict_scores", "models.predict_scores")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or "--" not in argv:
        print("usage: stage.py REPORT.json [--trace] -- <churnforge args>",
              file=sys.stderr)
        return 1
    split = argv.index("--")
    report_path, flags, cli_args = argv[0], argv[1:split], argv[split + 1:]
    tracer = Tracer() if "--trace" in flags else None

    from churnforge import cli

    if tracer is not None:
        tracer.install()
    code = cli.main(cli_args)
    report = {
        "exit": code,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "children_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
