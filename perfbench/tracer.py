"""Run one marketradar CLI step with spans recorded around module calls.

Usage: python3 perfbench/tracer.py SPANS_JSON <marketradar CLI arguments...>

Nothing under src/ knows about tracing.  Before the CLI runs, this script
replaces, at run time, the module attributes that the program looks up
(``marketradar.radar.assemble_training_window``, ``marketradar.learners.fit_*``,
``marketradar.shapley.tree_shap_batch``, ``marketradar.portfolio.build_series``,
...) with wrappers that record a span per call: name, start, end, parent and
a few attributes.  Spans stay in memory and are written once, at exit.

Functions called about 10^4 times or more per run (``ReturnPanel.value``,
``SignalCache.vector``, the ``predict`` calls inside ``sampled_shapley`` and
``tree_shap_batch``) are deliberately left unwrapped: they are reached
through names the wrappers do not replace.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

T_START = time.perf_counter()


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span = [next(self._ids), parent, name, time.perf_counter(), None, {}]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def add_distinct(self, name: str, items) -> None:
        with self._lock:
            self.distinct.setdefault(name, set()).update(items)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(span, args, kwargs, result)`` runs once the span is closed,
        so the work it does to derive counts is not charged to the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5]["error"] = type(exc).__name__
                self.close(span)
                raise
            self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters.update({name: float(len(items)) for name, items in self.distinct.items()})
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_leaves(node) -> int:
    if node.is_leaf:
        return 1
    return _count_leaves(node.left) + _count_leaves(node.right)


def install(tracer: Tracer) -> None:
    """Wrap every module boundary the benchmark reports on."""
    from marketradar import cli, econometrics, learners, portfolio, radar, report, shapley

    def block_rows(span, args, kwargs, block):
        span[5]["rows"] = block.n_rows
        tracer.count("panel.rows", block.n_rows)
        tracer.add_distinct("panel.distinct_dates", (d for _, d in block.rows))

    def task_outcome(span, args, kwargs, result):
        span[5]["algo"] = _arg(args, kwargs, 5, "algo")
        span[5]["skipped"] = result.skipped

    def lasso_gap(span, args, kwargs, model):
        span[5]["algo"] = "lasso"
        X, y = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "y")
        gap = learners.lasso_kkt_gap(model, X, y, _arg(args, kwargs, 2, "alpha"))
        tracer.peak("learners.lasso_kkt_gap_max", gap)

    def fit_algo(algo):
        def after(span, args, kwargs, model):
            span[5]["algo"] = algo

        return after

    def tree_ops(span, args, kwargs, result):
        model, X, background = args[0], args[1], args[2]
        leaves = sum(_count_leaves(t) for t in model.trees)
        span[5]["ops"] = leaves * len(X) * len(background)

    def sampled_evals(span, args, kwargs, result):
        x = _arg(args, kwargs, 1, "x")
        span[5]["evals"] = _arg(args, kwargs, 3, "n_permutations") * len(x)

    w = tracer.wrap
    # synth and CSV I/O, as the CLI looks them up
    w(cli, "generate", "synth.generate")
    w(cli, "write_scenario", "synth.write")
    for attr in ("read_panel_csv", "read_calendar_csv", "read_factors_csv"):
        w(cli, attr, "cli.read_inputs")
    w(cli, "read_importance_csv", "cli.read_outputs")
    w(radar.ForecastTable, "from_csv", "cli.read_outputs")
    w(radar.ForecastTable, "to_csv", "cli.write_outputs")
    w(cli, "write_importance_csv", "cli.write_outputs")
    w(portfolio, "write_portfolio_csv", "cli.write_outputs")
    # walk-forward orchestration
    w(cli, "run_radar", "radar.run")
    w(cli, "tune_hyperparameters", "radar.tune")
    w(radar, "train_predict_stock_quarter", "radar.task", task_outcome)
    # panel, as radar looks it up
    w(radar, "assemble_training_window", "panel.window", block_rows)
    w(radar, "build_signal_block", "panel.pred_block", block_rows)
    w(radar, "standardize", "panel.standardize")
    # learners
    w(learners, "fit_lasso", "learners.fit", lasso_gap)
    for attr, algo in (
        ("fit_ols", "ols"),
        ("fit_elastic_net", "enet"),
        ("fit_random_forest", "rf"),
        ("fit_gradient_boosting", "gb"),
        ("fit_nn", "nn"),
    ):
        w(learners, attr, "learners.fit", fit_algo(algo))
    w(learners, "predict", "learners.predict")
    # attribution
    w(radar, "mean_abs_importance", "shapley.importance")
    w(radar, "lasso_importance", "shapley.coef")
    w(shapley, "tree_shap_batch", "shapley.tree", tree_ops)
    w(shapley, "sampled_shapley", "shapley.sampled", sampled_evals)
    # portfolio, econometrics and report, as report and cli look them up
    w(portfolio, "build_series", "portfolio.build_series")
    w(portfolio, "performance_stats", "portfolio.stats")
    w(portfolio, "market_timing", "portfolio.timing")
    w(econometrics, "factor_alpha", "econometrics.factor_alpha")
    w(econometrics, "importance_lag_regression", "econometrics.lag_regression")
    w(report, "portfolio_table", "report.portfolio_table")
    w(report, "decile_table", "report.decile_table")
    w(report, "compute_r2_records", "report.r2")
    w(report, "r2_table", "report.r2")
    w(report, "importance_table", "report.importance_table")
    w(report, "timing_table", "report.timing_table")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    span[3] = T_START
    from marketradar import cli

    tracer.close(span)
    install(tracer)
    root = tracer.open(f"step.{cli_args[0]}")
    tracer.root = root[0]
    try:
        return cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
