"""Per-layer metrics from the spans of one traced pass of a workload.

A timing metric ``<layer>.<what>_s[.<algo>]`` is the total seconds of its
spans.  Timings whose spans repeat many times per pass also report
``<what>_calls``, ``<what>_p50_s`` (median call) and ``<what>_tail_s``: the
11th-largest call, which is the highest percentile with at least 10 samples
beyond it.  A metric without spans on a workload is reported as 0 with an
``n/a`` reason.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass

FIT_ERRORS = {"ModelError", "ConvergenceError", "TrainingDiverged"}
MODULES = ("panel", "learners", "shapley")


@dataclass(frozen=True)
class Timing:
    metric: str  # "<prefix>_s" or "<prefix>_s.<algo>"
    span: str
    algo: str | None = None
    parent: str | None = None
    detailed: bool = False

    def derived(self, kind: str) -> str:
        suffix = f".{self.algo}" if self.algo else ""
        prefix = self.metric[: len(self.metric) - len(suffix) - len("_s")]
        return f"{prefix}_{kind}{suffix}"


def _t(metric, span, algo=None, parent=None, detailed=True):
    return Timing(metric, span, algo, parent, detailed)


TIMINGS = (
    _t("synth.generate_s", "synth.generate", detailed=False),
    _t("synth.write_s", "synth.write", detailed=False),
    _t("cli.import_s", "cli.import", detailed=False),
    _t("cli.read_inputs_s", "cli.read_inputs", detailed=False),
    _t("cli.write_outputs_s", "cli.write_outputs", detailed=False),
    _t("cli.read_outputs_s", "cli.read_outputs", detailed=False),
    _t("panel.window_s", "panel.window"),
    _t("panel.pred_block_s", "panel.pred_block"),
    _t("panel.standardize_s", "panel.standardize"),
    _t("learners.fit_s.lasso", "learners.fit", algo="lasso"),
    _t("learners.fit_s.gb", "learners.fit", algo="gb"),
    _t("learners.fit_s.nn", "learners.fit", algo="nn"),
    _t("learners.predict_s", "learners.predict"),
    _t("shapley.tree_s", "shapley.tree"),
    _t("shapley.sampled_s", "shapley.sampled"),
    _t("radar.task_s.lasso", "radar.task", algo="lasso", parent="radar.run"),
    _t("radar.task_s.gb", "radar.task", algo="gb", parent="radar.run"),
    _t("radar.task_s.nn", "radar.task", algo="nn", parent="radar.run"),
    _t("radar.trial_s", "radar.task", parent="radar.tune"),
    _t("portfolio.build_series_s", "portfolio.build_series"),
    _t("portfolio.stats_s", "portfolio.stats", detailed=False),
    _t("portfolio.timing_s", "portfolio.timing", detailed=False),
    _t("econometrics.factor_alpha_s", "econometrics.factor_alpha"),
    _t("econometrics.lag_regression_s", "econometrics.lag_regression", detailed=False),
    _t("report.portfolio_table_s", "report.portfolio_table", detailed=False),
    _t("report.decile_table_s", "report.decile_table", detailed=False),
    _t("report.r2_s", "report.r2", detailed=False),
    _t("report.importance_table_s", "report.importance_table", detailed=False),
    _t("report.timing_table_s", "report.timing_table", detailed=False),
)

# name -> (unit, better) for the metrics that are not plain timings
OTHER_METRICS = {
    "cli.io_bytes": ("bytes", "lower"),
    "panel.rows": ("count", "lower"),
    "panel.signal_reuse": ("ratio", "higher"),
    "learners.fit_calls": ("count", "lower"),
    "learners.failed": ("count", "lower"),
    "learners.lasso_kkt_gap_max": ("abs", "lower"),
    "shapley.tree_ops": ("count", "lower"),
    "shapley.sampled_evals": ("count", "lower"),
    "shapley.share": ("ratio", "lower"),
    "panel.share": ("ratio", "lower"),
    "learners.share": ("ratio", "lower"),
    "radar.self_share": ("ratio", "lower"),
    "radar.tasks": ("count", "higher"),
    "radar.skipped": ("count", "lower"),
    "radar.failed": ("count", "lower"),
    "radar.overhead_s": ("s", "lower"),
    "radar.parallel_eff": ("ratio", "higher"),
    "report.oos_r2_frac_pos": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    specs = []
    for t in TIMINGS:
        specs.append({"name": t.metric, "unit": "s", "better": "lower"})
        specs.append({"name": t.derived("calls"), "unit": "count", "better": "lower"})
        if t.detailed:
            specs.append({"name": t.derived("p50_s"), "unit": "s", "better": "lower"})
            specs.append({"name": t.derived("tail_s"), "unit": "s", "better": "lower"})
    for name, (unit, better) in OTHER_METRICS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the 11th-largest sample, or None below 11."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(values) - 10) / len(values)


class SpanIndex:
    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[object, list[list]] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def parent_name(self, span: list) -> str | None:
        parent = self.by_id.get(span[1])
        return parent[2] if parent else None

    def select(self, name: str, algo: str | None = None, parent: str | None = None):
        return [
            s
            for s in self.spans
            if s[2] == name
            and (algo is None or s[5].get("algo") == algo)
            and (parent is None or self.parent_name(s) == parent)
        ]


def _dur(span: list) -> float:
    return span[4] - span[3]


def per_layer(
    spans: list[list],
    counters: dict[str, float],
    main_step: str,
    radar_capacity_s: float,
    extra: dict[str, tuple[float, str | None]],
) -> dict[str, tuple[float, str | None]]:
    """metric -> (value, n/a reason or None) for one traced pass.

    ``spans`` are ``[id, parent, name, start, end, attrs]`` from every CLI
    step of the pass.  ``radar_capacity_s`` is threads x the untraced
    ``run_radar`` wall time of the same workload, the base of
    ``radar.parallel_eff``; ``extra`` holds the metrics measured outside
    spans.
    """
    idx = SpanIndex(spans)
    out: dict[str, tuple[float, str | None]] = {}
    for t in TIMINGS:
        durs = [_dur(s) for s in idx.select(t.span, t.algo, t.parent)]
        none = f"n/a: no {t.span} calls" + (f" for {t.algo}" if t.algo else "")
        out[t.metric] = (sum(durs), None if durs else none)
        out[t.derived("calls")] = (float(len(durs)), None)
        if t.detailed:
            out[t.derived("p50_s")] = (statistics.median(durs), None) if durs else (0.0, none)
            tl = tail(durs)
            out[t.derived("tail_s")] = (
                (tl[0], f"p{tl[1]:.1f}")
                if tl
                else (0.0, f"n/a: {len(durs)} calls, tail needs >= 11")
            )

    fits = idx.select("learners.fit")
    out["learners.fit_calls"] = (float(len(fits)), None)
    out["learners.failed"] = (
        float(sum(1 for s in fits if s[5].get("error") in FIT_ERRORS)),
        None,
    )
    gap = counters.get("learners.lasso_kkt_gap_max")
    out["learners.lasso_kkt_gap_max"] = (gap, None) if gap is not None else (0.0, "n/a: no lasso fits")
    rows = counters.get("panel.rows", 0.0)
    distinct = counters.get("panel.distinct_dates", 0.0)
    out["panel.rows"] = (rows, None)
    out["panel.signal_reuse"] = (rows / distinct, None) if distinct else (0.0, "n/a: no blocks")
    tree = idx.select("shapley.tree")
    sampled = idx.select("shapley.sampled")
    out["shapley.tree_ops"] = (float(sum(s[5].get("ops", 0) for s in tree)), None)
    out["shapley.sampled_evals"] = (float(sum(s[5].get("evals", 0) for s in sampled)), None)

    # Shares of the workload's operations: radar tasks, or tuning trials.
    ops = idx.select("radar.task", parent="radar.tune" if main_step == "tune" else "radar.run")
    op_total = sum(_dur(s) for s in ops)
    by_module = dict.fromkeys(MODULES, 0.0)
    for op in ops:
        for child in idx.children.get(op[0], []):
            module = child[2].split(".", 1)[0]
            if module in by_module:
                by_module[module] += _dur(child)
    for module, busy in by_module.items():
        out[f"{module}.share"] = (busy / op_total, None) if op_total else (0.0, "n/a: no operations")
    out["radar.self_share"] = (
        (1.0 - sum(by_module.values()) / op_total, None) if op_total else (0.0, "n/a: no operations")
    )

    run_tasks = idx.select("radar.task", parent="radar.run")
    out["radar.tasks"] = (float(len(run_tasks)), None)
    out["radar.skipped"] = (float(sum(1 for s in run_tasks if s[5].get("skipped"))), None)
    out["radar.failed"] = (float(sum(1 for s in run_tasks if "error" in s[5])), None)
    overhead = 0.0
    for drive in idx.select("radar.run") + idx.select("radar.tune"):
        tasks = [c for c in idx.children.get(drive[0], []) if c[2] == "radar.task"]
        overhead += _dur(drive) - sum(_dur(c) for c in tasks)
    out["radar.overhead_s"] = (overhead, None)
    out["radar.parallel_eff"] = (
        (sum(_dur(s) for s in run_tasks) / radar_capacity_s, None)
        if radar_capacity_s > 0
        else (0.0, "n/a: no untraced run_radar wall time")
    )
    out.update(extra)
    return out
