"""Walk-forward orchestration: train per (asset, quarter, algorithm) on a
trailing window, forecast the following quarter, and merge results in
deterministic key order regardless of parallelism.

Tasks run in units of work, one ``_run_unit`` call each: a list of
``(asset, config)`` tasks that share a training quarter and an algorithm.
A run's unit is every asset of one training quarter for lasso and elastic
net (``GROUPED_ALGOS``) and one task otherwise; a tuning unit is every trial
of one sampled stock-quarter.  Signals depend only on the date, so tasks
with the same trading days have the same design matrix.  A unit groups its
tasks by the days their asset trades in the window and in the forecast
quarter, and builds one window and one forecast block per such row-date
set, for every algorithm; a lone ``train_predict_stock_quarter`` call is a
set of one.  Only the fit differs: lasso and elastic net standardize the
window once and solve all of the set's targets in one multi-target
coordinate descent (one row per task, bit for bit a set of one's fit), and
any other algorithm fits each task's own model on the window.  Each task
then forecasts and attributes on its own.

Each task derives its own seed from a stable hash of (base seed, asset,
training quarter, algorithm), so partial re-runs and any worker count
reproduce identical output.  Radar runs and tuning dispatch their units the
same way: in this process, or with more than one worker, one unit per pool
item on forked worker processes (POSIX only), which inherit the panels
instead of receiving them pickled; a unit is never split across workers.
Stock-quarters whose window is too small are recorded as skips, and tasks
whose blocks, fit, prediction or attribution raise a library error as failures,
never silently dropped: downstream summary denominators need them, and one
degenerate task, such as one target of a joint solve at the sweep cap, does
not end the run or its unit.  Tasks are labeled by the quarter they
forecast, which keys forecasts, fit records, and importances consistently.
"""
from __future__ import annotations

import datetime as dt
import functools
import hashlib
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import learners
from .econometrics import sparsity_fraction
from .errors import MarketRadarError
from .learners import params as hp
from .panel import (
    ReturnPanel,
    SignalBlock,
    SignalId,
    WindowTooSmall,
    assemble_training_window,
    build_signal_block,
    read_csv_rows,
    standardize,
    window_days,
    write_csv_rows,
)
from .shapley import (
    SAMPLED_PERMUTATIONS,
    ImportanceRecord,
    lasso_importance,
    mean_abs_importance,
)
from .trading_calendar import (
    Quarter,
    TradingCalendar,
    format_quarter,
    parse_quarter,
    quarter_range,
    shift_quarter,
)

# Algorithms whose tasks of one unit of work are fitted jointly.
GROUPED_ALGOS = ("lasso", "enet")


class RadarError(MarketRadarError, ValueError):
    pass


@dataclass(frozen=True)
class RadarConfig:
    algorithms: tuple[str, ...] = ("lasso", "rf", "gb", "nn")
    lags: int = 4
    window_quarters: int = 4
    hyperparameters: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0
    min_train_rows: int = 60
    importance: bool = True
    nn_importance_permutations: int = SAMPLED_PERMUTATIONS
    threads: int = 1  # radar's and tune's worker processes; 1 runs all in this process

    def __post_init__(self) -> None:
        if self.window_quarters < 1 or self.lags < 1:
            raise RadarError("window_quarters and lags must be >= 1")
        if self.nn_importance_permutations < 1:
            raise RadarError("nn_importance_permutations must be >= 1")
        if self.threads < 1:
            raise RadarError("threads must be >= 1")
        if self.min_train_rows < 1:
            raise RadarError("min_train_rows must be >= 1")
        if not self.algorithms or len(set(self.algorithms)) < len(self.algorithms):
            raise RadarError(f"algorithms must be non-empty and distinct, got {self.algorithms}")
        for algo in self.algorithms:
            if algo not in hp.PARAM_TYPES:
                raise RadarError(f"unknown algorithm {algo!r}")

    def params_for(self, algo: str):
        given = self.hyperparameters.get(algo)
        return hp.default_params(algo) if given is None else given


@dataclass(frozen=True)
class ForecastRow:
    date: dt.date
    asset: str
    algo: str
    yhat: float


@dataclass
class ForecastTable:
    rows: list[ForecastRow]

    def __post_init__(self) -> None:
        seen = set()
        for r in self.rows:
            key = (r.date, r.asset, r.algo)
            if key in seen:
                raise RadarError(f"duplicate forecast for {key}")
            if not math.isfinite(r.yhat):
                raise RadarError(f"non-finite forecast for {key}")
            seen.add(key)
        self.rows.sort(key=lambda r: (r.date, r.asset, r.algo))

    def algos(self) -> list[str]:
        return sorted({r.algo for r in self.rows})

    def by_date(self, algo: str) -> dict[dt.date, dict[str, float]]:
        out: dict[dt.date, dict[str, float]] = {}
        for r in self.rows:
            if r.algo == algo:
                out.setdefault(r.date, {})[r.asset] = r.yhat
        return out

    def to_csv(self, path: Path | str) -> None:
        write_csv_rows(path, ["date", "asset", "algo", "yhat"], (
            [r.date.isoformat(), r.asset, r.algo, repr(r.yhat)] for r in self.rows
        ))

    @classmethod
    def from_csv(cls, path: Path | str) -> "ForecastTable":
        parse = lambda rec: ForecastRow(dt.date.fromisoformat(rec[0]), rec[1], rec[2], float(rec[3]))
        header = lambda head: head == ["date", "asset", "algo", "yhat"]
        return cls(read_csv_rows(path, parse, RadarError, header, "forecasts header")[1])


@dataclass
class TaskResult:
    asset: str
    train_quarter: Quarter
    forecast_quarter: Quarter
    algo: str
    forecasts: list[tuple[dt.date, float]] = field(default_factory=list)
    importances: list[ImportanceRecord] = field(default_factory=list)
    model: object | None = None
    window_dates: tuple[dt.date, dt.date] | None = None
    nonzero_fraction: float | None = None
    skip_reason: str | None = None
    fail_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

    @property
    def failed(self) -> bool:
        return self.fail_reason is not None


@dataclass
class RunReport:
    n_tasks: int = 0
    n_completed: int = 0
    skips: list[tuple[str, str, str, str]] = field(default_factory=list)
    failures: list[tuple[str, str, str, str]] = field(default_factory=list)
    seconds: float = 0.0
    threads: int = 1
    sparsity: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "run report",
            f"tasks.total = {self.n_tasks}",
            f"tasks.completed = {self.n_completed}",
            f"tasks.skipped = {len(self.skips)}",
            f"tasks.failed = {len(self.failures)}",
            f"threads = {self.threads}",
            f"wall_seconds = {self.seconds:.2f}",
        ]
        for algo in sorted(self.sparsity):
            lines.append(f"sparsity.{algo} = {self.sparsity[algo]:.6f}")
        for asset, quarter, algo, reason in self.skips:
            lines.append(f"skip {asset} {quarter} {algo}: {reason}")
        for asset, quarter, algo, reason in self.failures:
            lines.append(f"fail {asset} {quarter} {algo}: {reason}")
        return "\n".join(lines) + "\n"


def read_run_report_sparsity(path: Path | str) -> dict[str, float]:
    """The ``sparsity.<algo> = <fraction>`` lines of a ``RunReport.to_text``
    file.  A bad fraction raises RadarError: ``path:line: reason``."""
    sparsity = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.startswith("sparsity."):
            key, _, value = line.partition("=")
            try:
                sparsity[key.strip()[len("sparsity.") :]] = float(value.strip())
            except ValueError as exc:
                raise RadarError(f"{path}:{number}: {exc}") from None
    return sparsity


def task_seed(base_seed: int, asset: str, train_quarter: Quarter, algo: str) -> int:
    """Stable 63-bit per-task seed; independent of process hash randomization."""
    text = f"{base_seed}|{asset}|{format_quarter(train_quarter)}|{algo}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _fit_model(algo: str, block: SignalBlock, params, seed: int):
    # Trees split on order statistics, so they fit on raw values; ols and nn
    # fit on standardized inputs and carry their stats (lasso and enet: _set_prefits).
    if algo == "rf":
        return learners.fit_random_forest(block.values, block.target, params, seed)
    if algo == "gb":
        return learners.fit_gradient_boosting(block.values, block.target, params, seed)
    scaled, stats = standardize(block)
    X, y = scaled.values, scaled.target
    if algo == "ols":
        return learners.fit_ols(X, y, stats=stats)
    if algo == "nn":
        return learners.fit_nn(X, y, params, seed, stats=stats)
    raise RadarError(f"{algo} is fitted jointly by its row-date set, not per task")


# A task's training window, its fit (None when the task fits its own model,
# or the error of its fit) and its forecast block.
Prefit = tuple[SignalBlock, learners.LinearModel | MarketRadarError | None, SignalBlock]


def _set_prefits(
    assets: ReturnPanel,
    sources: ReturnPanel,
    calendar: TradingCalendar,
    train_quarter: Quarter,
    algo: str,
    tasks: Sequence[tuple[str, RadarConfig]],
) -> list[Prefit]:
    """The ``Prefit`` of each ``(asset, config)`` task of one row-date set,
    whose configs share ``lags``, ``window_quarters`` and ``min_train_rows``:
    one window and one forecast block, the first task's, that each task
    reads with its own asset and returns, and in ``GROUPED_ALGOS`` one joint
    fit of the standardized window under each task's ``params_for(algo)``.
    A library error of the blocks raises; one of the fit is every task's."""
    asset, cfg = tasks[0]
    window = assemble_training_window(
        assets, sources, calendar, asset, train_quarter, cfg.lags, cfg.window_quarters,
        cfg.min_train_rows,
    )
    forecast_days = calendar.days_in_quarter(shift_quarter(train_quarter, 1))
    forecast = build_signal_block(sources, assets, forecast_days, cfg.lags, asset)
    # each task's returns on the set's row dates: its targets, then the
    # realized returns it forecasts
    rows = assets.rows(window.dates + forecast.dates, [a for a, _ in tasks]).T
    targets, realized = np.ascontiguousarray(rows[:, :window.n_rows]), rows[:, window.n_rows:]
    fits = [None] * len(tasks)
    if algo in GROUPED_ALGOS:
        try:
            scaled, stats = standardize(window)
            params = [c.params_for(algo) for _, c in tasks]
            fits = learners.fit_penalized_targets(scaled.values, targets, params, stats=stats)
        except MarketRadarError as exc:
            fits = [exc] * len(tasks)
    return [
        (replace(window, asset=a, target=target), fit, replace(forecast, asset=a, target=real))
        for (a, _), fit, target, real in zip(tasks, fits, targets, realized)
    ]


def train_predict_stock_quarter(
    assets: ReturnPanel,
    sources: ReturnPanel,
    calendar: TradingCalendar,
    asset: str,
    train_quarter: Quarter,
    algo: str,
    config: RadarConfig,
    *,
    prefit: Prefit | None = None,
) -> TaskResult:
    """Fit on the trailing window ending at ``train_quarter`` and forecast
    every trading day of the asset in the next quarter.

    A window below ``min_train_rows`` comes back as a skip.  A library error
    from the blocks, the fit, the prediction or the attribution comes back
    as a failure that carries only its reason.  ``prefit`` is the task's
    ``Prefit`` from its unit's row-date set; without one the task is a set
    of one.  A fit of None (ols, rf, gb and nn) is fitted here; given a fit,
    the task only predicts and attributes, and a ``GROUPED_ALGOS`` prefit
    always carries its fit.  A forecast that is not finite fails the task.
    """
    forecast_quarter = shift_quarter(train_quarter, 1)
    result = TaskResult(asset, train_quarter, forecast_quarter, algo)
    seed = task_seed(config.seed, asset, train_quarter, algo)
    params = config.params_for(algo)
    try:
        if prefit is None:
            (prefit,) = _set_prefits(
                assets, sources, calendar, train_quarter, algo, [(asset, config)]
            )
        block, fit, pred_block = prefit
        if isinstance(fit, MarketRadarError):
            raise fit
        model = fit if fit is not None else _fit_model(algo, block, params, seed)
        result.model = model
        result.window_dates = (block.dates[0], block.dates[-1])

        with np.errstate(over="ignore", invalid="ignore"):
            yhat = learners.predict(model, pred_block.values)
        if not np.all(np.isfinite(yhat)):
            raise learners.ModelError("non-finite forecast")
        result.forecasts = [(d, float(v)) for d, v in zip(pred_block.dates, yhat)]

        if isinstance(model, learners.LinearModel):
            result.nonzero_fraction = sparsity_fraction(model.coef)

        # ols records no importance: |coefficient| importance is defined for
        # sparse fits, and ols is not one
        if config.importance and algo in ("lasso", "enet"):
            result.importances = lasso_importance(model, block.columns, asset, forecast_quarter)
        elif config.importance and algo != "ols":
            result.importances = mean_abs_importance(
                model, block, asset, forecast_quarter, config.nn_importance_permutations, seed
            )
    except WindowTooSmall as exc:
        return TaskResult(asset, train_quarter, forecast_quarter, algo, skip_reason=str(exc))
    except MarketRadarError as exc:
        return TaskResult(asset, train_quarter, forecast_quarter, algo, fail_reason=str(exc))
    return result


TaskInputs = tuple[ReturnPanel, ReturnPanel, TradingCalendar]

# Set only in worker processes, by the pool's initializer: a forked worker
# inherits the inputs every task reads instead of unpickling them.
_worker_inputs: TaskInputs | None = None


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


# A unit of work: the (asset, config) tasks of one (training quarter, algo)
# that run as one ``_run_unit`` call and one pool item.
WorkUnit = tuple[Quarter, str, list[tuple[str, RadarConfig]]]


def _run_unit(unit: WorkUnit, inputs: TaskInputs | None = None) -> list[TaskResult]:
    """The unit's ``algo`` task of each ``(asset, config)`` pair at its
    training quarter, in task order, on ``inputs`` or in a worker on the
    inputs its initializer set.  Fitted models are dropped: nothing after
    the merge reads them, and a worker would pickle them back.

    The tasks are grouped by the days their asset trades on in the window
    (``window_days``) and in the forecast quarter; each such row-date set
    gets its blocks and fits from one ``_set_prefits`` call, as a lone task
    does for its set of one.  A set whose blocks raise a library error, such
    as a window below ``min_train_rows``, runs each member alone, which
    records its skip or failure.  A unit's tasks must therefore share
    ``lags``, ``window_quarters`` and ``min_train_rows``: a radar run's
    tasks share one config, and a tuning trial's config differs from the
    base only in ``algorithms``, ``hyperparameters`` and ``importance``.
    """
    assets, sources, calendar = inputs or _worker_inputs
    train_quarter, algo, tasks = unit
    # which of the window's and the forecast quarter's days each task's
    # asset trades on: the row dates of its two blocks
    forecast_days = calendar.days_in_quarter(shift_quarter(train_quarter, 1))
    days = window_days(calendar, train_quarter, tasks[0][1].window_quarters) + forecast_days
    observed = ~np.isnan(assets.rows(days, [asset for asset, _ in tasks]))
    row_date_sets: dict[bytes, list[int]] = {}
    for i in range(len(tasks)):
        row_date_sets.setdefault(observed[:, i].tobytes(), []).append(i)

    results: list[TaskResult | None] = [None] * len(tasks)
    for members in row_date_sets.values():
        try:
            prefits = _set_prefits(
                assets, sources, calendar, train_quarter, algo, [tasks[i] for i in members]
            )
        except MarketRadarError:
            # each member runs alone and records its own skip or failure
            prefits = [None] * len(members)
        for i, prefit in zip(members, prefits):
            asset, cfg = tasks[i]
            results[i] = train_predict_stock_quarter(
                assets, sources, calendar, asset, train_quarter, algo, cfg, prefit=prefit
            )
            results[i].model = None
    return results


def enumerate_tasks(
    assets: ReturnPanel,
    calendar: TradingCalendar,
    config: RadarConfig,
) -> list[tuple[str, Quarter, str]]:
    """(asset, training quarter, algo) triples with a full window and a
    forecast quarter inside the calendar."""
    quarters = calendar.quarters()
    if len(quarters) <= config.window_quarters:
        return []
    usable = quarters[config.window_quarters - 1 : -1]
    tasks = []
    for asset in assets.entity_ids:
        for q in usable:
            if quarter_range(q, config.window_quarters)[0] not in quarters:
                continue
            for algo in config.algorithms:
                tasks.append((asset, q, algo))
    return tasks


def _run_units(
    units: Sequence[WorkUnit], inputs: TaskInputs, threads: int
) -> list[list[TaskResult]]:
    """Each unit's task results, in unit order: in this process, or one unit
    per pool item on up to ``threads`` forked worker processes."""
    workers = min(threads, len(units))
    if workers <= 1:
        return [_run_unit(unit, inputs) for unit in units]
    # Imported here: serial runs and the other CLI steps then do without
    # multiprocessing (about 0.4 MB of peak RSS at start-up).
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=inputs,
        ) as pool:
            return list(pool.map(_run_unit, units))
    except BrokenProcessPool as exc:
        raise RadarError(f"worker process died: {exc}") from exc


def run_radar(
    assets: ReturnPanel,
    sources: ReturnPanel,
    config: RadarConfig,
    calendar: TradingCalendar | None = None,
) -> tuple[ForecastTable, list[ImportanceRecord], RunReport]:
    """Run every stock-quarter task and merge outputs in deterministic order."""
    cal = calendar if calendar is not None else assets.calendar()
    tasks = enumerate_tasks(assets, cal, config)
    if not tasks:
        raise RadarError("no runnable tasks: not enough quarters for the window")

    start = time.perf_counter()
    # units in the order of their first task: every asset of a training
    # quarter for a grouped algorithm, one task otherwise
    units: dict[tuple, WorkUnit] = {}
    for asset, quarter, algo in tasks:
        key = (quarter, algo) if algo in GROUPED_ALGOS else (asset, quarter, algo)
        units.setdefault(key, (quarter, algo, []))[2].append((asset, config))
    done = _run_units(list(units.values()), (assets, sources, cal), config.threads)
    results = sorted(
        (r for unit_results in done for r in unit_results),
        key=lambda r: (r.asset, r.train_quarter, r.algo),
    )
    frows: list[ForecastRow] = []
    importances: list[ImportanceRecord] = []
    report = RunReport(n_tasks=len(tasks), threads=config.threads)
    nnz_by_algo: dict[str, list[float]] = {}
    for r in results:
        key = (r.asset, format_quarter(r.forecast_quarter), r.algo)
        if r.skipped:
            report.skips.append((*key, r.skip_reason))
            continue
        if r.failed:
            report.failures.append((*key, r.fail_reason))
            continue
        report.n_completed += 1
        frows.extend(ForecastRow(d, r.asset, r.algo, v) for d, v in r.forecasts)
        importances.extend(r.importances)
        if r.nonzero_fraction is not None:
            nnz_by_algo.setdefault(r.algo, []).append(r.nonzero_fraction)
    if report.n_completed == 0:
        if report.failures:
            asset, quarter, algo, reason = report.failures[0]
            raise RadarError(
                f"{reason} ({asset} {quarter} {algo}); no task completed: "
                f"{len(report.failures)} failed, {len(report.skips)} skipped"
            )
        raise RadarError("no runnable tasks: every stock-quarter was skipped")
    report.sparsity = {a: float(np.mean(v)) for a, v in nnz_by_algo.items()}
    report.seconds = time.perf_counter() - start

    importances.sort(
        key=lambda r: (r.asset, r.quarter, r.algo, r.signal.source, r.signal.lag_week)
    )
    return ForecastTable(frows), importances, report


def write_importance_csv(path: Path | str, records: Sequence[ImportanceRecord]) -> None:
    write_csv_rows(path, ["asset", "quarter", "algo", "source", "lag_week", "importance"], (
        [r.asset, format_quarter(r.quarter), r.algo, r.signal.source, r.signal.lag_week,
         repr(r.value)]
        for r in records
    ))


def read_importance_csv(path: Path | str) -> list[ImportanceRecord]:
    # each distinct quarter and (source, lag) cell is parsed once per file.
    # Each distinct signal is one bit of its (asset, quarter, algo) group's
    # mask, and a repeated row finds its bit set.  A written file holds each
    # group's rows together, so the current run's mask stays in hand; a set
    # of every row's key would add megabytes to report's peak memory.
    quarter = functools.cache(parse_quarter)
    bits: dict[SignalId, int] = {}
    signal = functools.cache(
        lambda source, lag: (sid := SignalId(source, int(lag)), bits.setdefault(sid, 1 << len(bits)))
    )
    masks: dict[tuple | None, int] = {}
    asset = quarter_cell = algo = group = None
    mask = 0

    def parse(rec: list[str]) -> ImportanceRecord:
        nonlocal asset, quarter_cell, algo, group, mask
        q, (s, bit) = quarter(rec[1]), signal(rec[3], rec[4])
        if rec[0] != asset or rec[1] != quarter_cell or rec[2] != algo:
            masks[group] = mask
            asset, quarter_cell, algo = rec[:3]
            group = (asset, q, algo)
            mask = masks.get(group, 0)
        if mask & bit:
            raise ValueError(f"duplicate importance row {','.join(rec[:5])}")
        mask |= bit
        return ImportanceRecord(asset, q, algo, s, float(rec[5]))

    header = lambda head: head == ["asset", "quarter", "algo", "source", "lag_week", "importance"]
    return read_csv_rows(path, parse, RadarError, header, "importance header")[1]


# ---------------------------------------------------------------------------
# Hyperparameter tuning: independent random searches over sampled
# stock-quarters, aggregated by per-dimension medians.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchDim:
    """One searchable hyperparameter dimension."""

    kind: str  # "choice" | "uniform" | "loguniform" | "int"
    values: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "choice":
            if not self.values:
                raise RadarError("choice dimension needs values")
        elif self.kind in ("uniform", "loguniform", "int"):
            if not self.lo <= self.hi:
                raise RadarError("dimension needs lo <= hi")
            if self.kind == "loguniform" and self.lo <= 0:
                raise RadarError("loguniform needs lo > 0")
        else:
            raise RadarError(f"unknown dimension kind {self.kind!r}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "choice":
            return float(self.values[int(rng.integers(0, len(self.values)))])
        if self.kind == "uniform":
            return float(rng.uniform(self.lo, self.hi))
        if self.kind == "loguniform":
            return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))
        return float(rng.integers(int(self.lo), int(self.hi) + 1))

    def snap(self, value: float) -> float:
        """Round a median back to the nearest valid value of the dimension."""
        if self.kind == "choice":
            return min(self.values, key=lambda v: (abs(v - value), v))
        if self.kind == "int":
            return float(min(max(int(round(value)), int(self.lo)), int(self.hi)))
        return float(min(max(value, self.lo), self.hi))


def tune_hyperparameters(
    assets: ReturnPanel,
    sources: ReturnPanel,
    algo: str,
    space: Mapping[str, SearchDim],
    n_tasks: int,
    budget: int,
    seed: int,
    config: RadarConfig | None = None,
    calendar: TradingCalendar | None = None,
    quarters: Sequence[Quarter] | None = None,
):
    """Per-dimension median of the best configuration found by independent
    random searches on sampled stock-quarters.

    Each sampled (asset, quarter) gets ``budget`` random configurations;
    the one with the lowest next-quarter squared forecast error wins.  Each
    configuration is one ``train_predict_stock_quarter`` task, and the
    configurations of one stock-quarter are one unit of work, with one
    window, so lasso and elastic-net configurations are fitted jointly.  The
    units run on ``config.threads`` workers, as a radar run's do.  The
    sample draws from the training quarters in ``quarters``, by default the
    earliest alone, whose draws are scored on the returns of the run's first
    forecast quarter.  A draw the algorithm's params reject is skipped; a
    space name they lack, or a space with no valid draw, is a RadarError.
    """
    if n_tasks < 1 or budget < 1:
        raise RadarError("n_tasks and budget must be >= 1")
    if not space:
        raise RadarError("empty search space")
    unknown = sorted(set(space) - {f.name for f in fields(hp.default_params(algo))})
    if unknown:
        raise RadarError(f"{algo} has no hyperparameter {unknown[0]!r}")
    base = config if config is not None else RadarConfig(algorithms=(algo,))
    cal = calendar if calendar is not None else assets.calendar()

    tasks = enumerate_tasks(assets, cal, replace(base, algorithms=(algo,)))
    if quarters is None:  # the only training quarter before the first forecast one
        quarters = [min((q for _, q, _ in tasks), default=None)]
    candidates = [(asset, q) for asset, q, _ in tasks if q in quarters]
    if not candidates:
        raise RadarError("empty tuning sample")

    pick_rng = np.random.default_rng(seed)
    chosen_idx = pick_rng.choice(
        len(candidates), size=n_tasks, replace=n_tasks > len(candidates)
    )
    dims = sorted(space)
    trial_base = replace(base, algorithms=(algo,), importance=False)

    # one unit per sampled stock-quarter with a valid draw, its trials in
    # draw order
    units: list[WorkUnit] = []
    draws: list[list[dict[str, float]]] = []
    invalid: hp.HyperparameterError | None = None  # the error of the first invalid draw
    for task_no, ci in enumerate(chosen_idx):
        asset, q = candidates[int(ci)]
        rng = np.random.default_rng(task_seed(seed, asset, q, f"tune-{algo}-{task_no}"))
        unit_draws, trials = [], []
        for _ in range(budget):
            cfg = {d: space[d].sample(rng) for d in dims}
            try:
                params = hp.params_from_mapping(algo, cfg)
            except hp.HyperparameterError as exc:
                invalid = invalid or exc
                continue
            unit_draws.append(cfg)
            trials.append((asset, replace(trial_base, hyperparameters={algo: params})))
        if trials:
            units.append((q, algo, trials))
            draws.append(unit_draws)
    if not units:
        raise RadarError(f"no valid draw in the search space: {invalid}")

    winners: dict[str, list[float]] = {d: [] for d in dims}
    done = _run_units(units, (assets, sources, cal), base.threads)
    for unit_draws, results in zip(draws, done):
        best_err = math.inf
        best_cfg: dict[str, float] | None = None
        for cfg, result in zip(unit_draws, results):
            if result.skipped or not result.forecasts:
                continue
            realized = assets.rows([d for d, _ in result.forecasts], [result.asset])[:, 0]
            predicted = np.array([v for _, v in result.forecasts])
            err = float(np.sum((realized - predicted) ** 2))
            if err < best_err:
                best_err = err
                best_cfg = cfg
        if best_cfg is not None:
            for d in dims:
                winners[d].append(best_cfg[d])

    if not winners[dims[0]]:
        raise RadarError("empty tuning sample: no stock-quarter produced forecasts")
    tuned = {d: space[d].snap(float(np.median(winners[d]))) for d in dims}
    return hp.params_from_mapping(algo, tuned)
