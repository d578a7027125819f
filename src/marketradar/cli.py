"""Command-line entry point: synth, radar, tune, report.

Configuration is a flat text file of dotted keys (``radar.lags = 4``); the
same keys drive every subcommand and a handful of flags override them.  All
randomness descends from the single ``seed`` key, so reruns with identical
inputs write identical bytes.

Exit codes: 0 success, 1 any library error (printed as ``error: ...``;
a failed task is not one, so ``radar`` exits 1 only when no task
completed), 2 missing input.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping

from . import econometrics as em
from . import portfolio as pf
from . import report as rp
from .errors import MarketRadarError
from .learners import params as hp
from .panel import read_calendar_csv, read_panel_csv
from .radar import (
    ForecastTable,
    RadarConfig,
    RadarError,
    SearchDim,
    read_importance_csv,
    read_run_report_sparsity,
    run_radar,
    tune_hyperparameters,
    write_importance_csv,
)
from .synth import ScenarioError, ScenarioSpec, generate, read_factors_csv, write_scenario
from .trading_calendar import parse_quarter


class ConfigError(MarketRadarError, ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        out[key.strip()] = value.strip()
    return out


def _as_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected boolean, got {value!r}")


def _as_pair(value: str) -> tuple[float, float]:
    parts = value.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"expected two numbers, got {value!r}")
    return float(parts[0]), float(parts[1])


@dataclass
class RunConfig:
    seed: int = 0
    out: Path = Path("out")
    data: dict[str, Path] = field(default_factory=dict)
    radar: RadarConfig = field(default_factory=RadarConfig)
    fraction: float = pf.DEFAULT_TOP_FRACTION
    deciles: bool = True
    weighting: str = "equal"
    cost_bps: float = pf.DEFAULT_COST_BPS
    leverage: int = 2
    index_factor: str = "MKT"
    synth_spec: ScenarioSpec = field(default_factory=ScenarioSpec)
    tune_algo: str = "lasso"
    tune_n_tasks: int = 20
    tune_budget: int = 10
    tune_quarters: tuple | None = None
    space: dict[str, SearchDim] = field(default_factory=dict)

    def validate(self) -> None:
        if not 0.0 < self.fraction <= 0.5:
            raise ConfigError("portfolio.fraction must be in (0, 0.5]")
        if self.cost_bps < 0:
            raise ConfigError("portfolio.cost_bps must be >= 0")
        if self.weighting not in ("equal", "value"):
            raise ConfigError("portfolio.weighting must be equal or value")
        if self.leverage not in (2, 3):
            raise ConfigError("portfolio.leverage must be 2 or 3")


def _as_list(value: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in value.split(",") if a.strip())


def _as_quarters(value: str) -> tuple:
    return tuple(parse_quarter(q) for q in _as_list(value))


# Plain config keys: key -> (target, field, parser).  The target is "run"
# for a RunConfig field, "radar" for RadarConfig and "synth" for
# ScenarioSpec, every field of which but the seed is a synth.* key, parsed
# as its annotation names.  The prefix families data.*, hp.*, space.* and
# synth.regime_breaks are parsed in config_from_mapping.
_SPEC_PARSERS = {"int": int, "float": float, "str": str, "tuple[float, float]": _as_pair}
_KEYS = {
    "seed": ("run", "seed", int),
    "out": ("run", "out", Path),
    "radar.algos": ("radar", "algorithms", _as_list),
    "radar.lags": ("radar", "lags", int),
    "radar.window_quarters": ("radar", "window_quarters", int),
    "radar.min_train_rows": ("radar", "min_train_rows", int),
    "radar.importance": ("radar", "importance", _as_bool),
    "radar.threads": ("radar", "threads", int),
    "radar.nn_importance_permutations": ("radar", "nn_importance_permutations", int),
    "portfolio.fraction": ("run", "fraction", float),
    "portfolio.deciles": ("run", "deciles", _as_bool),
    "portfolio.weighting": ("run", "weighting", str),
    "portfolio.cost_bps": ("run", "cost_bps", float),
    "portfolio.leverage": ("run", "leverage", int),
    "portfolio.index_factor": ("run", "index_factor", str),
    "tune.algo": ("run", "tune_algo", str),
    "tune.n_tasks": ("run", "tune_n_tasks", int),
    "tune.budget": ("run", "tune_budget", int),
    "tune.quarters": ("run", "tune_quarters", _as_quarters),
    **{
        f"synth.{f.name}": ("synth", f.name, _SPEC_PARSERS[f.type])
        for f in fields(ScenarioSpec)
        if f.name not in ("seed", "regime_breaks")
    },
}


def _parse_space_entry(value: str) -> SearchDim:
    parts = value.split()
    if not parts:
        raise ConfigError("empty search dimension")
    kind, args = parts[0], parts[1:]
    if kind == "choice":
        return SearchDim(kind="choice", values=tuple(float(a) for a in args))
    if kind in ("uniform", "loguniform", "int"):
        if len(args) != 2:
            raise ConfigError(f"{kind} needs lo and hi")
        return SearchDim(kind=kind, lo=float(args[0]), hi=float(args[1]))
    raise ConfigError(f"unknown search dimension kind {kind!r}")


def config_from_mapping(mapping: Mapping[str, str]) -> RunConfig:
    cfg = RunConfig()
    hp_values: dict[str, dict[str, str]] = {}
    values: dict[str, dict[str, object]] = {"run": {}, "radar": {}, "synth": {}}
    regime_breaks: dict = {}
    for key, value in mapping.items():
        try:
            if key in _KEYS:
                target, name, parse = _KEYS[key]
                values[target][name] = parse(value)
            elif key.startswith("data."):
                cfg.data[key[5:]] = Path(value)
            elif key.startswith("hp.") and key.count(".") >= 2:
                _, algo, name = key.split(".", 2)
                hp_values.setdefault(algo, {})[name] = value
            elif key == "synth.regime_breaks":
                for part in value.split(","):
                    quarter, _, mult = part.strip().partition(":")
                    regime_breaks[parse_quarter(quarter)] = float(mult)
            elif key.startswith("space."):
                cfg.space[key[6:]] = _parse_space_entry(value)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except (ValueError, hp.HyperparameterError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    for name, parsed in values["run"].items():
        setattr(cfg, name, parsed)
    try:
        hyper = {algo: hp.params_from_mapping(algo, raw) for algo, raw in hp_values.items()}
    except hp.HyperparameterError as exc:
        raise ConfigError(str(exc)) from exc
    if hyper:
        values["radar"]["hyperparameters"] = hyper
    if regime_breaks:
        values["synth"]["regime_breaks"] = regime_breaks
    try:
        cfg.synth_spec = ScenarioSpec(**values["synth"])  # type: ignore[arg-type]
        cfg.radar = replace(cfg.radar, **values["radar"])  # type: ignore[arg-type]
    except (ScenarioError, RadarError) as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def _file(path: Path, what: str) -> Path:
    """``path`` if it is a regular file, else FileNotFoundError (exit 2)."""
    if not path.is_file():
        reason = "is not a file" if path.exists() else "not found"
        raise FileNotFoundError(f"{what} {path} {reason}")
    return path


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return config_from_mapping(parse_config_text(_file(Path(path), "config file").read_text()))


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.out:
        cfg.out = Path(args.out)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.synth_spec = replace(cfg.synth_spec, seed=cfg.seed)
    cfg.radar = replace(cfg.radar, seed=cfg.seed)
    if args.algos:
        cfg.radar = replace(cfg.radar, algorithms=_as_list(args.algos))
    if args.threads is not None:
        cfg.radar = replace(cfg.radar, threads=args.threads)
    cfg.validate()
    return cfg


def _require(cfg: RunConfig, key: str, default_name: str | None = None) -> Path:
    path = cfg.data.get(key)
    if path is None and default_name is not None:
        candidate = cfg.out / default_name
        if candidate.is_file():
            return candidate
    if path is None:
        raise FileNotFoundError(f"no data.{key} input configured")
    return _file(path, "input")


def _optional(cfg: RunConfig, key: str, default_name: str | None = None) -> Path | None:
    """Like ``_require``, but None when ``data.<key>`` is not configured and
    no ``out/<default_name>`` file exists; a configured input must be a file."""
    if key not in cfg.data and not (default_name and (cfg.out / default_name).is_file()):
        return None
    return _require(cfg, key, default_name)


def cmd_synth(cfg: RunConfig) -> int:
    scenario = generate(cfg.synth_spec)
    paths = write_scenario(scenario, cfg.out)
    for name, p in sorted(paths.items()):
        print(f"wrote {name}: {p}")
    return 0


def _load_inputs(cfg: RunConfig):
    assets = read_panel_csv(_require(cfg, "returns", "returns.csv"))
    markets = read_panel_csv(_require(cfg, "markets", "markets.csv"))
    cal_path = _optional(cfg, "calendar")
    calendar = read_calendar_csv(cal_path) if cal_path else assets.calendar()
    return assets, markets, calendar


def cmd_radar(cfg: RunConfig) -> int:
    assets, markets, calendar = _load_inputs(cfg)
    forecasts, importances, run_report = run_radar(
        assets, markets, cfg.radar, calendar=calendar
    )
    cfg.out.mkdir(parents=True, exist_ok=True)
    forecasts.to_csv(cfg.out / "forecasts.csv")
    write_importance_csv(cfg.out / "importance.csv", importances)
    (cfg.out / "run_report.txt").write_text(run_report.to_text())
    print(run_report.to_text(), end="")
    return 0


def cmd_tune(cfg: RunConfig) -> int:
    if not cfg.space:
        raise ConfigError("tune requires space.* entries")
    assets, markets, calendar = _load_inputs(cfg)
    tuned = tune_hyperparameters(
        assets,
        markets,
        cfg.tune_algo,
        cfg.space,
        n_tasks=cfg.tune_n_tasks,
        budget=cfg.tune_budget,
        seed=cfg.seed,
        config=cfg.radar,
        calendar=calendar,
        quarters=cfg.tune_quarters,
    )
    cfg.out.mkdir(parents=True, exist_ok=True)
    lines = [
        f"hp.{cfg.tune_algo}.{f.name} = {getattr(tuned, f.name)!r}"
        for f in fields(tuned)
    ]
    text = "\n".join(lines) + "\n"
    (cfg.out / "tuned.cfg").write_text(text)
    print(text, end="")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    forecasts_path = _require(cfg, "forecasts", "forecasts.csv")
    forecasts = ForecastTable.from_csv(forecasts_path)
    if not forecasts.rows:
        raise ConfigError(f"{forecasts_path} holds no forecasts")
    returns = read_panel_csv(_require(cfg, "returns", "returns.csv"))
    factors_path = _optional(cfg, "factors", "factors.csv")
    caps_path = _optional(cfg, "caps", "caps.csv")
    importance_path = _optional(cfg, "importance", "importance.csv")
    run_report_path = _optional(cfg, "run_report", "run_report.txt")

    factors = read_factors_csv(factors_path) if factors_path else None
    rf: em.DateSeries = (factors or {}).get("RF", 0.0)
    factor_set = {k: v for k, v in factors.items() if k != "RF"} if factors else None
    caps = read_panel_csv(caps_path, check_returns=False) if caps_path else None

    cfg.out.mkdir(parents=True, exist_ok=True)
    sections: list[str] = []
    books = {
        algo: rp.build_algo_portfolios(
            forecasts, returns, algo, cfg.fraction, cfg.weighting, caps
        )
        for algo in forecasts.algos()
    }
    ml_algos = [a for a in ("lasso", "rf", "gb", "nn") if a in books]
    if len(ml_algos) > 1:
        books["comb"] = rp.AlgoPortfolios(
            top=pf.combine([books[a].top for a in ml_algos], name="comb-top"),
            bottom=pf.combine([books[a].bottom for a in ml_algos], name="comb-bottom"),
            spread=pf.combine([books[a].spread for a in ml_algos], name="comb-tb"),
        )
    sections.append(rp.portfolio_table(books, rf, factor_set, cfg.cost_bps))
    all_series = [s for b in books.values() for s in (b.top, b.bottom, b.spread)]
    pf.write_portfolio_csv(cfg.out / "portfolio.csv", all_series)

    if cfg.deciles:
        sections.append(
            rp.decile_table(forecasts, returns, rf, factor_set, cfg.weighting, caps)
        )

    records = rp.compute_r2_records(forecasts, returns)
    sections.append(rp.r2_table(records, forecasts.algos()))

    if importance_path:
        importances = read_importance_csv(importance_path)
        if importances:
            sections.append(
                rp.importance_table(importances, em.positive_r2_keys(records))
            )

    if caps is not None and factors and cfg.index_factor in factors:
        index = factors[cfg.index_factor]
        dates = list(index)
        total = em.on_dates(index, dates, cfg.index_factor) + em.on_dates(rf, dates, "rf")
        sections.append(rp.timing_table(forecasts, caps, dict(zip(dates, total)), rf, cfg.leverage))

    if run_report_path:
        sparsity = read_run_report_sparsity(run_report_path)
        if sparsity:
            sections.append(rp.sparsity_table(sparsity))

    text = "\n".join(sections)
    (cfg.out / "tables.txt").write_text(text)
    print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="marketradar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "radar", "tune", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file of dotted keys")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--algos", default=None, help="comma-separated algorithm list")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = _apply_flags(load_config(args.config), args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "radar":
            return cmd_radar(cfg)
        if args.command == "tune":
            return cmd_tune(cfg)
        return cmd_report(cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarketRadarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
