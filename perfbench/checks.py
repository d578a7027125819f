"""Output checks and quality metrics for one pass of a workload.

Every check returns ``(ok, detail)``; a failed check fails its CLI step.
The ground truth comes from ``generate(spec)`` in this process, never from
``truth.csv``.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

from marketradar.learners import params_from_mapping


def expected_forecast_keys(scenario, window_quarters: int, algos) -> set[tuple[str, str, str]]:
    """One (date, asset, algo) per trading day of each asset in every
    forecast quarter."""
    assets = scenario.assets
    calendar = assets.calendar()
    keys = set()
    for quarter in calendar.quarters()[window_quarters:]:
        days = calendar.days_in_quarter(quarter)
        for asset in assets.entity_ids:
            traded = set(assets.series(asset).ordinals.tolist())
            for d in days:
                if d.toordinal() in traded:
                    keys.update((d.isoformat(), asset, algo) for algo in algos)
    return keys


def check_forecasts(path: Path, expected: set) -> tuple[bool, str]:
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["date", "asset", "algo", "yhat"]:
            return False, "bad header"
        for rec in reader:
            key = (rec[0], rec[1], rec[2])
            if key in seen:
                return False, f"duplicate row {key}"
            if not math.isfinite(float(rec[3])):
                return False, f"non-finite forecast {key}"
            seen.add(key)
    if seen != expected:
        return False, f"{len(seen - expected)} unexpected and {len(expected - seen)} missing rows"
    return True, f"{len(seen)} finite rows, one per (asset, day, algo)"


def read_importance(path: Path) -> dict[tuple[str, str, str], dict[tuple[str, int], float]]:
    """(asset, quarter, algo) -> {(source, lag): importance}."""
    groups: dict[tuple[str, str, str], dict[tuple[str, int], float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["asset", "quarter", "algo", "source", "lag_week", "importance"]:
            raise ValueError("bad importance header")
        for rec in reader:
            signal = (rec[3], int(rec[4]))
            group = groups.setdefault((rec[0], rec[1], rec[2]), {})
            if signal in group:
                raise ValueError(f"duplicate importance row {rec[:5]}")
            group[signal] = float(rec[5])
    return groups


def check_importance(path: Path, completed_tasks: int, n_features: int) -> tuple[bool, str]:
    try:
        groups = read_importance(path)
    except ValueError as exc:
        return False, str(exc)
    rows = sum(len(g) for g in groups.values())
    if rows != completed_tasks * n_features or len(groups) != completed_tasks:
        return False, f"{rows} rows in {len(groups)} tasks, expected {completed_tasks} x {n_features}"
    bad = [k for g in groups.values() for k, v in g.items() if not (math.isfinite(v) and v >= 0)]
    if bad:
        return False, f"{len(bad)} importances not finite and >= 0"
    return True, f"{rows} rows = {completed_tasks} tasks x {n_features} features"


def check_tables(path: Path, sections) -> tuple[bool, str]:
    text = path.read_text()
    missing = [s for s in sections if s not in text]
    if missing:
        return False, f"missing sections {missing}"
    return True, f"{len(sections)} sections present"


def check_tuned(path: Path, algo: str) -> tuple[bool, str]:
    prefix = f"hp.{algo}."
    mapping = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if not sep or not key.strip().startswith(prefix):
            return False, f"unexpected line {line!r}"
        mapping[key.strip()[len(prefix):]] = value.strip()
    try:
        params_from_mapping(algo, mapping)
    except ValueError as exc:
        return False, f"params_from_mapping rejected it: {exc}"
    return True, f"{len(mapping)} hp.{algo} keys parse"


def read_run_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def union_fraction_positive(tables: Path) -> float:
    marker = "union fraction positive (any algo):"
    for line in tables.read_text().splitlines():
        if line.startswith(marker):
            return float(line[len(marker):])
    raise ValueError("no union fraction line in tables.txt")


def truth_recall(importance_path: Path, truth) -> float:
    """Mean share of planted (source, lag) signals in the top-k of each
    exposed (asset, quarter, algo), k being the number planted."""
    recalls = []
    for (asset, _, _), values in sorted(read_importance(importance_path).items()):
        planted = {(s.source, s.lag_week) for s in truth.loadings.get(asset, {})}
        if not truth.exposed.get(asset) or not planted:
            continue
        ranked = sorted(values, key=lambda sig: (-values[sig], sig))
        recalls.append(len(planted & set(ranked[: len(planted)])) / len(planted))
    if not recalls:
        raise ValueError("no exposed asset in importance.csv")
    return sum(recalls) / len(recalls)

