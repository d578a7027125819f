"""The benchmark proper; see run.py for the command line and README.md.

A pass runs the real CLI from the repository root as sequential child
processes: ``synth``, then ``radar`` (or ``tune`` followed by ``radar``
with the tuned hyperparameters), then ``report``.  The pass's seed reaches
every step as ``--seed``; ``--threads`` is explicit and ``RADAR_THREADS``
is removed from the children's environment.  Every output is checked; a
failed check fails its step.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path

from marketradar.cli import config_from_mapping, parse_config_text
from marketradar.radar import enumerate_tasks
from marketradar.synth import generate

import checks
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Per child process; a whole run must end within 180 s.
STEP_TIMEOUT_S = 150.0
MIN_STEP_SAMPLES = 3

E2E_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "report_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
    "truth_recall": "ratio",
}
# Printed with the end-to-end metrics but not bounded: the union fraction
# over 20 asset-quarters moves by 0.05 steps and spreads by 0.15 to 0.3
# between seeds.  The traced run reports it as report.oos_r2_frac_pos.
INFO_UNITS = {"failed_frac": "ratio", "oos_r2_frac_pos": "ratio"}

# Files each step reads and writes, for cli.io_bytes.
STEP_IO = {
    "synth": ((), ("returns.csv", "markets.csv", "factors.csv", "caps.csv", "truth.csv")),
    "radar": (
        ("returns.csv", "markets.csv"),
        ("forecasts.csv", "importance.csv", "run_report.txt"),
    ),
    "tune": (("returns.csv", "markets.csv"), ("tuned.cfg",)),
    "report": (
        ("forecasts.csv", "returns.csv", "factors.csv", "caps.csv", "importance.csv", "run_report.txt"),
        ("portfolio.csv", "tables.txt"),
    ),
}
DETERMINISTIC_OUTPUTS = ("forecasts.csv", "importance.csv")


@dataclass
class Step:
    name: str
    wall: float
    rc: int
    rss_mb: float
    ops: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def failed_ops(self) -> int:
        if self.rc != 0:
            return self.ops
        return 1 if any(not ok for _, ok, _ in self.checks) else 0


@dataclass
class Pass:
    dir: Path
    traced: bool
    threads: int
    steps: list[Step] = field(default_factory=list)
    wall: float = 0.0
    main_ops: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    oos_r2_frac_pos: float | None = None
    truth_recall: float | None = None

    def step(self, name: str) -> Step | None:
        hits = [s for s in self.steps if s.name == name]
        return hits[-1] if hits else None

    @property
    def total_s(self) -> float:
        return sum(s.wall for s in self.steps)


class Bench:
    """Runs the CLI steps of one workload at one seed and checks their
    outputs against the scenario that seed generates."""

    def __init__(self, workload, seed: int, run_dir: Path, spawner) -> None:
        self.w = workload
        self.seed = seed
        self.run_dir = run_dir
        self.spawner = spawner
        cfg = config_from_mapping(parse_config_text(workload.config))
        # The CLI's --seed flag is the only path to ScenarioSpec.seed.
        self.scenario = generate(replace(cfg.synth_spec, seed=seed))
        calendar = self.scenario.assets.calendar()
        radar_cfg = replace(cfg.radar, algorithms=workload.algos)
        self.n_tasks = len(enumerate_tasks(self.scenario.assets, calendar, radar_cfg))
        self.n_features = len(self.scenario.markets.entity_ids) * cfg.radar.lags
        self.expected_forecasts = checks.expected_forecast_keys(
            self.scenario, cfg.radar.window_quarters, workload.algos
        )
        self.env = dict(os.environ)
        self.env.pop("RADAR_THREADS", None)
        paths = [str(ROOT / "src")] + [v for v in [self.env.get("PYTHONPATH")] if v]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def run_step(self, p: Pass, command: str, config: Path, ops: int) -> Step:
        """Run one CLI step in the pass's directory and check its outputs."""
        index = len(list(p.dir.glob("*.log")))
        args = [
            command,
            "--config", str(config),
            "--out", str(p.dir),
            "--seed", str(self.seed),
            "--threads", str(p.threads),
        ]
        if p.traced:
            spans = p.dir / f"spans-{index}-{command}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "marketradar.cli", *args]
        request = {
            "cmd": cmd,
            "cwd": str(ROOT),
            "env": self.env,
            "log": str(p.dir / f"{index}-{command}.log"),
            "timeout": STEP_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        step = Step(command, reply["wall"], reply["rc"], reply["maxrss_kb"] / 1024.0, ops)
        if step.rc != 0:
            step.checks.append(("exit", False, f"exit code {step.rc}"))
        else:
            self._check_step(p, step)
        return step

    def run_pass(self, name: str, traced: bool, threads: int) -> Pass:
        """synth -> radar, or synth -> tune -> radar with the tuned values,
        then report."""
        p = Pass(self.run_dir / name, traced, threads)
        p.dir.mkdir(parents=True)
        config = p.dir / "run.cfg"
        config.write_text(self.w.config)
        t0 = time.perf_counter()
        plan = [("synth", 1)]
        if self.w.kind == "tune":
            plan.append(("tune", 1 + self.w.tune_trials))
        plan += [("radar", 1 + self.n_tasks), ("report", 1)]
        for command, ops in plan:
            if p.steps and p.steps[-1].rc != 0:
                # A step that never ran because an earlier one failed
                # fails all of its operations.
                p.steps.append(Step(command, 0.0, -1, 0.0, ops, [("ran", False, "earlier step failed")]))
                continue
            step_config = config
            if command == "radar" and self.w.kind == "tune":
                step_config = p.dir / "tuned_run.cfg"
                step_config.write_text(self.w.config + (p.dir / "tuned.cfg").read_text())
            p.steps.append(self.run_step(p, command, step_config, ops))
        p.wall = time.perf_counter() - t0
        p.main_ops = self.w.tune_trials if self.w.kind == "tune" else self._completed(p)
        for fname in DETERMINISTIC_OUTPUTS:
            path = p.dir / fname
            if path.exists():
                p.hashes[fname] = hashlib.sha256(path.read_bytes()).hexdigest()
        return p

    def _completed(self, p: Pass) -> int:
        path = p.dir / "run_report.txt"
        if not path.exists():
            return 0
        return int(checks.read_run_report(path).get("tasks.completed", 0))

    def _check_step(self, p: Pass, step: Step) -> None:
        d = p.dir
        add = step.checks.append
        try:
            if step.name == "synth":
                missing = [f for f in STEP_IO["synth"][1] if not (d / f).is_file()]
                add(("inputs written", not missing, f"missing {missing}" if missing else "5 CSVs"))
            elif step.name == "tune":
                add(("tuned.cfg", *checks.check_tuned(d / "tuned.cfg", self.w.algos[0])))
            elif step.name == "radar":
                completed = self._completed(p)
                total = int(checks.read_run_report(d / "run_report.txt").get("tasks.total", -1))
                add(("task count", total == self.n_tasks, f"{total} tasks, expected {self.n_tasks}"))
                add(("forecasts.csv", *checks.check_forecasts(d / "forecasts.csv", self.expected_forecasts)))
                add(("importance.csv", *checks.check_importance(d / "importance.csv", completed, self.n_features)))
                p.truth_recall = checks.truth_recall(d / "importance.csv", self.scenario.truth)
            elif step.name == "report":
                add(("tables.txt", *checks.check_tables(d / "tables.txt", self.w.sections)))
                p.oos_r2_frac_pos = checks.union_fraction_positive(d / "tables.txt")
        except (OSError, ValueError, KeyError) as exc:
            add((f"{step.name} outputs", False, f"{type(exc).__name__}: {exc}"))


def io_bytes(p: Pass) -> int:
    total = 0
    for step in p.steps:
        reads, writes = STEP_IO[step.name]
        total += sum((p.dir / f).stat().st_size for f in reads + writes if (p.dir / f).exists())
    return total


def load_spans(p: Pass) -> tuple[list[list], dict[str, float]]:
    """Merge the span files of a traced pass; ids become 'step:id'."""
    spans: list[list] = []
    counters: dict[str, float] = {}
    for path in sorted(p.dir.glob("spans-*.json"), key=lambda q: int(q.name.split("-")[1])):
        step = path.name.split("-")[1]
        data = json.loads(path.read_text())
        for sid, parent, name, t0, t1, attrs in data["spans"]:
            if t1 is None:
                continue
            spans.append([f"{step}:{sid}", f"{step}:{parent}" if parent else None, name, t0, t1, attrs])
        for key, value in data["counters"].items():
            merge = max if key.endswith("_max") else (lambda a, b: a + b)
            counters[key] = merge(counters[key], value) if key in counters else value
    return spans, counters


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "n/a (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"n/a (unresolved {name})"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def trace_overhead(traced: Pass, ref: Pass) -> tuple[float, str | None]:
    """Traced wall time against untraced wall time, over the steps that ran
    with the same settings in both passes."""
    same = [
        (t.wall, r.wall)
        for t, r in zip(traced.steps, ref.steps)
        if t.name != "radar" or traced.threads == ref.threads
    ]
    note = None
    if len(same) < len(traced.steps):
        note = f"radar step left out: threads={traced.threads} traced, {ref.threads} untraced"
    return sum(t for t, _ in same) / sum(r for _, r in same) - 1.0, note


def determinism_checks(passes: list[Pass]) -> list[tuple[str, bool, str]]:
    """Every pass must write the same forecast and importance bytes as the
    first, whatever its thread count or tracing."""
    out = []
    first = passes[0]
    for p in passes[1:]:
        for fname in DETERMINISTIC_OUTPUTS:
            if fname in first.hashes and fname in p.hashes:
                same = first.hashes[fname] == p.hashes[fname]
                out.append(
                    (
                        f"{fname} {p.dir.name} (threads={p.threads}) == {first.dir.name} (threads={first.threads})",
                        same,
                        "byte-identical" if same else "bytes differ",
                    )
                )
    return out


def traced_layers(workload, passes: list[Pass], run_dir: Path):
    """Per-layer metrics of the traced passes (median over them) and the
    checks that only the trace can make."""
    ref = passes[0]
    ref_report = ref.dir / "run_report.txt"
    radar_wall = float(checks.read_run_report(ref_report)["wall_seconds"]) if ref_report.exists() else 0.0
    runs = []
    trial_checks = []
    for p in passes[1:]:
        spans, counters = load_spans(p)
        (run_dir / f"{p.dir.name}-spans.json").write_text(json.dumps(spans))
        extra = {
            "cli.io_bytes": (float(io_bytes(p)), None),
            "report.oos_r2_frac_pos": (p.oos_r2_frac_pos or 0.0, None),
            "trace.overhead_frac": trace_overhead(p, ref),
        }
        runs.append(layers.per_layer(spans, counters, workload.kind, ref.threads * radar_wall, extra))
        if workload.kind == "tune":
            # tasks_per_s counts the planned trials; the trace shows whether
            # all of them ran.
            trials = int(runs[-1]["radar.trial_calls"][0])
            trial_checks.append(
                (
                    f"{p.dir.name}: tuning trials",
                    trials == workload.tune_trials,
                    f"{trials} ran, {workload.tune_trials} planned",
                )
            )
    per_layer = {}
    for spec in layers.metric_specs():
        name = spec["name"]
        per_layer[name] = {
            "value": statistics.median(r[name][0] for r in runs),
            "unit": spec["unit"],
            "note": runs[0][name][1],
        }
    return per_layer, trial_checks


def run_workload(workload, seed: int, seconds: float, trace: bool, spawner) -> dict:
    run_id = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir = WORK / run_id
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    load_before = os.getloadavg()
    runner = Bench(workload, seed, run_dir, spawner)
    start = time.perf_counter()

    def room_for(estimate: float) -> bool:
        return time.perf_counter() - start + estimate <= seconds

    passes: list[Pass] = []
    extra_steps: list[Step] = []
    if not trace:
        while True:
            passes.append(runner.run_pass(f"pass{len(passes)}", False, workload.threads))
            if not room_for(passes[-1].wall):
                break
        # synth and report are short and mostly interpreter start-up, so
        # they get more samples: re-runs in the last pass's directory, at
        # least MIN_STEP_SAMPLES of each, then reports while time remains.
        last = passes[-1]
        for command in ("synth", "report"):
            def count() -> int:
                return len(passes) + sum(1 for s in extra_steps if s.name == command)

            wall = last.step(command).wall
            while count() < MIN_STEP_SAMPLES or (command == "report" and room_for(wall)):
                extra_steps.append(runner.run_step(last, command, last.dir / "run.cfg", 1))
    else:
        passes.append(runner.run_pass("reference", False, workload.threads))
        while True:
            passes.append(runner.run_pass(f"traced{len(passes)}", True, 1))
            if not room_for(passes[-1].wall):
                break

    # Checks across passes count as one operation each.
    run_checks = determinism_checks(passes)
    per_layer = None
    if trace:
        per_layer, trial_checks = traced_layers(workload, passes, run_dir)
        run_checks += trial_checks
    steps = [s for p in passes for s in p.steps] + extra_steps
    attempted = sum(s.ops for s in steps) + len(run_checks)
    failed = sum(s.failed_ops for s in steps) + sum(1 for _, ok, _ in run_checks if not ok)
    check_lines = [
        (f"{p.dir.name}/{s.name}: {name}", ok, detail)
        for p in passes
        for s in p.steps
        for name, ok, detail in s.checks
    ] + [(f"rerun/{s.name}: {n}", ok, d) for s in extra_steps for n, ok, d in s.checks] + run_checks

    result: dict = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(),
        "load_before": load_before,
        "attempted": attempted,
        "failed": failed,
        "checks": check_lines,
        "passes": [
            {
                "name": p.dir.name,
                "traced": p.traced,
                "threads": p.threads,
                "steps": [
                    {"name": s.name, "wall_s": s.wall, "rc": s.rc, "max_rss_mb": s.rss_mb, "ops": s.ops}
                    for s in p.steps
                ],
            }
            for p in passes
        ],
    }
    good = [p for p in passes if all(s.failed_ops == 0 for s in p.steps)]
    untraced = [p for p in good if not p.traced]
    samples: dict[str, list[float]] = {
        "setup_s": [s.wall for s in steps if s.name == "synth" and s.failed_ops == 0],
        "tasks_per_s": [p.main_ops / p.step(workload.kind).wall for p in untraced],
        "report_s": [p.step("report").wall for p in untraced]
        + [s.wall for s in extra_steps if s.name == "report" and s.failed_ops == 0],
        "total_s": [p.total_s for p in untraced],
        "peak_rss_mb": [max(s.rss_mb for s in p.steps) for p in untraced],
        "success_frac": [1.0 - failed / attempted],
        "failed_frac": [failed / attempted],
        "oos_r2_frac_pos": [p.oos_r2_frac_pos for p in good if p.oos_r2_frac_pos is not None],
        "truth_recall": [p.truth_recall for p in good if p.truth_recall is not None],
    }
    result["samples"] = samples
    result["metrics"] = {name: median(v) for name, v in samples.items()}
    if per_layer is not None:
        result["per_layer"] = per_layer

    result["load_after"] = os.getloadavg()
    for p in passes:
        for junk in p.dir.glob("*.csv"):
            junk.unlink()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(result, indent=1, default=str))
    return result


def print_result(result: dict, layer_doc: dict) -> None:
    prov = result["provenance"]
    print(
        f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
        f"nproc={prov['nproc']} cpu={prov['cpu_model']!r} python={prov['python']} "
        f"numpy={prov['numpy']} scipy={prov['scipy']} commit={prov['git_commit']}"
    )
    print(
        f"load average before {tuple(round(x, 2) for x in result['load_before'])} "
        f"after {tuple(round(x, 2) for x in result['load_after'])}"
    )
    for name, ok, detail in result["checks"]:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    if not result["trace"]:
        # A run has fewer than 11 samples of each timing, so no tail
        # percentile has 10 samples beyond it; the samples are listed.
        print(f"{'metric':18} {'unit':6} {'value':>12} {'n':>3}  samples")
        for name, unit in {**E2E_UNITS, **INFO_UNITS}.items():
            values = result["samples"][name]
            shown = ", ".join(f"{v:.4g}" for v in values)
            print(f"{name:18} {unit:6} {result['metrics'][name]:>12.6g} {len(values):>3}  [{shown}]")
        return
    per = result["per_layer"]
    print(f"{'per-layer metric':32} {'unit':6} {'value':>14}  note")
    for name, m in per.items():
        print(f"{name:32} {m['unit']:6} {m['value']:>14.6g}  {m['note'] or ''}")
    print("module share of operation time (no gate):")
    for module in ("panel", "learners", "shapley"):
        print(f"  {module:9} {per[module + '.share']['value']:.3f}")
    print(f"  {'radar':9} {per['radar.self_share']['value']:.3f} (self)")
    for layer in layer_doc["layers"]:
        moved = [m for m, names in layer["moves"].items() if result["workload"] in names]
        print(f"layer {layer['layer']}: predicted to move {', '.join(moved) or 'no end-to-end metric'} here")
    for metric, by_workload in layer_doc["expectations"].items():
        rule = by_workload.get(result["workload"])
        if rule:
            op, bound = rule
            value = per[metric]["value"]
            held = value >= bound if op == ">=" else value < bound
            print(f"expectation {metric} {op} {bound} on {result['workload']}: "
                  f"{value:.4f} ({'held' if held else 'NOT HELD'})")


def main(args, spawner) -> int:
    """Run the workloads through ``spawner`` (see spawner.py) and print."""
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    layer_doc = json.loads((HERE / "layers.json").read_text())
    results = [
        run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), spawner) for n in names
    ]
    for r in results:
        print_result(r, layer_doc)

    def block(r: dict) -> dict:
        if r["trace"]:
            return {k: {"value": m["value"], "unit": m["unit"]} for k, m in r["per_layer"].items()}
        return {k: {"value": r["metrics"][k], "unit": u} for k, u in E2E_UNITS.items()}

    if len(results) == 1:
        metrics = block(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in block(r).items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0

