import csv
import datetime as dt
import math

import numpy as np
import pytest

from marketradar.learners import LassoParams, fit_ols
from marketradar.panel import SignalId, build_signal_block, read_panel_csv
from marketradar.radar import RadarConfig, run_radar
from marketradar.report import compute_r2_records
from marketradar.synth import (
    ScenarioError,
    ScenarioSpec,
    decay_profile,
    generate,
    read_factors_csv,
    write_scenario,
)
from marketradar.trading_calendar import quarter_of


class TestDecayProfile:
    def test_geometric_half(self):
        np.testing.assert_allclose(decay_profile("geometric", 4, rho=0.5), [1, 0.5, 0.25, 0.125])

    def test_geometric_one_is_flat(self):
        np.testing.assert_allclose(decay_profile("geometric", 3, rho=1.0), [1, 1, 1])

    def test_linear(self):
        np.testing.assert_allclose(decay_profile("linear", 4), np.array([4, 3, 2, 1]) / 10)

    def test_weakly_decreasing_when_rho_below_one(self):
        profile = decay_profile("geometric", 6, rho=0.8)
        assert np.all(np.diff(profile) <= 0)
        assert np.all(profile >= 0)


class TestSpecChecks:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"decay": "custom"},
            {"decay_rho": -0.1},
            {"cap_sd": -1.0},
            {"noise_sd": math.inf},
            {"loading_scale": (0.5, math.nan)},
            {"mkt_beta": (-1e308, 1e308)},
            {"regime_breaks": {(2016, 2): math.nan}},
            {"start_year": 0},
            {"start_year": 9999, "n_quarters": 4},
            {"lags": 10**6},
        ],
        ids=repr,
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ScenarioError):
            ScenarioSpec(**kwargs)

    def test_last_quarter_of_year_9999_accepted(self):
        assert ScenarioSpec(start_year=9999, n_quarters=3).n_quarters == 3


class TestGenerate:
    def test_same_seed_identical(self):
        spec = ScenarioSpec(n_assets=3, n_markets=2, days_per_quarter=10, n_quarters=3,
                            markets_per_asset=1, noise_sd=0.01, seed=5)
        a, b = generate(spec), generate(spec)
        for e in a.assets.entity_ids:
            np.testing.assert_array_equal(a.assets.series(e).values, b.assets.series(e).values)
        for m in a.markets.entity_ids:
            np.testing.assert_array_equal(a.markets.series(m).values, b.markets.series(m).values)
        assert a.truth.loadings == b.truth.loadings

    def test_different_seed_differs(self):
        base = ScenarioSpec(n_assets=3, n_markets=2, days_per_quarter=10, n_quarters=3,
                            markets_per_asset=1, noise_sd=0.01, seed=5)
        other = ScenarioSpec(**{**base.__dict__, "seed": 6})
        a, b = generate(base), generate(other)
        assert any(
            not np.array_equal(a.assets.series(e).values, b.assets.series(e).values)
            for e in a.assets.entity_ids
        )

    def test_days_per_quarter_respected(self):
        spec = ScenarioSpec(n_assets=1, n_markets=1, days_per_quarter=17, n_quarters=4,
                            markets_per_asset=1, seed=0)
        sc = generate(spec)
        cal = sc.calendar()
        for q in cal.quarters():
            assert len(cal.days_in_quarter(q)) == 17

    def test_unexposed_assets_have_zero_loadings(self):
        spec = ScenarioSpec(n_assets=10, n_markets=3, days_per_quarter=10, n_quarters=2,
                            exposed_fraction=0.3, noise_sd=0.01, seed=1)
        sc = generate(spec)
        for a, flag in sc.truth.exposed.items():
            if not flag:
                assert sc.truth.loadings[a] == {}
        assert len(sc.truth.exposed_assets()) == 3

    def test_noise_free_ols_recovers_loadings(self):
        spec = ScenarioSpec(n_assets=2, n_markets=2, days_per_quarter=40, n_quarters=4,
                            exposed_fraction=1.0, noise_sd=0.0, markets_per_asset=2, seed=2)
        sc = generate(spec)
        asset = sc.truth.exposed_assets()[0]
        dates = [d for d in sc.assets.dates()]
        block = build_signal_block(sc.markets, sc.assets, dates, spec.lags, asset)
        model = fit_ols(block.values, block.target)
        for sig, loading in sc.truth.loadings[asset].items():
            j = block.columns.index(sig)
            assert model.coef[j] == pytest.approx(loading, abs=1e-6)

    def test_market_returns_feed_signals(self):
        # asset return on day d is exactly loadings . signal vector (noise 0)
        spec = ScenarioSpec(n_assets=1, n_markets=2, days_per_quarter=30, n_quarters=2,
                            exposed_fraction=1.0, noise_sd=0.0, markets_per_asset=2, seed=3)
        sc = generate(spec)
        asset = sc.truth.exposed_assets()[0]
        dates = list(sc.assets.dates())[:10]
        block = build_signal_block(sc.markets, sc.assets, dates, spec.lags, asset)
        weights = np.zeros(len(block.columns))
        for sig, loading in sc.truth.loadings[asset].items():
            weights[block.columns.index(sig)] = loading
        np.testing.assert_allclose(block.values @ weights, block.target, atol=1e-12)

    def test_unexposed_population_has_no_predictability(self):
        spec = ScenarioSpec(n_assets=12, n_markets=3, days_per_quarter=25, n_quarters=6,
                            exposed_fraction=0.0, noise_sd=0.01, seed=4)
        sc = generate(spec)
        cfg = RadarConfig(algorithms=("lasso",), min_train_rows=60, importance=False,
                          hyperparameters={"lasso": LassoParams(alpha=1e-4)})
        table, _, _ = run_radar(sc.assets, sc.markets, cfg)
        records = compute_r2_records(table, sc.assets)
        mean_r2 = np.mean([r.value for r in records])
        assert mean_r2 < 0.005


class TestRegimeBreak:
    def test_break_window_raises_signal_importance(self):
        from marketradar.trading_calendar import quarter_range, shift_quarter

        base_kw = dict(
            n_assets=6, n_markets=2, days_per_quarter=40, n_quarters=7,
            exposed_fraction=1.0, noise_sd=0.005, markets_per_asset=1,
            loading_scale=(0.5, 1.0), seed=321,
        )
        break_q = (2017, 1)
        plain = generate(ScenarioSpec(**base_kw))
        boosted = generate(ScenarioSpec(**base_kw, regime_breaks={break_q: 2.0}))
        cfg = RadarConfig(
            algorithms=("lasso",), importance=True, min_train_rows=60,
            hyperparameters={"lasso": LassoParams(alpha=1e-5)},
        )

        def mean_importance(scenario, window_contains_break):
            _, imps, _ = run_radar(scenario.assets, scenario.markets, cfg)
            vals = []
            for r in imps:
                window = quarter_range(shift_quarter(r.quarter, -1), 4)
                if (break_q in window) == window_contains_break:
                    if scenario.truth.loadings[r.asset].get(r.signal, 0.0) != 0.0:
                        vals.append(r.value)
            return float(np.mean(vals))

        # untouched windows identical; break-covering windows amplified
        assert mean_importance(plain, False) == pytest.approx(
            mean_importance(boosted, False), abs=1e-15
        )
        assert mean_importance(boosted, True) > 1.1 * mean_importance(plain, True)

    def test_break_quarter_amplifies_returns(self):
        base_spec = ScenarioSpec(
            n_assets=4, n_markets=2, days_per_quarter=30, n_quarters=4,
            exposed_fraction=1.0, noise_sd=0.0, markets_per_asset=1, seed=9,
        )
        boosted_spec = ScenarioSpec(
            **{**base_spec.__dict__, "regime_breaks": {(2016, 3): 2.0}}
        )
        base, boosted = generate(base_spec), generate(boosted_spec)
        asset = base.truth.exposed_assets()[0]
        sa, sb = base.assets.series(asset), boosted.assets.series(asset)
        for o, va, vb in zip(sa.ordinals, sa.values, sb.values):
            q = quarter_of(dt.date.fromordinal(int(o)))
            if q == (2016, 3):
                assert vb == pytest.approx(2.0 * va, abs=1e-12)
            else:
                assert vb == pytest.approx(va, abs=1e-12)


class TestScenarioFiles:
    def test_write_and_reread(self, tmp_path):
        spec = ScenarioSpec(n_assets=2, n_markets=2, days_per_quarter=8, n_quarters=2,
                            markets_per_asset=1, noise_sd=0.005, seed=6)
        sc = generate(spec)
        paths = write_scenario(sc, tmp_path)
        returns = read_panel_csv(paths["returns"])
        assert returns.entity_ids == sc.assets.entity_ids
        factors = read_factors_csv(paths["factors"])
        assert set(factors) == {"MKT", "RF"}
        caps = read_panel_csv(paths["caps"], check_returns=False)
        assert caps.entity_ids == sc.assets.entity_ids
        truth_lines = paths["truth"].read_text().splitlines()
        assert truth_lines[0] == "asset,source,lag_week,loading"

    def test_rerun_identical_bytes(self, tmp_path):
        spec = ScenarioSpec(n_assets=2, n_markets=1, days_per_quarter=6, n_quarters=2,
                            markets_per_asset=1, seed=8)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_scenario(generate(spec), a_dir)
        write_scenario(generate(spec), b_dir)
        for name in ("returns.csv", "markets.csv", "factors.csv", "caps.csv", "truth.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_truth_loadings_parse_as_floats(self, tmp_path):
        spec = ScenarioSpec(n_assets=3, n_markets=2, days_per_quarter=6, n_quarters=2,
                            exposed_fraction=1.0, markets_per_asset=1, seed=4)
        sc = generate(spec)
        with open(write_scenario(sc, tmp_path)["truth"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * spec.lags
        for row in rows:
            sig = SignalId(row["source"], int(row["lag_week"]))
            assert float(row["loading"]) == sc.truth.loadings[row["asset"]][sig]
