import datetime as dt
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketradar
from marketradar.panel import ReturnPanel
from marketradar.portfolio import (
    PortfolioError,
    PortfolioSeries,
    apply_costs,
    bottom_up_index_forecast,
    build_series,
    combine,
    long_short,
    market_timing,
    performance_stats,
    rank_deciles,
    rank_select,
    timing_exposure,
    turnover,
)

D = dt.date


def series(returns, start=D(2020, 1, 1), turnover_values=None, name="s"):
    dates = [start + dt.timedelta(days=i) for i in range(len(returns))]
    to = None if turnover_values is None else np.array(turnover_values, dtype=float)
    return PortfolioSeries(dates=dates, returns=np.array(returns, dtype=float), turnover=to, name=name)


# The day loop that build_series replaced, kept as its reference: a dict of
# weights per day, every sum a plain float loop over the sorted members, the
# weight checks of the old per-day weight row inline.
def day_loop_build_series(members_by_date, returns, weighting="equal", caps=None, name=""):
    if weighting not in ("equal", "value"):
        raise PortfolioError(f"unknown weighting {weighting!r}")
    if weighting == "value" and caps is None:
        raise PortfolioError("value weighting requires a caps panel")

    dates = sorted(d for d, members in members_by_date.items() if members)
    universe = sorted({a for d in dates for a in members_by_date[d]})
    day_returns = returns.rows(dates, universe)
    if weighting == "value":
        prior_caps = caps.rows_before(dates, universe)
    rets: list[float] = []
    tos: list[float] = []
    prev_weights: dict[str, float] | None = None
    for i, d in enumerate(dates):
        members = sorted(members_by_date[d])
        day = dict(zip(universe, day_returns[i].tolist()))
        if weighting == "equal":
            w = {a: 1.0 / len(members) for a in members}
        else:
            cap_now = dict(zip(universe, prior_caps[i].tolist()))
            raw = {a: cap_now[a] for a in members}
            for a in members:
                if math.isnan(raw[a]):
                    raise PortfolioError(f"missing market cap for {a} before {d.isoformat()}")
            total = sum(raw.values())
            if total <= 0:
                raise PortfolioError(f"nonpositive total cap on {d.isoformat()}")
            w = {a: c / total for a, c in raw.items()}
        for a in members:
            if math.isnan(day[a]):
                raise PortfolioError(f"missing return for {a} on {d.isoformat()}")
        rets.append(sum(w[a] * day[a] for a in members))
        if prev_weights is None:
            tos.append(0.0)
        else:
            drift_rets = {a: 0.0 if math.isnan(day[a]) else day[a] for a in prev_weights}
            tos.append(dict_loop_turnover(prev_weights, drift_rets, w))
        if any(v < 0 for v in w.values()):
            raise PortfolioError("single-side weights must be nonnegative")
        if w and abs(sum(w.values()) - 1.0) > 1e-10:
            raise PortfolioError(f"weights sum to {sum(w.values())}, expected 1")
        prev_weights = w
    return PortfolioSeries(dates=dates, returns=np.array(rets), turnover=np.array(tos), name=name)


def dict_loop_turnover(w_prev, r_today, w_today):
    drifted_sum = sum(w * (1.0 + r_today.get(a, 0.0)) for a, w in w_prev.items())
    if drifted_sum <= 0:
        raise PortfolioError("drifted prior weights sum to zero")
    total = 0.0
    for a in sorted(set(w_prev) | set(w_today)):
        drifted = w_prev.get(a, 0.0) * (1.0 + r_today.get(a, 0.0)) / drifted_sum
        total += abs(w_today.get(a, 0.0) - drifted)
    return 0.5 * total


@st.composite
def books(draw, faults=True):
    """(members by date, returns, weighting, caps) over up to 10 assets and 12
    days.  Dates have gaps; books hold one member, every asset, at least 8 or
    any number; returns include 0.0 and -0.0.  With ``faults``, returns and
    caps may be missing (a prior member's return among them) and caps
    negative."""
    assets = [f"A{i:02d}" for i in range(draw(st.sampled_from([1, 2, 3, 8, 10])))]
    n = len(assets)
    days = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True)))
    sizes = st.sampled_from(sorted({0, 1, min(8, n), n})) | st.integers(0, n)
    members = {D(2020, 1, day): draw(st.permutations(assets))[: draw(sizes)] for day in days}
    ret = st.sampled_from([0.0, -0.0]) | st.floats(-0.5, 0.5)
    cap = st.floats(0.01, 1e6) | (st.floats(-5.0, 5.0) if faults else st.floats(0.5, 2.0))
    returns = {(D(2020, 1, day), a): draw(ret) for day in range(1, 13) for a in assets}
    cap_days = [D(2019, 12, 31) + dt.timedelta(day) for day in range(12)]
    caps = {(d, a): draw(cap) for d in cap_days for a in assets}
    if faults:
        for key in draw(st.sets(st.sampled_from(sorted(returns)), max_size=2)):
            del returns[key]
        uncapped, first_cap = draw(st.sampled_from(assets)), draw(st.integers(0, 12))
        for d in cap_days[:first_cap]:  # no cap for one asset before cap_days[first_cap]
            del caps[(d, uncapped)]
        if draw(st.booleans()):  # members leaving a book have no return on its next date
            held = [members[d] for d in sorted(members)]
            for d, before, now in zip(sorted(members)[1:], held, held[1:]):
                for a in set(before) - set(now):
                    returns.pop((d, a), None)
    return (
        members,
        ReturnPanel.from_records((d, a, r) for (d, a), r in returns.items()),
        draw(st.sampled_from(["equal", "value"])),
        ReturnPanel.from_records(((d, a, c) for (d, a), c in caps.items()), check_returns=False),
    )


class TestRankSelect:
    def test_five_percent_of_500_gives_25(self):
        forecasts = {f"A{i:03d}": float(i) for i in range(500)}
        sel = rank_select(forecasts, 0.05)
        assert len(sel.top) == 25
        assert len(sel.bottom) == 25
        assert set(sel.top).isdisjoint(sel.bottom)

    def test_ten_names_one_per_decile(self):
        forecasts = {f"A{i}": float(i) for i in range(10)}
        deciles = rank_deciles(forecasts)
        assert [len(d) for d in deciles] == [1] * 10
        assert deciles[9] == ("A9",)  # High (10)
        assert deciles[0] == ("A0",)  # Low (1)

    def test_equal_forecasts_tie_break_by_identifier(self):
        forecasts = {f"A{i}": 0.5 for i in range(20)}
        sel = rank_select(forecasts, 0.1)
        assert sel.top == ("A0", "A1")
        assert sel.bottom == ("A0", "A1")

    def test_too_few_names_empty_with_note(self):
        sel = rank_select({"A": 1.0, "B": 2.0}, 0.05)
        assert sel.top == () and sel.bottom == ()


class TestBuildSeries:
    def _returns(self, rows):
        return ReturnPanel.from_records(rows)

    def test_equal_weighting(self):
        panel = self._returns([(D(2020, 1, 2), "A", 0.01), (D(2020, 1, 2), "B", 0.03)])
        s, weights = build_series({D(2020, 1, 2): ["A", "B"]}, panel)
        assert s.returns[0] == pytest.approx(0.02)
        assert weights[:, 0].tolist() == [0.5, 0.5]

    def test_value_weighting_hand_case(self):
        rets = self._returns([(D(2020, 1, 2), "A", 0.00), (D(2020, 1, 2), "B", 0.04)])
        caps = ReturnPanel.from_records(
            [(D(2020, 1, 1), "A", 3.0), (D(2020, 1, 1), "B", 1.0)], check_returns=False
        )
        s, weights = build_series({D(2020, 1, 2): ["A", "B"]}, rets, "value", caps)
        assert s.returns[0] == pytest.approx(0.01)
        assert weights[0, 0] == pytest.approx(0.75)

    def test_single_member(self):
        panel = self._returns([(D(2020, 1, 2), "A", -0.015)])
        s, _ = build_series({D(2020, 1, 2): ["A"]}, panel)
        assert s.returns[0] == pytest.approx(-0.015)

    def test_missing_cap_names_asset_and_date(self):
        rets = self._returns([(D(2020, 1, 2), "A", 0.0)])
        caps = ReturnPanel.from_records([(D(2020, 1, 3), "A", 1.0)], check_returns=False)
        with pytest.raises(PortfolioError, match="A before 2020-01-02"):
            build_series({D(2020, 1, 2): ["A"]}, rets, "value", caps)

    def test_value_weighting_uses_latest_earlier_cap(self):
        # no cap for A on the prior day: its cap from two days before counts
        rets = self._returns([(D(2020, 1, 3), "A", 0.00), (D(2020, 1, 3), "B", 0.04)])
        caps = ReturnPanel.from_records(
            [(D(2020, 1, 1), "A", 3.0), (D(2020, 1, 1), "B", 9.0), (D(2020, 1, 2), "B", 1.0)],
            check_returns=False,
        )
        s, weights = build_series({D(2020, 1, 3): ["A", "B"]}, rets, "value", caps)
        assert weights[:, 0].tolist() == [0.75, 0.25]
        assert s.returns[0] == pytest.approx(0.01)

    def test_asset_without_caps_errors(self):
        rets = self._returns([(D(2020, 1, 3), "A", 0.0), (D(2020, 1, 3), "B", 0.0)])
        caps = ReturnPanel.from_records([(D(2020, 1, 2), "A", 1.0)], check_returns=False)
        with pytest.raises(PortfolioError, match="missing market cap for B before 2020-01-03"):
            build_series({D(2020, 1, 3): ["A", "B"]}, rets, "value", caps)

    def test_missing_return_errors(self):
        panel = self._returns([(D(2020, 1, 2), "A", 0.01)])
        with pytest.raises(PortfolioError, match="missing return"):
            build_series({D(2020, 1, 2): ["A", "B"]}, panel)


    def test_negative_cap_errors(self):
        rets = self._returns([(D(2020, 1, 2), "A", 0.0), (D(2020, 1, 2), "B", 0.0)])
        caps = ReturnPanel.from_records(
            [(D(2020, 1, 1), "A", 3.0), (D(2020, 1, 1), "B", -1.0)], check_returns=False
        )
        with pytest.raises(PortfolioError, match="single-side weights must be nonnegative"):
            build_series({D(2020, 1, 2): ["A", "B"]}, rets, "value", caps)

    def test_first_fault_is_the_day_loops(self):
        # earliest date first; on one date a missing return before a negative weight
        rets = self._returns([(D(2020, 1, 3), "A", 0.0), (D(2020, 1, 4), "A", 0.0)])
        caps = ReturnPanel.from_records(
            [(D(2020, 1, 2), "A", 3.0), (D(2020, 1, 2), "B", -1.0)], check_returns=False
        )
        same_day = {D(2020, 1, 3): ["A", "B"]}
        with pytest.raises(PortfolioError, match="^missing return for B on 2020-01-03$"):
            build_series(same_day, rets, "value", caps)
        two_days = {D(2020, 1, 3): ["A", "B"], D(2020, 1, 4): ["A", "C"]}
        rets = self._returns([(D(2020, 1, 3), a, 0.0) for a in "AB"] + [(D(2020, 1, 4), "A", 0.0)])
        with pytest.raises(PortfolioError, match="^single-side weights must be nonnegative$"):
            build_series(two_days, rets, "value", caps)

    def test_one_date_wide_books_add_in_id_order(self):
        # a one-date book collapses numpy's sum to one dimension, where it adds
        # pairwise; build_series must still add member by member
        rng = np.random.default_rng(5)
        day, before = D(2020, 1, 2), D(2020, 1, 1)
        names = [f"A{i:02d}" for i in range(12)]
        for _ in range(50):
            rets = self._returns([(day, n, r) for n, r in zip(names, rng.normal(0, 0.02, 12))])
            caps = ReturnPanel.from_records(
                [(before, n, c) for n, c in zip(names, rng.lognormal(3, 1, 12))], check_returns=False
            )
            for weighting in ("equal", "value"):
                args = ({day: names}, rets, weighting, caps)
                got, expected = build_series(*args)[0], day_loop_build_series(*args)
                assert got.returns.tobytes() == expected.returns.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_bits_and_errors_as_the_day_loop(self, data):
        args = data.draw(books())
        try:
            expected = day_loop_build_series(*args)
        except PortfolioError as exc:
            with pytest.raises(PortfolioError) as raised:
                build_series(*args)
            assert str(raised.value) == str(exc)
            return
        got, _ = build_series(*args)
        assert got.dates == expected.dates
        assert got.returns.tobytes() == expected.returns.tobytes()
        assert got.turnover.tobytes() == expected.turnover.tobytes()


class TestLongShortCombine:
    def test_identical_legs_cancel(self):
        s = series([0.001, -0.002, 0.0005])
        ls = long_short(s, s)
        np.testing.assert_allclose(ls.returns, 0.0)

    def test_hand_difference(self):
        ls = long_short(series([0.0010]), series([0.0004]))
        assert ls.returns[0] == pytest.approx(0.0006)

    def test_disjoint_dates_error(self):
        a = series([0.01], start=D(2020, 1, 1))
        b = series([0.01], start=D(2021, 1, 1))
        with pytest.raises(PortfolioError, match="common"):
            long_short(a, b)

    def test_empty_books_give_empty_series(self):
        # books that never held a member: nothing to align, nothing to report
        empty = series([])
        assert len(long_short(empty, empty)) == 0
        assert len(combine([empty, empty])) == 0

    def test_combine_leaves_out_empty_members(self):
        s = series([0.01, 0.02], turnover_values=[0.0, 0.2])
        c = combine([s, series([])])
        assert c.dates == s.dates
        np.testing.assert_array_equal(c.returns, s.returns)
        np.testing.assert_array_equal(c.turnover, s.turnover)

    def test_combine_identity(self):
        s = series([0.01, 0.02])
        np.testing.assert_allclose(combine([s, s]).returns, s.returns)

    def test_combine_hand_mean(self):
        c = combine([series([0.0]), series([0.0008])])
        assert c.returns[0] == pytest.approx(0.0004)

    def test_four_series_mean(self):
        values = [0.001, 0.002, 0.003, 0.006]
        c = combine([series([v]) for v in values])
        assert c.returns[0] == pytest.approx(0.003)

    @pytest.mark.parametrize("k", [3, 4])
    def test_combine_is_the_per_date_numpy_mean_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        members = []
        for i in range(k):
            offsets = np.sort(rng.choice(60, size=45, replace=False))
            members.append(PortfolioSeries(
                dates=[D(2020, 1, 1) + dt.timedelta(days=int(o)) for o in offsets],
                returns=rng.normal(0.0, 0.01, 45) * 10.0 ** rng.integers(-4, 2, 45),
                turnover=rng.random(45),
                name=f"m{i}",
            ))
        c = combine(members)
        rets = [dict(zip(s.dates, s.returns)) for s in members]
        tos = [dict(zip(s.dates, s.turnover)) for s in members]
        common = sorted(set.intersection(*(set(m) for m in rets)))
        assert common and c.dates == common
        mean = lambda maps: np.array([np.mean([m[d] for m in maps]) for d in common])
        assert c.returns.tobytes() == mean(rets).tobytes()
        assert c.turnover.tobytes() == mean(tos).tobytes()

    def test_combine_averages_turnover(self):
        a = series([0.01, 0.01], turnover_values=[0.0, 0.2])
        b = series([0.02, 0.00], turnover_values=[0.0, 0.4])
        c = combine([a, b])
        np.testing.assert_allclose(c.turnover, [0.0, 0.3])


class TestTurnover:
    def test_static_book_zero(self):
        w = {"A": 0.5, "B": 0.5}
        assert turnover(w, {"A": 0.0, "B": 0.0}, w) == pytest.approx(0.0)

    def test_full_replacement_is_one(self):
        w_prev = {"A": 0.5, "B": 0.5}
        w_today = {"C": 0.5, "D": 0.5}
        assert turnover(w_prev, {"A": 0.0, "B": 0.0}, w_today) == pytest.approx(1.0)

    def test_independent_of_hash_seed(self):
        # tiny gaps vanish when added after the two 0.5 gaps but not before,
        # so the result shows the order in which the assets are summed
        script = (
            "from marketradar.portfolio import turnover\n"
            "w_today = {'X': 0.5, 'Y': 0.5, **{f't{i}': 1e-16 for i in range(8)}}\n"
            "print(repr(turnover({'X': 1.0}, {}, w_today)))\n"
        )
        src = str(Path(marketradar.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_drift_hand_case(self):
        w = {"A": 0.5, "B": 0.5}
        value = turnover(w, {"A": 0.10, "B": 0.00}, w)
        expected = 0.5 * (abs(0.5 - 0.55 / 1.05) + abs(0.5 - 0.5 / 1.05))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.0238, abs=1e-4)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
        st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=6, max_size=6),
    )
    def test_bounded_between_zero_and_one(self, raw_weights, rets):
        total = sum(raw_weights)
        names = [f"A{i}" for i in range(len(raw_weights))]
        w_prev = {n: v / total for n, v in zip(names, raw_weights)}
        w_today = dict(reversed(list(w_prev.items())))
        r = {n: rets[i] for i, n in enumerate(names)}
        value = turnover(w_prev, r, w_today)
        assert -1e-12 <= value <= 1.0 + 1e-12


class TestCostsAndStats:
    def test_paper_cost_arithmetic(self):
        gross = series([10.40e-4] * 5, turnover_values=[0.328] * 5)
        net = apply_costs(gross, cost_bps=6.24)
        assert np.mean(net.returns) * 1e4 == pytest.approx(8.35, abs=0.01)

    def test_zero_turnover_keeps_gross(self):
        gross = series([0.001, 0.002], turnover_values=[0.0, 0.0])
        net = apply_costs(gross, cost_bps=6.24)
        np.testing.assert_allclose(net.returns, gross.returns)

    def test_combined_net_annualization(self):
        gross = series([9.87e-4] * 5, turnover_values=[0.422] * 5)
        net = apply_costs(gross, cost_bps=6.24)
        annual = np.mean(net.returns) * 252
        assert annual == pytest.approx(0.1819, abs=0.0006)

    def test_zero_volatility_errors(self):
        s = series([0.0001] * 10)
        with pytest.raises(PortfolioError, match="volatility"):
            performance_stats(s, 0.0)

    def test_constant_up_to_rounding_is_zero_volatility(self):
        # a long-short spread of 0.001*i + 0.0001*day legs: 0.018 every day
        # up to rounding, with a sample sd of that rounding (~1e-18)
        returns = [(0.019 + 0.0001 * k) - (0.001 + 0.0001 * k) for k in range(5)]
        assert np.std(returns, ddof=1) > 0.0
        with pytest.raises(PortfolioError, match="zero volatility"):
            performance_stats(series(returns), 0.0)

    def test_alternating_returns_zero_sharpe(self):
        s = series([0.01, -0.01] * 30)
        stats = performance_stats(s, 0.0)
        assert stats.sharpe == pytest.approx(0.0, abs=1e-12)

    def test_max_quarter_loss_compounds(self):
        rets = [-0.005] * 60 + [0.001] * 60
        dates = [D(2020, 1, 1) + dt.timedelta(days=i) for i in range(60)]
        dates += [D(2020, 7, 1) + dt.timedelta(days=i) for i in range(60)]
        s = PortfolioSeries(dates=dates, returns=np.array(rets))
        stats = performance_stats(s, 0.0)
        assert stats.max_quarter_loss == pytest.approx(0.995**60 - 1, abs=1e-12)
        assert stats.max_quarter_loss == pytest.approx(-0.2597, abs=5e-4)


class TestBottomUpAndTiming:
    def test_forced_zero(self):
        value = bottom_up_index_forecast({"A": 0.01, "B": -0.02}, {"A": 2.0, "B": 1.0})
        assert value == pytest.approx(0.0)

    def test_single_stock(self):
        assert bottom_up_index_forecast({"A": 0.03}, {"A": 5.0}) == pytest.approx(0.03)

    def test_missing_caps_error(self):
        with pytest.raises(PortfolioError, match="missing caps"):
            bottom_up_index_forecast({"A": 0.01}, {})

    def test_exposure_rules(self):
        assert timing_exposure([0.01, 0.02, 0.03, 0.04], 2) == 2.0
        assert timing_exposure([0.01, -0.02, 0.03, 0.04], 2) == 1.0
        assert timing_exposure([-0.01, -0.02, -0.03, -0.04], 2) == -1.0
        assert timing_exposure([0.0, 0.01, 0.02, 0.03], 3) == 1.0  # zero blocks consensus

    def test_market_timing_series_and_turnover(self):
        dates = [D(2020, 1, 1) + dt.timedelta(days=i) for i in range(4)]
        f_pos, f_neg, f_mix = 0.01, -0.01, 0.0
        forecasts = {
            "lasso": {dates[0]: f_pos, dates[1]: f_pos, dates[2]: f_neg, dates[3]: f_mix},
            "gb": {dates[0]: f_pos, dates[1]: f_pos, dates[2]: f_neg, dates[3]: f_neg},
        }
        index = {d: 0.01 for d in dates}
        s = market_timing(forecasts, index, upside_leverage=2)
        np.testing.assert_allclose(s.returns, [0.02, 0.02, -0.01, 0.01])
        np.testing.assert_allclose(s.turnover, [0.0, 0.0, 1.0, 1.0])

    def test_leverage_validation(self):
        with pytest.raises(PortfolioError):
            market_timing({"a": {D(2020, 1, 1): 0.1}}, {D(2020, 1, 1): 0.0}, upside_leverage=5)


class TestWeightInvariants:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_weights_nonnegative_zero_outside_book_sum_to_one(self, data):
        members_by_date, rets, weighting, caps = data.draw(books(faults=False))
        _, weights = build_series(members_by_date, rets, weighting, caps)
        dates = sorted(d for d, m in members_by_date.items() if m)
        universe = sorted({a for d in dates for a in members_by_date[d]})
        held = np.array([[a in members_by_date[d] for d in dates] for a in universe], dtype=bool)
        held = held.reshape(len(universe), len(dates))
        assert weights.shape == held.shape
        assert np.all(weights >= 0.0)
        assert np.all(weights[~held] == 0.0)
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_equal_weight_top_fraction_matches_mean(self):
        rng = np.random.default_rng(0)
        names = [f"A{i:02d}" for i in range(40)]
        day = D(2020, 1, 2)
        rets = {n: float(rng.normal(0, 0.01)) for n in names}
        panel = ReturnPanel.from_records([(day, n, r) for n, r in rets.items()])
        sel = rank_select({n: rets[n] for n in names}, 0.1)
        s, _ = build_series({day: list(sel.top)}, panel)
        assert s.returns[0] == pytest.approx(np.mean([rets[n] for n in sel.top]))
