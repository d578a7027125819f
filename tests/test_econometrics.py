import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketradar.econometrics import (
    R2Record,
    RegressionError,
    dissemination_window,
    factor_alpha,
    fe_regression,
    importance_lag_regression,
    ols,
    positive_r2_keys,
    r2_oos,
    sparsity_fraction,
    summarize_r2,
    to_monthly,
)
from marketradar.panel import SignalId
from marketradar.shapley import ImportanceRecord

D = dt.date


def reference_dissemination_window(intercept: float, slope: float, form: str = "linear") -> int:
    """The week-by-week scan that ``dissemination_window`` replaced: the
    oracle for its closed form wherever the scan ends within its limit."""
    if slope >= 0:
        raise RegressionError("no decay: slope must be negative")
    if form == "linear":
        g = lambda w: float(w)
    elif form == "exp":
        def g(w: int) -> float:
            try:
                return math.exp(w)
            except OverflowError:
                return math.inf
    else:
        raise RegressionError(f"unknown form {form!r}")
    if intercept + slope * g(1) <= 0:
        return 0
    w = 1
    limit = 10_000_000
    while w < limit:
        if intercept + slope * g(w + 1) <= 0:
            return w
        w += 1
    raise RegressionError("window exceeds iteration limit")


class TestR2Oos:
    def test_perfect_prediction(self):
        r = np.array([0.01, -0.02, 0.005])
        assert r2_oos(r, r) == pytest.approx(1.0)

    def test_zero_prediction_gives_zero(self):
        r = np.array([0.01, -0.02, 0.005])
        assert r2_oos(r, np.zeros(3)) == pytest.approx(0.0)

    def test_hand_case(self):
        assert r2_oos(np.array([0.01, -0.02]), np.array([0.0, -0.01])) == pytest.approx(0.6)

    def test_all_zero_realized_errors(self):
        with pytest.raises(RegressionError, match="denominator"):
            r2_oos(np.zeros(3), np.ones(3))

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.normal(size=10)
            p = rng.normal(size=10)
            assert r2_oos(r, p) <= 1.0


class TestSummarizeR2:
    def test_basic_rollup(self):
        records = [
            R2Record("A", (2020, 1), "lasso", 0.02),
            R2Record("B", (2020, 1), "lasso", -0.01),
        ]
        summary = summarize_r2(records, ["lasso"])
        s = summary.per_algo["lasso"]
        assert s.fraction_positive == pytest.approx(0.5)
        assert s.mean_positive == pytest.approx(0.02)

    def test_union_at_least_max_single(self):
        records = [
            R2Record("A", (2020, 1), "lasso", 0.02),
            R2Record("B", (2020, 1), "lasso", -0.01),
            R2Record("A", (2020, 1), "gb", -0.02),
            R2Record("B", (2020, 1), "gb", 0.01),
        ]
        summary = summarize_r2(records, ["lasso", "gb"])
        best = max(s.fraction_positive for s in summary.per_algo.values())
        assert summary.union_fraction >= best
        assert summary.union_fraction == pytest.approx(1.0)

    def test_union_counts_distinct_stock_quarters(self):
        records = [
            R2Record("s1", (2020, 1), "a", 0.1),
            R2Record("s2", (2020, 1), "a", -0.1),
            R2Record("s1", (2020, 1), "b", -0.1),
            R2Record("s2", (2020, 1), "b", 0.1),
        ]
        assert summarize_r2(records, ["a", "b"]).union_fraction == pytest.approx(1.0)
        assert positive_r2_keys(records) == {
            ("s1", (2020, 1), "a"),
            ("s2", (2020, 1), "b"),
        }


def hand_sandwich(D_mat, y, kind, clusters=None):
    """Textbook formulas spelled out with explicit loops."""
    n, p = D_mat.shape
    bread = np.linalg.inv(D_mat.T @ D_mat)
    beta = bread @ D_mat.T @ y
    e = y - D_mat @ beta
    if kind == "hc1":
        meat = np.zeros((p, p))
        for i in range(n):
            xi = D_mat[i][:, None]
            meat += e[i] ** 2 * (xi @ xi.T)
        cov = bread @ meat @ bread * n / (n - p)
    else:
        keys = sorted(set(clusters), key=repr)
        G = len(keys)
        meat = np.zeros((p, p))
        for g in keys:
            s = np.zeros(p)
            for i in range(n):
                if clusters[i] == g:
                    s += D_mat[i] * e[i]
            meat += np.outer(s, s)
        cov = bread @ meat @ bread * (G / (G - 1)) * ((n - 1) / (n - p))
    return beta, np.sqrt(np.diag(cov))


class TestOls:
    def test_exact_fit_zero_se(self):
        x = np.arange(6, dtype=float)
        y = 2.0 + 3.0 * x
        res = ols(y, x[:, None], se="classic")
        assert res.r2 == pytest.approx(1.0)
        np.testing.assert_allclose(res.se, 0.0, atol=1e-10)

    def test_hc1_matches_hand_sandwich(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([1.0, 2.2, 2.9, 4.4, 4.8, 6.3])
        res = ols(y, x[:, None], se="hc1")
        D_mat = np.column_stack([np.ones(6), x])
        beta, se = hand_sandwich(D_mat, y, "hc1")
        np.testing.assert_allclose(res.coef, beta, atol=1e-10)
        np.testing.assert_allclose(res.se, se, atol=1e-10)

    def test_cr1_matches_hand_sandwich(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=12)
        y = 0.5 * x + rng.normal(size=12)
        clusters = ["a", "a", "b", "b", "c", "c", "d", "d", "e", "e", "f", "f"]
        res = ols(y, x[:, None], se="cluster", clusters=clusters)
        D_mat = np.column_stack([np.ones(12), x])
        beta, se = hand_sandwich(D_mat, y, "cluster", clusters)
        np.testing.assert_allclose(res.coef, beta, atol=1e-10)
        np.testing.assert_allclose(res.se, se, atol=1e-10)

    def test_singleton_clusters_equal_hc1(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=15)
        y = x * 0.3 + rng.normal(size=15)
        hc1 = ols(y, x[:, None], se="hc1")
        cr1 = ols(y, x[:, None], se="cluster", clusters=list(range(15)))
        np.testing.assert_allclose(cr1.se, hc1.se, atol=1e-12)

    def test_needs_two_clusters(self):
        with pytest.raises(RegressionError, match="clusters"):
            ols(np.arange(5.0), np.arange(5.0)[:, None], se="cluster", clusters=["a"] * 5)

    def test_singular_design_errors(self):
        x = np.ones((8, 2))
        with pytest.raises(RegressionError, match="singular"):
            ols(np.arange(8.0), x)

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        res = ols(y, X)
        D_mat = np.column_stack([np.ones(50), X])
        resid = y - D_mat @ res.coef
        assert np.max(np.abs(D_mat.T @ resid)) < 1e-8


class TestFactorAlpha:
    def _dates(self, n):
        return [D(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)]

    def test_pure_market_exposure(self):
        dates = self._dates(40)
        rng = np.random.default_rng(4)
        mkt = {d: float(v) for d, v in zip(dates, rng.normal(0, 0.01, 40))}
        port = np.array([mkt[d] for d in dates])
        res = factor_alpha(dates, port, 0.0, {"MKT": mkt})
        alpha, _ = res["alpha"]
        beta, _ = res["MKT"]
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)
        assert res.r2 == pytest.approx(1.0)

    def test_constant_alpha_recovered(self):
        dates = self._dates(30)
        rng = np.random.default_rng(5)
        mkt = {d: float(v) for d, v in zip(dates, rng.normal(0, 0.01, 30))}
        port = np.array([mkt[d] + 2e-4 for d in dates])
        res = factor_alpha(dates, port, 0.0, {"MKT": mkt})
        assert res["alpha"][0] == pytest.approx(2e-4, abs=1e-12)

    def test_planted_loadings_recovered(self):
        dates = self._dates(60)
        rng = np.random.default_rng(6)
        factors = {
            name: {d: float(v) for d, v in zip(dates, rng.normal(0, 0.01, 60))}
            for name in ("MKT", "SMB", "HML", "MOM", "RMW", "CMA")
        }
        loadings = {"MKT": 1.1, "SMB": 0.4, "HML": -0.2, "MOM": 0.15, "RMW": -0.05, "CMA": 0.3}
        port = np.array(
            [sum(loadings[f] * factors[f][d] for f in loadings) + 5e-5 for d in dates]
        )
        res = factor_alpha(dates, port, 0.0, factors)
        assert res["alpha"][0] == pytest.approx(5e-5, abs=1e-8)
        for f, b in loadings.items():
            assert res[f][0] == pytest.approx(b, abs=1e-8)

    def test_misaligned_dates_error(self):
        dates = self._dates(10)
        mkt = {d: 0.0 for d in dates[:5]}
        with pytest.raises(RegressionError, match="missing"):
            factor_alpha(dates, np.zeros(10), 0.0, {"MKT": mkt})

    def test_alpha_linear_in_portfolio_returns(self):
        # the alpha of an equal-weighted combination equals the mean alpha
        dates = self._dates(50)
        rng = np.random.default_rng(7)
        mkt = {d: float(v) for d, v in zip(dates, rng.normal(0, 0.01, 50))}
        port_a = np.array([1.2 * mkt[d] for d in dates]) + rng.normal(0, 0.001, 50)
        port_b = np.array([0.8 * mkt[d] for d in dates]) + rng.normal(0, 0.001, 50)
        alpha_a = factor_alpha(dates, port_a, 0.0, {"MKT": mkt})["alpha"][0]
        alpha_b = factor_alpha(dates, port_b, 0.0, {"MKT": mkt})["alpha"][0]
        alpha_mix = factor_alpha(dates, (port_a + port_b) / 2, 0.0, {"MKT": mkt})["alpha"][0]
        assert alpha_mix == pytest.approx((alpha_a + alpha_b) / 2, abs=1e-12)


class TestFixedEffects:
    def test_fe_only_anova_identity(self):
        y = np.array([1.0, 1.2, 0.8, 3.0, 3.3, 2.7, 5.0, 5.5])
        groups = ["a", "a", "a", "b", "b", "b", "c", "c"]
        res = fe_regression(y, np.empty((8, 0)), [groups])
        gmeans = {g: np.mean([v for v, gg in zip(y, groups) if gg == g]) for g in set(groups)}
        between = sum((gmeans[g] - y.mean()) ** 2 for g in groups)
        total = float(np.sum((y - y.mean()) ** 2))
        assert res.r2 == pytest.approx(between / total, abs=1e-12)

    @pytest.mark.parametrize("se", ["classic", "hc1", "cluster"])
    def test_within_equals_dummy_expansion(self, se):
        # Frisch-Waugh-Lovell: the within fit and the dummy expansion share
        # the coefficient, the residuals and the x-row of the sandwich.
        rng = np.random.default_rng(7)
        groups = ["a", "a", "a", "b", "b", "b", "c", "c", "c", "d", "d", "d"]
        effects = {"a": 0.5, "b": -1.0, "c": 2.0, "d": 0.0}
        clusters = ["u", "v"] * 6 if se == "cluster" else None  # cuts across groups
        x = rng.normal(size=12)
        y = 1.5 * x + np.array([effects[g] for g in groups]) + rng.normal(size=12) * 0.1
        within = fe_regression(y, x[:, None], [groups], names=["x"], se=se, clusters=clusters)
        dummies = np.column_stack(
            [x] + [[1.0 if g == lvl else 0.0 for g in groups] for lvl in ("b", "c", "d")]
        )
        dummy = ols(y, dummies, names=["x", "b", "c", "d"], se=se, clusters=clusters)
        assert within.coef[0] == pytest.approx(dummy.coef[1], abs=1e-10)
        assert within.se[0] == pytest.approx(dummy.se[1], abs=1e-10)
        assert within.r2 == pytest.approx(dummy.r2, abs=1e-12)

    def test_constant_within_groups_r2_one(self):
        y = np.array([2.0, 2.0, 5.0, 5.0, -1.0, -1.0])
        groups = ["a", "a", "b", "b", "c", "c"]
        res = fe_regression(y, np.empty((6, 0)), [groups])
        assert res.r2 == pytest.approx(1.0)

    def test_two_way_dummy_expansion(self):
        rng = np.random.default_rng(8)
        n = 24
        g1 = [f"s{i % 4}" for i in range(n)]
        g2 = [f"q{i % 3}" for i in range(n)]
        x = rng.normal(size=n)
        y = 0.7 * x + rng.normal(size=n) * 0.1
        res = fe_regression(y, x[:, None], [g1, g2], names=["x"])
        assert res.names == ("x",)
        assert res.coef[0] == pytest.approx(0.7, abs=0.2)

    def test_collinear_with_fe_errors(self):
        groups = ["a", "a", "b", "b"]
        x = np.array([1.0, 1.0, 0.0, 0.0])  # exactly the group indicator
        with pytest.raises(RegressionError, match="collinear|singular"):
            fe_regression(np.arange(4.0), x[:, None], [groups])

    def test_single_row_group_retained(self):
        rng = np.random.default_rng(9)
        groups = ["a", "a", "a", "a", "b", "b", "b", "lone"]
        x = rng.normal(size=8)
        y = 0.5 * x + rng.normal(size=8) * 0.1
        res = fe_regression(y, x[:, None], [groups, ["m", "n"] * 4], names=["x"])
        assert res.n == 8


class TestDisseminationWindow:
    def test_exponential_pairs(self):
        assert dissemination_window(0.2065, -0.0021, "exp") == 4
        assert dissemination_window(0.9865, -0.0027, "exp") == 5
        assert dissemination_window(0.3364, -0.0004, "exp") == 6
        assert dissemination_window(3.6224, -0.0007, "exp") == 8

    def test_linear_pairs(self):
        assert dissemination_window(0.2737, -0.0443, "linear") == 6
        assert dissemination_window(1.0663, -0.0550, "linear") == 19
        assert dissemination_window(0.3507, -0.0092, "linear") == 38
        assert dissemination_window(3.6720, -0.0261, "linear") > 100

    def test_nonnegative_slope_errors(self):
        with pytest.raises(RegressionError, match="decay"):
            dissemination_window(1.0, 0.0, "linear")

    def test_already_negative_returns_zero(self):
        assert dissemination_window(0.01, -1.0, "linear") == 0

    def test_monotone_in_slope(self):
        slopes = [-0.001, -0.01, -0.1, -1.0]
        windows = [dissemination_window(1.0, s, "exp") for s in slopes]
        assert windows == sorted(windows, reverse=True)

    # linear slopes stay >= 1e-3 in size so the scan ends within 10^4 weeks;
    # exp slopes may be as small as the smallest subnormal
    @given(
        intercept=st.floats(-10.0, 10.0),
        size=st.floats(1e-3, 10.0),
        exp_size=st.floats(5e-324, 10.0),
    )
    def test_closed_form_matches_scan(self, intercept, size, exp_size):
        assert dissemination_window(intercept, -size, "linear") == (
            reference_dissemination_window(intercept, -size, "linear")
        )
        assert dissemination_window(intercept, -exp_size, "exp") == (
            reference_dissemination_window(intercept, -exp_size, "exp")
        )

    @given(weeks=st.integers(1, 10_000), size=st.floats(1e-3, 10.0))
    def test_closed_form_matches_scan_on_whole_week_roots(self, weeks, size):
        # intercept = weeks * size puts the linear root on (or a rounding
        # away from) a whole week, where the last step decides
        intercept = weeks * size
        assert dissemination_window(intercept, -size, "linear") == (
            reference_dissemination_window(intercept, -size, "linear")
        )
        intercept = math.exp(weeks % 700) * size
        assert dissemination_window(intercept, -size, "exp") == (
            reference_dissemination_window(intercept, -size, "exp")
        )

    @pytest.mark.parametrize("slope", [-2e-7, -1e-8, -1e-12])
    def test_flat_linear_slope_answers_at_once(self, slope):
        # the scan took seconds on these, and gave up on the flatter two
        w = dissemination_window(1.0, slope, "linear")
        assert 1.0 + slope * w > 0 >= 1.0 + slope * (w + 1)

    def test_unrepresentable_window_errors(self):
        with pytest.raises(RegressionError, match="no finite window"):
            dissemination_window(1e300, -1e-10, "linear")


class TestSparsityAndMonthly:
    def test_sparsity_examples(self):
        assert sparsity_fraction(np.array([0.0, 0.0])) == 0.0
        assert sparsity_fraction(np.array([0.0, 0.5, 0.0, -0.1])) == 0.5
        assert sparsity_fraction(np.array([0.0, 1.0])) == 0.5

    def test_monthly_compounding(self):
        dates = [D(2020, 1, 2), D(2020, 1, 3)]
        out_dates, rets = to_monthly(dates, np.array([0.01, 0.01]))
        assert out_dates == [D(2020, 1, 3)]
        assert rets[0] == pytest.approx(0.0201)

    def test_empty_month_skipped(self):
        dates = [D(2020, 1, 2), D(2020, 3, 2)]
        out_dates, rets = to_monthly(dates, np.array([0.01, 0.02]))
        assert out_dates == [D(2020, 1, 2), D(2020, 3, 2)]
        assert len(rets) == 2

    def test_zero_month(self):
        dates = [D(2020, 1, 1) + dt.timedelta(days=i) for i in range(21)]
        _, rets = to_monthly(dates, np.zeros(21))
        assert rets[0] == 0.0


class TestImportanceLagRegression:
    def _records(self, slope=-0.1, algo="lasso"):
        rng = np.random.default_rng(10)
        records = []
        for asset in ("A", "B", "C"):
            for q in ((2020, 1), (2020, 2)):
                for src in ("M1", "M2"):
                    for k in range(1, 5):
                        value = max(0.0, 0.6 + slope * k + rng.normal(0, 0.01))
                        records.append(
                            ImportanceRecord(asset, q, algo, SignalId(src, k), value)
                        )
        return records

    def test_negative_slope_recovered(self):
        res = importance_lag_regression(self._records(), form="linear")
        slope, t = res["lag_week"]
        assert slope == pytest.approx(-0.1, abs=0.02)
        assert t < -2

    def test_positive_filter_respected(self):
        records = self._records()
        keys = {("A", (2020, 1), "lasso")}
        res = importance_lag_regression(records, form="exp", positive_keys=keys)
        assert res.n == 8
        with pytest.raises(RegressionError):
            importance_lag_regression(records, positive_keys=set())
