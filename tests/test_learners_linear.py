import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketradar.learners import (
    LinearModel,
    ModelError,
    fit_elastic_net,
    fit_lasso,
    fit_ols,
    lasso_kkt_gap,
    predict,
)


def orthonormal_design(n, p, rng):
    """Columns with mean 0 and X'X/n = I, so the lasso has a closed form."""
    raw = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    q, _ = np.linalg.qr(raw)
    return q[:, 1:] * np.sqrt(n)


class TestOls:
    def test_exact_line(self):
        x = np.linspace(-2, 2, 20)[:, None]
        model = fit_ols(x, 2.0 * x[:, 0])
        assert model.coef[0] == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(0.0, abs=1e-10)

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        model = fit_ols(X, np.full(30, 1.7))
        np.testing.assert_allclose(model.coef, 0.0, atol=1e-10)
        assert model.intercept == pytest.approx(1.7, abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        model = fit_ols(X, y)
        D = np.column_stack([np.ones(50), X])
        beta = np.linalg.solve(D.T @ D, D.T @ y)
        np.testing.assert_allclose(
            np.concatenate([[model.intercept], model.coef]), beta, atol=1e-8
        )

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        model = fit_ols(X, y)
        resid = y - predict(model, X)
        scale = np.abs(X).max() * np.abs(y).max()
        assert np.max(np.abs(X.T @ resid)) < 1e-8 * max(scale, 1.0)

    def test_underdetermined_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError, match="underdetermined"):
            fit_ols(rng.normal(size=(3, 3)), rng.normal(size=3))

    def test_rank_deficient_flagged_min_norm(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(40, 2))
        X = np.column_stack([base, base[:, 0] + base[:, 1]])
        y = base @ np.array([1.0, -1.0])
        model = fit_ols(X, y)
        assert model.rank_deficient
        np.testing.assert_allclose(predict(model, X), y, atol=1e-8)


class TestLasso:
    def test_threshold_alpha_zeroes_everything(self):
        rng = np.random.default_rng(2)
        X = orthonormal_design(60, 4, rng)
        y = rng.normal(size=60)
        yc = y - y.mean()
        alpha_max = np.max(np.abs(X.T @ yc)) / 60
        model = fit_lasso(X, y, alpha=alpha_max * 1.0001)
        np.testing.assert_array_equal(model.coef, 0.0)
        assert model.intercept == pytest.approx(y.mean())

    def test_alpha_zero_equals_ols(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=50) * 0.1
        lasso = fit_lasso(X, y, alpha=0.0)
        ols = fit_ols(X, y)
        np.testing.assert_allclose(lasso.coef, ols.coef, atol=1e-6)
        assert lasso.intercept == pytest.approx(ols.intercept, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_soft_threshold_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 80, 6
        X = orthonormal_design(n, p, rng)
        beta_true = rng.normal(size=p)
        y = X @ beta_true + rng.normal(size=n) * 0.3
        alpha = 0.15
        model = fit_lasso(X, y, alpha=alpha)
        beta_ols = X.T @ (y - y.mean()) / n
        expected = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - alpha, 0.0)
        np.testing.assert_allclose(model.coef, expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_kkt_conditions_hold(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(70, 8))
        X = (X - X.mean(0)) / X.std(0, ddof=1)
        y = X[:, 0] * 0.5 - X[:, 3] * 0.2 + rng.normal(size=70) * 0.5
        alpha = 0.05
        model = fit_lasso(X, y, alpha=alpha)
        assert lasso_kkt_gap(model, X, y, alpha) < 1e-6

    def test_nonfinite_inputs_error(self):
        X = np.ones((10, 2))
        X[0, 0] = np.nan
        with pytest.raises(ModelError):
            fit_lasso(X, np.zeros(10), alpha=0.1)


class TestElasticNet:
    def test_pure_l1_matches_lasso(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5))
        y = X @ np.array([0.4, 0, -0.3, 0, 0.1]) + rng.normal(size=60) * 0.2
        enet = fit_elastic_net(X, y, alpha=0.07, l1_ratio=1.0)
        lasso = fit_lasso(X, y, alpha=0.07)
        np.testing.assert_allclose(enet.coef, lasso.coef, atol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0))
    def test_unit_l1_ratio_is_lasso_bit_for_bit(self, seed, alpha):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=40)
        enet = fit_elastic_net(X, y, alpha=alpha, l1_ratio=1.0)
        lasso = fit_lasso(X, y, alpha=alpha)
        assert np.array_equal(enet.coef, lasso.coef)
        assert enet.intercept == lasso.intercept

    def test_pure_l2_ridge_closed_form(self):
        rng = np.random.default_rng(6)
        n, p = 90, 5
        X = orthonormal_design(n, p, rng)
        y = X @ rng.normal(size=p) + rng.normal(size=n) * 0.2
        alpha = 0.6
        model = fit_elastic_net(X, y, alpha=alpha, l1_ratio=0.0)
        beta_ols = X.T @ (y - y.mean()) / n
        np.testing.assert_allclose(model.coef, beta_ols / (1.0 + alpha), atol=1e-8)

    def test_duplicated_columns_share_weight(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 1))
        X = np.hstack([x, x, rng.normal(size=(80, 1))])
        y = 1.5 * x[:, 0] + rng.normal(size=80) * 0.05
        model = fit_elastic_net(X, y, alpha=0.2, l1_ratio=0.25)
        assert model.coef[0] == pytest.approx(model.coef[1], abs=1e-5)
        assert model.coef[0] > 0
