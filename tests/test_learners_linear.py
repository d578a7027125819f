import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketradar.learners import (
    ConvergenceError,
    ElasticNetParams,
    LassoParams,
    LinearModel,
    ModelError,
    fit_elastic_net,
    fit_lasso,
    fit_ols,
    fit_penalized_targets,
    lasso_kkt_gap,
    linear,
    predict,
)
from marketradar.learners.linear import CD_MAX_SWEEPS, CD_TOL


def reference_coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    l1: float,
    l2: float,
    tol: float = CD_TOL,
    max_sweeps: int = CD_MAX_SWEEPS,
) -> tuple[float, np.ndarray]:
    """The one-target solver with Python-level coordinate steps."""
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    col_ss = (Xc * Xc).sum(axis=0) / n

    beta = np.zeros(p)
    resid = yc.copy()
    for _ in range(max_sweeps):
        max_step = 0.0
        for j in range(p):
            if col_ss[j] == 0.0:
                continue
            xj = Xc[:, j]
            rho = (xj @ resid) / n + col_ss[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - l1, 0.0) / (col_ss[j] + l2)
            if new != beta[j]:
                resid -= xj * (new - beta[j])
                max_step = max(max_step, abs(new - beta[j]))
                beta[j] = new
        if max_step < tol:
            break
    else:
        raise ConvergenceError(f"coordinate descent did not converge in {max_sweeps} sweeps")
    intercept = y_mean - x_mean @ beta
    return float(intercept), beta


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


def penalties(params) -> tuple[float, float]:
    if isinstance(params, ElasticNetParams):
        return params.alpha * params.l1_ratio, params.alpha * (1.0 - params.l1_ratio)
    return params.alpha, 0.0


def same_fit(a: LinearModel, b: LinearModel) -> bool:
    return a.intercept == b.intercept and np.array_equal(a.coef, b.coef)


def penalty_params(draw):
    alpha = draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        return LassoParams(alpha=alpha)
    return ElasticNetParams(alpha=alpha, l1_ratio=draw(st.floats(0.0, 1.0)))


@st.composite
def target_blocks(draw):
    """A random design (some columns constant), 1-8 targets on it, and a
    lasso or elastic-net penalty per target, all one penalty or each its
    own.  Rows are at least twice the columns: with fewer, a small alpha can
    take coordinate descent 10^4 sweeps and more."""
    seed = draw(st.integers(0, 2**32 - 1))
    p, targets = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    n = draw(st.integers(max(20, 2 * p), 300))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p) + rng.normal(size=p)
    constant = rng.random(p) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    X[:, constant] = rng.normal(size=int(constant.sum()))
    beta = rng.normal(size=p) * (rng.random(p) < 0.5)
    Y = rng.normal(size=(targets, 1)) * (X @ beta) + rng.normal(size=(targets, n))
    if draw(st.booleans()):
        params = [penalty_params(draw)] * targets
    else:
        params = [penalty_params(draw) for _ in range(targets)]
    return X, Y, params, rng


class TestMultiTargetSolver:
    """The block solver against the one-target reference solver."""

    @settings(max_examples=60, deadline=None)
    @given(case=target_blocks())
    def test_matches_reference_and_does_not_depend_on_the_group(self, case):
        X, Y, params, rng = case
        fits = fit_penalized_targets(X, Y, params)
        assert all(isinstance(f, LinearModel) for f in fits)
        for fit, y, hyper in zip(fits, Y, params):
            l1, l2 = penalties(hyper)
            intercept, coef = reference_coordinate_descent(X, y, l1, l2)
            atol = 1e-12 * np.abs(coef).max()
            np.testing.assert_allclose(fit.coef, coef, rtol=0, atol=atol)
            assert abs(fit.intercept - intercept) <= atol
            assert fit.hyper == hyper
            if l2 == 0.0:
                assert lasso_kkt_gap(fit, X, y, hyper.alpha) <= 1e-6
            else:
                # elastic-net stationarity: x_j'r/n - l2*b_j against l1
                Xc = X - X.mean(axis=0)
                grad = Xc.T @ ((y - y.mean()) - Xc @ fit.coef) / len(y) - l2 * fit.coef
                active = fit.coef != 0.0
                assert np.all(np.abs(grad[active] - l1 * np.sign(fit.coef[active])) <= 1e-6)
                assert np.all(np.abs(grad[~active]) - l1 <= 1e-6)

        for t, y in enumerate(Y):
            (alone,) = fit_penalized_targets(X, y[None, :], params[t : t + 1])
            assert same_fit(alone, fits[t])
        order = rng.permutation(len(Y))
        for t, fit in zip(order, fit_penalized_targets(X, Y[order], [params[t] for t in order])):
            assert same_fit(fit, fits[t])
        subset = np.flatnonzero(rng.random(len(Y)) < 0.5)
        for t, fit in zip(subset, fit_penalized_targets(X, Y[subset], [params[t] for t in subset])):
            assert same_fit(fit, fits[t])

    def test_gradient_does_not_drift_over_thousands_of_sweeps(self, monkeypatch):
        # columns that share one factor take coordinate descent thousands of
        # sweeps, over which the updated gradient never meets a recomputed one
        rng = np.random.default_rng(0)
        factor = rng.normal(size=(60, 1))
        X = factor + 0.2 * rng.normal(size=(60, 20))
        Y = factor[:, 0] + rng.normal(size=(3, 60))
        params = [LassoParams(alpha=1e-3)] * 3
        fits = fit_penalized_targets(X, Y, params)
        for fit, y in zip(fits, Y):
            intercept, coef = reference_coordinate_descent(X, y, 1e-3, 0.0)
            atol = 1e-12 * np.abs(coef).max()
            np.testing.assert_allclose(fit.coef, coef, rtol=0, atol=atol)
            assert abs(fit.intercept - intercept) <= atol
            reference = LinearModel(algo="lasso", n_features=20, intercept=intercept, coef=coef)
            # no worse up to the rounding that separates the two fits
            assert lasso_kkt_gap(fit, X, y, 1e-3) <= lasso_kkt_gap(reference, X, y, 1e-3) + 1e-12
        monkeypatch.setattr(linear, "CD_MAX_SWEEPS", 1000)
        assert all(isinstance(f, ConvergenceError) for f in fit_penalized_targets(X, Y, params))

    def test_one_target_under_many_penalties(self):
        # the tuning trials of one stock-quarter: the same y, a penalty each
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 12))
        y = X @ (rng.normal(size=12) * (rng.random(12) < 0.5)) + rng.normal(size=100)
        params = [LassoParams(alpha=a) for a in (1e-4, 3e-2, 1e-3)] + [
            ElasticNetParams(alpha=0.01, l1_ratio=r) for r in (0.0, 0.5)
        ]
        fits = fit_penalized_targets(X, np.tile(y, (len(params), 1)), params)
        assert same_fit(fits[0], fit_lasso(X, y, alpha=1e-4))
        assert same_fit(fits[1], fit_lasso(X, y, alpha=3e-2))
        assert same_fit(fits[2], fit_lasso(X, y, alpha=1e-3))
        assert same_fit(fits[3], fit_elastic_net(X, y, alpha=0.01, l1_ratio=0.0))
        assert same_fit(fits[4], fit_elastic_net(X, y, alpha=0.01, l1_ratio=0.5))
        assert [f.algo for f in fits] == ["lasso"] * 3 + ["enet"] * 2
        assert np.count_nonzero(fits[1].coef) < np.count_nonzero(fits[0].coef)

    def test_one_target_fits_are_the_block_solver(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(90, 7))
        y = X @ rng.normal(size=7) + rng.normal(size=90)
        (group,) = fit_penalized_targets(X, y[None, :], [LassoParams(alpha=0.02)])
        assert same_fit(fit_lasso(X, y, alpha=0.02), group)
        (group,) = fit_penalized_targets(X, y[None, :], [ElasticNetParams(0.02, 0.3)])
        enet = fit_elastic_net(X, y, alpha=0.02, l1_ratio=0.3)
        assert same_fit(enet, group) and enet.algo == "enet"

    def test_target_at_the_sweep_cap_fails_alone(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 10))
        # a constant target converges in one sweep; the others need several
        Y = np.vstack([X @ rng.normal(size=10) + rng.normal(size=120), np.full(120, 0.3)])
        monkeypatch.setattr(linear, "CD_MAX_SWEEPS", 2)
        fits = fit_penalized_targets(X, Y, [LassoParams(alpha=1e-3)] * 2)
        assert isinstance(fits[0], ConvergenceError)
        assert str(fits[0]) == "coordinate descent did not converge in 2 sweeps"
        assert isinstance(fits[1], LinearModel)
        np.testing.assert_array_equal(fits[1].coef, 0.0)
        assert fits[1].intercept == pytest.approx(0.3)
        (alone,) = fit_penalized_targets(X, Y[1:], [LassoParams(alpha=1e-3)])
        assert same_fit(alone, fits[1])

    def test_one_target_at_the_sweep_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=60)
        monkeypatch.setattr(linear, "CD_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match="did not converge in 1 sweeps"):
            fit_lasso(X, y, alpha=1e-4)

    def test_mismatched_targets_error(self):
        with pytest.raises(ModelError, match="matching n"):
            fit_penalized_targets(np.ones((10, 2)), np.ones((3, 9)), [LassoParams()] * 3)
        with pytest.raises(ModelError, match="one params entry per target"):
            fit_penalized_targets(np.ones((10, 2)), np.ones((3, 10)), [LassoParams()] * 2)
