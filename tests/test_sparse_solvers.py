import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radden.errors import ConfigError, DomainError
from radden.sparse_solvers import (BLOCK_COLUMNS, IstaOptions, RidgeDesign,
                                   default_ridge, ista_gram, ista_solve,
                                   lipschitz_bound,
                                   soft_threshold, solve_least_squares)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def coordinate_descent_lasso(D, Y, mu, iters=3000, tol=1e-12):
    """Independent lasso oracle for ||Y - D Z||_F^2 + mu |Z|_1."""
    n, k = D.shape
    Z = np.zeros((k, Y.shape[1]))
    col_sq = np.sum(D * D, axis=0)
    for _ in range(iters):
        Z_old = Z.copy()
        for j in range(k):
            if col_sq[j] == 0:
                continue
            R_j = Y - D @ Z + np.outer(D[:, j], Z[j])
            rho = D[:, j] @ R_j
            Z[j] = np.sign(rho) * np.maximum(np.abs(rho) - mu / 2.0, 0.0) / col_sq[j]
        if np.max(np.abs(Z - Z_old)) < tol:
            break
    return Z


def lasso_objective(D, Y, Z, mu):
    return float(np.sum((Y - D @ Z) ** 2) + mu * np.sum(np.abs(Z)))


def column_ista(D, Y, mu, Z0, opts, step):
    """Reference ISTA: one column at a time, matrix-vector products only.

    Returns the codes, each column's iteration count and the per-sweep
    objective totals, stopped columns contributing their final value.
    """
    dtd = D.T @ D
    theta = 0.5 * mu * step
    Z = Z0.copy()
    iterations, histories = [], []
    for j in range(Y.shape[1]):
        y, z = Y[:, j], Z0[:, j].copy()
        dty, yty = D.T @ y, y @ y
        g = dtd @ z
        history = [yty - 2.0 * (z @ dty) + z @ g + mu * np.sum(np.abs(z))]
        for it in range(1, opts.max_iterations + 1):
            z = soft_threshold(z + step * (dty - g), theta)
            g = dtd @ z
            history.append(yty - 2.0 * (z @ dty) + z @ g + mu * np.sum(np.abs(z)))
            prev = history[-2]
            if abs(prev - history[-1]) <= opts.relative_tolerance * max(abs(prev), 1e-300):
                break
        Z[:, j] = z
        iterations.append(it)
        histories.append(history)
    depth = max(len(h) for h in histories)
    totals = [sum(h[min(k, len(h) - 1)] for h in histories) for k in range(depth)]
    return Z, iterations, totals


class TestSoftThreshold:
    def test_definition(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([3.0, -0.5, 1.0]), 1.0), [2.0, 0.0, 0.0]
        )

    def test_zero_threshold_is_identity(self):
        v = np.array([1.5, -2.0, 0.0, 7.0])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_full_shrinkage(self):
        v = np.array([0.5, -0.9, 0.1])
        np.testing.assert_array_equal(soft_threshold(v, 1.0), np.zeros(3))

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            soft_threshold(np.ones(3), -0.1)

    @given(arrays(float, 6, elements=finite_floats),
           arrays(float, 6, elements=finite_floats),
           st.floats(0, 100))
    def test_one_lipschitz(self, u, v, theta):
        du = np.linalg.norm(soft_threshold(u, theta) - soft_threshold(v, theta))
        assert du <= np.linalg.norm(u - v) + 1e-9

    @given(arrays(float, 6, elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.floats(0, allow_nan=False, allow_infinity=False))
    def test_clamp_form_identity(self, v, theta):
        # the fused ISTA sweep thresholds as v - clip(v, -theta, theta)
        np.testing.assert_array_equal(
            soft_threshold(v, theta), v - np.minimum(np.maximum(v, -theta), theta)
        )

    @given(arrays(float, 6, elements=finite_floats), st.floats(0, 100))
    def test_odd(self, v, theta):
        np.testing.assert_allclose(
            soft_threshold(-v, theta), -soft_threshold(v, theta), atol=1e-12
        )


class TestLeastSquares:
    def test_identity_design(self):
        B = np.random.default_rng(0).standard_normal((3, 4))
        W = solve_least_squares(np.eye(4), B, ridge=0.0)
        np.testing.assert_allclose(W, B, atol=1e-12)

    def test_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 20))
        B = rng.standard_normal((3, 20))
        W = solve_least_squares(A, B, ridge=0.0)
        grad = B @ A.T - W @ (A @ A.T)
        assert np.linalg.norm(grad) < 1e-8 * np.linalg.norm(B @ A.T)

    def test_ridge_limit_shrinks(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 10))
        B = rng.standard_normal((4, 10))
        norms = [np.linalg.norm(solve_least_squares(A, B, ridge=r))
                 for r in (1e-6, 1.0, 1e3, 1e6)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            solve_least_squares(np.ones((2, 3)), np.ones((2, 4)))

    def test_non_finite_rejected(self):
        A = np.ones((2, 2))
        A[0, 0] = np.nan
        with pytest.raises(DomainError):
            solve_least_squares(A, np.ones((2, 2)))

    def test_minimizer_cannot_be_improved(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 12))
        B = rng.standard_normal((4, 12))
        ridge = default_ridge(A)
        W = solve_least_squares(A, B, ridge=ridge)

        def obj(M):
            return np.sum((B - M @ A) ** 2) + ridge * np.sum(M * M)

        base = obj(W)
        for _ in range(100):
            D = rng.standard_normal(W.shape)
            D /= np.linalg.norm(D)
            assert obj(W + 1e-3 * D) >= base - 1e-12

    def test_dual_and_primal_sides_agree(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 8))   # tall: dual side kicks in
        B = rng.standard_normal((5, 8))
        W_dual = solve_least_squares(A, B, ridge=1e-6)
        G = A @ A.T + 1e-6 * np.eye(30)
        W_primal = np.linalg.solve(G, A @ B.T).T
        np.testing.assert_allclose(W_dual, W_primal, atol=1e-8)

    @pytest.mark.parametrize("shape", [(6, 3), (30, 8), "repeated"],
                             ids=["tall_6x3", "tall_30x8", "square_repeated_row"])
    def test_ridge_zero_is_min_norm(self, shape):
        rng = np.random.default_rng(14)
        if shape == "repeated":
            A = rng.standard_normal((5, 5))
            A[3] = A[1]
        else:
            A = rng.standard_normal(shape)
        B = rng.standard_normal((4, A.shape[1]))
        W = solve_least_squares(A, B, ridge=0.0)
        W_ref = np.linalg.lstsq(A.T, B.T, rcond=None)[0].T
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)], ids=["wide", "tall"])
    def test_wide_design_many_target_rows(self, shape):
        rng = np.random.default_rng(15)
        A = rng.standard_normal(shape)
        n, q = shape
        B = rng.standard_normal((4096, q))
        ridge = 0.1
        design = RidgeDesign(A, ridge=ridge)
        W = design.solve(B)
        W_ref = np.linalg.solve(A @ A.T + ridge * np.eye(n), A @ B.T).T
        # normwise: for a tall A the n x n reference is the side that rounds
        # worse, by up to 4e-8 relative on its entries nearest zero
        assert np.linalg.norm(W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)
        if n <= q:
            np.testing.assert_allclose(W, W_ref, rtol=1e-10)
        B2 = rng.standard_normal((7, q))
        np.testing.assert_array_equal(design.solve(B2),
                                      RidgeDesign(A, ridge=ridge).solve(B2))
        np.testing.assert_allclose(solve_least_squares(A, B2, ridge=ridge),
                                   design.solve(B2), rtol=1e-10)
        np.testing.assert_array_equal(W, solve_least_squares(A, B, ridge=ridge))

    @pytest.mark.parametrize("ridge", [None, 0.1])
    def test_tall_design_keeps_no_operator_of_its_height(self, ridge):
        # a training pair's design is P x Q with Q < P: after solves and
        # fits, no array with P entries on a side is held besides A itself
        rng = np.random.default_rng(18)
        P, q = 300, 24
        design = RidgeDesign(rng.standard_normal((P, q)), ridge=ridge)
        design.solve(rng.standard_normal((40, q)))
        design.hat()
        held = [value for value in vars(design).values()
                if isinstance(value, np.ndarray) and value is not design.A]
        assert held
        assert all(P not in value.shape for value in held), \
            [value.shape for value in held]

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12), (30, 8)],
                             ids=["wide", "tall", "tall_30x8"])
    @pytest.mark.parametrize("rows", [1, 5, 100])
    @pytest.mark.parametrize("ridge", [1e-6, 0.3, 50.0])
    def test_one_off_solve_matches_design(self, shape, rows, ridge):
        rng = np.random.default_rng(16)
        A = rng.standard_normal(shape)
        B = rng.standard_normal((rows, shape[1]))
        W_ref = RidgeDesign(A, ridge=ridge).solve(B)
        W = solve_least_squares(A, B, ridge=ridge)
        assert np.linalg.norm(W - W_ref) <= 1e-10 * np.linalg.norm(W_ref)


    @pytest.mark.parametrize("shape, ridge", [((40, 12), None), ((12, 40), None),
                                              ((40, 12), 0.0), ((12, 40), 0.0)],
                             ids=["tall", "wide", "tall_ridge0", "wide_ridge0"])
    def test_hat_is_solve_times_design(self, shape, ridge):
        rng = np.random.default_rng(17)
        A = rng.standard_normal(shape)
        design = RidgeDesign(A, ridge=ridge)
        hat = design.hat()
        assert hat.shape == (shape[1], shape[1])
        for rows in (7, 30):
            B = rng.standard_normal((rows, shape[1]))
            expected = design.solve(B) @ A
            got = B @ hat
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)], ids=["tall", "wide"])
    @pytest.mark.parametrize("ridge", [None, 0.0])
    def test_empty_target(self, shape, ridge):
        n, q = shape
        design = RidgeDesign(np.random.default_rng(20).standard_normal(shape),
                             ridge=ridge)
        assert design.solve(np.zeros((0, q))).shape == (0, n)
        assert (np.zeros((0, q)) @ design.hat()).shape == (0, q)


class TestLipschitzBound:
    def test_scaled_identity(self):
        L = lipschitz_bound(2.0 * np.eye(6))
        assert 4.0 <= L <= 4.05

    def test_known_diagonal(self):
        L = lipschitz_bound(np.diag([1.0, 3.0]))
        assert 9.0 <= L <= 9.1

    def test_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.standard_normal((10, 10))
            L = lipschitz_bound(A)
            s_max = np.linalg.svd(A, compute_uv=False)[0]
            assert L >= s_max ** 2 * (1 - 1e-9)
            assert L <= s_max ** 2 * 1.02

    def test_zero_matrix_floor(self):
        assert 0 < lipschitz_bound(np.zeros((4, 4))) < 1e-9

    def test_wide_matrix_is_one_percent_above_sigma_max_squared(self):
        A = np.random.default_rng(11).standard_normal((5, 12))
        s_max = np.linalg.svd(A, compute_uv=False)[0]
        # the two eigensolvers may round the same eigenvalue differently
        assert lipschitz_bound(A) == pytest.approx(1.01 * s_max ** 2, rel=1e-12)


class TestIsta:
    def _well_conditioned(self, rng, n):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return Q @ np.diag(rng.uniform(0.5, 1.5, n)) @ Q.T

    def test_mu_zero_matches_direct_solve(self):
        rng = np.random.default_rng(6)
        D = self._well_conditioned(rng, 5)
        Y = rng.standard_normal((5, 3))
        opts = IstaOptions(max_iterations=5000, relative_tolerance=1e-14)
        Z = ista_solve(D, Y, 0.0, np.zeros((5, 3)), opts).z
        Z_direct = np.linalg.solve(D, Y)
        np.testing.assert_allclose(Z, Z_direct, atol=1e-6)

    def test_orthonormal_design_one_step_closed_form(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((6, 1))
        mu = 0.8
        opts = IstaOptions(max_iterations=2000, relative_tolerance=1e-14)
        Z = ista_solve(np.eye(6), y, mu, np.zeros((6, 1)), opts).z
        expected = np.sign(y) * np.maximum(np.abs(y) - mu / 2.0, 0.0)
        np.testing.assert_allclose(Z, expected, atol=1e-9)

    def test_coordinate_descent_oracle(self):
        rng = np.random.default_rng(8)
        D = rng.standard_normal((8, 5))
        Y = rng.standard_normal((8, 1))
        mu = 0.3
        opts = IstaOptions(max_iterations=20000, relative_tolerance=1e-14)
        Z = ista_solve(D, Y, mu, np.zeros((5, 1)), opts).z
        Z_cd = coordinate_descent_lasso(D, Y, mu)
        assert abs(lasso_objective(D, Y, Z, mu)
                   - lasso_objective(D, Y, Z_cd, mu)) < 1e-5

    def test_objective_monotone(self):
        rng = np.random.default_rng(9)
        D = rng.standard_normal((12, 7))
        Y = rng.standard_normal((12, 4))
        res = ista_solve(D, Y, 0.5, rng.standard_normal((7, 4)),
                         IstaOptions(max_iterations=300, relative_tolerance=1e-12))
        diffs = np.diff(res.objectives)
        assert np.all(diffs <= 1e-10)

    def test_column_partition_invariance(self):
        rng = np.random.default_rng(10)
        D = rng.standard_normal((9, 4))
        Y = rng.standard_normal((9, 3))
        Z0 = np.zeros((4, 3))
        opts = IstaOptions(max_iterations=50, relative_tolerance=1e-300)
        full = ista_solve(D, Y, 0.2, Z0, opts).z
        cols = [ista_solve(D, Y[:, [j]], 0.2, Z0[:, [j]], opts).z
                for j in range(3)]
        np.testing.assert_array_equal(full, np.hstack(cols))

    def test_negative_mu_rejected(self):
        with pytest.raises(DomainError):
            ista_solve(np.eye(2), np.ones((2, 1)), -1.0, np.zeros((2, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ista_solve(np.eye(3), np.ones((2, 1)), 0.1, np.zeros((3, 1)))

    def test_block_partition_invariance(self):
        rng = np.random.default_rng(12)
        q = 2 * BLOCK_COLUMNS + 13          # partial last block
        D = rng.standard_normal((40, 24))
        Y = rng.standard_normal((40, q))
        Z0 = 0.1 * rng.standard_normal((24, q))
        opts = IstaOptions(max_iterations=60, relative_tolerance=1e-5)
        full = ista_solve(D, Y, 0.3, Z0, opts).z
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(q)
            chunks = np.split(order, [5, 5 + BLOCK_COLUMNS + 3, q - 1])
            parts = np.empty_like(full)
            for cols in chunks:
                parts[:, cols] = ista_solve(D, Y[:, cols], 0.3, Z0[:, cols], opts).z
            np.testing.assert_array_equal(parts, full)

    @pytest.mark.parametrize("k, sweeps", [(100, 12), (256, 25), (300, 25)])
    def test_partition_invariance_at_trainer_size(self, k, sweeps):
        # q = 240 columns, the train_hrrp width; 256 is the trainers' widest
        # code.  At 100 and 300, not multiples of the BLAS kernel's tile, the
        # transposed product (codes as rows) @ DtD.T rounds a row differently
        # as the row count changes, so these widths check the layout.  The
        # sweep caps leave some columns stopped and others running.
        rng = np.random.default_rng(41)
        q = 240
        W = rng.standard_normal((128, k)) / np.sqrt(128)
        DtD = W.T @ W + np.eye(k)
        DtY = rng.standard_normal((k, q))
        yty = np.sum(DtY * DtY, axis=0) + 1.0
        Z0 = 0.1 * rng.standard_normal((k, q))
        opts = IstaOptions(max_iterations=sweeps, relative_tolerance=1e-4)
        full = ista_gram(DtD, DtY, yty, 0.5, Z0, opts)
        assert 0 < full.converged < q   # some columns stop, others run
        order = np.random.default_rng(42).permutation(q)
        parts = np.empty_like(full.z)
        for cols in np.split(order, np.cumsum([1, 31, 32])):   # 1, 31, 32, 176
            parts[:, cols] = ista_gram(DtD, DtY[:, cols], yty[cols], 0.5,
                                       Z0[:, cols], opts).z
        np.testing.assert_array_equal(parts, full.z)

    @pytest.mark.parametrize("tol", [1e-300, 1e-3])
    def test_matches_single_column_reference(self, tol):
        rng = np.random.default_rng(13)
        q = BLOCK_COLUMNS + 7
        D = rng.standard_normal((30, 12))
        Y = rng.standard_normal((30, q))
        Z0 = 0.1 * rng.standard_normal((12, q))
        Y[:, 4] = 0.0                      # stops on the first sweep
        Z0[:, 4] = 0.0
        opts = IstaOptions(max_iterations=80, relative_tolerance=tol)
        res = ista_solve(D, Y, 0.4, Z0, opts)
        Z, iterations, totals = column_ista(D, Y, 0.4, Z0, opts, res.step)
        np.testing.assert_allclose(res.z, Z, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.objectives, totals, rtol=1e-12)
        assert res.iterations == max(iterations)
        assert iterations[4] == 1
        if tol == 1e-300:                  # every other column runs to the cap
            assert set(iterations) == {1, opts.max_iterations}
        else:                              # columns stop on different sweeps
            assert len(set(iterations)) > 3 and max(iterations) < opts.max_iterations

    # at a cap of 12 some columns stop on the last sweep, others are cut off
    @pytest.mark.parametrize("tol, cap", [(1e-300, 80), (1e-3, 80), (1e-3, 12)])
    def test_converged_count(self, tol, cap):
        rng = np.random.default_rng(13)
        q = BLOCK_COLUMNS + 7
        D = rng.standard_normal((30, 12))
        Y = rng.standard_normal((30, q))
        Z0 = 0.1 * rng.standard_normal((12, q))
        Y[:, 4] = 0.0
        Z0[:, 4] = 0.0
        opts = IstaOptions(max_iterations=cap, relative_tolerance=tol)
        res = ista_solve(D, Y, 0.4, Z0, opts)
        # a column's stopping rule fired within the cap iff, given one more
        # sweep, it still stops within the cap
        longer = IstaOptions(max_iterations=cap + 1, relative_tolerance=tol)
        _, iterations, _ = column_ista(D, Y, 0.4, Z0, longer, res.step)
        expected = sum(it <= opts.max_iterations for it in iterations)
        assert res.converged == expected
        if tol == 1e-300:                  # only the zero column stops
            assert res.converged == 1

    def test_block_aligned_objective_totals(self):
        # one call sums each sweep block by block, so its totals equal the
        # block-order sum of one call per block, each padded with its final
        # value once its columns have all stopped
        rng = np.random.default_rng(18)
        q = 3 * BLOCK_COLUMNS - 9
        D = rng.standard_normal((40, 24))
        Y = rng.standard_normal((40, q))
        Z0 = 0.1 * rng.standard_normal((24, q))
        opts = IstaOptions(max_iterations=80, relative_tolerance=1e-3)
        full = ista_solve(D, Y, 0.3, Z0, opts).objectives
        parts = [ista_solve(D, Y[:, cols], 0.3, Z0[:, cols], opts).objectives
                 for cols in np.split(np.arange(q), [BLOCK_COLUMNS, 2 * BLOCK_COLUMNS])]
        assert len({len(p) for p in parts}) > 1      # blocks stop on different sweeps
        totals = np.zeros(len(full))
        for p in parts:
            totals += np.array(p + p[-1:] * (len(full) - len(p)))
        assert totals.tolist() == full

    @pytest.mark.parametrize("tol", [1e-300, 1e-6])
    def test_gram_form_matches_solve(self, tol):
        rng = np.random.default_rng(19)
        q = 2 * BLOCK_COLUMNS + 5
        D = rng.standard_normal((50, 20))
        Y = rng.standard_normal((50, q))
        Z0 = 0.1 * rng.standard_normal((20, q))
        opts = IstaOptions(max_iterations=40, relative_tolerance=tol)
        ref = ista_solve(D, Y, 0.4, Z0, opts)
        got = ista_gram(D.T @ D, D.T @ Y, np.sum(Y * Y, axis=0), 0.4, Z0, opts)
        np.testing.assert_allclose(got.z, ref.z, rtol=0,
                                   atol=1e-12 * np.abs(ref.z).max())
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        assert 0 < ref.converged < q or tol == 1e-300

    def test_gram_form_rejects_bad_input(self):
        G, DtY, yty, Z0 = np.eye(3), np.ones((3, 2)), np.ones(2), np.zeros((3, 2))
        with pytest.raises(ConfigError):
            ista_gram(G, DtY[:, :1], yty, 0.1, Z0)
        with pytest.raises(ConfigError):
            ista_gram(G, DtY, np.ones(3), 0.1, Z0)
        with pytest.raises(DomainError):
            ista_gram(G, DtY, np.array([1.0, np.nan]), 0.1, Z0)
        with pytest.raises(DomainError):
            ista_gram(G, DtY, yty, -0.1, Z0)

    def test_empty_target(self):
        res = ista_solve(np.eye(3), np.zeros((3, 0)), 0.1, np.zeros((3, 0)))
        assert res.z.shape == (3, 0)
        assert res.objectives == []

    @pytest.mark.parametrize("q", [1, BLOCK_COLUMNS + 8])
    def test_zero_column_design(self, q):
        # integer targets keep every sum of squares exact
        Y = np.random.default_rng(23).integers(-3, 4, (3, q)).astype(float)
        energy = float(np.sum(Y * Y))
        Z0 = np.zeros((0, q))
        for res in (ista_solve(np.zeros((3, 0)), Y, 0.5, Z0),
                    ista_gram(np.zeros((0, 0)), np.zeros((0, q)),
                              np.sum(Y * Y, axis=0), 0.5, Z0)):
            assert res.z.shape == (0, q)
            assert res.objectives == [energy, energy]
            assert (res.iterations, res.converged) == (1, q)
