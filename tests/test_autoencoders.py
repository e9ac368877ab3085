import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radden import autoencoders
from radden.autoencoders import (Activation, AutoencoderWeights, TrainOptions,
                                 _train, _update_code, inference_flops, infer,
                                 load_weights, objective_value, prepare_pair,
                                 save_weights, train_dae, train_sparse_dae,
                                 train_stacked_sdae)
from radden.errors import ConfigError, DomainError, FormatError
from radden.sparse_solvers import (IstaOptions, RidgeDesign, _gram_bound,
                                   ista_solve, solve_least_squares)


def tight_opts(seed=0, outer=30):
    return TrainOptions(outer_iterations=outer, outer_tolerance=1e-10, seed=seed,
                        ista=IstaOptions(max_iterations=500,
                                         relative_tolerance=1e-10))


def synthetic_pair(P=16, Q=40, rank=None, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    rank = rank or P - 1
    X = np.clip(rng.random((P, rank)) @ rng.random((rank, Q)) / rank, 0, 1)
    Xhat = np.clip(X + noise * rng.standard_normal((P, Q)), 0, 1)
    return X, Xhat


class TestActivation:
    def test_linear_identity(self):
        act = Activation("linear")
        v = np.linspace(-3, 3, 11)
        np.testing.assert_array_equal(act.apply(v), v)

    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid"])
    def test_invalid_kind(self, kind):
        with pytest.raises(ConfigError):
            Activation(kind)


class TestTrainDae:
    def test_autoencodes_clean_data(self):
        X, _ = synthetic_pair(P=12, Q=30, rank=11, seed=1)
        w, trace = train_dae(X, X, nodes=11, lam=1.0, opts=tight_opts(outer=60))
        assert trace.objectives[-1] <= 1e-3 * np.sum(X * X)

    def test_single_image_interpolation(self):
        rng = np.random.default_rng(2)
        x = rng.random((10, 1))
        xh = np.clip(x + 0.1 * rng.standard_normal((10, 1)), 0, 1)
        w, _ = train_dae(x, xh, nodes=4, lam=1.0, opts=tight_opts(outer=100))
        np.testing.assert_allclose(infer(w, xh, clamp=False), x, atol=1e-6)

    def test_lambda_zero_decouples(self):
        X, Xhat = synthetic_pair(seed=3)
        w, _ = train_dae(X, Xhat, nodes=5, lam=0.0, opts=tight_opts(outer=5))
        assert np.all(np.isfinite(w.matrices["W1"]))

    def test_monotone_objective(self):
        X, Xhat = synthetic_pair(seed=4)
        _, trace = train_dae(X, Xhat, nodes=6, lam=1.0, opts=tight_opts())
        obj = np.array(trace.objectives)
        assert np.all(np.diff(obj) <= 1e-8 * np.abs(obj[:-1]) + 1e-12)

    def test_deterministic(self):
        X, Xhat = synthetic_pair(seed=5)
        w1, _ = train_dae(X, Xhat, nodes=6, opts=tight_opts(seed=7))
        w2, _ = train_dae(X, Xhat, nodes=6, opts=tight_opts(seed=7))
        for k in w1.matrices:
            np.testing.assert_array_equal(w1.matrices[k], w2.matrices[k])

    @pytest.mark.parametrize("P, Q, nodes, seed",
                             [(40, 16, 20, 0), (60, 20, 24, 1),
                              (80, 24, 30, 2), (100, 30, 36, 3)])
    def test_matches_closed_form_regression(self, P, Q, nodes, seed):
        # With a code wider than the Q training columns, the trained linear
        # DAE is the regression X Xhat^+ of clean on corrupt columns, up to
        # the default ridge (measured 1e-7 here; about 3e-5 at nodes = Q + 1)
        rng = np.random.default_rng(seed)
        X = rng.random((P, Q))
        Xhat = np.clip(X + 0.1 * rng.standard_normal((P, Q)), 0, 1)
        weights, _ = train_dae(X, Xhat, nodes)
        pinv = RidgeDesign(Xhat, ridge=0)._K
        for xhat in (Xhat, rng.random((P, 7))):
            expected = X @ (pinv @ xhat)
            out = infer(weights, xhat, clamp=False)
            assert (np.linalg.norm(out - expected)
                    <= 1e-6 * np.linalg.norm(expected))

    def test_shape_errors(self):
        X, Xhat = synthetic_pair()
        with pytest.raises(ConfigError):
            train_dae(X, Xhat[:, :-1], nodes=4)
        with pytest.raises(ConfigError):
            train_dae(X, Xhat, nodes=X.shape[0])


class TestTrainSparseDae:
    def test_mu_zero_reduces_to_dae(self):
        X, Xhat = synthetic_pair(seed=6)
        opts = TrainOptions(outer_iterations=20, outer_tolerance=1e-10, seed=0,
                            ista=IstaOptions(max_iterations=3000,
                                             relative_tolerance=1e-13))
        _, tr_dae = train_dae(X, Xhat, nodes=6, lam=1.0, opts=opts)
        _, tr_sparse = train_sparse_dae(X, Xhat, nodes=6, lam=1.0, mu=0.0, opts=opts)
        a, b = tr_dae.objectives[-1], tr_sparse.objectives[-1]
        assert abs(a - b) <= 1e-5 * max(abs(a), abs(b))

    def test_huge_mu_collapses_code(self):
        X, Xhat = synthetic_pair(seed=7)
        w, trace = train_sparse_dae(X, Xhat, nodes=6, lam=1.0, mu=1e9,
                                    opts=tight_opts(outer=3))
        E = w.activation.apply(w.matrices["W1"] @ Xhat)
        expected = np.sum(X * X) + np.sum(E * E)
        assert trace.objectives[-1] == pytest.approx(expected, rel=1e-6)

    def test_sparsity_monotone_in_mu(self):
        X, Xhat = synthetic_pair(P=16, Q=40, seed=8)
        fractions = []
        for mu in (0.01, 0.1, 1.0):
            w, _ = train_sparse_dae(X, Xhat, nodes=8, lam=1.0, mu=mu,
                                    opts=tight_opts(outer=15))
            # recover the final code from a fresh ISTA solve at the trained weights
            from radden.sparse_solvers import ista_solve
            E = w.activation.apply(w.matrices["W1"] @ Xhat)
            D = np.vstack([w.matrices["W2"], np.eye(8)])
            T = np.vstack([X, E])
            Z = ista_solve(D, T, mu, np.zeros((8, X.shape[1])),
                           IstaOptions(max_iterations=500,
                                       relative_tolerance=1e-10)).z
            fractions.append(np.mean(np.abs(Z) > 1e-8))
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_monotone_objective(self):
        X, Xhat = synthetic_pair(seed=9)
        _, trace = train_sparse_dae(X, Xhat, nodes=6, mu=0.2, opts=tight_opts())
        obj = np.array(trace.objectives)
        assert np.all(np.diff(obj) <= 1e-8 * np.abs(obj[:-1]) + 1e-12)


class TestTrainStacked:
    def test_low_rank_linear_recovery(self):
        rng = np.random.default_rng(10)
        P, Q, r = 20, 40, 8
        X = np.clip(rng.random((P, r)) @ rng.random((r, Q)) / r, 0, 1)
        w, trace = train_stacked_sdae(
            X, X, sizes=(16, 12, 8), mu_layers=(1, 1, 1),
            lam_layers=(0, 0, 0), opts=tight_opts(outer=80))
        recon = infer(w, X, clamp=False)
        assert np.sum((X - recon) ** 2) <= 1e-4 * np.sum(X * X)

    def test_single_image_interpolation(self):
        rng = np.random.default_rng(11)
        x = rng.random((12, 1))
        xh = np.clip(x + 0.05 * rng.standard_normal((12, 1)), 0, 1)
        w, _ = train_stacked_sdae(x, xh, sizes=(8, 6, 4), lam_layers=(0, 0, 0),
                                  opts=tight_opts(outer=150))
        np.testing.assert_allclose(infer(w, xh, clamp=False), x, atol=1e-6)

    def test_monotone_objective(self):
        X, Xhat = synthetic_pair(P=18, Q=30, seed=12)
        _, trace = train_stacked_sdae(X, Xhat, sizes=(12, 8, 5),
                                      opts=tight_opts(outer=25))
        obj = np.array(trace.objectives)
        assert np.all(np.diff(obj) <= 1e-8 * np.abs(obj[:-1]) + 1e-12)

    def test_layer_sizes_must_decrease(self):
        X, Xhat = synthetic_pair()
        with pytest.raises(ConfigError):
            train_stacked_sdae(X, Xhat, sizes=(8, 8, 4))

    def test_deterministic(self):
        X, Xhat = synthetic_pair(seed=13)
        w1, _ = train_stacked_sdae(X, Xhat, sizes=(10, 7, 4), opts=tight_opts(outer=5))
        w2, _ = train_stacked_sdae(X, Xhat, sizes=(10, 7, 4), opts=tight_opts(outer=5))
        for k in w1.matrices:
            np.testing.assert_array_equal(w1.matrices[k], w2.matrices[k])


class TestCodeUpdate:
    """The loop's code update against the block objective written out here."""

    @staticmethod
    def chain_point(sizes, seed):
        rng = np.random.default_rng(seed)
        P, Q = 10, 15
        dims = (P, *sizes, P)
        W = [rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
             for i in range(len(dims) - 1)]
        H = [rng.random((P, Q))] + [rng.standard_normal((l, Q)) for l in sizes]
        return W, H + [rng.random((P, Q))]

    @pytest.mark.parametrize("exact", [False, True])
    def test_stacked_z0_weights_both_couplings(self, exact):
        W, H = self.chain_point((8, 6, 4), seed=23)
        m0, m1 = 1.0, 4.0
        # Z0 block: m1 ||Z1 - W12 Z0||^2 + m0 ||Z0 - W11 Xhat||^2 (s0 = 0)
        D = np.vstack([np.sqrt(m1) * W[1], np.sqrt(m0) * np.eye(8)])
        T = np.vstack([np.sqrt(m1) * H[2], np.sqrt(m0) * (W[0] @ H[0])])
        expected = np.linalg.lstsq(D, T, rcond=None)[0]
        ista = IstaOptions(max_iterations=5000, relative_tolerance=1e-300)
        got = _update_code(W, H, (m0, m1, 1.0, 1.0), 0,
                           None if exact else 0.0, ista)
        # ISTA stops once the objective stalls in floating point, about
        # sqrt(eps) from the minimizer
        tol = 1e-12 if exact else 1e-6
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=tol * np.abs(expected).max())

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_exact_shallow_code_is_least_squares(self, lam):
        W, H = self.chain_point((6,), seed=24)
        D = np.vstack([W[1], np.sqrt(lam) * np.eye(6)])
        T = np.vstack([H[2], np.sqrt(lam) * (W[0] @ H[0])])
        expected = np.linalg.lstsq(D, T, rcond=None)[0]
        got = _update_code(W, H, (lam, 1.0), 0, None, IstaOptions())
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_sparse_code_update_is_stacked_ista(self, i):
        # the Gram form against ista_solve on the stacked design and target
        W, H = self.chain_point((8, 6, 4), seed=28)
        c = (0.5, 2.0, 0.7, 1.0)
        a, b = np.sqrt(c[i + 1]), np.sqrt(c[i])
        D = np.vstack([a * W[i + 1], b * np.eye(len(H[i + 1]))])
        T = np.vstack([a * H[i + 2], b * (W[i] @ H[i])])
        ista = IstaOptions(max_iterations=300, relative_tolerance=1e-6)
        expected = ista_solve(D, T, 0.3, H[i + 1], ista)
        stats = []
        got = _update_code(W, H, c, i, 0.3, ista, stats=stats)
        np.testing.assert_allclose(got, expected.z, rtol=0,
                                   atol=1e-12 * np.abs(expected.z).max())
        assert stats == [(expected.iterations, expected.converged)]
        assert expected.converged > 0   # the stopping rule, which reads ||y||^2, fired

    @pytest.mark.parametrize("rows, coupling, scale", [
        (3, 0.7, 1.0), (20, 0.7, 1.0), (3, 0.0, 0.0)],
        ids=["wide", "tall", "floor"])
    def test_step_is_the_gram_bound(self, monkeypatch, rows, coupling, scale):
        # a wide W[1] gives the eigenvalue through W[1] W[1].T, a tall one
        # through D.T D; either way the step is ista_gram's own rule on D.T D,
        # and a zero D.T D takes the floor
        rng = np.random.default_rng(31)
        k, P, Q = 8, 10, 15
        W = [rng.standard_normal((k, P)), scale * rng.standard_normal((rows, k))]
        H = [rng.random((P, Q)), rng.standard_normal((k, Q)), rng.random((rows, Q))]
        solve, calls = autoencoders.ista_gram, []

        def recording(DtD, *args):
            result = solve(DtD, *args)
            calls.append((DtD, result.step))
            return result
        monkeypatch.setattr(autoencoders, "ista_gram", recording)
        _update_code(W, H, (coupling, 2.0), 0, 0.3, IstaOptions(max_iterations=3))
        [(DtD, step)] = calls
        np.testing.assert_allclose(step, 1.0 / _gram_bound(DtD), rtol=1e-12, atol=0)
        assert (step == 1e12) == (scale == 0.0)


_weights_0_to_4 = st.floats(0.0, 4.0, allow_subnormal=False)
_weights_0_to_2 = st.floats(0.0, 2.0, allow_subnormal=False)


@pytest.mark.parametrize("variant", ["dae", "sparse_dae", "stacked_sdae"])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000),
       couplings=st.tuples(_weights_0_to_4, _weights_0_to_4, _weights_0_to_4),
       sparsity=st.tuples(_weights_0_to_2, _weights_0_to_2, _weights_0_to_2))
@example(seed=0, couplings=(0.0, 1.0, 1.0), sparsity=(0.5, 0.5, 0.5))
@example(seed=1, couplings=(1.0, 4.0, 1.0), sparsity=(0.1, 0.0, 0.3))
def test_every_variant_trains_monotonically(variant, seed, couplings, sparsity):
    # shallow variants take lambda = couplings[0] and mu = sparsity[0]
    X, Xhat = synthetic_pair(P=12, Q=30, seed=seed)
    opts = TrainOptions(outer_iterations=8, outer_tolerance=1e-12, seed=seed,
                        ista=IstaOptions(max_iterations=50,
                                         relative_tolerance=1e-8))
    if variant == "dae":
        _, trace = train_dae(X, Xhat, 6, lam=couplings[0], opts=opts)
    elif variant == "sparse_dae":
        _, trace = train_sparse_dae(X, Xhat, 6, lam=couplings[0],
                                    mu=sparsity[0], opts=opts)
    else:
        _, trace = train_stacked_sdae(X, Xhat, (8, 5, 3), mu_layers=couplings,
                                      lam_layers=sparsity, opts=opts)
    obj = np.array(trace.objectives)
    assert np.all(np.diff(obj) <= 1e-8 * np.abs(obj[:-1]) + 1e-12), obj


_SHALLOW = (("Z", 0), ("W", 0), ("W", 1))
_STACKED = tuple(("W", i) for i in range(4)) + tuple(("Z", i) for i in range(3))


def reference_train(variant, X, Xhat, sizes, c, s, opts, order):
    """The trainers' block updates, each forming its own products: a stacked
    design and target for every code update (ISTA, or lstsq for the DAE), a
    fresh RidgeDesign(Xhat).solve for the encoder, and objective_value on
    the full weights after every outer iteration."""
    rng = np.random.default_rng(opts.seed)
    dims = (X.shape[0], *sizes, X.shape[0])
    W = [rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
         for i in range(len(dims) - 1)]
    H = [Xhat]
    for M in W[:-1]:
        H.append(M @ H[-1])
    H.append(X)
    cc = (*c, 1.0)
    stacked = variant == "stacked_sdae"
    names = ("W11", "W12", "W21", "W22") if stacked else ("W1", "W2")
    terms = (dict(mu_layers=c, lam_layers=s) if stacked
             else dict(lam=c[0], mu=s[0]))
    objectives, ista = [], []
    for _ in range(opts.outer_iterations):
        stats = []
        for block, i in order:
            if block == "W":
                W[i] = (RidgeDesign(Xhat).solve(H[1]) if i == 0
                        else solve_least_squares(H[i], H[i + 1]))
                continue
            a, b = np.sqrt(cc[i + 1]), np.sqrt(cc[i])
            D = np.vstack([a * W[i + 1], b * np.eye(len(H[i + 1]))])
            T = np.vstack([a * H[i + 2], b * (W[i] @ H[i])])
            if variant == "dae":
                H[i + 1] = np.linalg.lstsq(D, T, rcond=None)[0]
            else:
                res = ista_solve(D, T, s[i], H[i + 1], opts.ista)
                H[i + 1] = res.z
                stats.append((res.iterations, res.converged))
        weights = AutoencoderWeights(variant, Activation(), dict(zip(names, W)))
        codes = tuple(H[1:-1]) if stacked else H[1]
        objectives.append(objective_value(weights, codes, X, Xhat, **terms))
        ista.append(stats)
    return weights, objectives, ista


def repeated_pair(P, Q, distinct, seed):
    """A clean stack of `distinct` images, each repeated at shuffled places,
    and a corrupt stack with its own noise in every column."""
    rng = np.random.default_rng(seed)
    images, _ = synthetic_pair(P=P, Q=distinct, seed=seed)
    X = images[:, rng.permutation(np.arange(Q) % distinct)]
    return X, np.clip(X + 0.05 * rng.standard_normal((P, Q)), 0, 1)


@pytest.mark.parametrize("variant, order, distinct", [
    ("dae", _SHALLOW, None), ("sparse_dae", _SHALLOW, None),
    ("stacked_sdae", _STACKED, None),
    # codes first: each code update must see the code below it just changed
    ("stacked_sdae", _STACKED[4:] + _STACKED[:4], None),
    # 8 distinct clean images: the trainer reads X through a factor of 8
    # rows, the reference reads all 40 columns through objective_value
    ("dae", _SHALLOW, 8), ("sparse_dae", _SHALLOW, 8),
    ("stacked_sdae", _STACKED, 8)],
    ids=["dae", "sparse_dae", "stacked_sdae", "stacked_codes_first",
         "dae_repeated", "sparse_dae_repeated", "stacked_sdae_repeated"])
def test_trainer_matches_reference_formulation(variant, order, distinct):
    if distinct is None:
        X, Xhat = synthetic_pair(P=12, Q=40, seed=29)
    else:
        X, Xhat = repeated_pair(P=12, Q=40, distinct=distinct, seed=29)
        assert len(prepare_pair(X, Xhat).R) == distinct
    # every ISTA column runs to the cap, so rounding cannot move a stop
    opts = TrainOptions(outer_iterations=3, outer_tolerance=1e-300, seed=4,
                        ista=IstaOptions(max_iterations=30,
                                         relative_tolerance=1e-300))
    # At some couplings, e.g. (1, 4, 1), the reference itself moves its
    # weights by 2e-8 when Xhat moves by 1e-15 relative; these do not.
    if variant == "stacked_sdae":
        sizes, c, s = (9, 6, 4), (0.5, 2.0, 1.0), (0.1, 0.1, 0.1)
        w, trace = (train_stacked_sdae(X, Xhat, sizes, mu_layers=c,
                                       lam_layers=s, opts=opts)
                    if order is _STACKED
                    else _train(variant, X, Xhat, sizes, c, s, order, opts))
    elif variant == "sparse_dae":
        sizes, c, s = (7,), (0.7,), (0.2,)
        w, trace = train_sparse_dae(X, Xhat, 7, lam=0.7, mu=0.2, opts=opts)
    else:
        sizes, c, s = (7,), (0.7,), (0.0,)
        w, trace = train_dae(X, Xhat, 7, lam=0.7, opts=opts)
    ref, objectives, ista = reference_train(variant, X, Xhat, sizes, c, s,
                                            opts, order)
    # the codes-first reference moves its objectives by 3e-10 and its
    # weights by 9e-8 when Xhat moves by 1e-15 relative
    tol = (1e-10, 1e-8) if order in (_SHALLOW, _STACKED) else (1e-8, 1e-6)
    np.testing.assert_allclose(trace.objectives, objectives, rtol=tol[0], atol=0)
    for name, M in ref.matrices.items():
        assert np.linalg.norm(w.matrices[name] - M) <= tol[1] * np.linalg.norm(M), name
    # codes first, whole blocks reach exact fixed points, which stop even at
    # this tolerance, on sweeps that rounding can move
    if order in (_SHALLOW, _STACKED):
        assert trace.ista == ista


def test_trace_records_each_ista_code_update():
    X, Xhat = synthetic_pair(seed=30)
    cap = 6
    opts = TrainOptions(outer_iterations=3, outer_tolerance=1e-300,
                        ista=IstaOptions(max_iterations=cap,
                                         relative_tolerance=1e-3))
    for (_, trace), codes in ((train_dae(X, Xhat, 6, opts=opts), 0),
                              (train_sparse_dae(X, Xhat, 6, opts=opts), 1),
                              (train_stacked_sdae(X, Xhat, (8, 5, 3), opts=opts), 3)):
        assert len(trace.ista) == len(trace.objectives) == 3
        assert all(len(stats) == codes for stats in trace.ista)
        records = [r for stats in trace.ista for r in stats]
        assert all(1 <= it <= cap and 0 <= conv <= X.shape[1] for it, conv in records)
        if codes:   # some columns stop early, others reach the cap
            assert any(conv > 0 for _, conv in records)
            assert any(it == cap for it, _ in records)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("variant, kwargs, error", [
    ("dae", dict(lam=-1.0), DomainError),
    ("dae", dict(lam=NAN), DomainError),
    ("sparse_dae", dict(lam=INF), DomainError),
    ("sparse_dae", dict(mu=-0.1), DomainError),
    ("sparse_dae", dict(mu=NAN), DomainError),
    ("sparse_dae", dict(mu="0.1"), DomainError),
    ("stacked_sdae", dict(mu_layers=(1.0, -1.0, 1.0)), DomainError),
    ("stacked_sdae", dict(lam_layers=(NAN, 0.0, 0.0)), DomainError),
    ("stacked_sdae", dict(mu_layers=(1, 1)), ConfigError),
    ("stacked_sdae", dict(mu_layers=(1, 1, 1, 5)), ConfigError),
    ("stacked_sdae", dict(lam_layers=()), ConfigError),
    ("stacked_sdae", dict(sizes=(8, 5)), ConfigError),
])
def test_trainers_check_regularizers_alike(variant, kwargs, error):
    X, Xhat = synthetic_pair()
    if variant == "stacked_sdae":
        kwargs = {"sizes": (8, 5, 3), **kwargs}
        train = train_stacked_sdae
    else:
        kwargs = {"nodes": 6, **kwargs}
        train = train_dae if variant == "dae" else train_sparse_dae
    with pytest.raises(error):
        train(X, Xhat, **kwargs)


def _train_variant(variant, X, Xhat, opts, **kwargs):
    if variant == "dae":
        return train_dae(X, Xhat, 6, lam=0.7, opts=opts, **kwargs)
    if variant == "sparse_dae":
        return train_sparse_dae(X, Xhat, 6, lam=0.7, mu=0.2, opts=opts, **kwargs)
    return train_stacked_sdae(X, Xhat, (8, 5, 3), opts=opts, **kwargs)


class TestTrainingPair:
    def test_prepared_pair_trains_alike(self):
        # P > Q, as in the radar datasets, so the QR factor has Q rows
        X, Xhat = synthetic_pair(P=30, Q=20, seed=8)
        opts = TrainOptions(outer_iterations=4, outer_tolerance=1e-300, seed=2,
                            ista=IstaOptions(max_iterations=20,
                                             relative_tolerance=1e-6))
        pair = prepare_pair(X, Xhat)
        for variant in ("dae", "sparse_dae", "stacked_sdae"):
            own, own_trace = _train_variant(variant, X, Xhat, opts)
            shared, shared_trace = _train_variant(variant, X, Xhat, opts, pair=pair)
            assert ([M.tobytes() for M in shared.chain]
                    == [M.tobytes() for M in own.chain])
            assert (shared_trace.objectives, shared_trace.ista) == \
                (own_trace.objectives, own_trace.ista)

    def test_trainers_only_read_a_shared_pair(self, monkeypatch):
        # pooled trainers share one pair, so none may set anything on it
        X, Xhat = synthetic_pair(P=30, Q=20, seed=10)
        hat_calls = []
        hat = RidgeDesign.hat
        monkeypatch.setattr(RidgeDesign, "hat",
                            lambda design: hat_calls.append(design) or hat(design))
        pair = prepare_pair(X, Xhat)
        assert hat_calls == [pair.design]
        before = [dict(vars(pair)), dict(vars(pair.design))]
        contents = [value.tobytes() for value in vars(pair).values()
                    if isinstance(value, np.ndarray)]
        opts = TrainOptions(outer_iterations=3,
                            ista=IstaOptions(max_iterations=20))
        for variant in ("dae", "sparse_dae", "stacked_sdae"):
            _train_variant(variant, X, Xhat, opts, pair=pair)
        after = [dict(vars(pair)), dict(vars(pair.design))]
        assert [list(d) for d in after] == [list(d) for d in before]
        assert all(d[name] is value for b, d in zip(before, after)
                   for name, value in b.items())
        assert contents == [value.tobytes() for value in vars(pair).values()
                            if isinstance(value, np.ndarray)]
        assert hat_calls == [pair.design]

    def test_factor_has_a_row_per_distinct_column(self):
        # labels shuffled over 6 images; a copy with one bit changed and a
        # copy with -0.0 for 0.0 are new columns, since only bitwise equal
        # columns repeat, and so is a column reversed, whose bit patterns
        # sum to its original's
        X, Xhat = repeated_pair(P=30, Q=40, distinct=6, seed=11)
        X[0] = 0.0
        X[:, 7] = X[:, 3]
        X[1, 7] = np.nextafter(X[1, 3], 2.0)
        X[:, 9] = X[:, 1]
        X[0, 9] = -0.0
        X[:, 11] = X[::-1, 5]
        assert len({c.tobytes() for c in X.T}) == 9
        pair = prepare_pair(X, Xhat)
        assert pair.R.shape == (9, 40)
        A = np.random.default_rng(3).standard_normal((40, 5))
        for a in (A, A[:, 0]):
            np.testing.assert_allclose(np.linalg.norm(pair.R @ a),
                                       np.linalg.norm(X @ a), rtol=1e-12, atol=0)

    def test_factor_without_repeats_is_the_qr_factor(self):
        for P, Q in ((30, 20), (12, 40)):
            X, Xhat = synthetic_pair(P=P, Q=Q, seed=12)
            R = prepare_pair(X, Xhat).R
            assert R.tobytes() == np.linalg.qr(X, mode="r").tobytes()

    @pytest.mark.parametrize("variant", ["dae", "sparse_dae", "stacked_sdae"])
    def test_pair_of_float32_stacks_is_accepted(self, variant):
        # the pair holds float64 copies; the trainer still knows it was
        # prepared from the very float32 arrays that it is given
        X, Xhat = (A.astype(np.float32) for A in synthetic_pair(P=30, Q=20, seed=8))
        opts = TrainOptions(outer_iterations=3, ista=IstaOptions(max_iterations=20))
        own, own_trace = _train_variant(variant, X, Xhat, opts)
        shared, shared_trace = _train_variant(variant, X, Xhat, opts,
                                              pair=prepare_pair(X, Xhat))
        assert [M.tobytes() for M in shared.chain] == [M.tobytes() for M in own.chain]
        assert (shared_trace.objectives, shared_trace.ista) == \
            (own_trace.objectives, own_trace.ista)
        for pair in (prepare_pair(X.copy(), Xhat), prepare_pair(X, Xhat.copy())):
            with pytest.raises(ConfigError):
                _train_variant(variant, X, Xhat, opts, pair=pair)

    @pytest.mark.parametrize("variant", ["dae", "sparse_dae", "stacked_sdae"])
    def test_pair_of_other_arrays_refused(self, variant):
        X, Xhat = synthetic_pair(seed=9)
        opts = TrainOptions(outer_iterations=2)
        for pair in (prepare_pair(X.copy(), Xhat), prepare_pair(X, Xhat.copy())):
            with pytest.raises(ConfigError):
                _train_variant(variant, X, Xhat, opts, pair=pair)


class TestLinearTraining:
    def test_trainers_return_linear_weights(self):
        X, Xhat = synthetic_pair(seed=26)
        opts = tight_opts(outer=2)
        for w, _ in (train_dae(X, Xhat, 5, opts=opts),
                     train_sparse_dae(X, Xhat, 5, opts=opts),
                     train_stacked_sdae(X, Xhat, (8, 5, 3), opts=opts)):
            assert w.activation == Activation("linear")


class TestInfer:
    def test_identity_composition(self):
        rng = np.random.default_rng(14)
        W1 = rng.standard_normal((4, 4))
        W2 = np.linalg.inv(W1)
        w = AutoencoderWeights("dae", Activation(), {"W1": W1, "W2": W2})
        x = rng.random(4)
        np.testing.assert_allclose(infer(w, x), np.clip(x, 0, 1), atol=1e-10)

    def test_zero_weights(self):
        w = AutoencoderWeights("dae", Activation(),
                               {"W1": np.zeros((3, 6)), "W2": np.zeros((6, 3))})
        np.testing.assert_array_equal(infer(w, np.ones(6)), np.zeros(6))

    def test_batch_equals_columnwise(self):
        rng = np.random.default_rng(15)
        w = AutoencoderWeights("dae", Activation(),
                               {"W1": rng.standard_normal((4, 9)),
                                "W2": rng.standard_normal((9, 4))})
        X = rng.random((9, 5))
        batch = infer(w, X)
        for j in range(5):
            np.testing.assert_allclose(infer(w, X[:, j]), batch[:, j], atol=1e-12)

    def test_stacked_matches_explicit_composition(self):
        rng = np.random.default_rng(16)
        mats = {"W11": rng.standard_normal((8, 12)),
                "W12": rng.standard_normal((6, 8)),
                "W21": rng.standard_normal((4, 6)),
                "W22": rng.standard_normal((12, 4))}
        w = AutoencoderWeights("stacked_sdae", Activation(), mats)
        x = rng.random(12)
        explicit = mats["W22"] @ (mats["W21"] @ (mats["W12"] @ (mats["W11"] @ x)))
        np.testing.assert_allclose(infer(w, x, clamp=False), explicit, atol=1e-12)

    def test_dimension_mismatch(self):
        w = AutoencoderWeights("dae", Activation(),
                               {"W1": np.zeros((2, 5)), "W2": np.zeros((5, 2))})
        with pytest.raises(ConfigError):
            infer(w, np.ones(4))

    @pytest.mark.parametrize("variant,shapes", [
        ("dae", {"W1": (5, 10), "W2": (10, 6)}),      # W2 takes 6, W1 gives 5
        ("dae", {"W1": (5, 10), "W2": (9, 5)}),       # decoder returns 9, not P
        ("stacked_sdae", {"W11": (8, 12), "W12": (6, 7), "W21": (4, 6),
                          "W22": (12, 4)}),
        ("sparse_dae", {"W1": np.zeros(5), "W2": (5, 5)}),
    ])
    def test_chain_must_compose(self, variant, shapes):
        mats = {name: np.zeros(s) if isinstance(s, tuple) else s
                for name, s in shapes.items()}
        with pytest.raises(ConfigError):
            AutoencoderWeights(variant, Activation(), mats)

    def test_flop_count_ordering(self):
        rng = np.random.default_rng(17)
        P = 961
        shallow = AutoencoderWeights("dae", Activation(),
                                     {"W1": np.zeros((500, P)),
                                      "W2": np.zeros((P, 500))})
        stacked = AutoencoderWeights("stacked_sdae", Activation(),
                                     {"W11": np.zeros((256, P)),
                                      "W12": np.zeros((128, 256)),
                                      "W21": np.zeros((64, 128)),
                                      "W22": np.zeros((P, 64))})
        assert inference_flops(stacked) < inference_flops(shallow)


class TestObjectiveValue:
    def test_zero_point(self):
        P, Q = 6, 4
        X = np.random.default_rng(18).random((P, Q))
        w = AutoencoderWeights("dae", Activation(),
                               {"W1": np.zeros((3, P)), "W2": np.zeros((P, 3))})
        Z = np.zeros((3, Q))
        assert objective_value(w, Z, X, X, lam=0.0) == pytest.approx(np.sum(X * X))

    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(19)
        W1 = rng.standard_normal((3, 6))
        Xhat = rng.random((6, 4))
        Z = W1 @ Xhat
        W2 = np.linalg.lstsq(Z.T, Xhat.T, rcond=None)[0].T
        X = W2 @ Z
        w = AutoencoderWeights("dae", Activation(), {"W1": W1, "W2": W2})
        assert objective_value(w, Z, X, Xhat, lam=1.0) == pytest.approx(0.0, abs=1e-18)

    def test_independent_evaluator(self):
        rng = np.random.default_rng(20)
        P, Q, l = 7, 5, 3
        X, Xhat = rng.random((P, Q)), rng.random((P, Q))
        W1, W2 = rng.standard_normal((l, P)), rng.standard_normal((P, l))
        Z = rng.standard_normal((l, Q))
        lam, mu = 0.7, 0.3
        w = AutoencoderWeights("sparse_dae", Activation(), {"W1": W1, "W2": W2})
        # straightforward re-evaluation, written without the library helpers
        expected = 0.0
        for i in range(P):
            for q in range(Q):
                expected += (X[i, q] - sum(W2[i, k] * Z[k, q] for k in range(l))) ** 2
        for k in range(l):
            for q in range(Q):
                enc = sum(W1[k, i] * Xhat[i, q] for i in range(P))
                expected += lam * (Z[k, q] - enc) ** 2 + mu * abs(Z[k, q])
        got = objective_value(w, Z, X, Xhat, lam=lam, mu=mu)
        assert got == pytest.approx(expected, rel=1e-12)


class TestWeightsIo:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_round_trip(self, tmp_path, stacked):
        rng = np.random.default_rng(21)
        if stacked:
            mats = {"W11": rng.standard_normal((8, 12)),
                    "W12": rng.standard_normal((6, 8)),
                    "W21": rng.standard_normal((4, 6)),
                    "W22": rng.standard_normal((12, 4))}
            w = AutoencoderWeights("stacked_sdae", Activation(), mats)
        else:
            w = AutoencoderWeights("dae", Activation(),
                                   {"W1": rng.standard_normal((5, 9)),
                                    "W2": rng.standard_normal((9, 5))})
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.variant == w.variant
        assert loaded.activation.kind == w.activation.kind
        for k in w.matrices:
            np.testing.assert_array_equal(loaded.matrices[k], w.matrices[k])

    def test_reserved_header_slot_ignored(self, tmp_path):
        # files with any value in the float64 after the tags load alike
        rng = np.random.default_rng(27)
        w = AutoencoderWeights("sparse_dae", Activation(),
                               {"W1": rng.standard_normal((4, 7)),
                                "W2": rng.standard_normal((7, 4))})
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<d", 0.05)
        path.write_bytes(bytes(raw))
        loaded = load_weights(path)
        assert loaded.activation == w.activation
        for k in w.matrices:
            np.testing.assert_array_equal(loaded.matrices[k], w.matrices[k])

    def test_bytes_match_chain_layout(self, tmp_path):
        rng = np.random.default_rng(28)
        mats = {"W11": rng.standard_normal((8, 12)),
                "W12": rng.standard_normal((6, 8)),
                "W21": rng.standard_normal((4, 6)),
                "W22": rng.standard_normal((12, 4))}
        path = tmp_path / "weights.bin"
        save_weights(AutoencoderWeights("stacked_sdae", Activation(), mats), path)
        # magic, variant tag 2, activation tag 0 (linear), the reserved
        # float64, the sizes P, l0, l1, l2, then each matrix column-major
        expected = (b"RDAEW1" + struct.pack("<BBd", 2, 0, 1e-6)
                    + struct.pack("<H4I", 4, 12, 8, 6, 4)
                    + b"".join(mats[k].astype("<f8").tobytes(order="F")
                               for k in ("W11", "W12", "W21", "W22")))
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("tag", [1, 2])
    def test_nonlinear_activation_tag_refused(self, tmp_path, tag):
        # tags 1 and 2 once stood for tanh and sigmoid
        rng = np.random.default_rng(29)
        w = AutoencoderWeights("dae", Activation(),
                               {"W1": rng.standard_normal((3, 6)),
                                "W2": rng.standard_normal((6, 3))})
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        raw = bytearray(path.read_bytes())
        raw[7] = tag
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_weights(path)

    def test_trailing_bytes_refused(self, tmp_path):
        rng = np.random.default_rng(30)
        w = AutoencoderWeights("dae", Activation(),
                               {"W1": rng.standard_normal((3, 6)),
                                "W2": rng.standard_normal((6, 3))})
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "weights.bin"
        path.write_bytes(b"NOPE!!" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_weights(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(22)
        w = AutoencoderWeights("dae", Activation(),
                               {"W1": rng.standard_normal((5, 9)),
                                "W2": rng.standard_normal((9, 5))})
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_weights(path)


@pytest.mark.parametrize("variant, order", [
    ("dae", _SHALLOW), ("sparse_dae", _SHALLOW), ("stacked_sdae", _STACKED),
    ("stacked_sdae", _STACKED[4:] + _STACKED[:4])],
    ids=["dae", "sparse_dae", "stacked_sdae", "stacked_codes_first"])
def test_trainer_matches_reference_with_more_pixels_than_columns(variant, order):
    # P > Q and a rank-deficient clean stack, as in the radar datasets: each
    # of 8 clean columns is paired with 3 noise draws, so X (60 x 24) has
    # rank 8 and the pair's factor R has 8 rows
    rng = np.random.default_rng(31)
    X = np.repeat(rng.random((60, 8)), 3, axis=1)
    Xhat = np.clip(X + 0.05 * rng.standard_normal(X.shape), 0, 1)
    opts = TrainOptions(outer_iterations=3, outer_tolerance=1e-300, seed=5,
                        ista=IstaOptions(max_iterations=30,
                                         relative_tolerance=1e-300))
    # Below rank 8 the DAE does not interpolate, whose objective would sit
    # at rounding level; unit couplings keep the stacked reference as
    # well-conditioned as in the P < Q test.
    if variant == "stacked_sdae":
        sizes, c, s = (9, 6, 4), (1.0, 1.0, 1.0), (0.1, 0.1, 0.1)
        w, trace = _train(variant, X, Xhat, sizes, c, s, order, opts)
    elif variant == "sparse_dae":   # more nodes than columns
        sizes, c, s = (30,), (0.7,), (0.2,)
        w, trace = train_sparse_dae(X, Xhat, 30, lam=0.7, mu=0.2, opts=opts)
    else:
        sizes, c, s = (7,), (0.7,), (0.0,)
        w, trace = train_dae(X, Xhat, 7, lam=0.7, opts=opts)
    ref, objectives, ista = reference_train(variant, X, Xhat, sizes, c, s,
                                            opts, order)
    tol = (1e-10, 1e-8) if order in (_SHALLOW, _STACKED) else (1e-8, 1e-6)
    np.testing.assert_allclose(trace.objectives, objectives, rtol=tol[0], atol=0)
    for name, M in ref.matrices.items():
        assert np.linalg.norm(w.matrices[name] - M) <= tol[1] * np.linalg.norm(M), name
    if order in (_SHALLOW, _STACKED):
        assert trace.ista == ista
