"""End-to-end acceptance suite.

Each test prints one summary line so a full run reads as a checklist: solver
correctness, monotone training, variant reduction identities, denoising
effectiveness, label-mismatch robustness ordering, classical-baseline gap,
inference speed ordering, metric identities, and synthesis physics.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from radden.autoencoders import (AutoencoderWeights, TrainOptions, infer,
                                 inference_flops, objective_value,
                                 train_dae, train_sparse_dae,
                                 train_stacked_sdae)
from radden.bench import (DatasetSpec, ExperimentConfig, SweepSpec, TrainSpec,
                          evaluate_grid_point)
from radden.dataset import (ChannelModel, RadarConfig, ScattererTrack,
                            WallClass, hrrp, radar_returns, spectrogram)
from radden.dataset.gait import TIME_GRID
from radden.metrics import nmse, ssim
from radden.sparse_solvers import IstaOptions, ista_solve, solve_least_squares

SNR_DB = -10.0


def _report(name, detail):
    print(f"[accept] {name}: {detail} -- PASS")


# -- 1. solver correctness against independent reference implementations -----

def _lasso_coordinate_descent(D, y, mu, sweeps=4000, tol=1e-12):
    """Reference lasso solver: cyclic coordinate descent on
    ||y - D z||^2 + mu * |z|_1."""
    n = D.shape[1]
    z = np.zeros(n)
    col_sq = np.sum(D * D, axis=0)
    r = y - D @ z
    for _ in range(sweeps):
        delta = 0.0
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            zj = z[j]
            rho = D[:, j] @ r + col_sq[j] * zj
            new = np.sign(rho) * max(abs(rho) - 0.5 * mu, 0.0) / col_sq[j]
            if new != zj:
                r -= D[:, j] * (new - zj)
                delta = max(delta, abs(new - zj))
                z[j] = new
        if delta <= tol:
            break
    return z


def test_solvers_match_reference_implementations():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    for _ in range(50):
        n, q, p = rng.integers(5, 20, size=3)
        A = rng.standard_normal((int(n), int(q)))
        B = rng.standard_normal((int(p), int(q)))
        ridge = float(rng.uniform(0.01, 1.0))
        W = solve_least_squares(A, B, ridge=ridge)
        W_ref = np.linalg.solve(A @ A.T + ridge * np.eye(int(n)),
                                A @ B.T).T
        assert np.linalg.norm(W - W_ref) <= 1e-8 * max(np.linalg.norm(W_ref), 1e-12)

    opts = IstaOptions(max_iterations=20000, relative_tolerance=1e-14)
    for _ in range(50):
        m, n = int(rng.integers(8, 20)), int(rng.integers(4, 12))
        D = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        mu = float(rng.uniform(0.05, 1.0))
        res = ista_solve(D, y[:, None], mu, np.zeros((n, 1)), opts)
        z_ref = _lasso_coordinate_descent(D, y, mu)

        def obj(z):
            return float(np.sum((y - D @ z) ** 2) + mu * np.sum(np.abs(z)))

        assert obj(res.z[:, 0]) <= obj(z_ref) + 1e-5 * max(abs(obj(z_ref)), 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    _report("solver oracles", f"100 instances matched in {elapsed:.1f}s")


# -- 2. monotone objective traces on a desk-scale problem --------------------

def test_training_objective_never_increases():
    rng = np.random.default_rng(7)
    P, Q = 961, 200
    X = rng.random((P, Q))
    Xhat = np.clip(X + 0.3 * rng.standard_normal((P, Q)), 0.0, 1.0)
    opts = TrainOptions(outer_iterations=12, outer_tolerance=1e-12, seed=7,
                        ista=IstaOptions(max_iterations=30,
                                         relative_tolerance=1e-8))
    t0 = time.perf_counter()
    traces = {
        "dae": train_dae(X, Xhat, 500, lam=1.0, opts=opts)[1],
        "sparse_dae": train_sparse_dae(X, Xhat, 256, lam=1.0, mu=1.0,
                                       opts=opts)[1],
        "stacked_sdae": train_stacked_sdae(X, Xhat, (256, 128, 64),
                                           mu_layers=(1.0, 1.0, 1.0),
                                           lam_layers=(1.0, 1.0, 1.0),
                                           opts=opts)[1],
    }
    elapsed = time.perf_counter() - t0
    for name, trace in traces.items():
        objs = np.asarray(trace.objectives)
        assert len(objs) >= 2, f"{name} recorded too few iterations"
        increases = objs[1:] - objs[:-1]
        assert np.all(increases <= 1e-8 * np.abs(objs[:-1])), \
            f"{name} objective increased: {objs}"
    assert elapsed <= 120.0
    _report("monotone training",
            f"3 variants on 961x200 in {elapsed:.0f}s, traces non-increasing")


# -- 3. reduction identity and inference composition -------------------------

def test_variant_reduction_and_inference_composition():
    rng = np.random.default_rng(3)
    P, Q, nodes = 200, 80, 40
    X = rng.random((P, Q))
    Xhat = np.clip(X + 0.2 * rng.standard_normal((P, Q)), 0.0, 1.0)
    opts = TrainOptions(outer_iterations=8, outer_tolerance=1e-30, seed=3,
                        ista=IstaOptions(max_iterations=4000,
                                         relative_tolerance=1e-15))
    _, trace_plain = train_dae(X, Xhat, nodes, lam=1.0, opts=opts)
    _, trace_zero_mu = train_sparse_dae(X, Xhat, nodes, lam=1.0, mu=0.0,
                                        opts=opts)
    a = np.asarray(trace_plain.objectives)
    b = np.asarray(trace_zero_mu.objectives)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= 1e-5 * np.abs(a))

    weights, _ = train_stacked_sdae(X, Xhat, (32, 16, 8),
                                    opts=TrainOptions(outer_iterations=3,
                                                      seed=3))
    x = rng.random((P, 5))
    manual = weights.matrices["W22"] @ (
        weights.matrices["W21"] @ (
            weights.matrices["W12"] @ (
                weights.matrices["W11"] @ x)))
    direct = infer(weights, x, clamp=False)
    assert np.max(np.abs(manual - direct)) <= 1e-12
    _report("reduction identities",
            "mu=0 sparse trace == plain trace; composition exact")


# -- shared helpers for the benchmark-level criteria -------------------------

def _bench_config(kind, wall_class, algorithms, axis="snr"):
    kw = dict(kind=kind, wall_class=wall_class)
    if kind == "hrrp":
        kw.update(bandwidth_hz=2e9, freq_count=133)
    return ExperimentConfig(
        dataset=DatasetSpec(**kw),
        sweep=SweepSpec(axis=axis, values=(0.0,), seeds=(0,),
                        algorithms=algorithms, split=0.7),
        train=TrainSpec())


# -- 4. denoising effectiveness at heavy noise -------------------------------

def test_spectrogram_denoising_effectiveness():
    cfg = _bench_config("spectrogram", "low",
                        ("dae", "sparse_dae", "stacked_sdae"))
    assert cfg.dataset.count == 320
    t0 = time.perf_counter()
    rows = evaluate_grid_point(cfg, SNR_DB, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    summary = []
    for row in rows:
        assert row.ssim_ad >= row.ssim_bd + 0.2, \
            f"{row.algorithm}: AD {row.ssim_ad:.3f} vs BD {row.ssim_bd:.3f}"
        summary.append(f"{row.algorithm} {row.ssim_ad:.3f}")
        if row.algorithm == "stacked_sdae":
            assert row.ssim_ad >= 0.70, f"stacked SSIM {row.ssim_ad:.3f} < 0.70"
    _report("denoising effectiveness",
            f"{'; '.join(summary)} (BD {rows[0].ssim_bd:.3f}, {elapsed:.0f}s)")


# -- 5. robustness to mislabeled training pairs ------------------------------

def test_label_mismatch_robustness_ordering():
    kinds = ("spectrogram", "hrrp", "frontal")
    seeds = (0, 1, 2)
    variants = ("dae", "sparse_dae", "stacked_sdae")
    score = {k: {v: {0.0: [], 0.5: []} for v in variants} for k in kinds}
    for kind in kinds:
        cfg = _bench_config(kind, "low", variants, axis="mismatch")
        for seed in seeds:
            for level in (0.0, 0.5):
                for row in evaluate_grid_point(cfg, level, seed=seed):
                    score[kind][row.algorithm][level].append(row.ssim_ad)

    ordered_kinds = 0
    drops = {v: [] for v in variants}
    lines = []
    for kind in kinds:
        at50 = {v: float(np.mean(score[kind][v][0.5])) for v in variants}
        if at50["stacked_sdae"] >= at50["sparse_dae"] >= at50["dae"]:
            ordered_kinds += 1
        for v in variants:
            drops[v].append(float(np.mean(score[kind][v][0.0])) - at50[v])
        lines.append(f"{kind}: " + " ".join(f"{v}={at50[v]:.4f}"
                                            for v in variants))
    mean_drop = {v: float(np.mean(drops[v])) for v in variants}
    assert ordered_kinds >= 2, \
        f"ordering held on {ordered_kinds}/3 kinds: {lines}"
    assert mean_drop["stacked_sdae"] <= min(mean_drop["dae"],
                                            mean_drop["sparse_dae"]), \
        f"stacked drop not smallest: {mean_drop}"
    _report("mismatch robustness",
            f"ordering on {ordered_kinds}/3 kinds; drops " +
            " ".join(f"{v}={mean_drop[v]:+.4f}" for v in variants))


# -- 6. gap over classical single-image baselines ----------------------------

def test_stacked_outperforms_classical_baselines():
    cfg = _bench_config("spectrogram", "high",
                        ("stacked_sdae", "svd", "wavelet"))
    rows = {r.algorithm: r for r in evaluate_grid_point(cfg, SNR_DB, seed=0)}
    stacked = rows["stacked_sdae"]
    for name in ("svd", "wavelet"):
        assert stacked.ssim_ad >= rows[name].ssim_ad + 0.3, \
            f"stacked {stacked.ssim_ad:.3f} vs {name} {rows[name].ssim_ad:.3f}"
    assert stacked.nmse_ad < 0.1 * stacked.nmse_bd, \
        f"NMSE AD {stacked.nmse_ad:.3f} vs BD {stacked.nmse_bd:.3f}"
    _report("baseline gap",
            f"stacked {stacked.ssim_ad:.3f} vs svd {rows['svd'].ssim_ad:.3f}, "
            f"wavelet {rows['wavelet'].ssim_ad:.3f}; "
            f"NMSE {stacked.nmse_bd:.2f} -> {stacked.nmse_ad:.3f}")


# -- 7. deep-but-narrow inference beats wide-and-shallow ---------------------

def test_stacked_inference_is_faster():
    rng = np.random.default_rng(11)
    P = 961
    flat = AutoencoderWeights("dae", {
        "W1": rng.standard_normal((500, P)) / np.sqrt(P),
        "W2": rng.standard_normal((P, 500)) / np.sqrt(500),
    })
    deep = AutoencoderWeights("stacked_sdae", {
        "W11": rng.standard_normal((256, P)) / np.sqrt(P),
        "W12": rng.standard_normal((128, 256)) / np.sqrt(256),
        "W21": rng.standard_normal((64, 128)) / np.sqrt(128),
        "W22": rng.standard_normal((P, 64)) / np.sqrt(64),
    })
    x = rng.random((P, 1))

    def timed(weights):
        # the fastest of several 100-call repeats: a stall on a shared
        # machine slows one repeat, not all of them
        infer(weights, x)  # warm up
        best = np.inf
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(100):
                infer(weights, x)
            best = min(best, time.perf_counter() - t0)
        return best / 100 * 1e3

    flat_ms, deep_ms = timed(flat), timed(deep)
    assert inference_flops(deep) < inference_flops(flat)
    assert deep_ms < flat_ms, f"deep {deep_ms:.3f}ms vs flat {flat_ms:.3f}ms"
    _report("inference speed",
            f"stacked {deep_ms:.3f}ms < single-layer {flat_ms:.3f}ms "
            f"({inference_flops(deep)} vs {inference_flops(flat)} MACs)")


# -- 8. metric identities ----------------------------------------------------

def test_metric_identities():
    rng = np.random.default_rng(23)
    x = rng.random((32, 32))
    assert ssim(x, x) == 1.0
    assert nmse(x, x) == 0.0
    assert nmse(2.0 * x, x) == 1.0
    worst = 0.0
    for _ in range(20):
        a, b = rng.random((32, 32)), rng.random((32, 32))
        worst = max(worst, abs(ssim(a, b) - ssim(b, a)))
    assert worst <= 1e-12
    _report("metric identities",
            f"ssim/nmse fixed points exact; symmetry gap {worst:.1e}")


# -- 9. synthesis physics ----------------------------------------------------

def test_signature_synthesis_physics():
    # constant-radial-velocity scatterer: Doppler line at 2 v f / c
    radar = RadarConfig(carrier_hz=2.4e9)
    v = 0.9765625  # puts the Doppler line exactly on a 500/64 Hz STFT bin
    rho = 50.0 - v * TIME_GRID
    track = ScattererTrack(rho, rho, [1.0])
    s_rx = radar_returns(track, ChannelModel(WallClass.FREE_SPACE), radar)
    power, doppler, _ = spectrogram(s_rx[:, 0])
    f_doppler = 2.0 * v * radar.carrier_hz / 3e8
    idx = int(np.argmin(np.abs(doppler - f_doppler)))
    in_band = float(power[idx - 1: idx + 2].sum() / power.sum())
    assert in_band > 0.9, f"only {in_band:.3f} of energy within +-1 bin"

    # wideband profile: point target in the right bin, stated resolution
    wide = RadarConfig(carrier_hz=2.4e9, bandwidth_hz=2e9, freq_count=133)
    assert wide.range_resolution == pytest.approx(0.075, rel=1e-12)
    assert wide.unambiguous_range == pytest.approx(10.0, rel=5e-3)
    r0 = 3.3
    static = ScattererTrack(np.full((1, TIME_GRID.size), r0),
                            np.full((1, TIME_GRID.size), r0), [1.0])
    profile, ranges = hrrp(
        radar_returns(static, ChannelModel(WallClass.FREE_SPACE), wide,
                      samples=np.arange(10)), wide)
    peak_bin = int(np.argmax(profile.mean(axis=1)))
    assert peak_bin == int(np.argmin(np.abs(ranges - r0)))
    _report("synthesis physics",
            f"{in_band:.3f} Doppler energy in band; range bin {peak_bin} at "
            f"{ranges[peak_bin]:.3f}m for a {r0}m target")
