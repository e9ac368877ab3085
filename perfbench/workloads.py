"""The three benchmark workloads.

Each workload has `setup(seed)`, which prepares inputs, and `op(state)`, the
timed operation, which returns a `Result`.  `evaluate(result, seed)` then
checks the outputs with the independent computations in `checks` and
returns the quality figures.  Every program function is looked up through its
module at call time, so the tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks
from radden import autoencoders, baselines, metrics
from radden import sparse_solvers
from radden.bench import config, datasets, sweep
from radden.dataset import corrupt

AUTOENCODERS = ("dae", "sparse_dae", "stacked_sdae")
ALGORITHMS = AUTOENCODERS + ("svd", "wavelet")
SNR_DB = -10.0
# Every workload keeps the dataset of seed 0 whatever --seed is.  Over seeds
# 11-20 the scene alone moved the grid point's autoencoder SSIM by a 19 %
# interquartile range and its wavelet SSIM by 22 %; the HRRP held-out
# walker's SSIM ranged 0.078-0.119 with the mismatched labels drawn from
# --seed; and over seeds 31-38 the frontal StackedSDAE training time had a
# 26 % interquartile range.  No bound of at most 25 % can gate on figures
# that the data alone moves this much.
DATA_SEED = 0
SAMPLED_COLUMNS = 4  # columns per algorithm that the per-column checks recompute


@dataclass
class Result:
    """What one operation produced, in the shape the checks need."""
    clean_tr: np.ndarray
    clean_te: np.ndarray
    corrupt_te: np.ndarray
    shape: tuple
    baselines: config.BaselineSpec
    denoised: dict = field(default_factory=dict)     # algorithm -> P x Q
    ssim: dict = field(default_factory=dict)         # algorithm -> per column
    trained: dict = field(default_factory=dict)      # algorithm -> (weights, trace)
    train_s: dict = field(default_factory=dict)      # algorithm -> seconds
    nmse: dict = field(default_factory=dict)         # algorithm -> mean NMSE
    rows: list = field(default_factory=list)         # grid point result rows
    ssim_bd: np.ndarray | None = None


def _train(algorithm, X, Xhat, spec: config.TrainSpec, seed):
    """One trainer call with the options a sweep derives from a TrainSpec."""
    opts = autoencoders.TrainOptions(
        outer_iterations=spec.outer_iterations,
        outer_tolerance=spec.outer_tolerance, seed=seed,
        ista=sparse_solvers.IstaOptions(max_iterations=spec.ista_iterations,
                                        relative_tolerance=spec.ista_tolerance))
    t0 = time.perf_counter()
    if algorithm == "dae":
        out = autoencoders.train_dae(X, Xhat, spec.dae_nodes,
                                     lam=spec.dae_lambda, opts=opts)
    elif algorithm == "sparse_dae":
        out = autoencoders.train_sparse_dae(X, Xhat, spec.sparse_nodes,
                                            lam=spec.sparse_lambda,
                                            mu=spec.sparse_mu, opts=opts)
    else:
        out = autoencoders.train_stacked_sdae(X, Xhat, spec.stacked_sizes,
                                              mu_layers=spec.stacked_mu,
                                              lam_layers=spec.stacked_lambda,
                                              opts=opts)
    return out, time.perf_counter() - t0


class GridPoint:
    """`evaluate_grid_point` on the default spectrogram config at seed 0, all
    five algorithms: the fixed workload of ROADMAP aim 1.  The grid point's
    seed also seeds its trainers, so --seed changes nothing here.  The
    outputs are recorded at the sweep module's calls into the trainers and
    `ssim_stack`, since the grid point returns only rows."""
    name = "grid_point"
    ops_per_round = 1  # one grid point
    setup_repeats = 3
    min_rounds = 1

    def setup(self, seed):
        cfg = config.ExperimentConfig(
            dataset=config.DatasetSpec(kind="spectrogram", wall_class="low",
                                       snr_db=SNR_DB),
            sweep=config.SweepSpec(axis="snr", values=(SNR_DB,),
                                   seeds=(DATA_SEED,), algorithms=ALGORITHMS,
                                   split=0.7),
            train=config.TrainSpec())
        # The benchmark's own copy of the dataset: the op's test columns are
        # checked to come from it.
        clean, _ = datasets.generate_pair(replace(cfg.dataset, seed=DATA_SEED))
        return {"cfg": cfg, "clean": clean.data}

    def op(self, state):
        cfg = state["cfg"]
        with _recording(sweep) as rec:
            rows = sweep.evaluate_grid_point(cfg, SNR_DB, DATA_SEED)
        (bd_stack, clean_te, shape), ssim_bd = rec.ssim_calls[0]
        result = Result(clean_tr=rec.trained["dae"][2], clean_te=clean_te,
                        corrupt_te=bd_stack, shape=shape,
                        baselines=cfg.baselines, ssim_bd=ssim_bd, rows=rows)
        for row, ((stack, _, _), values) in zip(rows, rec.ssim_calls[1:]):
            result.denoised[row.algorithm] = stack
            result.ssim[row.algorithm] = values
            result.nmse[row.algorithm] = row.nmse_ad
        for algorithm, (out, seconds, _) in rec.trained.items():
            result.trained[algorithm] = out
            result.train_s[algorithm] = seconds
        return result

    def check_inputs(self, state, result):
        cols = {c.tobytes() for c in state["clean"].T}
        checks.require(all(c.tobytes() in cols for c in result.clean_te.T),
                       "grid point test columns are not the seed's dataset")
        for row in result.rows:
            values = result.ssim[row.algorithm]
            checks.require(abs(row.ssim_ad - float(np.mean(values))) <= 1e-12,
                           f"{row.algorithm}: row SSIM {row.ssim_ad} is not "
                           "the mean of its ssim_stack call")


class _Recorder:
    def __init__(self):
        self.trained = {}
        self.ssim_calls = []


@contextlib.contextmanager
def _recording(module):
    """Record the sweep module's trainer and ssim_stack calls."""
    rec = _Recorder()
    originals = {name: getattr(module, name) for name in
                 ("train_dae", "train_sparse_dae", "train_stacked_sdae",
                  "ssim_stack")}

    def trainer(algorithm, fn):
        def call(X, Xhat, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(X, Xhat, *args, **kwargs)
            rec.trained[algorithm] = (out, time.perf_counter() - t0, X)
            return out
        return call

    def ssim_call(stack, ref, shape, *args, **kwargs):
        values = originals["ssim_stack"](stack, ref, shape, *args, **kwargs)
        rec.ssim_calls.append(((stack, ref, tuple(shape)), values))
        return values

    for algorithm in AUTOENCODERS:
        setattr(module, f"train_{algorithm}",
                trainer(algorithm, originals[f"train_{algorithm}"]))
    module.ssim_stack = ssim_call
    try:
        yield rec
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class TrainHrrp:
    """Broadband HRRP at -10 dB with 50 % label mismatch: walkers 1-3 train
    the three autoencoders, walker 4 is held out."""
    name = "train_hrrp"
    ops_per_round = 3  # one training (plus its inference and scoring) per variant
    setup_repeats = 2  # each set-up is seconds of radar synthesis
    min_rounds = 1

    def setup(self, seed):
        # --seed draws only the trainers' initial weights (see DATA_SEED)
        spec = config.DatasetSpec(kind="hrrp", wall_class="low",
                                  bandwidth_hz=2e9, freq_count=133,
                                  snr_db=SNR_DB, seed=DATA_SEED)
        clean, noisy = datasets.generate_pair(spec)
        train = np.nonzero(clean.realization <= 3)[0]
        test = np.nonzero(clean.realization == 4)[0]
        clean_tr = corrupt.shuffle_labels(clean.select(train), 0.5,
                                          seed=[DATA_SEED, 13])
        return {"seed": seed, "spec": spec, "train": config.TrainSpec(),
                "clean_tr": clean_tr.data, "corrupt_tr": noisy.data[:, train],
                "clean_te": clean.data[:, test], "corrupt_te": noisy.data[:, test]}

    def op(self, state):
        result = Result(clean_tr=state["clean_tr"], clean_te=state["clean_te"],
                        corrupt_te=state["corrupt_te"],
                        shape=state["spec"].image_shape,
                        baselines=config.BaselineSpec())
        for algorithm in AUTOENCODERS:
            (weights, trace), seconds = _train(
                algorithm, state["clean_tr"], state["corrupt_tr"],
                state["train"], state["seed"])
            denoised = autoencoders.infer(weights, state["corrupt_te"])
            result.ssim[algorithm] = metrics.ssim_stack(
                denoised, state["clean_te"], result.shape)
            result.denoised[algorithm] = denoised
            result.trained[algorithm] = (weights, trace)
            result.train_s[algorithm] = seconds
        return result

    def check_inputs(self, state, result):
        pass


class DenoiseFrontal:
    """About 2,500 frontal 31x31 images with point clutter at -10 dB.  The
    autoencoders are trained in set-up on one noise draw per base image,
    from initial weights drawn from --seed; the op denoises the other
    columns with all five algorithms and scores them."""
    name = "denoise_frontal"
    ops_per_round = 5  # one denoise-and-score pass per algorithm
    setup_repeats = 3
    min_rounds = 2  # a 12 s op moves by a fifth with a single stall

    def setup(self, seed):
        spec = config.DatasetSpec(kind="frontal", intervals=8, realizations=8,
                                  noise_draws=40, snr_db=SNR_DB, seed=DATA_SEED)
        clean, noisy = datasets.generate_pair(spec)
        draw = np.arange(clean.count) % spec.noise_draws
        train = np.nonzero(draw == 0)[0]
        test = np.nonzero(draw != 0)[0]
        cfg = config.ExperimentConfig(dataset=spec, train=config.TrainSpec())
        clean_tr = clean.data[:, train]
        trained, train_s = {}, {}
        for algorithm in AUTOENCODERS:
            trained[algorithm], train_s[algorithm] = _train(
                algorithm, clean_tr, noisy.data[:, train], cfg.train, seed)
        return {"cfg": cfg, "clean_tr": clean_tr, "trained": trained,
                "train_s": train_s, "clean_te": clean.data[:, test],
                "corrupt_te": noisy.data[:, test]}

    def op(self, state):
        cfg = state["cfg"]
        result = Result(clean_tr=state["clean_tr"], clean_te=state["clean_te"],
                        corrupt_te=state["corrupt_te"],
                        shape=cfg.dataset.image_shape, baselines=cfg.baselines,
                        trained=state["trained"], train_s=state["train_s"])
        for algorithm in ALGORITHMS:
            if algorithm in AUTOENCODERS:
                weights, _ = state["trained"][algorithm]
                denoised = autoencoders.infer(weights, state["corrupt_te"])
            else:
                denoised = sweep._baseline_denoise(
                    algorithm, state["corrupt_te"], result.shape, cfg)
            result.ssim[algorithm] = metrics.ssim_stack(
                denoised, state["clean_te"], result.shape)
            result.nmse[algorithm] = sweep._mean_nmse(denoised,
                                                      state["clean_te"])
            result.denoised[algorithm] = denoised
        return result

    def check_inputs(self, state, result):
        pass


WORKLOADS = {w.name: w for w in (GridPoint(), TrainHrrp(), DenoiseFrontal())}


def _sample(rng, count):
    return sorted(rng.choice(count, size=min(SAMPLED_COLUMNS, count),
                             replace=False).tolist())


def reference_figures(result: Result):
    """SSIM of the corrupt input and of the `mean_clean` control, which
    predicts the mean clean training image for every test column.  Both
    depend only on the inputs, so a run computes them once."""
    if result.ssim_bd is None:
        result.ssim_bd = metrics.ssim_stack(result.corrupt_te, result.clean_te,
                                            result.shape)
    mean_clean = np.repeat(result.clean_tr.mean(axis=1, keepdims=True),
                           result.clean_te.shape[1], axis=1)
    return {"ssim_bd": float(np.mean(result.ssim_bd)),
            "ssim_mean_clean": float(np.mean(metrics.ssim_stack(
                mean_clean, result.clean_te, result.shape)))}


def evaluate(result: Result, seed, reference):
    """Check every output of one operation; return the quality figures.

    Runs outside the timed region.  Raises checks.CheckFailed on the first
    output that disagrees with its independent computation.
    """
    rng = np.random.default_rng([seed, 99])
    shape = result.shape
    ssim_bd = reference["ssim_bd"]
    figures = dict(reference)
    n_te = result.clean_te.shape[1]
    b = result.baselines
    for algorithm in ALGORITHMS:
        if algorithm not in result.denoised:
            # a workload without baselines in its op scores them here, untimed
            result.denoised[algorithm] = sweep._baseline_denoise(
                algorithm, result.corrupt_te, shape,
                config.ExperimentConfig(baselines=b))
            result.ssim[algorithm] = metrics.ssim_stack(
                result.denoised[algorithm], result.clean_te, shape)
        denoised, values = result.denoised[algorithm], result.ssim[algorithm]
        cols = _sample(rng, n_te)
        checks.check_ssim(values, denoised, result.clean_te, shape, cols)
        if algorithm in result.nmse:
            checks.check_nmse(result.nmse[algorithm], denoised, result.clean_te)
        figures[f"ssim_ad.{algorithm}"] = float(np.mean(values))
        if algorithm in AUTOENCODERS:
            weights, trace = result.trained[algorithm]
            checks.check_objective_trace(algorithm, trace.objectives,
                                         float(np.sum(result.clean_tr ** 2)))
            checks.check_infer(weights, result.corrupt_te, denoised)
            checks.check_denoises(algorithm, figures[f"ssim_ad.{algorithm}"],
                                  ssim_bd)
            continue
        for q in cols:
            image = result.corrupt_te[:, q].reshape(shape, order="F")
            column = denoised[:, q].reshape(shape, order="F")
            if algorithm == "svd":
                raw = baselines.svd_denoise(image, baselines.SvdFilterConfig(
                    energy_fraction=b.svd_energy))
                checks.check_svd(image, raw, column, b.svd_energy)
            else:
                checks.check_wavelet(image, column, b.wavelet_levels,
                                     b.wavelet_keep)
    for algorithm, seconds in result.train_s.items():
        figures[f"train_s.{algorithm}"] = seconds
    return figures
