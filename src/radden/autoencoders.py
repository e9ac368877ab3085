"""Alternating-minimization denoising autoencoders: DAE, SparseDAE, StackedSDAE.

The three variants are one linear model family.  A chain carries the
corrupt input Xhat through the codes Z_0 ... Z_{L-1} to the clean target X
with weights W_0 ... W_L, and training minimizes

    ||X - W_L Z_{L-1}||^2 + sum_i c_i ||Z_i - W_i Z_{i-1}||^2 + s_i |Z_i|_1

with Z_{-1} = Xhat.  DAE and SparseDAE have one code (c = (lambda,)),
StackedSDAE three (c = mu_layers).  One loop trains all three by cycling
exact block updates: ridge least squares for the weight matrices and ISTA
(least squares for the DAE) for the codes.  No gradient descent is involved
anywhere.
"""
from __future__ import annotations

import math
import numbers
import struct
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._parallel import _map_blocks
from .errors import ConfigError, DomainError, FormatError
from .sparse_solvers import (IstaOptions, RidgeDesign, _gram_bound, ista_gram,
                             solve_least_squares)

__all__ = [
    "AutoencoderWeights",
    "TrainOptions",
    "TrainTrace",
    "TrainingPair",
    "inference_flops",
    "infer",
    "load_weights",
    "objective_value",
    "prepare_pair",
    "save_weights",
    "train_dae",
    "train_sparse_dae",
    "train_stacked_sdae",
]

# weight matrices of each variant in chain order, input side first
_MATRIX_NAMES = {
    "dae": ("W1", "W2"),
    "sparse_dae": ("W1", "W2"),
    "stacked_sdae": ("W11", "W12", "W21", "W22"),
}
_VARIANTS = tuple(_MATRIX_NAMES)


@dataclass
class AutoencoderWeights:
    variant: str
    matrices: dict[str, np.ndarray]

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        expected = _MATRIX_NAMES[self.variant]
        if tuple(sorted(self.matrices)) != tuple(sorted(expected)):
            raise ConfigError(f"variant {self.variant} expects matrices {expected}")
        for name, M in self.matrices.items():
            if np.ndim(M) != 2 or not np.all(np.isfinite(M)):
                raise ConfigError(f"{name} must be a 2-D matrix of finite entries")
        # a P -> P chain: each matrix has as many columns as the one before
        # it has rows, and the encoder as many as the decoder's P rows
        dims = [np.shape(M) for M in self.chain]
        if any(c != r for (r, _), (_, c) in zip(dims[-1:] + dims[:-1], dims)):
            raise ConfigError(f"{self.variant} matrices {dims} do not compose "
                              "into a P -> P chain")
        if self.stacked:
            l0, l1, l2 = self.layer_sizes
            if not (l0 > l1 > l2):
                raise ConfigError("stacked layer sizes must strictly decrease")

    @property
    def stacked(self):
        return self.variant == "stacked_sdae"

    @property
    def activation(self):
        """Every model is a linear chain; the benchmark's `check_infer`
        reads this `kind`."""
        return SimpleNamespace(kind="linear")

    @property
    def chain(self):
        """The weight matrices in chain order, W_0 (the encoder) first."""
        return [self.matrices[name] for name in _MATRIX_NAMES[self.variant]]

    @property
    def pixel_count(self):
        return self.chain[0].shape[1]

    @property
    def layer_sizes(self):
        return tuple(M.shape[0] for M in self.chain[:-1])


@dataclass
class TrainOptions:
    outer_iterations: int = 50
    outer_tolerance: float = 1e-4
    seed: int = 0
    ista: IstaOptions = field(default_factory=IstaOptions)

    def __post_init__(self):
        if self.outer_iterations < 1:
            raise ConfigError("outer_iterations must be >= 1")
        if self.outer_tolerance <= 0:
            raise ConfigError("outer_tolerance must be > 0")


@dataclass
class TrainTrace:
    """One entry per outer iteration.  `ista` holds (iterations, converged)
    of each ISTA code update of that iteration, in update order; it is
    empty for the DAE, whose code updates are exact."""
    objectives: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    ista: list[list[tuple[int, int]]] = field(default_factory=list)


def _init_matrix(rng, rows, cols):
    # i.i.d. Gaussian, std 1/sqrt(fan-in): keeps initial activations order-1
    M = rng.standard_normal((rows, cols))
    M /= np.sqrt(cols)
    return M


def _check_pair(X, Xhat):
    X = np.asarray(X, dtype=float)
    Xhat = np.asarray(Xhat, dtype=float)
    if X.ndim != 2 or X.shape != Xhat.shape:
        raise ConfigError(f"clean/corrupt shape mismatch {X.shape} vs {Xhat.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Xhat))):
        raise DomainError("training stacks contain non-finite entries")
    return X, Xhat


@dataclass(frozen=True)
class TrainingPair:
    """A clean stack X and its corrupt input Xhat, checked and factored once
    by `prepare_pair`.  The trainers read X through R, with X = Q R for a Q
    of orthonormal columns, and Xhat through `design`, RidgeDesign(Xhat) at
    the default ridge, and its hat matrix `hat`.  R has min(P, d) rows, for
    the d distinct columns of the P-row X: R = R_d[:, index], with R_d the
    R factor of the Householder QR of X's distinct columns in order of first
    occurrence and index[j] the one that column j repeats.  Without repeated
    columns R is the R factor of X.  Trainer calls on the same two arrays
    share one pair through their `pair` keyword and only read it; a trainer
    handed a pair of other arrays raises ConfigError.  `sources` holds the
    two arrays it was prepared from, whatever their dtype; X and Xhat are
    their float64 versions.
    """
    X: np.ndarray
    Xhat: np.ndarray
    R: np.ndarray
    design: RidgeDesign
    hat: np.ndarray
    sources: tuple = field(repr=False)


def _distinct_columns(X):
    """(first, index): the first occurrence of each distinct column of X, in
    order, and for each column j its copy's position in `first`.  Columns
    count as repeats only when bitwise equal.  Each column's key is the
    wrapping integer sum of its bit patterns, which equal columns share
    whatever the summation order; columns of one key are then compared bit
    for bit, one pair of columns at a time, so X is never copied."""
    bits = X.view(np.uint64)
    first, index, seen = [], np.empty(X.shape[1], dtype=np.intp), {}
    for j, key in enumerate(bits.sum(axis=0).tolist()):
        candidates = seen.setdefault(key, [])
        for f in candidates:
            if np.array_equal(bits[:, first[f]], bits[:, j]):
                index[j] = f
                break
        else:
            index[j] = len(first)
            candidates.append(len(first))
            first.append(j)
    return first, index


def prepare_pair(X, Xhat):
    """The TrainingPair of X and Xhat."""
    sources = (X, Xhat)
    X, Xhat = _check_pair(X, Xhat)
    first, index = _distinct_columns(X)
    R = np.linalg.qr(X[:, first], mode="r")[:, index]
    design = RidgeDesign(Xhat)
    return TrainingPair(X, Xhat, R, design, design.hat(), sources)


def objective_value(weights, codes, X, Xhat, lam=1.0, mu=0.0,
                    mu_layers=(1.0, 1.0, 1.0), lam_layers=(0.0, 0.0, 0.0)):
    """Exact training objective of the given variant at the given point.

    Shallow variants pass a single code matrix Z; the stacked variant passes
    (Z0, Z1, Z2).  `lam` and `mu` are the shallow coupling and l1 weights (the
    DAE has no l1 term); `mu_layers`/`lam_layers` are the stacked coupling and
    sparsity weights.
    """
    X, Xhat = _check_pair(X, Xhat)
    if weights.stacked:
        c, s = mu_layers, lam_layers
    else:
        codes = (codes,)
        c, s = (lam,), (mu if weights.variant == "sparse_dae" else 0.0,)
    H = [Xhat, *codes, X]
    return _chain_sum(H, [M @ S for M, S in zip(weights.chain, H)], c, s)


def _chain_sum(H, products, c, s):
    """The training objective from the chain's products, products[i] = W_i H[i].

    H is [Xhat, Z_0, ..., Z_{L-1}, X]; the terms are summed in one fixed
    order: reconstruction, couplings from the last code down, then l1.
    """
    L = len(products) - 1
    terms = [_squared_residual(H[L + 1], products[L])]
    terms += [c[i] * _squared_residual(H[i + 1], products[i]) for i in reversed(range(L))]
    terms += [s[i] * np.sum(np.abs(H[i + 1])) for i in range(L) if s[i]]
    return float(sum(terms))


def _squared_residual(T, WS):
    """||T - WS||_F^2 in one new buffer, bitwise equal to np.sum((T - WS) ** 2)."""
    R = WS - T
    return np.sum(np.square(R, out=R))


def _update_code(W, H, c, i, mu, ista, E=None, stats=None):
    """Z_i = H[i + 1] minimizing the two chain terms it enters, plus mu |Z_i|_1.

    H is [Xhat, Z_0, ..., Z_{L-1}, T], with T the clean stack or its QR
    factor R, c the coupling weights with the reconstruction's 1 appended,
    and E = W[i] H[i] (formed here if not given).  The block is the stacked
    least squares with design D = [sqrt(c[i+1]) W[i+1]; sqrt(c[i]) I] and target
    Y = [sqrt(c[i+1]) H[i+2]; sqrt(c[i]) E], solved by one `ista_gram` call
    warm-started from the current code.  D and Y are never formed: ISTA
    takes D.T D = c[i+1] W[i+1].T W[i+1] + c[i] I, D.T Y = c[i+1] W[i+1].T
    H[i+2] + c[i] E and the column norms of Y, all from code-sized products.
    The step is 1 / (1.01 * the largest eigenvalue of D.T D): `ista_gram`'s
    own for a tall W[i+1].  For a wide W[i+1] (fewer rows than the code, as
    a decoder R K of a clean stack with few distinct images) the eigenvalue
    is c[i+1] times the largest of the smaller Gram matrix W[i+1] W[i+1].T,
    plus c[i], and goes to `ista_gram` as its `bound`.
    If `stats` is a list, (iterations, converged) of the solve is appended.
    With `mu` None (the DAE) the same pair is solved exactly, as a ridge
    problem in the offset Z_i - E: design W[i+1], target H[i+2] - W[i+1] E,
    ridge c[i] / c[i+1] (c[i+1] > 0; the DAE's is the reconstruction's 1).
    Its minimizer is the pair's, and for c[i] > 0 it is solved through a
    Gram matrix of the code's size, where the stacked design at ridge 0
    would take an SVD.
    """
    if E is None:
        E = W[i] @ H[i]
    Wn, T = W[i + 1], H[i + 2]
    if mu is None:
        V = Wn @ E
        np.subtract(T, V, out=V)   # T - Wn E in one buffer
        return E + solve_least_squares(Wn.T, V.T, ridge=c[i] / c[i + 1]).T
    DtD = c[i + 1] * (Wn.T @ Wn)
    # a wide Wn: the largest eigenvalue from the smaller Gram, Wn Wn.T
    bound = (_gram_bound(Wn @ Wn.T, c[i + 1], c[i]) if len(Wn) < len(DtD)
             else None)
    DtD[np.diag_indices_from(DtD)] += c[i]
    DtY = c[i + 1] * (Wn.T @ T) + c[i] * E
    yty = c[i + 1] * np.einsum("pq,pq->q", T, T) + c[i] * np.einsum("kq,kq->q", E, E)
    result = ista_gram(DtD, DtY, yty, mu, H[i + 1], ista, bound)
    if stats is not None:
        stats.append((result.iterations, result.converged))
    return result.z


def _train(variant, X, Xhat, sizes, c, s, order, opts, pair=None):
    """The block-coordinate loop behind all three trainers.

    `sizes` are the code heights, `c` the coupling and `s` the l1 weights of
    the codes.  `order` lists the block updates of one outer iteration: ("W",
    i) refits W_i by ridge least squares from Z_{i-1} to Z_i, ("Z", i)
    re-solves code Z_i.  No update raises the objective: the least-squares
    updates minimize it over their block and warm-started ISTA never
    increases it, so the recorded trace is non-increasing up to the tiny
    ridge term and rounding.  The weights start as i.i.d. Gaussians drawn
    in chain order from `opts.seed`.  The decoder's, the last draw, is made
    only when a code update reads it before the decoder's own refit (the
    shallow order); the stacked order refits the decoder first.

    X and Xhat are the trainer's arguments, read through `pair`, a
    TrainingPair prepared from these very arrays (here when none is given):
    its design and hat matrix serve the encoder, its R the decoder side.

    Each outer iteration forms every chain product once.  E[i] = W_i Z_{i-1}
    is kept until W_i or Z_{i-1} changes, and serves both the code update of
    Z_i and the objective, which `_chain_sum` takes from E and the one
    decoder product.  The encoder W_0 is not formed inside the loop: its
    update keeps its target Z_0, and E[0] = W_0 Xhat comes from the pair's hat
    matrix.  The random W_0 is dropped once Z_0 is formed, and W_0 is solved
    once, after the loop, from the last target.

    The decoder is W_L = X K, where K depends on the last code alone, so
    the P x Q clean stack X enters the objective only through norms ||X A||.
    With X = Q R (the pair's factor; R has min(P, d) rows for X's d distinct
    columns and keeps X's rank), ||X A|| = ||R A|| for every A.  From the
    first decoder update on, the chain therefore ends in R instead of X and
    the loop holds R K instead of W_L, so no product inside it has P rows
    and the decoder-side ones have at most d.  The P x k decoder
    X K is formed once, after the loop, from the code it was last fit to.
    """
    opts = opts or TrainOptions()
    if pair is None:
        pair = prepare_pair(X, Xhat)
    elif pair.sources[0] is not X or pair.sources[1] is not Xhat:
        raise ConfigError("training pair prepared from other arrays")
    X, Xhat = pair.X, pair.Xhat
    rng = np.random.default_rng(opts.seed)
    L = len(sizes)
    dims = (X.shape[0], *sizes, X.shape[0])
    # each random W_i forms its code before the next is drawn, in chain
    # order, so the P-wide W_0, never read since E[0] comes from the input
    # design, is freed before the decoder is drawn
    W, H = [], [Xhat]
    for i in range(L):
        M = _init_matrix(rng, dims[i + 1], dims[i])
        H.append(M @ H[-1])
        W.append(M if i else None)
    del M
    W.append(_init_matrix(rng, dims[L + 1], dims[L])
             if order.index(("Z", L - 1)) < order.index(("W", L)) else None)
    H.append(X)
    E = H[1:-1]   # E[i] = W_i H[i] of each code's coupling term; None when stale
    couplings = (*c, 1.0)
    encoder_target = decoder_code = None
    trace = TrainTrace()
    for _ in range(opts.outer_iterations):
        t0 = time.perf_counter()
        stats = []
        for block, i in order:
            if block == "Z":
                if E[i] is None:
                    E[i] = W[i] @ H[i]
                mu = None if variant == "dae" else s[i]
                H[i + 1] = _update_code(W, H, couplings, i, mu, opts.ista, E[i], stats)
                if i + 1 < len(E):
                    E[i + 1] = None
            elif i == 0:
                encoder_target = H[1]
                E[0] = encoder_target @ pair.hat
            else:
                if i == L:   # fit R K in place of the decoder X K
                    decoder_code, H[-1] = H[i], pair.R
                W[i] = solve_least_squares(H[i], H[i + 1])
                if i < len(E):
                    E[i] = None
        E = [W[i] @ H[i] if e is None else e for i, e in enumerate(E)]
        obj = _chain_sum(H, [*E, W[-1] @ H[-2]], c, s)
        trace.objectives.append(obj)
        trace.ista.append(stats)
        trace.wall_times.append(time.perf_counter() - t0)
        if len(trace.objectives) >= 2:
            prev = trace.objectives[-2]
            if abs(prev - obj) <= opts.outer_tolerance * max(abs(prev), 1e-300):
                break
    W[0] = pair.design.solve(encoder_target)
    W[-1] = solve_least_squares(decoder_code, X)
    matrices = dict(zip(_MATRIX_NAMES[variant], W))
    return AutoencoderWeights(variant, matrices), trace


# one outer iteration: code, encoder, decoder; or all weights, then all codes
_SHALLOW_ORDER = (("Z", 0), ("W", 0), ("W", 1))
_STACKED_ORDER = tuple(("W", i) for i in range(4)) + tuple(("Z", i) for i in range(3))


def _check_weights(depth, **weights):
    """Each named group of coupling or l1 weights as a tuple of `depth`
    entries: ConfigError on another length, DomainError on an entry that
    is not a finite number >= 0."""
    checked = []
    for name, values in weights.items():
        values = tuple(values)
        if len(values) != depth:
            raise ConfigError(f"{name} needs {depth} entries, got {values}")
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) and v >= 0
                   for v in values):
            raise DomainError(f"{name} must be finite numbers >= 0, got {values}")
        checked.append(values)
    return checked


def _check_shallow(X, Xhat, nodes, lam, mu):
    P = _check_pair(X, Xhat)[0].shape[0]
    if not (0 < nodes < P):
        raise ConfigError(f"hidden size {nodes} must satisfy 0 < l < P={P}")
    return _check_weights(1, lam=(lam,), mu=(mu,))


def train_dae(X, Xhat, nodes, lam=1.0, opts: TrainOptions | None = None, *,
              pair: TrainingPair | None = None):
    """Single-layer DAE; each code update is the exact least-squares minimizer."""
    c, s = _check_shallow(X, Xhat, nodes, lam, 0.0)
    return _train("dae", X, Xhat, (nodes,), c, s, _SHALLOW_ORDER, opts, pair)


def train_sparse_dae(X, Xhat, nodes, lam=1.0, mu=0.1,
                     opts: TrainOptions | None = None, *,
                     pair: TrainingPair | None = None):
    """SparseDAE: DAE plus an l1 penalty on the code, solved by ISTA on the
    Gram form of the vertically stacked system [W2; sqrt(lam) I]."""
    c, s = _check_shallow(X, Xhat, nodes, lam, mu)
    return _train("sparse_dae", X, Xhat, (nodes,), c, s, _SHALLOW_ORDER, opts, pair)


def train_stacked_sdae(X, Xhat, sizes, mu_layers=(1.0, 1.0, 1.0),
                       lam_layers=(0.1, 0.1, 0.1),
                       opts: TrainOptions | None = None, *,
                       pair: TrainingPair | None = None):
    """Three-hidden-layer stacked sparse DAE.

    Each outer cycle runs the four per-layer least-squares weight updates
    followed by the three ISTA code updates, warm-started from the previous
    codes so the composite objective never increases.
    """
    _check_pair(X, Xhat)
    sizes = tuple(sizes)
    if len(sizes) != 3 or not (sizes[0] > sizes[1] > sizes[2] >= 1):
        raise ConfigError(f"need three strictly decreasing layer sizes, "
                          f"got {sizes}")
    c, s = _check_weights(3, mu_layers=mu_layers, lam_layers=lam_layers)
    return _train("stacked_sdae", X, Xhat, sizes, c, s, _STACKED_ORDER, opts, pair)


def infer(weights: AutoencoderWeights, xhat, clamp=True):
    """Reconstruct denoised images from corrupt input columns.

    Accepts a single vector or a P x Q stack; output is clamped to [0, 1]
    unless `clamp` is disabled, and keeps the input's memory order.  The
    chain multiplies one BLOCK_IMAGES block of columns at a time
    (_map_blocks); a non-finite input entry raises DomainError.
    """
    x = np.asarray(xhat, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    if x.shape[0] != weights.pixel_count:
        raise ConfigError(
            f"input pixel count {x.shape[0]} != weights P={weights.pixel_count}"
        )
    out = np.empty_like(x)

    def denoise(block):
        _chain_rows(x[:, block].T, weights.chain, clamp, out[:, block].T)

    _map_blocks(denoise, x.shape[1])
    return out[:, 0] if single else out


def _chain_rows(rows, chain, clamp, out):
    """out = rows @ W_0.T @ ... @ W_L.T for the transposed views of a block
    of input and output columns, clipped to [0, 1] in place if `clamp`."""
    if not np.all(np.isfinite(rows)):
        raise DomainError("inference input contains non-finite entries")
    for M in chain[:-1]:
        rows = rows @ M.T
    np.matmul(rows, chain[-1].T, out=out)
    if clamp:
        np.clip(out, 0.0, 1.0, out=out)


def inference_flops(weights: AutoencoderWeights):
    """Multiply-accumulate count of one single-image inference pass."""
    return sum(M.size for M in weights.chain)


_WEIGHTS_MAGIC = b"RDAEW1"   # then the variant tag, an index into _VARIANTS
# Header slots that once held an activation tag and a training-only clamp.
# Both are written as these constants, so the byte layout is unchanged; the
# tag must read 0 (linear), the slot is ignored on read.
_LINEAR_TAG = 0
_RESERVED_SLOT = 1e-6


def save_weights(weights: AutoencoderWeights, path):
    """Binary weights file: magic, variant tag, activation tag 0, a reserved
    float64, layer sizes, then the matrices in chain order as little-endian
    float64, column-major."""
    sizes = (weights.pixel_count,) + weights.layer_sizes
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_MAGIC)
        fh.write(struct.pack("<BBd", _VARIANTS.index(weights.variant),
                             _LINEAR_TAG, _RESERVED_SLOT))
        fh.write(struct.pack("<H", len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        for M in weights.chain:
            fh.write(np.asfortranarray(M).tobytes(order="F"))


def load_weights(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(_WEIGHTS_MAGIC))
        if magic != _WEIGHTS_MAGIC:
            raise FormatError(f"bad magic in {path}")
        try:
            vtag, atag, _ = struct.unpack("<BBd", fh.read(10))
            (nsizes,) = struct.unpack("<H", fh.read(2))
            sizes = struct.unpack(f"<{nsizes}I", fh.read(4 * nsizes))
        except struct.error as exc:
            raise FormatError(f"truncated header in {path}") from exc
        if vtag >= len(_VARIANTS) or atag != _LINEAR_TAG:
            raise FormatError(f"unknown variant/activation tag in {path}")
        variant = _VARIANTS[vtag]
        names = _MATRIX_NAMES[variant]
        if nsizes != len(names):
            raise FormatError(f"{variant} weights need {len(names)} layer sizes")
        dims = sizes + sizes[:1]   # P, hidden sizes, P
        matrices = {}
        for i, name in enumerate(names):
            r, c = dims[i + 1], dims[i]
            buf = fh.read(8 * r * c)
            if len(buf) != 8 * r * c:
                raise FormatError(f"truncated matrix {name} in {path}")
            matrices[name] = np.frombuffer(buf, dtype="<f8").reshape((r, c), order="F").copy()
        if fh.read(1):
            raise FormatError(f"bytes after the last matrix in {path}")
    try:
        return AutoencoderWeights(variant, matrices)
    except ConfigError as exc:
        raise FormatError(f"invalid weights in {path}: {exc}") from exc
