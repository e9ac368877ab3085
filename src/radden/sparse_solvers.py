"""Dense ridge least squares and ISTA, the two kernels behind every autoencoder variant."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "BLOCK_COLUMNS",
    "IstaOptions",
    "IstaResult",
    "RidgeDesign",
    "default_ridge",
    "ista_gram",
    "ista_solve",
    "lipschitz_bound",
    "soft_threshold",
    "solve_least_squares",
]

# ISTA pads its code matrix to a multiple of this many columns and sums each
# sweep's objective in blocks of this many columns.  The column count is the
# only GEMM dimension that varies between calls, and padded it fills whole
# kernel tiles, while a one-column call would go to gemv and round
# differently; so a column's codes do not depend on which columns share its
# call (README gives the checks).
BLOCK_COLUMNS = 32


@dataclass
class IstaOptions:
    max_iterations: int = 200
    relative_tolerance: float = 1e-4

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.relative_tolerance <= 0:
            raise ConfigError("relative_tolerance must be > 0")


@dataclass
class IstaResult:
    z: np.ndarray
    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    step: float = 0.0
    converged: int = 0


def soft_threshold(v, theta):
    """Elementwise sign(v) * max(|v| - theta, 0)."""
    if theta < 0:
        raise DomainError("threshold must be >= 0")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


def default_ridge(A):
    """Tiny ridge scaled to the design: 1e-8 * ||A||_F^2 / rows(A).

    Keeps the least-squares subproblems uniquely solvable when the design is
    rank deficient early in training.
    """
    A = np.asarray(A)
    n = max(A.shape[0], 1)
    return 1e-8 * float(np.sum(A * A)) / n


class RidgeDesign:
    """Ridge least squares against a fixed n x q design A: solve(B) is the W
    minimizing ||B - W A||_F^2 + ridge ||W||_F^2, one row per row of B.  At
    ridge > 0 only the ridged Gram matrix of A's smaller side is kept, so no
    q x n operator is formed; at ridge 0 the pseudo-inverse _K (q x n) is
    kept, and W = B _K is the minimum-norm least-squares solution.
    """

    def __init__(self, A, ridge=None):
        A, ridge = self.A, self.ridge = _checked_design(A, ridge)
        n, q = A.shape
        self._tall = q < n
        if ridge == 0:
            self._K = np.linalg.pinv(A)
        elif self._tall:
            self._gram = A.T @ A + ridge * np.eye(q)
        else:
            self._gram = A @ A.T + ridge * np.eye(n)

    def solve(self, B):
        B = _checked_target(B, self.A)
        if self.ridge == 0:
            return B @ self._K
        if self._tall:
            return np.linalg.solve(self._gram, B.T).T @ self.A.T
        return np.linalg.solve(self._gram, self.A @ B.T).T

    def hat(self):
        """The q x q hat matrix H, with solve(B) @ A = B @ H: a fit through
        it costs q^2 per row of B, against 2 n q through W and then W A."""
        A = self.A
        if self.ridge == 0:
            return self._K @ A
        if self._tall:   # (A.T A + rI)^-1 A.T A
            return np.linalg.solve(self._gram, A.T @ A)
        return A.T @ np.linalg.solve(self._gram, A)   # A.T (A A.T + rI)^-1 A


def _checked_design(A, ridge):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ConfigError("design must be a 2-D matrix")
    if not np.all(np.isfinite(A)):
        raise DomainError("design contains non-finite entries")
    ridge = default_ridge(A) if ridge is None else ridge
    if ridge < 0:
        raise DomainError("ridge must be >= 0")
    return A, float(ridge)


def _checked_target(B, A):
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != A.shape[1]:
        raise ConfigError(f"target columns {B.shape} do not match design {A.shape}")
    if not np.all(np.isfinite(B)):
        raise DomainError("target contains non-finite entries")
    return B


def solve_least_squares(A, B, ridge=None):
    """W minimizing ||B - W A||_F^2 (+ ridge ||W||_F^2), closed form, for one B:
    RidgeDesign(A, ridge).solve(B)."""
    return RidgeDesign(A, ridge).solve(B)


def _gram_bound(G):
    """1.01 * the largest eigenvalue of the Gram matrix G; 1e-12 if G is zero."""
    lam = float(np.linalg.eigvalsh(G)[-1]) if G.size else 0.0
    return 1.01 * lam if lam > 0.0 else 1e-12


def lipschitz_bound(A):
    """Upper bound on the largest eigenvalue of A.T A: 1.01 * sigma_max(A)^2.

    The eigenvalue comes from a dense symmetric eigensolver on the smaller
    Gram matrix; both Gram matrices share their largest eigenvalue.  A zero
    matrix returns a tiny positive floor.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ConfigError("expected a 2-D matrix")
    return _gram_bound(A.T @ A if A.shape[1] <= A.shape[0] else A @ A.T)


def _padded_count(q):
    """q rounded up to a multiple of BLOCK_COLUMNS."""
    return -(-q // BLOCK_COLUMNS) * BLOCK_COLUMNS


def _padded(M, n):
    """M as a C-contiguous matrix with zero columns appended up to n."""
    padded = np.zeros((M.shape[0], n))
    padded[:, :M.shape[1]] = M
    return padded


def ista_solve(D, Y, mu, Z0, opts: IstaOptions | None = None):
    """Minimize ||Y - D Z||_F^2 + mu |Z|_1 by iterative soft thresholding.

    Forms D.T D, D.T Y and each column's ||y||^2, then runs `ista_gram`.
    D.T Y and ||y||^2 are formed in zero-padded blocks of BLOCK_COLUMNS
    columns, one GEMM and one reduction of the same shape per block, so a
    column's values do not depend on which columns share the call.  (The
    rounding of one GEMM over all columns would: its kernel can change with
    the column count when D has many rows.)
    """
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z0 = np.asarray(Z0, dtype=float)
    if mu < 0:
        raise DomainError("l1 weight must be >= 0")
    for name, M in (("design", D), ("target", Y), ("init", Z0)):
        if not np.all(np.isfinite(M)):
            raise DomainError(f"{name} contains non-finite entries")
    if D.shape[0] != Y.shape[0]:
        raise ConfigError(f"design rows {D.shape[0]} != target rows {Y.shape[0]}")
    if Z0.shape != (D.shape[1], Y.shape[1]):
        raise ConfigError(
            f"init shape {Z0.shape} incompatible with {D.shape} x {Y.shape}"
        )
    (p, k), q = D.shape, Y.shape[1]
    n = _padded_count(q)
    Yp = np.zeros((p, n))
    Yp[:, :q] = Y
    blocks = Yp.reshape(p, n // BLOCK_COLUMNS, BLOCK_COLUMNS)
    blocks = blocks.transpose(1, 0, 2).copy()   # (blocks, p, BLOCK_COLUMNS)
    DtY = np.matmul(D.T, blocks).transpose(1, 0, 2).reshape(k, n)[:, :q]
    yty = np.sum(np.square(blocks, out=blocks), axis=1).reshape(n)[:q]
    return ista_gram(D.T @ D, DtY, yty, mu, Z0, opts)


def ista_gram(DtD, DtY, yty, mu, Z0, opts: IstaOptions | None = None):
    """ISTA on the normal-equation form of ||Y - D Z||_F^2 + mu |Z|_1.

    Takes DtD = D.T D (k x k), DtY = D.T Y (k x q) and yty, each column's
    ||y||^2 (q), in place of D and Y.  Iterates Z <- soft_threshold(Z + (1/L)
    (DtY - DtD Z), mu / (2 L)) from the warm start Z0, with L = 1.01 * the
    largest eigenvalue of DtD; the objective is non-increasing.  Each column
    stops by its own rule and then keeps its codes.  The matrices are
    zero-padded to a multiple of BLOCK_COLUMNS columns, and every sweep takes
    one GEMM for the whole gradient, so that a column's codes do not depend
    on which columns share the call (README).  `iterations` is the longest
    column's count, `converged` the number of columns whose rule fired before
    `max_iterations`, and `objectives` holds per-sweep totals, summed over
    blocks of BLOCK_COLUMNS columns in order, a stopped column adding its
    final value.  A design with no columns (k = 0) gives z of shape (0, q)
    and objective ||y||^2 after one sweep.
    """
    if opts is None:
        opts = IstaOptions()
    DtD = np.asarray(DtD, dtype=float)
    DtY = np.asarray(DtY, dtype=float)
    yty = np.asarray(yty, dtype=float)
    Z0 = np.asarray(Z0, dtype=float)
    if mu < 0:
        raise DomainError("l1 weight must be >= 0")
    for name, M in (("Gram matrix", DtD), ("D.T Y", DtY), ("||y||^2", yty),
                    ("init", Z0)):
        if not np.all(np.isfinite(M)):
            raise DomainError(f"{name} contains non-finite entries")
    if (Z0.ndim != 2 or DtD.shape != (len(Z0), len(Z0)) or DtY.shape != Z0.shape
            or yty.shape != Z0.shape[1:]):
        raise ConfigError(f"Gram {DtD.shape}, D.T Y {DtY.shape}, ||y||^2 "
                          f"{yty.shape} and init {Z0.shape} do not agree")
    q = Z0.shape[1]
    step = 1.0 / _gram_bound(DtD)
    theta = 0.5 * mu * step
    if q == 0:
        return IstaResult(z=Z0.copy(), step=step)

    # zero-padded to n columns; a padded column is zero and stays zero
    n = _padded_count(q)
    dty = _padded(DtY, n)
    yty = np.concatenate([yty, np.zeros(n - q)])
    z = _padded(Z0, n)
    absz = np.empty_like(z)

    def objective(z, g):
        zd = np.einsum("kn,kn->n", z, dty)
        zg = np.einsum("kn,kn->n", z, g)
        l1 = np.add.reduce(np.abs(z, out=absz), axis=0)
        return yty - 2.0 * zd + zg + mu * l1

    g = np.matmul(DtD, z)
    obj = objective(z, g)
    history = [obj]
    active = np.ones(q, dtype=bool)
    stopped = np.arange(0)      # the stopped columns
    v = np.empty_like(z)        # gradient step, then the new codes
    clamp = np.empty_like(z)
    g_new = np.empty_like(z)
    for _ in range(opts.max_iterations):
        np.subtract(dty, g, out=v)
        np.multiply(v, step, out=v)
        np.add(z, v, out=v)
        # soft threshold: v - clip(v, -theta, theta)
        np.clip(v, -theta, theta, out=clamp)
        np.subtract(v, clamp, out=v)
        # stopped columns keep their codes
        v[:, stopped] = z[:, stopped]
        np.matmul(DtD, v, out=g_new)
        prev, obj = obj, objective(v, g_new)
        z, v = v, z
        g, g_new = g_new, g
        history.append(obj)
        active &= ~(np.abs(prev[:q] - obj[:q]) <= opts.relative_tolerance
                    * np.maximum(np.abs(prev[:q]), 1e-300))
        stopped = np.flatnonzero(~active)
        if not active.any():
            break

    # per-sweep totals, summed block by block over each block's real columns
    history = np.array(history)
    totals = np.zeros(len(history))
    for start in range(0, q, BLOCK_COLUMNS):
        totals += history[:, start:min(start + BLOCK_COLUMNS, q)].sum(axis=1)
    return IstaResult(z=z[:, :q].copy(), objectives=totals.tolist(),
                      iterations=len(history) - 1, step=step,
                      converged=q - int(np.count_nonzero(active)))
