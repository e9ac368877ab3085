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
    "ista_solve",
    "lipschitz_bound",
    "soft_threshold",
    "solve_least_squares",
]

# Columns per ISTA block.  Every column's products run at this one width, so
# its codes do not depend on which columns share its block; a one-column
# D.T @ y would go to gemv and round differently from the blocked GEMM.
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
    """Factorized ridge least squares against a fixed design A.

    solve(B) returns W minimizing ||B - W A||_F^2 + ridge ||W||_F^2.  The Gram
    matrix is formed on the smaller side of A so repeated solves against a
    tall design (P >> Q) stay cheap.
    """

    def __init__(self, A, ridge=None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ConfigError("design must be a 2-D matrix")
        if not np.all(np.isfinite(A)):
            raise DomainError("design contains non-finite entries")
        if ridge is None:
            ridge = default_ridge(A)
        if ridge < 0:
            raise DomainError("ridge must be >= 0")
        self.A = A
        self.ridge = float(ridge)
        n, q = A.shape
        # the dual identity A.T (A A.T + eI)^-1 = (A.T A + eI)^-1 A.T needs e > 0
        self._dual = ridge > 0 and q < n
        if self._dual:
            G = A.T @ A + ridge * np.eye(q)
            self._K = np.linalg.solve(G, A.T)  # (q, n); W = B @ K
        else:
            self._G = A @ A.T + ridge * np.eye(n)

    def solve(self, B):
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[1] != self.A.shape[1]:
            raise ConfigError(
                f"target columns {B.shape} do not match design {self.A.shape}"
            )
        if not np.all(np.isfinite(B)):
            raise DomainError("target contains non-finite entries")
        if self._dual:
            return B @ self._K
        try:
            return np.linalg.solve(self._G, self.A @ B.T).T
        except np.linalg.LinAlgError:
            # singular Gram with ridge = 0: fall back to the min-norm solution
            return np.linalg.lstsq(self.A.T, B.T, rcond=None)[0].T


def solve_least_squares(A, B, ridge=None):
    """W minimizing ||B - W A||_F^2 (+ ridge ||W||_F^2), closed form."""
    return RidgeDesign(A, ridge=ridge).solve(B)


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


def _ista_block(dtd, dty, yty, z, mu, step, theta, opts):
    """ISTA on one (K, BLOCK_COLUMNS) block via the Gram form of the objective.

    Returns the codes and the (sweeps + 1, BLOCK_COLUMNS) per-column objectives.
    """
    def objective(z, g):
        return (yty - 2.0 * np.sum(z * dty, axis=0) + np.sum(z * g, axis=0)
                + mu * np.sum(np.abs(z), axis=0))

    g = dtd @ z
    obj = objective(z, g)
    history = [obj]
    active = np.ones(z.shape[1], dtype=bool)
    for _ in range(opts.max_iterations):
        z_new = soft_threshold(z + step * (dty - g), theta)
        g_new = dtd @ z_new
        prev = obj
        obj = np.where(active, objective(z_new, g_new), prev)
        z = np.where(active, z_new, z)
        g = np.where(active, g_new, g)
        history.append(obj)
        active &= ~(np.abs(prev - obj) <= opts.relative_tolerance
                    * np.maximum(np.abs(prev), 1e-300))
        if not active.any():
            break
    return z, np.array(history)


def ista_solve(D, Y, mu, Z0, opts: IstaOptions | None = None):
    """Minimize ||Y - D Z||_F^2 + mu |Z|_1 by iterative soft thresholding.

    Iterates Z <- soft_threshold(Z + (1/L) D.T (Y - D Z), mu / (2 L)) from the
    given warm start; the objective is non-increasing across iterations.
    Columns are solved independently, each with its own stopping rule, in
    zero-padded blocks of BLOCK_COLUMNS columns.  Every column goes through
    the same fixed-width block products, so any column partitioning of Y
    produces bitwise-identical codes.  `iterations` is the longest column's
    count, and `objectives` holds per-sweep totals in which a stopped column
    contributes its final value.
    """
    if opts is None:
        opts = IstaOptions()
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.array(Z0, dtype=float, copy=True)
    if mu < 0:
        raise DomainError("l1 weight must be >= 0")
    for name, M in (("design", D), ("target", Y), ("init", Z)):
        if not np.all(np.isfinite(M)):
            raise DomainError(f"{name} contains non-finite entries")
    if D.shape[0] != Y.shape[0]:
        raise ConfigError(f"design rows {D.shape[0]} != target rows {Y.shape[0]}")
    if Z.shape != (D.shape[1], Y.shape[1]):
        raise ConfigError(
            f"init shape {Z.shape} incompatible with {D.shape} x {Y.shape}"
        )
    DtD = D.T @ D
    step = 1.0 / _gram_bound(DtD)
    theta = 0.5 * mu * step

    histories = []
    for start in range(0, Y.shape[1], BLOCK_COLUMNS):
        cols = slice(start, min(start + BLOCK_COLUMNS, Y.shape[1]))
        width = cols.stop - start
        Yb = np.zeros((Y.shape[0], BLOCK_COLUMNS))
        Yb[:, :width] = Y[:, cols]
        Zb = np.zeros((Z.shape[0], BLOCK_COLUMNS))
        Zb[:, :width] = Z[:, cols]
        Zb, history = _ista_block(DtD, D.T @ Yb, np.sum(Yb * Yb, axis=0), Zb,
                                  mu, step, theta, opts)
        Z[:, cols] = Zb[:, :width]
        histories.append(history[:, :width])
    # per-sweep total: stopped columns contribute their final objective
    depth = max((len(h) for h in histories), default=0)
    totals = np.zeros(depth)
    for h in histories:
        totals[: len(h)] += h.sum(axis=1)
        totals[len(h):] += h[-1].sum()
    return IstaResult(z=Z, objectives=totals.tolist(),
                      iterations=max(depth - 1, 0), step=step)
