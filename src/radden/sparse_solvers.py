"""Dense ridge least squares and ISTA, the two kernels behind every autoencoder variant."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "IstaOptions",
    "IstaResult",
    "RidgeDesign",
    "default_ridge",
    "ista_solve",
    "lipschitz_bound",
    "soft_threshold",
    "solve_least_squares",
]


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


def lipschitz_bound(A, tol=1e-6, max_iterations=5000):
    """Upper bound on the largest eigenvalue of A.T A via power iteration.

    The dominant eigenvalue is estimated to `tol` relative accuracy and
    inflated by 1%.  A zero matrix returns a tiny positive floor.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ConfigError("expected a 2-D matrix")
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return 1e-12
    # iterate on the smaller Gram matrix; both share the dominant eigenvalue
    G = A.T @ A if A.shape[1] <= A.shape[0] else A @ A.T
    rng = np.random.default_rng(0)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iterations):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 1e-12
        v = w / nw
        lam_new = float(v @ (G @ v))
        if abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return 1.01 * lam


def _ista_column(dtd, dty, yty, z0, mu, step, theta, opts):
    """Single-column ISTA via the precomputed Gram form of the objective."""
    z = z0.copy()
    g = dtd @ z
    obj = yty - 2.0 * (z @ dty) + z @ g + mu * np.sum(np.abs(z))
    history = [float(obj)]
    it = 0
    for it in range(1, opts.max_iterations + 1):
        z = soft_threshold(z + step * (dty - g), theta)
        g = dtd @ z
        obj = yty - 2.0 * (z @ dty) + z @ g + mu * np.sum(np.abs(z))
        history.append(float(obj))
        prev = history[-2]
        if abs(prev - obj) <= opts.relative_tolerance * max(abs(prev), 1e-300):
            break
    return z, history, it


def ista_solve(D, Y, mu, Z0, opts: IstaOptions | None = None):
    """Minimize ||Y - D Z||_F^2 + mu |Z|_1 by iterative soft thresholding.

    Iterates Z <- soft_threshold(Z + (1/L) D.T (Y - D Z), mu / (2 L)) from the
    given warm start; the objective is non-increasing across iterations.
    Columns are solved independently, so any column partitioning of Y produces
    bitwise-identical results.
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
    step = 1.0 / lipschitz_bound(D)
    theta = 0.5 * mu * step

    DtD = D.T @ D
    iterations = 0
    histories = []
    for j in range(Y.shape[1]):
        y = Y[:, j]
        zj, history, it = _ista_column(DtD, D.T @ y, float(y @ y), Z[:, j],
                                       mu, step, theta, opts)
        Z[:, j] = zj
        histories.append(history)
        iterations = max(iterations, it)
    # per-sweep total: frozen columns contribute their final objective
    depth = max((len(h) for h in histories), default=0)
    objectives = [
        sum(h[min(k, len(h) - 1)] for h in histories) for k in range(depth)
    ]
    return IstaResult(z=Z, objectives=objectives, iterations=iterations, step=step)
