"""Spectral initialization and regularized Wirtinger gradient descent.

`initialize` builds the starting point from the exact leading singular
triple (SVD) of each back-projected M x K observation block, pushed into the
incoherent set by a convex projection.  `solve` then runs simultaneous
Wirtinger updates of all channel and coefficient blocks, by default with a
backtracking step size that guarantees a non-increasing objective.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .objective import (
    DegenerateInputError,
    PenaltyParams,
    coherences,
    evaluate,
    grad_total,
)
from .operators import (
    BlockFactorPair,
    MeasurementEnsemble,
    ObservationVector,
    adjoint_component,
    dft_basis,
    operator_norm,
)

__all__ = [
    "SolverConfig",
    "InitResult",
    "SolveTrace",
    "DivergenceError",
    "NumericalFailureError",
    "leading_singular_triple",
    "project_incoherent",
    "initialize",
    "solve",
]


# Backtracking gives up below this step size; the descent stops with
# "stall" once f_tilde fell by at most _STALL_RTOL * f_init over the last
# _STALL_WINDOW iterations.
_MIN_ETA = 1e-20
_STALL_WINDOW = 50
_STALL_RTOL = 1e-13


class DivergenceError(RuntimeError):
    """Fixed-step descent blew up; retry with a smaller step size."""


class NumericalFailureError(RuntimeError):
    """The objective is non-finite at the start point."""


@dataclass
class SolverConfig:
    """Penalty, step and stopping parameters.

    eta is either the string "backtracking" (default) or a fixed positive
    step size.  tol is the relative-error stopping threshold used when the
    ground truth is supplied; grad_tol stops on gradient norm below
    grad_tol * d^2.  mu/nu are the coherence bounds of the penalty and the
    initial projection: set both or neither.  When set they are used as
    given; otherwise `solve` takes the ground truth's coherences, and
    without truth it raises ValueError.
    """

    eta: float | str = "backtracking"
    max_iters: int = 5000
    tol: float = 1e-3
    grad_tol: float = 1e-7
    rho: float | None = None
    mu: float | None = None
    nu: float | None = None
    start: BlockFactorPair | None = None

    def __post_init__(self):
        if isinstance(self.eta, str):
            if self.eta != "backtracking":
                raise ValueError(f"unknown step mode {self.eta!r}")
        elif self.eta <= 0:
            raise ValueError("fixed step size must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0 or self.grad_tol <= 0:
            raise ValueError("tolerances must be positive")
        if (self.mu is None) != (self.nu is None):
            raise ValueError("set both mu and nu, or neither")


@dataclass
class InitResult:
    """Output of the spectral initializer: leading singular values d_n and the
    projected scaled starting point."""

    d_n: np.ndarray
    start: BlockFactorPair


@dataclass
class SolveTrace:
    """Per-iteration history.  Row 0 is the starting point."""

    t: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    f_tilde: np.ndarray = field(default_factory=lambda: np.empty(0))
    f: np.ndarray = field(default_factory=lambda: np.empty(0))
    g: np.ndarray = field(default_factory=lambda: np.empty(0))
    rel_err: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_norm: np.ndarray = field(default_factory=lambda: np.empty(0))
    stop_reason: str = ""
    iterations: int = 0


def leading_singular_triple(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact leading singular triple (d, u, v) of a complex matrix, from its
    SVD: A v = d u with unit u, v."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    U, s, Vh = np.linalg.svd(A)
    if s[0] == 0.0:
        raise DegenerateInputError("zero matrix has no leading singular triple")
    return float(s[0]), U[:, 0], Vh[0].conj()


def project_incoherent(g: np.ndarray, basis: np.ndarray, bound: float,
                       tol: float = 1e-8, max_iters: int = 500) -> np.ndarray:
    """Euclidean projection of g onto {z : sqrt(rows) * ||basis z||_inf <= bound}.

    basis must be a tall matrix with orthonormal columns (partial DFT or a
    coding matrix).  Square unitary bases use the closed-form spectral clip;
    tall bases use Dykstra's alternating projections between the range of the
    basis and the infinity ball, which converges to the exact projection.
    The returned point is always feasible (a final rescale enforces the
    constraint if the iteration hits max_iters first).
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    basis = np.asarray(basis)
    g = np.asarray(g, dtype=complex)
    rows, cols = basis.shape
    if g.shape != (cols,):
        raise ValueError(f"point length {g.shape} incompatible with basis {basis.shape}")
    radius = bound / np.sqrt(rows)
    if not np.any(g):
        return np.zeros(cols, dtype=complex)

    def clip(u):
        mag = np.abs(u)
        return np.where(mag > radius, u * (radius / np.maximum(mag, 1e-300)), u)

    if rows == cols:
        return basis.conj().T @ clip(basis @ g)

    u = basis @ g
    p = np.zeros_like(u)
    q = np.zeros_like(u)
    scale = max(1.0, float(np.linalg.norm(u)))
    converged = False
    for _ in range(max_iters):
        y = clip(u + p)
        p = u + p - y
        w = y + q
        u_new = basis @ (basis.conj().T @ w)
        q = w - u_new
        step = np.linalg.norm(u_new - u)
        u = u_new
        infeas = max(0.0, float(np.max(np.abs(u))) - radius)
        if step <= tol * scale and infeas <= tol * radius:
            converged = True
            break
    if not converged:
        warnings.warn("incoherence projection hit max_iters; clipping to feasibility",
                      RuntimeWarning, stacklevel=2)
    z = basis.conj().T @ u
    attained = np.sqrt(rows) * np.max(np.abs(basis @ z))
    if attained > bound:
        z *= bound / attained
    return z


def initialize(ens: MeasurementEnsemble, y_hat: ObservationVector,
               mu: float, nu: float) -> InitResult:
    """Spectral initialization: per component, the exact leading singular
    triple of the back-projected M x K observation block, scaled by
    sqrt(d_n) and projected into the incoherent set."""
    y_hat.check_dims(ens.dims)
    if not np.any(y_hat.samples):
        raise DegenerateInputError("cannot initialize from a zero observation")
    d = ens.dims
    fm = dft_basis(d.L, d.M)
    d_n = np.empty(d.N)
    u0 = np.empty((d.N, d.M), dtype=complex)
    v0 = np.empty((d.N, d.K), dtype=complex)
    for n in range(d.N):
        block = adjoint_component(ens, n, y_hat.samples)
        dn, hv, xv = leading_singular_triple(block)
        d_n[n] = dn
        root = np.sqrt(dn)
        u0[n] = project_incoherent(root * hv, fm, 2 * root * mu)
        v0[n] = project_incoherent(root * xv, ens.coding[n], 2 * root * nu)
    return InitResult(d_n=d_n, start=BlockFactorPair(u0, v0))


def _apply_step(z: BlockFactorPair, g: BlockFactorPair, eta: float) -> BlockFactorPair:
    return BlockFactorPair(z.channels - eta * g.channels,
                           z.coefficients - eta * g.coefficients)


def _backtrack(ens, z, y_hat, p, g, gn_sq, cur, eta):
    """Halve eta until sufficient decrease; returns (z_new, evaluation at
    z_new, eta) or (z, cur, 0.0) when no decrease is achievable (plateau)."""
    while eta > _MIN_ETA:
        trial = _apply_step(z, g, eta)
        ev = evaluate(ens, trial, y_hat, p)
        if ev.f_tilde <= cur.f_tilde - 0.05 * eta * gn_sq:
            return trial, ev, eta
        eta *= 0.5
    return z, cur, 0.0


def _normalize_output(z: BlockFactorPair) -> BlockFactorPair:
    """Balance per-component factor norms and fix the phase so the first
    nonzero channel entry is real positive; leaves h_n x_n^* unchanged."""
    h = z.channels.copy()
    x = z.coefficients.copy()
    for n in range(h.shape[0]):
        hn, xn = np.linalg.norm(h[n]), np.linalg.norm(x[n])
        if hn == 0.0 or xn == 0.0:
            continue
        nz = np.nonzero(h[n])[0][0]
        theta = np.angle(h[n][nz])
        beta = np.sqrt(xn / hn) * np.exp(-1j * theta)
        h[n] *= beta
        x[n] *= np.exp(-1j * theta) / np.sqrt(xn / hn)
    return BlockFactorPair(h, x)


def _scaled(z: BlockFactorPair, c: float) -> BlockFactorPair:
    return BlockFactorPair(c * z.channels, c * z.coefficients)


def _scale_exponent(y: np.ndarray) -> int:
    """j such that 4^j is the power of four nearest ||y|| (0 for y = 0)."""
    peak = float(np.max(np.abs(y)))
    if peak == 0.0:
        return 0
    return int(np.round((np.log2(peak) + np.log2(np.linalg.norm(y / peak))) / 2))


def solve(ens: MeasurementEnsemble, y_hat: ObservationVector,
          cfg: SolverConfig | None = None,
          truth: BlockFactorPair | None = None) -> tuple[BlockFactorPair, SolveTrace]:
    """Initialize (unless cfg.start is given) and descend until max_iters,
    a small gradient, or (with truth) a small relative error.

    The model is homogeneous: y -> s y takes the factors to sqrt(s) times
    theirs.  The descent therefore runs on y / 4^j, 4^j the power of four
    nearest ||y||, with truth, start, rho and a fixed eta scaled to match;
    the estimate and the trace are scaled back by exact powers of two.
    """
    from .instances import relative_error

    cfg = cfg or SolverConfig()
    y_hat.check_dims(ens.dims)
    j = _scale_exponent(y_hat.samples)
    c = float(np.ldexp(1.0, -j))  # factors scale by c, y by c^2
    y_hat = ObservationVector(
        c * c * y_hat.samples, None if y_hat.noise is None else c * c * y_hat.noise)
    if truth is not None:
        truth = _scaled(truth, c)

    if cfg.mu is not None:
        mu, nu = cfg.mu, cfg.nu
    elif truth is not None:
        rep = coherences(ens, truth)
        mu, nu = rep.mu, rep.nu
    else:
        raise ValueError("need cfg.mu/cfg.nu bounds when no truth is available")

    if cfg.start is not None:
        z = _scaled(cfg.start, c)
        d_n = np.linalg.norm(z.channels, axis=1) * np.linalg.norm(z.coefficients, axis=1)
        d_n = np.where(d_n > 0, d_n, 1.0)
    else:
        init = initialize(ens, y_hat, mu, nu)
        z = init.start
        d_n = init.d_n
    d = float(np.sqrt(np.sum(d_n**2)))
    if cfg.rho is not None:
        rho = float(np.ldexp(cfg.rho, -4 * j))
    elif y_hat.noise is not None:
        rho = d**2 + 2.0 * float(np.vdot(y_hat.noise, y_hat.noise).real)
    else:
        rho = d**2
    p = PenaltyParams(rho=rho, d=d, d_n=d_n, mu=mu, nu=nu)

    backtracking = isinstance(cfg.eta, str)
    eta0 = (1.0 / (2.0 * operator_norm(ens) ** 2 * d)) if backtracking \
        else float(np.ldexp(cfg.eta, 2 * j))
    eta = eta0

    rows = []  # (t, f_tilde, f, g, rel_err, grad_norm)

    def record(t, ev, gn):
        err = relative_error(z, truth) if truth is not None else np.nan
        rows.append((t, ev.f_tilde, ev.f, ev.g, err, gn))
        return err

    cur = evaluate(ens, z, y_hat, p)
    if not np.isfinite(cur.f_tilde):
        raise NumericalFailureError(
            f"non-finite objective ({cur.f_tilde}) at the start point")
    f_init = max(cur.f_tilde, np.finfo(float).tiny)
    stop = "max_iters"
    err = record(0, cur, np.nan)
    if truth is not None and err < cfg.tol:
        stop = "rel_err"
    else:
        for t in range(1, cfg.max_iters + 1):
            g = grad_total(ens, z, y_hat, p)
            gn_sq = float(np.linalg.norm(g.channels) ** 2
                          + np.linalg.norm(g.coefficients) ** 2)
            gn = np.sqrt(gn_sq)
            if gn < cfg.grad_tol * d**2:
                stop = "grad_tol"
                break
            if backtracking:
                z, cur, eta = _backtrack(ens, z, y_hat, p, g, gn_sq, cur,
                                         min(2.0 * eta, eta0))
                if eta == 0.0:
                    record(t, cur, gn)
                    stop = "no_decrease"
                    break
            else:
                z = _apply_step(z, g, eta)
                cur = evaluate(ens, z, y_hat, p)
                if not np.isfinite(cur.f_tilde) or cur.f_tilde > 10.0 * f_init:
                    raise DivergenceError(
                        f"objective grew to {cur.f_tilde:.3e} (initial {f_init:.3e}); "
                        "reduce the fixed step size")
            err = record(t, cur, gn)
            if truth is not None and err < cfg.tol:
                stop = "rel_err"
                break
            if (len(rows) > _STALL_WINDOW and rows[-1 - _STALL_WINDOW][1] - cur.f_tilde
                    <= _STALL_RTOL * f_init):
                stop = "stall"
                break

    arr = np.array(rows, dtype=float)
    trace = SolveTrace(
        t=arr[:, 0].astype(int), f_tilde=np.ldexp(arr[:, 1], 4 * j),
        f=np.ldexp(arr[:, 2], 4 * j), g=np.ldexp(arr[:, 3], 4 * j),
        rel_err=arr[:, 4], grad_norm=np.ldexp(arr[:, 5], 3 * j),
        stop_reason=stop, iterations=int(arr[-1, 0]),
    )
    return _scaled(_normalize_output(z), 1.0 / c), trace

