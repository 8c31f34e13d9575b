"""Spectral initialization and regularized Wirtinger gradient descent.

The spectral start is the exact leading singular triple (one stacked SVD)
of each back-projected M x K observation block; `initialize` pushes it into the
incoherent set by a convex projection.  `solve` needs no ground truth: it
takes its penalty parameters from the start point and runs simultaneous
Wirtinger updates of all channel and coefficient blocks, with a
backtracking step size that guarantees a non-increasing objective.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .instances import relative_errors
from .objective import DegenerateInputError, PenaltyParams, coherences, evaluate, grad_total
from .operators import (BlockFactorPair, MeasurementEnsemble, ObservationVector, _adjoint_blocks,
                        _single_basis, _unit_scaled, check_counts)

__all__ = [
    "SolverConfig",
    "InitResult",
    "SolveTrace",
    "NumericalFailureError",
    "leading_singular_triple",
    "project_incoherent",
    "initialize",
    "solve",
]


# Backtracking gives up below this step size; the descent then stops with
# "no_decrease".
_MIN_ETA = 1e-20
# The descent stops once its estimated error (`_error_estimate`, which reads
# the residuals of the last _WINDOW rows at most) is below _ERROR_TOL, or
# once the gradient norm is below _GRAD_TOL * d^2 (noisy y has a residual
# floor).
_ERROR_TOL = 2.5e-3
_WINDOW = 10
_GRAD_TOL = 1e-7
# `solve` takes mu, nu as this margin times the coherences of its start
# point.  A spectral start h_n = sqrt(d_n) u_n has unit u_n, so
# sqrt(L) ||F h_n||_inf <= sqrt(d_n) mu(start): the incoherent set
# sqrt(L) ||F h_n||_inf <= 2 sqrt(d_n) mu (and likewise for x_n, nu) already
# contains it, the initial projection would return it unchanged, and `solve`
# skips that projection.
_COHERENCE_MARGIN = 1.5
# `solve` starts and descends in complex64 above this many bytes of read-only operands,
# where halving them speeds an evaluation 1.3x (below, per-call overhead binds),
# then in complex128 below _SINGLE_GRAD_TOL d^2 (float32's floor is near 1e-6 d^2).
_SINGLE_BYTES = 640 << 10
_SINGLE_GRAD_TOL = 1e-3
# `project_incoherent`'s relative convergence tolerance and round budget.
_PROJECTION_TOL = 1e-8
_PROJECTION_MAX_ITERS = 500


class NumericalFailureError(RuntimeError):
    """The objective is non-finite at the start point."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget of `solve`, fixed once checked; the descent always
    starts from the spectral start."""

    max_iters: int = 5000

    def __post_init__(self):
        check_counts(max_iters=self.max_iters)


@dataclass
class InitResult:
    """Output of the spectral initializer: leading singular values d_n and the
    projected scaled starting point."""

    d_n: np.ndarray
    start: BlockFactorPair


@dataclass
class SolveTrace:
    """Per-iteration history at the scale `solve` descends in, y / 4^j with
    j = scale_exponent: in y's units f, g and f_tilde are 16^j times these,
    grad_norm 8^j times and eta 4^-j times.  Row 0 is the starting point.
    eta is the accepted step (0 on row 0 and where a search failed; its
    search started at eta 2^(evals - 1)), evals the row's objective
    evaluations (row 0: the start value and its gradient, so 2), rel_err the
    truth's score, made after the descent (NaN without a truth), and err_est
    the estimated error the "residual" stop reads (`_error_estimate`; NaN on
    row 0 unless f = 0 there).  switch_row is the row `solve` went on from in
    complex128 (None: no switch)."""

    f: np.ndarray
    g: np.ndarray
    rel_err: np.ndarray
    err_est: np.ndarray
    grad_norm: np.ndarray
    eta: np.ndarray
    evals: np.ndarray
    stop_reason: str
    iterations: int
    scale_exponent: int
    switch_row: int | None

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.iterations + 1)

    @property
    def f_tilde(self) -> np.ndarray:
        return self.f + self.g


def leading_singular_triple(A: np.ndarray) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Exact leading singular triple (d, u, v) of a complex matrix, from its
    SVD: A v = d u with unit u, v; of each matrix of a (..., M, K) stack, from
    one stacked SVD.  Fewer than 2 dimensions raise LinAlgError, a ValueError."""
    U, s, Vh = np.linalg.svd(np.asarray(A, dtype=complex))
    if np.any(s[..., 0] == 0.0):
        raise DegenerateInputError("zero matrix has no leading singular triple")
    return s[..., 0], U[..., 0], Vh[..., 0, :].conj()


def project_incoherent(g: np.ndarray, basis: np.ndarray, bound: float) -> np.ndarray:
    """Euclidean projection of g onto {z : sqrt(rows) * ||basis z||_inf <= bound}.

    basis must have orthonormal columns (partial DFT or a coding matrix).
    Dykstra's alternating projections need a correction for the infinity ball
    only, as the projection onto the range is linear.  Where the bound binds,
    the rounds seldom reach `_PROJECTION_TOL` by `_PROJECTION_MAX_ITERS`; a
    final rescale, with a RuntimeWarning, then returns a feasible point closer
    to g than g's radial rescale, but not the projection.  A radius bound /
    sqrt(rows) that is not positive and finite, or a non-finite g, is a ValueError.
    """
    basis = np.asarray(basis)
    g = np.asarray(g, dtype=complex)
    rows, cols = basis.shape
    radius = bound / np.sqrt(rows)
    if not 0 < radius < math.inf:
        raise ValueError("bound must be positive and finite")
    if g.shape != (cols,):
        raise ValueError(f"point length {g.shape} incompatible with basis {basis.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("point has non-finite entries")

    u = basis @ g
    p = np.zeros_like(u)
    scale = max(1.0, float(np.linalg.norm(u)))
    for _ in range(_PROJECTION_MAX_ITERS):
        v = u + p
        y = v * (radius / np.maximum(np.abs(v), radius))  # factor exactly 1 inside the radius, v = 0 too
        p = v - y
        u_new = basis @ (basis.conj().T @ y)
        step = np.linalg.norm(u_new - u)
        u = u_new
        infeas = max(0.0, float(np.max(np.abs(u))) - radius)
        if step <= _PROJECTION_TOL * scale and infeas <= _PROJECTION_TOL * radius:
            break
    else:
        warnings.warn("incoherence projection hit max_iters; clipping to feasibility",
                      RuntimeWarning, stacklevel=2)
    z = basis.conj().T @ u
    attained = np.sqrt(rows) * np.max(np.abs(basis @ z))
    if attained > bound:
        z *= bound / attained
    return z


def _spectral_start(ens: MeasurementEnsemble, y_hat: ObservationVector) -> InitResult:
    """d_n and the start (sqrt(d_n) u_n, sqrt(d_n) v_n), from the exact leading
    singular triples of the N stacked blocks A_n^*(y_hat), one stacked SVD."""
    y_hat.check_dims(ens.dims)
    if not np.any(y_hat.samples):
        raise DegenerateInputError("cannot initialize from a zero observation")
    d_n, u, v = leading_singular_triple(_adjoint_blocks(ens, y_hat.samples))
    root = np.sqrt(d_n)[:, None]
    return InitResult(d_n=d_n, start=BlockFactorPair(root * u, root * v))


def initialize(ens: MeasurementEnsemble, y_hat: ObservationVector,
               mu: float, nu: float) -> InitResult:
    """Spectral initialization: per component, the exact leading singular
    triple of the back-projected M x K observation block, scaled by
    sqrt(d_n) and projected into the incoherent set."""
    init = _spectral_start(ens, y_hat)
    z = init.start
    for n, root in enumerate(np.sqrt(init.d_n)):
        z.channels[n] = project_incoherent(z.channels[n], ens.basis, 2 * root * mu)
        z.coefficients[n] = project_incoherent(z.coefficients[n], ens.coding[n],
                                               2 * root * nu)
    return init


def _apply_step(z: BlockFactorPair, g: BlockFactorPair, eta: float) -> BlockFactorPair:
    return BlockFactorPair.unchecked(z.channels - eta * g.channels,
                                     z.coefficients - eta * g.coefficients)


def _backtrack(ens, z, y_hat, p, g, gn_sq, cur, eta):
    """Halve eta until sufficient decrease; returns (z_new, evaluation at
    z_new with its gradient, eta, evaluations made), with z, cur and eta 0.0
    when no decrease is achievable (plateau).  A non-finite trial fails the
    test and is halved like any other."""
    evals = 0
    while eta > _MIN_ETA:
        trial = _apply_step(z, g, eta)
        ev = evaluate(ens, trial, y_hat, p, grad=True)
        evals += 1
        if ev.f_tilde <= cur.f_tilde - 0.05 * eta * gn_sq:
            return trial, ev, eta, evals
        eta *= 0.5
    return z, cur, 0.0, evals


def _next_start(g, g_new, eta, evals, eta0):
    """Barzilai-Borwein Re<s, y>/||y||^2 (s = -eta g, y = g_new - g) rounded to
    eta0 2^k; if Re<s, y> <= 0 or y = 0, 2 eta after a 1-trial search, else eta."""
    yc, yx = g_new.channels - g.channels, g_new.coefficients - g.coefficients
    sy = -eta * (np.vdot(g.channels, yc).real + np.vdot(g.coefficients, yx).real)
    yy = np.vdot(yc, yc).real + np.vdot(yx, yx).real
    if sy > 0.0 and yy > 0.0:
        return math.ldexp(eta0, round(math.log2(sy / yy / eta0)))
    return 2.0 * eta if evals == 1 else eta


def _normalize_output(z: BlockFactorPair) -> BlockFactorPair:
    """Balance per-component factor norms and fix the phase so the first
    nonzero channel entry is real positive; leaves h_n x_n^* unchanged.  A
    component with a zero factor is left as it is."""
    h, x = z.channels, z.coefficients
    hn, xn = np.sqrt(np.vecdot(h, h).real), np.sqrt(np.vecdot(x, x).real)
    live = (hn > 0.0) & (xn > 0.0)
    ratio = np.sqrt(np.divide(xn, hn, out=np.ones_like(hn), where=live))
    lead = h[np.arange(h.shape[0]), np.argmax(h != 0, axis=1)]
    phase = np.where(live, np.exp(-1j * np.angle(lead)), 1.0)
    return BlockFactorPair.unchecked(h * (ratio * phase)[:, None], x * (phase / ratio)[:, None])


def _scaled(z: BlockFactorPair, c: float) -> BlockFactorPair:
    return BlockFactorPair(c * z.channels, c * z.coefficients)


def _scale_exponent(y: np.ndarray) -> int:
    """j such that 4^j is the power of four nearest ||y||, from the finite norm of
    y 2^-e (`_unit_scaled`); 0 for a zero or empty y (`_spectral_start` rejects both)."""
    unit, e = _unit_scaled(y)
    norm = float(np.linalg.norm(unit))
    return round((e + math.log2(norm)) / 2) if norm else 0


def _error_estimate(r: list[float]) -> float:
    """Estimated distance to the solution, relative to ||y||, after the rows
    whose relative residuals sqrt(f) / ||y|| are r: r_t / sqrt(1 - q) for a
    descent that contracts linearly at rate q = (r_t / r_{t-w})^(1/w), w =
    min(`_WINDOW`, t).  0 where r_t = 0, on any row; NaN on row 0 otherwise
    (no window); inf where q >= 1 (no contraction to read)."""
    t = len(r) - 1
    if r[t] == 0.0:
        return 0.0
    if t == 0:
        return math.nan
    w = min(_WINDOW, t)
    q = (r[t] / r[t - w]) ** (1.0 / w)
    return r[t] / math.sqrt(1.0 - q) if q < 1.0 else math.inf


def solve(ens: MeasurementEnsemble, y_hat: ObservationVector,
          cfg: SolverConfig | None = None,
          truth: BlockFactorPair | None = None) -> tuple[BlockFactorPair, SolveTrace]:
    """Descend from the spectral start until the estimated error
    `_error_estimate` is below `_ERROR_TOL` ("residual"), the gradient norm
    is below `_GRAD_TOL` d^2 ("grad_tol"), no step decreases the objective
    ("no_decrease") or max_iters ends it.

    `solve` is blind: its penalty takes mu, nu = `_COHERENCE_MARGIN` times
    the spectral start's coherences, d_n its leading singular values and
    rho = d^2.  The truth, its shape checked first, only scores through
    `relative_errors`: the trace's rel_err column, which no stop reads.  The
    descent keeps each row's point, and one batched call scores them all
    after it; a blind solve keeps none.  The "residual" stop reads only f:
    its estimate r / sqrt(1 - q) takes the residual r = sqrt(f) / ||y|| and
    the rate q at which r contracted over the last rows, so an ill-conditioned
    instance, which contracts slowly, descends further than an easy one.

    Each iteration evaluates the objective once per step-size trial, with
    the gradient: the accepted trial's gradient drives the next step, so
    `grad_total` runs only for the start point.

    Step rule (backtracking): a search halves until the Armijo test holds.
    The first starts at 2 eta0, eta0 = 1/(2 N M d), every later one at the
    Barzilai-Borwein step rounded to eta0 2^k (`_next_start`), so y -> s y
    scales every step by exactly 1/s.  eta0 needs no operator norm:
    ||A||^2 <= N M.  With z_nm the m-th row of Z_n and f_m the m-th column of
    F_M, A(Z) = sum_nm f_m * conj(B_n) z_nm is a sum of N M isometries
    (|f_m| = 1/sqrt(L), ||B_n v|| = sqrt(L) ||v||), so
    ||A(Z)|| <= sqrt(N M) ||Z||_F by Cauchy-Schwarz.

    The model is homogeneous: y -> s y takes the factors to sqrt(s) times
    theirs.  The descent therefore runs on y / 4^j, 4^j the power of four
    nearest ||y||, with the truth scaled to match; the estimate is
    scaled back by 2^j, and the trace stays at the descent's scale with j
    as its scale_exponent, so its columns are finite at any scale of y.

    Above `_SINGLE_BYTES`, the start (its SVD aside) and the descent run on
    complex64 copies of the coded spectra, y and the start, made first, and on
    `_single_basis`.  Below `_SINGLE_GRAD_TOL` d^2, or after a failed search, it
    goes on in complex128 from the last row's point, cast: the next search steps
    along that row's gradient and tests against its value, and that row's
    gradient norm stops nothing.
    """
    cfg = cfg or SolverConfig()
    j = _scale_exponent(y_hat.samples)
    c = float(np.ldexp(1.0, -j))  # factors scale by c, y by c^2
    y_hat = ObservationVector(c * (c * y_hat.samples))  # c * c overflows for a subnormal y
    if truth is not None:  # a mis-shaped truth fails before any work
        truth.check_dims(ens.dims)
    w_ens, w_y = ens, y_hat
    if ens.coded_spectra.nbytes + ens.basis.nbytes > _SINGLE_BYTES:
        w_ens, w_y = copy.copy(ens), copy.copy(y_hat)
        vars(w_ens).update(coded_spectra=ens.coded_spectra.astype(np.complex64),
                           basis=_single_basis(ens.dims.L, ens.dims.M))
        vars(w_y).update(samples=y_hat.samples.astype(np.complex64))
    init = _spectral_start(w_ens, w_y)
    z, d_n = init.start.astype(w_y.samples.dtype), init.d_n
    rep = coherences(w_ens, z)
    d = float(np.sqrt(np.sum(d_n**2)))
    p = PenaltyParams(rho=d**2, d=d, d_n=d_n, mu=_COHERENCE_MARGIN * rep.mu,
                      nu=_COHERENCE_MARGIN * rep.nu)

    eta0 = 1.0 / (2.0 * ens.dims.N * ens.dims.M * d)
    start = 2.0 * eta0  # the first search's first step

    y_norm = float(np.linalg.norm(y_hat.samples))
    residuals = []  # sqrt(f) / ||y|| per row
    rows = []  # (f, g, err_est, grad_norm, eta, evals)
    points = []  # (h, x) per row, only to be scored against a truth

    def record(ev, gn, step, evals):
        residuals.append(math.sqrt(ev.f) / y_norm)
        est = _error_estimate(residuals)
        rows.append((ev.f, ev.g, est, gn, step, evals))
        if truth is not None:
            points.append((z.channels, z.coefficients))
        return est

    cur = evaluate(w_ens, z, w_y, p)
    if not np.isfinite(cur.f_tilde):
        raise NumericalFailureError(f"non-finite objective ({cur.f_tilde}) at the start point")
    g = grad_total(w_ens, z, w_y, p)
    est = record(cur, np.nan, 0.0, 2)
    stop, switch_row, failed = "max_iters", None, False
    while len(rows) <= cfg.max_iters:
        if est < _ERROR_TOL:
            stop = "residual"
            break
        gn_sq = float(np.vdot(g.channels, g.channels).real
                      + np.vdot(g.coefficients, g.coefficients).real)
        gn = np.sqrt(gn_sq)
        if w_ens is not ens and (failed or gn < _SINGLE_GRAD_TOL * d**2):
            w_ens, w_y, z, switch_row = ens, y_hat, z.astype(complex), len(rows) - 1
        elif gn < _GRAD_TOL * d**2:
            stop = "grad_tol"
            break
        z, cur, eta, evals = _backtrack(w_ens, z, w_y, p, g, gn_sq, cur, start)
        if eta == 0.0:
            est = record(cur, gn, 0.0, evals)
            if failed := w_ens is not ens:
                continue
            stop = "no_decrease"
            break
        start = _next_start(g, cur.grad, eta, evals, eta0)
        g = cur.grad
        est = record(cur, gn, eta, evals)

    f, g, err_est, grad_norm, eta, evals = np.array(rows, dtype=float).T
    rel_err = np.full(len(rows), np.nan)
    if truth is not None:  # one call scores every row, in complex128
        rel_err = relative_errors(*map(np.array, zip(*points), [complex] * 2), _scaled(truth, c))
    trace = SolveTrace(f=f, g=g, rel_err=rel_err, err_est=err_est, grad_norm=grad_norm,
                       eta=eta, evals=evals.astype(int), stop_reason=stop,
                       iterations=len(rows) - 1, scale_exponent=j, switch_row=switch_row)
    return _scaled(_normalize_output(z.astype(complex)), 1.0 / c), trace
