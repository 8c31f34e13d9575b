"""Spectral initialization and regularized Wirtinger conjugate-gradient descent.

The spectral start is the exact leading singular triple (one stacked SVD)
of each back-projected M x K observation block; `initialize` rescales each of
its factors into the incoherent set.  `solve` needs no ground truth: it
takes its penalty parameters from the start point and updates all blocks at
once, each step from the exact minimiser of the loss along its direction.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from operator import iadd, imul

import numpy as np

from .instances import relative_errors
from .objective import (DegenerateInputError, Evaluation, PenaltyParams, _coded_messages,
                        _coherences, _formed, _gradient, _kernel, grad_total)
from .operators import (BlockFactorPair, MeasurementEnsemble, ObservationVector, _adjoint_blocks,
                        _single_basis, _unit_scaled, check_counts, component_spectra)

__all__ = [
    "SolverConfig",
    "InitResult",
    "SolveTrace",
    "NumericalFailureError",
    "leading_singular_triple",
    "initialize",
    "solve",
]


# A search gives up below this step size; the descent then stops with
# "no_decrease".  Every _RESTART-th row's search steps along -g.
_MIN_ETA = 1e-20
_RESTART = 20
# The descent stops once its estimated error (`_error_estimate`, which reads
# the residuals of the last _WINDOW rows at most) is below _ERROR_TOL, or
# once the gradient norm is below _GRAD_TOL * d^2 (noisy y has a residual
# floor).
_ERROR_TOL = 2.5e-3
_WINDOW = 10
_GRAD_TOL = 1e-7
# `solve` takes mu, nu as this margin times the coherences of its start
# point.  `initialize` multiplies the unit u_n by min(1, 2 mu / mu_n), mu_n =
# sqrt(L) ||F u_n||_inf <= mu(start) (and v_n by min(1, 2 nu / nu_n)), which is
# 1 at this margin: `solve` skips that rescale.
_COHERENCE_MARGIN = 1.5
# `solve` starts and descends in complex64 above this many bytes of read-only operands,
# where halving them speeds an evaluation 1.3x (below, per-call overhead binds),
# then in complex128 below _SINGLE_GRAD_TOL d^2 (float32's floor is near 1e-6 d^2).
_SINGLE_BYTES = 640 << 10
_SINGLE_GRAD_TOL = 1e-3


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
    scaled starting point, rescaled into the incoherent set."""

    d_n: np.ndarray
    start: BlockFactorPair


@dataclass
class SolveTrace:
    """Per-iteration history at the scale `solve` descends in, y / 4^j with
    j = scale_exponent: in y's units f, g and f_tilde are 16^j times these,
    grad_norm 8^j times and eta 4^-j times.  Row 0 is the starting point.
    eta is the accepted step t along the row's direction (0 on row 0 and where
    a search failed), evals the row's value evaluations (row 0: the start's and `grad_total`'s,
    so 2; gradients are formed only there and at rows the descent goes on from), grad_norm the
    gradient norm at the point the row stepped from (row t - 1's; NaN on row 0), rel_err the
    truth's score, made after the descent (NaN without a truth), and err_est the estimated error
    the "residual" stop reads (`_error_estimate`; NaN on row 0 unless f = 0 there).  switch_row
    is the row `solve` went on from in complex128 (None: no switch)."""

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


def _spectral_start(ens, y_hat: ObservationVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact leading singular triples (d_n, u_n, v_n), unit u_n, v_n, of the N stacked
    blocks A_n^*(y_hat), from one stacked SVD."""
    y_hat.check_dims(ens.dims)
    if not np.any(y_hat.samples):
        raise DegenerateInputError("cannot initialize from a zero observation")
    return leading_singular_triple(_adjoint_blocks(ens, y_hat.samples))


def initialize(ens: MeasurementEnsemble, y_hat: ObservationVector,
               mu: float, nu: float) -> InitResult:
    """Spectral initialization: per component, the exact leading singular triple (d_n, u_n, v_n)
    of the back-projected M x K observation block, u_n times min(1, 2 mu / mu_n) and v_n times
    min(1, 2 nu / nu_n), mu_n = sqrt(L) ||F u_n||_inf >= 1 and nu_n = sqrt(Q) ||C_n v_n||_inf
    their own coherences, both then times sqrt(d_n): the start lies in the incoherent set
    sqrt(L) ||F h_n||_inf <= 2 sqrt(d_n) mu, sqrt(Q) ||C_n x_n||_inf <= 2 sqrt(d_n) nu, and a
    factor within its bound keeps its bits.  The paper projects onto the set instead: the same
    start where no bound binds, a closer one where bounds bind well below the truth's coherences
    (README).  A mu or nu that is not positive and finite is a ValueError."""
    if not (0 < mu < math.inf and 0 < nu < math.inf):
        raise ValueError("coherence bound must be positive and finite")
    d_n, u, v = _spectral_start(ens, y_hat)
    for unit, image, rows, c in ((u, np.matvec(ens.basis, u), ens.dims.L, mu),
                                 (v, _coded_messages(ens, v).T, ens.dims.Q, nu)):
        own = math.sqrt(rows) * np.abs(image).max(axis=1)  # >= 1: the vectors are unit
        unit *= (2 * np.minimum(own / 2, c) / own)[:, None]  # exactly 1.0 where c >= own / 2
    root = np.sqrt(d_n)[:, None]  # an unscaled y's sqrt(d_n) may overflow: the pair is checked
    return InitResult(d_n=d_n, start=BlockFactorPair(root * u, root * v))


def _quartic_min(c1: float, c2: float, c3: float, c4: float) -> float:
    """The t > 0 minimising c1 t + c2 t^2 + c3 t^3 + c4 t^4 (Python floats), a real root of its
    derivative (Cardano's formula); 0.0 where c4 <= 0, no root is positive or one overflows."""
    if not c4 > 0.0:
        return 0.0
    b, k, e = 0.75 * c3 / c4, 0.5 * c2 / c4, 0.25 * c1 / c4  # t^3 + b t^2 + k t + e
    p, q = k - b * b / 3, b * (2 * b * b - 9 * k) / 27 + e   # u^3 + p u + q at t = u - b / 3
    disc = q * q / 4 + p * p * p / 27
    if not math.isfinite(disc):
        return 0.0
    if disc > 0.0:  # one real root A + B, A B = -p / 3: nothing cancels
        a = -math.copysign((abs(q) / 2 + math.sqrt(disc)) ** (1 / 3), q)
        us = [a - p / (3 * a)]
    else:  # three, trigonometrically
        r = math.sqrt(-p / 3)
        phi = math.acos(max(-1.0, min(1.0, -q / (2 * r * r * r)))) if r else 0.0
        us = [2 * r * math.cos((phi - 2 * math.pi * i) / 3) for i in range(3)]
    ts = [u - b / 3 for u in us if u > b / 3]
    return min(ts, key=lambda t: (((c4 * t + c3) * t + c2) * t + c1) * t) if ts else 0.0


def _search(ens, p, z, cur, D, slope):
    """Search from z along D, slope = Re<g, D> < 0, from the t minimising the quartic F(z + t D)
    (else 1/(2 N M d)), halving until f~(t) <= f~(0) + 0.05 t slope; trials' spectra and residual
    by linearity, their values only.  Returns (point, its value, t, trials), or z, cur, 0.0 below
    _MIN_ETA."""
    sd, cd = component_spectra(ens, D)
    s, c, r = cur.spectra, cur.coded_spectra, cur.residual
    a1, a2 = (sd * c + s * cd).sum(axis=1), (sd * cd).sum(axis=1)  # r(t) = r + t a1 + t^2 a2
    r1, r2, g11, g12, g22 = (float(np.vdot(u, v).real) for u, v in
                             ((r, a1), (r, a2), (a1, a1), (a1, a2), (a2, a2)))  # Re<u, v>
    t = _quartic_min(2 * r1, g11 + 2 * r2, 2 * g12, g22) or 0.5 / (ens.dims.N * ens.dims.M * p.d)
    trials = 0
    while t > _MIN_ETA:
        trial = BlockFactorPair.unchecked(z.channels + t * D.channels,
                                          z.coefficients + t * D.coefficients)
        rt = iadd(imul(iadd(a2 * t, a1), t), r)  # r + t (a1 + t a2), written in place, as are
        ev = _kernel(ens, trial, p, iadd(sd * t, s), iadd(cd * t, c), rt)  # s + t sd, c + t cd
        trials += 1
        if ev.f_tilde <= cur.f_tilde + 0.05 * t * slope:
            return trial, ev, t, trials
        t *= 0.5
    return z, cur, 0.0, trials


def _normalize_output(z: BlockFactorPair, scale: float = 1.0) -> BlockFactorPair:
    """Balance per-component factor norms, fix the phase so the first nonzero channel entry is
    real positive and scale by a power of two (exact): h_n x_n^* becomes scale^2 times z's.  A
    component with a zero factor is only scaled.  A non-finite result is a ValueError."""
    h, x = z.channels, z.coefficients
    hn, xn = np.sqrt(np.vecdot(h, h).real), np.sqrt(np.vecdot(x, x).real)
    live = (hn > 0.0) & (xn > 0.0)
    ratio = np.sqrt(np.divide(xn, hn, out=np.ones_like(hn), where=live))
    lead = h[np.arange(h.shape[0]), np.argmax(h != 0, axis=1)]
    phase = np.where(live, np.exp(-1j * np.angle(lead)), 1.0)
    return BlockFactorPair(h * (ratio * phase * scale)[:, None],
                           x * (phase / ratio * scale)[:, None])


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

    `solve` is blind: its penalty takes mu, nu = `_COHERENCE_MARGIN` times the
    start's coherences, d_n its singular values and rho = d^2.  A truth (its
    shape checked first) only fills the rel_err column, all rows in one call
    after the descent.  The "residual" stop reads r / sqrt(1 - q), r = sqrt(f) /
    ||y|| and q its contraction rate over the last rows: slow instances run on.

    Step rule (nonlinear conjugate gradients): D = -g + beta D_prev, beta =
    max(0, Re<g, g - g_prev>) / ||g_prev||^2 (Polak-Ribiere+), reset to -g on
    row 1, every `_RESTART`-th row, at the precision switch, after a failed
    search and where Re<g, D> >= 0.  `_search` starts at the exact minimiser of
    the quartic F(z + t D) and halves until the Armijo test holds on value alone (a failure along
    -g stops the descent); a row's gradient is formed once no stop ends the descent there.

    The model is homogeneous, so the descent runs on y / 4^j, 4^j the power of
    four nearest ||y||; the estimate is scaled back by 2^j, and the trace stays
    at the descent's scale, j its scale_exponent, finite at any scale of y.

    Above `_SINGLE_BYTES`, the start (its SVD aside) and the descent run on
    complex64 copies of the coded spectra, y and the start, made first, and on
    `_single_basis`.  Below `_SINGLE_GRAD_TOL` d^2, or after a failed search, it
    goes on in complex128 from the last row's point, cast, spectra re-formed: the
    next search steps along -g of that row, whose gradient norm stops nothing.
    """
    cfg = cfg or SolverConfig()
    j = _scale_exponent(y_hat.samples)
    c = float(np.ldexp(1.0, -j))  # factors scale by c, y by c^2
    if truth is not None:  # a mis-shaped truth, or one c * truth overflows, fails before any work
        truth.check_dims(ens.dims)
        truth = BlockFactorPair(c * truth.channels, c * truth.coefficients)
    y_hat = copy.copy(y_hat)  # y was checked: its scaled copies are not, nor the start
    vars(y_hat).update(samples=c * (c * y_hat.samples))  # c * c overflows for a subnormal y
    w_ens, w_y = ens, y_hat
    if ens.coded_spectra.nbytes + ens.basis.nbytes > _SINGLE_BYTES:
        w_ens, w_y = copy.copy(ens), copy.copy(y_hat)
        vars(w_ens).update(coded_spectra=ens.coded_spectra.astype(np.complex64),
                           basis=_single_basis(ens.dims.L, ens.dims.M))
        vars(w_y).update(samples=y_hat.samples.astype(np.complex64))
    d_n, u, v = _spectral_start(w_ens, w_y)
    root = np.sqrt(d_n)[:, None]
    z = BlockFactorPair.unchecked(root * u, root * v).astype(w_y.samples.dtype)
    formed = _formed(w_ens, z, w_y)
    rep = _coherences(w_ens, z, formed[0])
    d = float(np.sqrt(np.sum(d_n**2)))
    p = PenaltyParams(rho=d**2, d=d, d_n=d_n, mu=_COHERENCE_MARGIN * rep.mu,
                      nu=_COHERENCE_MARGIN * rep.nu)

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

    def dot(a, b):  # Re<a, b>, a Python float: a numpy float64 would promote a complex64 point
        return float(np.vdot(a.channels, b.channels).real
                     + np.vdot(a.coefficients, b.coefficients).real)

    cur = _kernel(w_ens, z, p, *formed)
    if not np.isfinite(cur.f_tilde):
        raise NumericalFailureError(f"non-finite objective ({cur.f_tilde}) at the start point")
    g = grad_total(w_ens, z, w_y, p)
    est = record(cur, np.nan, 0.0, 2)
    stop, switch_row, failed, D = "max_iters", None, False, None
    while len(rows) <= cfg.max_iters:
        if est < _ERROR_TOL:
            stop = "residual"
            break
        if len(rows) > 1 and not failed:  # the descent goes on from the last search's point
            g_prev, gp_sq, g = g, gn_sq, _gradient(w_ens, z, p, cur)
        gn_sq = dot(g, g)
        gn = math.sqrt(gn_sq)
        if w_ens is not ens and (failed or gn < _SINGLE_GRAD_TOL * d**2):
            w_ens, w_y, z, switch_row, D = ens, y_hat, z.astype(complex), len(rows) - 1, None
            cur = Evaluation(cur.f, cur.g, None, *_formed(ens, z, y_hat))  # drop float32 drift
        elif gn < _GRAD_TOL * d**2:
            stop = "grad_tol"
            break
        if conjugate := D is not None and not failed and len(rows) % _RESTART:  # Polak-Ribiere+
            beta = max(0.0, (gn_sq - dot(g, g_prev)) / gp_sq)
            D = BlockFactorPair.unchecked(beta * D.channels - g.channels,
                                          beta * D.coefficients - g.coefficients)
        if steepest := not conjugate or (slope := dot(g, D)) >= 0.0:
            D, slope = BlockFactorPair.unchecked(-g.channels, -g.coefficients), -gn_sq
        z, cur, eta, evals = _search(w_ens, p, z, cur, D, slope)
        est = record(cur, gn, eta, evals)
        if (failed := eta == 0.0) and w_ens is ens and steepest:
            stop = "no_decrease"
            break

    f, g, err_est, grad_norm, eta, evals = np.array(rows, dtype=float).T
    rel_err = np.full(len(rows), np.nan)
    if truth is not None:  # one call scores every row, in complex128
        rel_err = relative_errors(*map(np.array, zip(*points), [complex] * 2), truth)
    trace = SolveTrace(f=f, g=g, rel_err=rel_err, err_est=err_est, grad_norm=grad_norm,
                       eta=eta, evals=evals.astype(int), stop_reason=stop,
                       iterations=len(rows) - 1, scale_exponent=j, switch_row=switch_row)
    return _normalize_output(z.astype(complex), 1.0 / c), trace
