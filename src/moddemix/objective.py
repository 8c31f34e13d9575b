"""Coherence parameters, the regularized loss and its Wirtinger gradient.

The objective is ``F_tilde = F + G`` where ``F`` is the squared residual of
the measurement map and ``G`` is a hinge penalty that keeps the iterates
norm-bounded and spectrally incoherent.  `evaluate` is the single kernel:
it computes ``F``, ``G`` and, on request, the gradient, batched over
components, with its contractions as batched BLAS products; `loss_total`
and `grad_total` are thin wrappers around it.
Gradients follow the Wirtinger convention (derivative w.r.t. the conjugated
variable), so a descent step is ``z <- z - eta * grad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    BlockFactorPair,
    MeasurementEnsemble,
    ObservationVector,
    _unit_scaled,
    component_spectra,
)

__all__ = [
    "CoherenceReport",
    "PenaltyParams",
    "Evaluation",
    "coherences",
    "evaluate",
    "grad_total",
    "loss_total",
]


class DegenerateInputError(ValueError):
    """Raised when an operation receives an all-zero vector it cannot handle."""


@dataclass(frozen=True)
class CoherenceReport:
    """Spectral/temporal dispersion measures of a factor pair.

    mu_sq in [1, L] measures how peaky the channel spectra are, nu_sq in
    [1, Q] how peaky the coded messages are."""

    mu_sq: float
    nu_sq: float
    d_n: np.ndarray
    d0: float

    @property
    def mu(self) -> float:
        return float(np.sqrt(self.mu_sq))

    @property
    def nu(self) -> float:
        return float(np.sqrt(self.nu_sq))


def _coded_messages(ens: MeasurementEnsemble, x: np.ndarray) -> np.ndarray:
    """The coded messages C_n x_n as (Q, N) columns.  The coding is real:
    one real product on x's (re, im) pairs, viewed as complex (complex128)."""
    pairs = np.ascontiguousarray(x).view(x.real.dtype).reshape(*x.shape, 2)
    return (ens.coding @ pairs).view(complex)[..., 0].T


def coherences(ens: MeasurementEnsemble, z: BlockFactorPair) -> CoherenceReport:
    """mu^2, nu^2 (in z's dtype) and the energies d_n, from factors scaled by powers
    of two (`_unit_scaled`), at any scale of z; a d_n or d0 past the double range is inf or 0."""
    z.check_dims(ens.dims)
    d = ens.dims
    (h, eh), (x, ex) = map(_unit_scaled, (z.channels, z.coefficients))
    h_sq, x_sq = np.vecdot(h, h).real, np.vecdot(x, x).real
    if np.any(h_sq == 0.0) or np.any(x_sq == 0.0):
        raise DegenerateInputError("coherences undefined for zero factors")
    spectra = h @ ens.basis.T                                         # (N, L)
    mu_sq = d.L * np.max(np.abs(spectra).max(axis=1) ** 2 / h_sq)
    nu_sq = d.Q * np.max(np.max(np.abs(_coded_messages(ens, x)), axis=0) ** 2 / x_sq)
    root = np.sqrt(h_sq, dtype=float) * np.sqrt(x_sq, dtype=float)  # d_n 2^-(eh + ex)
    with np.errstate(over="ignore"):
        return CoherenceReport(float(mu_sq), float(nu_sq), np.ldexp(root, eh + ex),
                               float(np.ldexp(np.sqrt(np.sum(root**2)), eh + ex)))


@dataclass(frozen=True, slots=True)
class PenaltyParams:
    """Hinge-penalty configuration: weight rho, global/per-component scale
    estimates d and d_n, and the coherence bounds mu, nu used inside G.
    Slotted, so it holds these fields and nothing else."""

    rho: float
    d: float
    d_n: np.ndarray
    mu: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "d_n", np.asarray(self.d_n, dtype=float))
        # finite too: an infinite rho would make an idle hinge's G = inf * 0 = NaN
        if not (0 < self.rho < math.inf and 0 < self.d < math.inf
                and np.all((0 < self.d_n) & (self.d_n < math.inf))):
            raise ValueError("rho, d and all d_n must be positive and finite")
        if not (0 < self.mu < math.inf and 0 < self.nu < math.inf):
            raise ValueError("mu and nu must be positive and finite")


# G = 0 is certain when every hinge argument's bound is at most this: the
# margin outweighs the rounding of bound and argument alike
_IDLE_BOUND = 1.0 - 1e-9


def _hinge(z: np.ndarray) -> np.ndarray:
    """G0(z) = max(z - 1, 0)^2."""
    return np.maximum(z - 1.0, 0.0) ** 2


def _hinge_prime(z: np.ndarray) -> np.ndarray:
    """G0'(z) = 2 max(z - 1, 0)."""
    return 2.0 * np.maximum(z - 1.0, 0.0)


@dataclass(frozen=True)
class Evaluation:
    """The objective at one point: measurement loss f, penalty g and, when
    requested, the Wirtinger gradient of f + g."""

    f: float
    g: float
    grad: BlockFactorPair | None = None

    @property
    def f_tilde(self) -> float:
        return self.f + self.g


def evaluate(ens: MeasurementEnsemble, z: BlockFactorPair, y_hat: ObservationVector,
             p: PenaltyParams, *, grad: bool = False) -> Evaluation:
    """F = ||A(Z(h, x)) - y_hat||^2, the hinge penalty G and optionally the
    Wirtinger gradient of F + G, batched over components.

    One product with the cached partial DFT gives the channel spectra,
    shared by the residual and the spectral hinge.  The gradient adds one
    adjoint product of the summed measurement and spectral-hinge terms; the
    coded messages, the coefficient gradient and the coded hinge are batched
    matrix products.  Per component,
    grad_h = A_n^*(residual) x_n + grad_h G and
    grad_x = [A_n^*(residual)]^H h_n + grad_x G.
    G is zero unless some hinge argument exceeds 1, as G0 and G0' vanish at
    or below 1.  A certificate settles that first.  With h_arg =
    ||h_n||^2 / (2 d_n) and x_arg = ||x_n||^2 / (2 d_n), every argument is at
    most h_arg times the cap max(1, M / (4 mu^2)), as
    |(F_M h_n)_l|^2 <= M ||h_n||^2 / L, or x_arg times max(1, Q kappa / (4 nu^2)),
    as |(C_n x_n)_q|^2 <= kappa ||x_n||^2, kappa = `ens.row_peak`.  Both caps
    are Python floats formed per call from the fields of ens and p.  With
    every such product <= `_IDLE_BOUND`, G = 0 and no argument array or coded
    message is formed.  Otherwise (a NaN included) G is the exact hinge sum,
    rho * 0.0 = 0.0 if no argument is > 1.
    The gradient forms conj(w) directly, which is exact, skips its hinge terms
    at G = 0, where they vanish, and is not formed where F + G is not finite.
    Complex64 operands and z give a complex64 gradient; F sums in float64.
    """
    y_hat.check_dims(ens.dims)
    z.check_dims(ens.dims)
    d = ens.dims
    if p.d_n.shape != (d.N,):  # zip over d_n would stop at the shorter
        raise ValueError(f"d_n shape {p.d_n.shape} != ({d.N},)")
    h, x = z.channels, z.coefficients
    spectra, coded_spectra = component_spectra(ens, z)                # (L, N) each
    residual = (spectra * coded_spectra).sum(axis=1) - y_hat.samples
    h_sq, x_sq = np.vecdot(h, h).real, np.vecdot(x, x).real
    f = float(np.vdot(wide := residual.astype(complex, copy=False), wide).real)  # float64 sums
    g = 0.0
    h_cap, x_cap = max(1.0, d.M / (4 * p.mu**2)), max(1.0, d.Q * ens.row_peak / (4 * p.nu**2))
    # all(), not max(): a NaN argument must decline, and Python's max can skip one
    if not all(hs / (2 * dn) * h_cap <= _IDLE_BOUND and xs / (2 * dn) * x_cap <= _IDLE_BOUND
               for hs, xs, dn in zip(h_sq.tolist(), x_sq.tolist(), p.d_n.tolist())):
        # hinge arguments; the trailing axis is the component, matching d_n
        h_arg, x_arg = h_sq / (2 * p.d_n), x_sq / (2 * p.d_n)
        coded = _coded_messages(ens, x)                               # (Q, N)
        spec_arg = np.abs(spectra) ** 2 * (d.L / (8 * p.mu**2) / p.d_n)
        coded_arg = np.abs(coded) ** 2 * (d.Q / (8 * p.nu**2) / p.d_n)
        g = p.rho * float(sum(np.sum(_hinge(a)) for a in (h_arg, x_arg, spec_arg, coded_arg)))
    if not grad or not math.isfinite(f + g):
        return Evaluation(f, g)

    conj_residual = np.conj(residual)
    conj_w = conj_residual[:, None] * coded_spectra                   # conj(w), (L, N)
    gx = ((conj_residual[:, None] * spectra).T[:, None, :] @ ens.coded_spectra)[:, 0]
    if g > 0:  # G0' is zero wherever G0 is, so at g == 0 these terms vanish
        scale = p.rho / (2 * p.d_n)                                    # (N,)
        conj_w += (scale * d.L / (4 * p.mu**2)) * _hinge_prime(spec_arg) * np.conj(spectra)
        coded_w = (scale * d.Q / (4 * p.nu**2)) * _hinge_prime(coded_arg) * coded
        gx += (scale * _hinge_prime(x_arg))[:, None] * x
        gx += (coded_w.T[:, None, :] @ ens.coding)[:, 0]
    gh = np.conj(conj_w.T @ ens.basis)
    if g > 0:
        gh += (scale * _hinge_prime(h_arg))[:, None] * h
    return Evaluation(f, g, BlockFactorPair.unchecked(gh, gx))


def loss_total(ens: MeasurementEnsemble, z: BlockFactorPair,
               y_hat: ObservationVector, p: PenaltyParams) -> float:
    """F + G at z."""
    return evaluate(ens, z, y_hat, p).f_tilde


def grad_total(ens: MeasurementEnsemble, z: BlockFactorPair,
               y_hat: ObservationVector, p: PenaltyParams) -> BlockFactorPair | None:
    """Wirtinger gradient of F + G at z (None where F + G is not finite)."""
    return evaluate(ens, z, y_hat, p, grad=True).grad
