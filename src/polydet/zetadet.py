"""Spectral zeta function and zeta-regularized log-determinants.

The log-determinant is -zeta'(0) with zeta(s) = sum lambda_k^{-s}.  Writing
zeta(s) Gamma(s) = int_0^inf tau^{s-1} K(tau) dtau with the heat trace
K(tau) = sum exp(-lambda_k tau), the integral is split at tau0:

* below tau0 the trace is replaced by its short-time asymptotics
  P(tau) = a1/tau + a2/sqrt(pi tau) + b1, whose Mellin integral is done in
  closed form (this commits an O(exp(-beta2/tau0)) error, absorbed into the
  error estimate);
* above tau0 the trace uses the truncated spectrum plus a two-term Weyl
  density tail above lambda_max, and every tau-integral reduces to
  exponential integrals and erfc in closed form.

Expanding 1/Gamma(s) = s + gamma s^2 + ... at s = 0 gives

  log det = a1/tau0 + 2 a2 / sqrt(pi tau0) - b1 (log tau0 + gamma_E)
            - int_tau0^inf K(tau) dtau / tau.

The exact rectangle determinant used as an oracle is derived by summing the
double spectrum with the standard Bessel-function (Poisson summation)
expansion of sum_n (n^2 + c^2)^{-s}; differentiating term by term at s = 0
collapses the Bessel sums to log(1 - q^m) and yields

  log det(a x b) = log eta(i b / a) - (1/2) log(2 a),

with eta the Dedekind eta function evaluated by its q-product.  The formula
is symmetric in (a, b) through the eta modular transformation.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, exp1

from .errors import TailNotConverged, ValidationFailure

EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class ZetaConfig:
    tau0: float = None          # None in a RunConfig: pipeline_zeta sets (2A/P)^2/14
    tail_tol: float = 1e-4      # TailNotConverged threshold on the doubling diagnostics


@dataclass(frozen=True)
class HeatCoefficients:
    """Short-time heat trace data: K ~ a1/tau + a2/sqrt(pi tau) + b1."""

    a1: float
    a2: float
    b1: float

    @property
    def area(self):
        return 4 * np.pi * self.a1

    @property
    def perimeter(self):
        return -8 * self.a2


@dataclass(frozen=True)
class LogDet:
    value: float
    error_estimate: float
    n_eigs_used: int
    tail_model_diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "logdet": self.value,
            "error": self.error_estimate,
            "n_eigs": self.n_eigs_used,
            "diagnostics": self.tail_model_diagnostics,
        }


def heat_coefficients(p):
    """Closed-form heat-trace coefficients of a polygon.

    b1 is the corner sum over (pi^2 - alpha^2) / (24 pi alpha); it equals 1/4
    for every rectangle.
    """
    alphas = np.asarray(p.angles)
    b1 = float(np.sum((np.pi**2 - alphas**2) / (24 * np.pi * alphas)))
    return HeatCoefficients(a1=p.area / (4 * np.pi), a2=-p.perimeter / 8.0, b1=b1)


def scaling_variation(p):
    """Exact d(log det)/dt under unit-rate dilation: -2 b1(P)."""
    return -2.0 * heat_coefficients(p).b1


# ---------------------------------------------------------------------------
# generic truncated-spectrum evaluation
# ---------------------------------------------------------------------------

def _tail_integral(tau0, lam_max, area, perimeter):
    """int_tau0^inf dtau/tau of the two-term Weyl density tail above lam_max."""
    x = lam_max * tau0
    t_area = (area / (4 * np.pi)) * (np.exp(-x) / tau0 - lam_max * exp1(x))
    t_perim = (perimeter / (8 * np.sqrt(np.pi))) * (
        2 * erfc(np.sqrt(x)) / np.sqrt(tau0) - 2 * np.sqrt(lam_max / np.pi) * exp1(x))
    return t_area - t_perim


def heat_trace_residual(eigs, h, lambda_max, t):
    """R(t): the heat trace of the truncated spectrum, completed above
    lambda_max by the two-term Weyl density, less its short-time expansion
    a1/t + a2/sqrt(pi t) + b1, at every t of the array ``t``.

    On a polygon the expansion has only an exponentially small remainder
    (van den Berg and Srisatkunarajah, J. London Math. Soc. 37, 1988), so on
    a complete spectrum R is small, and an eigenvalue lam missing or doubled
    moves it by exp(-lam t).
    """
    t = np.asarray(t, dtype=float)
    x = lambda_max * t
    trace = np.exp(-np.outer(t, np.asarray(eigs, dtype=float))).sum(axis=1)
    tail = h.a1 * np.exp(-x) / t + h.a2 * erfc(np.sqrt(x)) / np.sqrt(np.pi * t)
    return trace + tail - (h.a1 / t + h.a2 / np.sqrt(np.pi * t) + h.b1)


def _logdet_value(eigs, h, tau0, lam_max):
    val = h.a1 / tau0 + 2 * h.a2 / np.sqrt(np.pi * tau0) - h.b1 * (np.log(tau0) + EULER_GAMMA)
    val -= float(np.sum(exp1(np.asarray(eigs) * tau0)))
    return val - _tail_integral(tau0, lam_max, h.area, h.perimeter)


def zeta_logdet(spectrum, h, cfg):
    """log det from a truncated Spectrum plus heat-trace completion, split
    at cfg.tau0 (which must be set, finite and positive).  A spectrum that
    failed its Weyl count check is refused.

    Diagnostics: the value is recomputed with tau0 doubled and with the
    spectrum truncated at lambda_max/2 (tail model taking over earlier); the
    two shifts bound the scheme's sensitivity and their sum is the error
    estimate.
    """
    eigs = spectrum.eigenvalue_array()
    if len(eigs) == 0:
        raise ValidationFailure("empty spectrum")
    if not spectrum.count_check.get("ok", False):
        raise ValidationFailure("spectrum failed its Weyl count check")
    if cfg.tau0 is None:
        raise ValidationFailure("tau0 is not set; RunConfig.pipeline_zeta chooses it")
    tau0 = cfg.tau0
    if not (np.isfinite(tau0) and tau0 > 0):
        raise ValidationFailure(f"tau0 = {tau0} is not finite and positive")
    lam_max = spectrum.lambda_max

    value = _logdet_value(eigs, h, tau0, lam_max)
    v_tau2 = _logdet_value(eigs, h, 2 * tau0, lam_max)
    half = lam_max / 2
    eigs_half = eigs[eigs <= half]
    v_lam2 = _logdet_value(eigs_half, h, tau0, half) if len(eigs_half) else np.nan
    d_tau = abs(value - v_tau2)
    d_lam = abs(value - v_lam2) if np.isfinite(v_lam2) else np.inf
    err = d_tau + d_lam
    diag = {
        "tau0": tau0,
        "lambda_max": lam_max,
        "delta_tau0_doubling": d_tau,
        "delta_lambda_halving": d_lam,
        "tail_weight": float(np.sum(exp1(eigs * tau0))),
    }
    if not err <= cfg.tail_tol:     # a NaN estimate fails too
        raise TailNotConverged(
            f"doubling diagnostics {err:.2e} exceed {cfg.tail_tol:.2e} "
            f"(tau0 {d_tau:.2e}, lambda {d_lam:.2e}); raise lambda_max")
    return LogDet(value=float(value), error_estimate=float(err),
                  n_eigs_used=len(eigs), tail_model_diagnostics=diag)


# ---------------------------------------------------------------------------
# exact rectangle determinant
# ---------------------------------------------------------------------------

def _log_eta_q(y):
    """log eta(i y) via the q-product; modular-accelerated for small y."""
    if y < 0.5:
        # eta(i y) = eta(-1/(i/y)) = sqrt(1/y) eta(i/y)
        return 0.5 * np.log(1.0 / y) + _log_eta_q(1.0 / y)
    q = np.exp(-2 * np.pi * y)
    total = -np.pi * y / 12.0
    qm = 1.0
    for _ in range(200):
        qm *= q
        term = np.log1p(-qm)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def rectangle_logdet_exact(a, b):
    """log det of the Dirichlet Laplacian on an a x b rectangle (exact).

    Equals log eta(i b/a) - log(2 a)/2; see the module docstring for the
    derivation from the double eigenvalue sum.
    """
    if a <= 0 or b <= 0:
        raise ValidationFailure("rectangle sides must be positive")
    return float(_log_eta_q(b / a) - 0.5 * np.log(2 * a))
