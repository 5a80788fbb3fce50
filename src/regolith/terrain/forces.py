"""Soil cutting resistance from a passive failure wedge.

Resistance follows the classical flat-blade form
``F = w * (gamma * g * d^2 * N_gamma + c * d * N_c)`` with the N-factors
taken from the trial-wedge solution, minimized over the failure-plane
angle.  Soil-tool friction is half the internal friction angle; surcharge
and inertial terms are omitted (negligible at the crawl speeds simulated
here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .heightfield import SoilParams

#: Trial failure-plane angle range (rad); the oracle tests scan the same range.
BETA_MIN = 0.05
BETA_MAX = math.pi / 2 - 0.05


@dataclass
class DigForce:
    resistance: float        # draft along the travel direction, N
    normal: float            # component normal to travel, N
    torque_about_edge: float  # N*m


#: Trial failure-plane angles of the coarse scan, and their cotangents.
_N_SCAN = 64
_SCAN_BETAS = tuple(BETA_MIN + (BETA_MAX - BETA_MIN) * k / _N_SCAN
                    for k in range(_N_SCAN + 1))
_SCAN_COTS = tuple(1.0 / math.tan(beta) for beta in _SCAN_BETAS)

#: Constants of SciPy's bounded Brent minimiser, ported below.
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500


def _step_sign(v: float) -> float:
    """``np.sign(v) + (v == 0)``: +1 at zero, NaN stays NaN."""
    if v >= 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return v


def _bounded_min(f, lo: float, hi: float, xatol: float) -> float:
    """Smallest value of ``f`` found on [lo, hi] by Brent's bounded method
    (golden section plus parabolic interpolation; Brent, *Algorithms for
    Minimization without Derivatives*, 1973).

    A line-for-line port of SciPy's ``_minimize_scalar_bounded``: every
    iterate, and so the result, is bit-identical to
    ``minimize_scalar(f, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol}).fun``.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for a parabolic fit.
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Is the parabola acceptable?
            if ((abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * _step_sign(xm - xf)
            else:
                golden = True

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = _GOLDEN_MEAN * e

        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAX_EVALS:
            break

    return fx


def dig_resistance(depth: float, width: float, attack_angle: float,
                   soil: SoilParams) -> DigForce:
    """Cutting force for a blade of the given width at the given depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if width <= 0:
        raise ValueError("width must be positive")
    if not (0.0 < attack_angle < math.pi / 2):
        raise ValueError("attack_angle must be in (0, pi/2)")
    if depth == 0.0:
        return DigForce(0.0, 0.0, 0.0)

    # Invariants of the trial wedge; soil-tool friction is phi / 2.
    phi = soil.internal_friction_angle
    angle = attack_angle + phi / 2.0
    cos_a = math.cos(angle)
    sin_a = math.sin(angle)
    cot_rho = 1.0 / math.tan(attack_angle)
    d = float(depth)
    weight = soil.bank_density * soil.gravity * d ** 2
    cohesion = soil.cohesion * d

    def wedge(cot_beta: float, tan_beta_phi: float) -> float:
        """Force per unit width on one trial failure plane, or inf when
        the trial geometry is inadmissible."""
        denom = cos_a + sin_a / tan_beta_phi
        if denom <= 1e-9:
            return math.inf
        n_gamma = (cot_beta + cot_rho) / (2.0 * denom)
        n_c = (1.0 + cot_beta / tan_beta_phi) / denom
        if n_gamma < 0.0 or n_c < 0.0:
            return math.inf
        return weight * n_gamma + cohesion * n_c

    # Coarse scan, then a bounded refinement around the best trial angle.
    # The scan is `wedge` inlined: an inadmissible trial gives inf there,
    # which never beats `best`, so here it is skipped.
    best_beta = BETA_MIN
    best = math.inf
    tan = math.tan
    for beta, cot_beta in zip(_SCAN_BETAS, _SCAN_COTS):
        tan_beta_phi = tan(beta + phi)
        denom = cos_a + sin_a / tan_beta_phi
        if denom <= 1e-9:
            continue
        n_gamma = (cot_beta + cot_rho) / (2.0 * denom)
        n_c = (1.0 + cot_beta / tan_beta_phi) / denom
        if n_gamma < 0.0 or n_c < 0.0:
            continue
        f = weight * n_gamma + cohesion * n_c
        if f < best:
            best, best_beta = f, beta
    span = (BETA_MAX - BETA_MIN) / _N_SCAN
    lo = best_beta - span
    lo = lo if lo > BETA_MIN else BETA_MIN          # max(BETA_MIN, lo)
    hi = best_beta + span
    hi = hi if hi < BETA_MAX else BETA_MAX          # min(BETA_MAX, hi)
    refined = _bounded_min(
        lambda b: wedge(1.0 / math.tan(b), math.tan(b + phi)), lo, hi, 1e-8)
    force_per_width = refined if refined < best else best   # min(best, refined)

    total = force_per_width * width
    resistance = total * sin_a
    normal = total * cos_a
    return DigForce(resistance=resistance, normal=normal,
                    torque_about_edge=resistance * depth / 2.0)
