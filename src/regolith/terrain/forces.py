"""Soil cutting resistance from a passive failure wedge.

Resistance follows the classical flat-blade form
``F = w * (gamma * g * d^2 * N_gamma + c * d * N_c)`` with the N-factors
taken from the trial-wedge solution, minimized over the failure-plane
angle (Reece, "The fundamental equation of earth-moving mechanics",
Proc. IMechE 179, 1964).  Soil-tool friction is half the internal
friction angle; surcharge and inertial terms are omitted (negligible at
the crawl speeds simulated here).

The minimum is found in closed form.  Let rho be the attack angle, phi
the friction angle, W = gamma g d^2 and C = c d.  On the trial failure
plane at angle beta the force per unit width is

    f(beta) = (K sin(beta+rho) sin(beta+phi) + C cos phi)
              / (sin beta sin(beta+g)),

with K = W / (2 sin rho) and g = rho + 3 phi / 2.  With t = 2 beta,
s = rho + phi and P = K cos(rho-phi) + 2 C cos phi, the products turn into
sums:

    f = (P - K cos(t+s)) / (cos g - cos(t+g)).

Since sin(s-g) = -sin(phi/2), df/dt = 0 becomes

    X sin t + Y cos t = -K sin(phi/2),
    X = cos g (K cos s - P),  Y = K cos g sin s - P sin g,

so with z = -K sin(phi/2) / hypot(X, Y) and psi = atan2(Y, X) the
stationary points are t = asin(z) - psi and t = pi - asin(z) - psi
(mod 2 pi; f has period 2 pi in t).  When |z| > 1 there are none.  The
numerator of df/dt is hypot(X, Y) sin(t + psi) + K sin(phi/2), which
rises through zero at the first point and falls at the second, so the
first is a local minimum and the second a local maximum.

For a friction angle below pi/2, which `SoilParams` keeps it to, a trial
is admissible while sin(beta+g) > 0, and f grows without bound towards the
end of that range.  So the least admissible force lies at BETA_MIN, at
BETA_MAX or at the local minimum between them: the solver evaluates the
wedge at those candidates and takes the least.  An inadmissible trial is
inf, so a soil with no admissible wedge gives inf.
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
        return DigForce(0.0, 0.0)

    # Invariants of the trial wedge; soil-tool friction is phi / 2.
    phi = soil.internal_friction_angle
    rho = attack_angle
    angle = rho + phi / 2.0
    cos_a = math.cos(angle)
    sin_a = math.sin(angle)
    cot_rho = 1.0 / math.tan(rho)
    d = float(depth)
    weight = soil.bank_density * soil.gravity * d ** 2
    cohesion = soil.cohesion * d

    def wedge(beta: float) -> float:
        """Force per unit width on one trial failure plane, or inf when
        the trial geometry is inadmissible."""
        cot_beta = 1.0 / math.tan(beta)
        tan_beta_phi = math.tan(beta + phi)
        denom = cos_a + sin_a / tan_beta_phi
        if denom <= 1e-9:
            return math.inf
        n_gamma = (cot_beta + cot_rho) / (2.0 * denom)
        n_c = (1.0 + cot_beta / tan_beta_phi) / denom
        if n_gamma < 0.0 or n_c < 0.0:
            return math.inf
        return weight * n_gamma + cohesion * n_c

    # The minimum of f, as the module docstring derives it.
    k = weight / (2.0 * math.sin(rho))
    g = rho + 1.5 * phi
    s = rho + phi
    p = k * math.cos(rho - phi) + 2.0 * cohesion * math.cos(phi)
    cos_g = math.cos(g)
    x = cos_g * (k * math.cos(s) - p)
    y = k * cos_g * math.sin(s) - p * math.sin(g)
    rhs = -k * math.sin(phi / 2.0)
    r = math.hypot(x, y)
    candidates = [BETA_MIN, BETA_MAX]
    if abs(rhs) < r:    # at |z| = 1 the stationary point is no minimum
        t = math.asin(rhs / r) - math.atan2(y, x)
        beta = (t % (2.0 * math.pi)) / 2.0
        if BETA_MIN < beta < BETA_MAX:
            candidates.append(beta)

    force_per_width = math.inf
    for beta in candidates:
        f = wedge(beta)
        if f < force_per_width:
            force_per_width = f

    total = force_per_width * width
    return DigForce(resistance=total * sin_a, normal=total * cos_a)
