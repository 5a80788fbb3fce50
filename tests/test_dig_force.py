import math

import numpy as np
import pytest

from regolith.terrain import BETA_MAX, BETA_MIN, SoilParams, dig_resistance

SOIL = SoilParams()


def wedge_oracle_drafts(depth, width, attack_angle, soil, betas):
    """Independent brute-force trial-wedge draft forces, one per trial
    failure-plane angle in `betas`, inf where the trial is inadmissible.

    Solves the planar force equilibrium of the failure wedge directly as a
    2x2 linear system in (blade force P, failure-plane reaction N), one
    system per trial angle, all in one stacked solve.  Shares only the
    physical assumptions with the implementation, not its algebra.
    """
    betas = np.asarray(betas, dtype=float)
    phi = soil.internal_friction_angle
    rho = attack_angle
    delta = phi / 2.0
    g = soil.gravity
    gamma = soil.bank_density
    c = soil.cohesion
    # wedge weight per unit width
    w_force = 0.5 * gamma * g * depth ** 2 * (1 / np.tan(betas)
                                              + 1 / math.tan(rho))
    coh_len = depth / np.sin(betas)
    # unknowns: P (blade force magnitude), N (failure-plane normal)
    # directions: blade force on wedge = P*(sin(rho+delta), cos(rho+delta))
    #             plane reaction      = N*(-sin(beta+phi), cos(beta+phi))
    #             cohesion            = -c*L*(cos(beta), sin(beta))
    #             weight              = (0, -W)
    a = np.empty((betas.size, 2, 2))
    a[:, 0, 0] = math.sin(rho + delta)
    a[:, 0, 1] = -np.sin(betas + phi)
    a[:, 1, 0] = math.cos(rho + delta)
    a[:, 1, 1] = np.cos(betas + phi)
    b = np.stack([c * coh_len * np.cos(betas),
                  w_force + c * coh_len * np.sin(betas)], axis=-1)
    # the system is singular where sin(rho + 3 phi / 2 + beta) = 0
    solvable = np.flatnonzero(np.abs(np.linalg.det(a)) > 1e-12)
    p, n = np.linalg.solve(a[solvable], b[solvable, :, None])[:, :, 0].T
    admissible = (p >= 0) & (n >= 0)
    drafts = np.full(betas.size, math.inf)
    drafts[solvable[admissible]] = p[admissible]
    return drafts * width * math.sin(rho + delta)  # draft component


def wedge_oracle_force(depth, width, attack_angle, soil, n_beta=2000):
    """The least oracle draft over `n_beta` trial angles."""
    best = wedge_oracle_drafts(depth, width, attack_angle, soil,
                               np.linspace(BETA_MIN, BETA_MAX, n_beta)).min()
    assert math.isfinite(best)
    return best


def test_zero_depth_is_exactly_zero():
    f = dig_resistance(0.0, 0.6, 0.5, SOIL)
    assert f.resistance == 0.0
    assert f.normal == 0.0


def test_linear_in_width():
    f1 = dig_resistance(0.1, 0.6, 0.5, SOIL)
    f2 = dig_resistance(0.1, 1.2, 0.5, SOIL)
    assert f2.resistance == pytest.approx(2 * f1.resistance, rel=1e-9)


def test_reference_point_matches_oracle():
    f = dig_resistance(0.1, 0.6, 0.5, SOIL)
    expected = wedge_oracle_force(0.1, 0.6, 0.5, SOIL)
    assert expected * (1 - 1e-5) <= f.resistance <= expected * (1 + 1e-12)


def test_oracle_agreement_over_random_parameters():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        soil = SoilParams(
            internal_friction_angle=rng.uniform(0.3, 1.2),
            cohesion=rng.uniform(50.0, 2000.0),
            bank_density=rng.uniform(1000.0, 2200.0),
            gravity=rng.uniform(1.2, 9.8),
        )
        depth = rng.uniform(0.01, 0.3)
        width = rng.uniform(0.2, 1.5)
        attack = rng.uniform(0.2, 1.2)
        got = dig_resistance(depth, width, attack, soil).resistance
        expected = wedge_oracle_force(depth, width, attack, soil)
        # the solver's exact minimum may sit below the oracle's grid, never
        # above it
        assert expected * (1 - 1e-5) <= got <= expected * (1 + 1e-12), \
            (depth, width, attack)


def dense_oracle_force(depth, width, attack_angle, soil, n_beta=20001):
    """The least oracle draft over `n_beta` trial angles, refined by a
    golden-section search between the neighbours of the best one; inf
    when no trial is admissible."""
    betas = np.linspace(BETA_MIN, BETA_MAX, n_beta)
    drafts = wedge_oracle_drafts(depth, width, attack_angle, soil, betas)
    k = int(np.argmin(drafts))
    best = drafts[k]
    if not math.isfinite(best):
        return best

    def at(beta):
        return wedge_oracle_drafts(depth, width, attack_angle, soil,
                                   [beta])[0]

    lo, hi = betas[max(k - 1, 0)], betas[min(k + 1, n_beta - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = at(x1), at(x2)
    for _ in range(60):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = at(x2)
    return min(best, f1, f2)


@pytest.mark.parametrize("phi, cohesion, depth, attack", [
    # an interior minimum
    (0.8, 900.0, 0.1, 0.5),
    # the least force at BETA_MIN: the stationary points lie outside
    # [BETA_MIN, BETA_MAX], so only the bound candidates find it
    (1.044, 1109.4, 0.327, 1.491),
    # the stationary condition nearest |z| = 1 (0.928) found in 300,000
    # draws of accepted soils; |z| > 1 needs a friction angle of at least
    # pi/2, which SoilParams rejects
    (0.07703983155324667, 1.0668339994157865, 0.2672109072638027,
     0.06288528588476919),
    # numpy scalars, as the dig passes them
    (0.55, 3000.0, np.float64(0.2), np.float64(1.0)),
], ids=["interior", "at-bound", "z-nearest-one", "float64"])
def test_closed_form_is_never_above_a_dense_refined_scan(phi, cohesion,
                                                         depth, attack):
    soil = SoilParams(internal_friction_angle=phi, cohesion=cohesion)
    got = dig_resistance(depth, 0.6, attack, soil).resistance
    expected = dense_oracle_force(depth, 0.6, attack, soil)
    assert math.isfinite(expected)
    assert got <= expected * (1 + 1e-12)
    assert got >= expected * (1 - 1e-12)


def test_no_admissible_wedge_gives_infinite_force():
    soil = SoilParams(internal_friction_angle=1.4)
    f = dig_resistance(0.1, 0.6, 1.45, soil)
    assert f.resistance == math.inf and f.normal == -math.inf
    assert dense_oracle_force(0.1, 0.6, 1.45, soil) == math.inf


@pytest.mark.parametrize("phi", [math.pi / 2, 2.0, math.nan])
def test_soil_rejects_a_friction_angle_of_a_right_angle_or_more(phi):
    with pytest.raises(ValueError, match="internal_friction_angle"):
        SoilParams(internal_friction_angle=phi)


def test_monotone_in_depth_width_cohesion():
    rng = np.random.default_rng(99)
    for _ in range(25):
        attack = rng.uniform(0.2, 1.2)
        soil = SoilParams(internal_friction_angle=rng.uniform(0.3, 1.1),
                          cohesion=rng.uniform(100.0, 1500.0))
        depths = np.linspace(0.0, 0.4, 6)
        forces = [dig_resistance(d, 0.6, attack, soil).resistance
                  for d in depths]
        assert all(b >= a - 1e-9 for a, b in zip(forces, forces[1:]))
        widths = np.linspace(0.2, 1.4, 5)
        forces_w = [dig_resistance(0.15, w, attack, soil).resistance
                    for w in widths]
        assert all(b >= a - 1e-9 for a, b in zip(forces_w, forces_w[1:]))
        cohesions = np.linspace(50.0, 2500.0, 5)
        forces_c = []
        for c in cohesions:
            s = SoilParams(internal_friction_angle=soil.internal_friction_angle,
                           cohesion=c)
            forces_c.append(dig_resistance(0.15, 0.6, attack, s).resistance)
        assert all(b >= a - 1e-9 for a, b in zip(forces_c, forces_c[1:]))


def test_non_negative_over_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        soil = SoilParams(internal_friction_angle=rng.uniform(0.3, 1.2),
                          cohesion=rng.uniform(10.0, 3000.0))
        f = dig_resistance(rng.uniform(0, 0.5), rng.uniform(0.1, 2.0),
                           rng.uniform(0.1, 1.4), soil)
        assert f.resistance >= 0.0


def test_attack_angle_domain():
    with pytest.raises(ValueError):
        dig_resistance(0.1, 0.6, 0.0, SOIL)
    with pytest.raises(ValueError):
        dig_resistance(0.1, 0.6, math.pi / 2, SOIL)
    with pytest.raises(ValueError):
        dig_resistance(-0.1, 0.6, 0.5, SOIL)
    with pytest.raises(ValueError):
        dig_resistance(0.1, 0.0, 0.5, SOIL)


# resistance and normal for each (soil, depth, attack angle) of the grid
# below, recorded from the closed-form solver; every bit must stay the same.
BIT_EXACT_DEPTHS = (0.01, 0.05, 0.085, 0.2, 0.4)
BIT_EXACT_ATTACKS = (0.06, 0.3, 0.6, 1.0, math.pi / 2 - 0.06)
BIT_EXACT_SOILS = (SOIL, SoilParams(internal_friction_angle=0.55,
                                    cohesion=3000.0))
BIT_EXACT_FORCES = [
    # default soil
    (3.265064702228256, 6.5901156804376075),
    (4.804438799683905, 5.704030722877224),
    (8.470966977259376, 5.439145345921804),
    (18.429621931969976, 3.1786808491441145),
    (78.95611711583919, -27.929690370648263),
    (29.97540214131258, 60.50151702784762),
    (29.531679560871698, 35.06124534762733),
    (47.89911830034398, 30.75567017041584),
    (100.34592077540695, 17.307335865919395),
    (421.09827304242987, -148.95798845369504),
    (70.5690202056053, 142.4345454142753),
    (58.33291142713649, 69.25527263603684),
    (89.64999192069101, 57.56359783084811),
    (182.76827760362852, 31.52327410699136),
    (755.0048204900012, -267.07304810462097),
    (312.45812470267606, 630.6567786169659),
    (199.41343131779269, 236.75196754840397),
    (274.2170262907819, 176.0727277447813),
    (524.0472487817983, 90.38595365104736),
    (2078.943003852698, -735.3988078041284),
    (1118.4053388357997, 2257.3581943160166),
    (612.2462077969727, 726.8843094574896),
    (767.2660120369438, 492.655840786303),
    (1374.3161771577552, 237.0375544938457),
    (5209.364703454109, -1842.7444067670547),
    # high-cohesion soil
    (6.646875076259521, 19.093570578005814),
    (11.850569416124674, 18.28663190306735),
    (20.74492190270727, 17.324659415056605),
    (39.43565777747297, 12.017475884545693),
    (97.89219080970739, -21.37722803111902),
    (42.55571494643601, 122.24399247842099),
    (63.0146093493673, 97.23794066127623),
    (107.25336442197286, 89.5702581308411),
    (201.46842687373578, 61.394740138847595),
    (496.873134994888, -108.50477674945863),
    (86.08944403766576, 247.2973926688364),
    (112.71146989637775, 173.92524265072265),
    (187.5762252388254, 156.6501060773095),
    (348.8759209783288, 106.31515241139707),
    (855.7085021291603, -186.86552652337187),
    (307.27018498431323, 882.6531108534738),
    (308.26639579395095, 475.68634974611115),
    (481.8585324605141, 402.4134195476515),
    (870.1768999539566, 265.17447659917053),
    (2098.6395287909186, -458.29085436746436),
    (970.2554388954989, 2787.120336805003),
    (765.5092168566077, 1181.2584505867487),
    (1104.2673229748889, 922.2042562242477),
    (1911.6165144152951, 582.5389167366184),
    (4493.514219045688, -981.272125254038),
]

# The same grid as recorded from SciPy's bounded ``minimize_scalar``, the
# numerical solver the closed form replaced: an independent oracle.
SCIPY_FORCES = [
    # default soil
    (3.265064702228256, 6.5901156804376075),
    (4.804438799683905, 5.704030722877224),
    (8.470966977259376, 5.439145345921804),
    (18.429621931969972, 3.178680849144114),
    (78.9561171158392, -27.929690370648267),
    (29.975402141312586, 60.50151702784763),
    (29.531679560871698, 35.06124534762733),
    (47.899118300343964, 30.75567017041583),
    (100.34592077540695, 17.307335865919395),
    (421.09827304242964, -148.95798845369495),
    (70.5690202056053, 142.4345454142753),
    (58.33291142713649, 69.25527263603684),
    (89.64999192069104, 57.563597830848124),
    (182.76827760362852, 31.52327410699136),
    (755.0048204900015, -267.0730481046211),
    (312.45812470267606, 630.6567786169659),
    (199.41343131779269, 236.75196754840397),
    (274.2170262907819, 176.0727277447813),
    (524.0472487817985, 90.38595365104739),
    (2078.9430038526975, -735.3988078041282),
    (1118.4053388357997, 2257.3581943160166),
    (612.2462077969727, 726.8843094574896),
    (767.266012036944, 492.6558407863031),
    (1374.3161771577552, 237.0375544938457),
    (5209.364703454105, -1842.7444067670533),
    # high-cohesion soil
    (6.646875076259521, 19.093570578005814),
    (11.850569416124676, 18.286631903067352),
    (20.744921902707272, 17.32465941505661),
    (39.43565777747298, 12.017475884545696),
    (97.89219080970737, -21.377228031119017),
    (42.55571494643601, 122.24399247842099),
    (63.0146093493673, 97.23794066127623),
    (107.25336442197286, 89.5702581308411),
    (201.46842687373578, 61.394740138847595),
    (496.873134994888, -108.50477674945863),
    (86.08944403766577, 247.29739266883647),
    (112.71146989637775, 173.92524265072265),
    (187.57622523882543, 156.65010607730952),
    (348.87592097832885, 106.31515241139708),
    (855.7085021291603, -186.86552652337187),
    (307.2701849843133, 882.6531108534739),
    (308.26639579395095, 475.68634974611115),
    (481.8585324605142, 402.41341954765153),
    (870.1768999539569, 265.1744765991706),
    (2098.6395287909186, -458.29085436746436),
    (970.2554388954989, 2787.120336805003),
    (765.5092168566077, 1181.2584505867487),
    (1104.2673229748893, 922.2042562242481),
    (1911.6165144152947, 582.5389167366183),
    (4493.514219045688, -981.272125254038),
]


def _grid_forces():
    got = []
    for soil in BIT_EXACT_SOILS:
        for i, depth in enumerate(BIT_EXACT_DEPTHS):
            for j, attack in enumerate(BIT_EXACT_ATTACKS):
                if (i + j) % 2:     # callers pass numpy scalars too
                    depth, attack = np.float64(depth), np.float64(attack)
                f = dig_resistance(depth, 0.6, attack, soil)
                got.append((f.resistance, f.normal))
    return got


def test_bit_exact_against_recorded_forces():
    assert _grid_forces() == BIT_EXACT_FORCES


def test_grid_matches_the_scipy_recorded_forces():
    for got, scipy in zip(_grid_forces(), SCIPY_FORCES, strict=True):
        assert got == pytest.approx(scipy, rel=1e-14, abs=0.0)
