import math

import numpy as np
import pytest

from regolith.terrain import BETA_MAX, BETA_MIN, SoilParams, dig_resistance

SOIL = SoilParams()


def wedge_oracle_force(depth, width, attack_angle, soil, n_beta=2000):
    """Independent brute-force trial-wedge solution.

    Solves the planar force equilibrium of the failure wedge directly as a
    2x2 linear system in (blade force P, failure-plane reaction N) for a
    dense grid of trial failure-plane angles, and returns the minimizing
    draft force.  Shares only the physical assumptions with the
    implementation, not its algebra.
    """
    phi = soil.internal_friction_angle
    rho = attack_angle
    delta = phi / 2.0
    g = soil.gravity
    gamma = soil.bank_density
    c = soil.cohesion
    best = math.inf
    for beta in np.linspace(BETA_MIN, BETA_MAX, n_beta):
        # wedge weight per unit width
        w_force = 0.5 * gamma * g * depth ** 2 * (1 / math.tan(beta)
                                                  + 1 / math.tan(rho))
        coh_len = depth / math.sin(beta)
        # unknowns: P (blade force magnitude), N (failure-plane normal)
        # directions: blade force on wedge = P*(sin(rho+delta), cos(rho+delta))
        #             plane reaction      = N*(-sin(beta+phi), cos(beta+phi))
        #             cohesion            = -c*L*(cos(beta), sin(beta))
        #             weight              = (0, -W)
        a = np.array([
            [math.sin(rho + delta), -math.sin(beta + phi)],
            [math.cos(rho + delta), math.cos(beta + phi)],
        ])
        b = np.array([
            c * coh_len * math.cos(beta),
            w_force + c * coh_len * math.sin(beta),
        ])
        try:
            p, n = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if p < 0 or n < 0:
            continue
        best = min(best, p)
    assert math.isfinite(best)
    return best * width * math.sin(rho + delta)  # draft component


def test_zero_depth_is_exactly_zero():
    f = dig_resistance(0.0, 0.6, 0.5, 0.1, SOIL)
    assert f.resistance == 0.0
    assert f.normal == 0.0
    assert f.torque_about_edge == 0.0


def test_linear_in_width():
    f1 = dig_resistance(0.1, 0.6, 0.5, 0.1, SOIL)
    f2 = dig_resistance(0.1, 1.2, 0.5, 0.1, SOIL)
    assert f2.resistance == pytest.approx(2 * f1.resistance, rel=1e-9)


def test_reference_point_matches_oracle():
    f = dig_resistance(0.1, 0.6, 0.5, 0.1, SOIL)
    expected = wedge_oracle_force(0.1, 0.6, 0.5, SOIL)
    assert f.resistance == pytest.approx(expected, rel=0.05)


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
        got = dig_resistance(depth, width, attack, 0.1, soil).resistance
        expected = wedge_oracle_force(depth, width, attack, soil)
        assert got == pytest.approx(expected, rel=0.05), (depth, width, attack)


def test_monotone_in_depth_width_cohesion():
    rng = np.random.default_rng(99)
    for _ in range(25):
        attack = rng.uniform(0.2, 1.2)
        soil = SoilParams(internal_friction_angle=rng.uniform(0.3, 1.1),
                          cohesion=rng.uniform(100.0, 1500.0))
        depths = np.linspace(0.0, 0.4, 6)
        forces = [dig_resistance(d, 0.6, attack, 0.1, soil).resistance
                  for d in depths]
        assert all(b >= a - 1e-9 for a, b in zip(forces, forces[1:]))
        widths = np.linspace(0.2, 1.4, 5)
        forces_w = [dig_resistance(0.15, w, attack, 0.1, soil).resistance
                    for w in widths]
        assert all(b >= a - 1e-9 for a, b in zip(forces_w, forces_w[1:]))
        cohesions = np.linspace(50.0, 2500.0, 5)
        forces_c = []
        for c in cohesions:
            s = SoilParams(internal_friction_angle=soil.internal_friction_angle,
                           cohesion=c)
            forces_c.append(dig_resistance(0.15, 0.6, attack, 0.1, s).resistance)
        assert all(b >= a - 1e-9 for a, b in zip(forces_c, forces_c[1:]))


def test_non_negative_over_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        soil = SoilParams(internal_friction_angle=rng.uniform(0.3, 1.2),
                          cohesion=rng.uniform(10.0, 3000.0))
        f = dig_resistance(rng.uniform(0, 0.5), rng.uniform(0.1, 2.0),
                           rng.uniform(0.1, 1.4), 0.1, soil)
        assert f.resistance >= 0.0


def test_attack_angle_domain():
    with pytest.raises(ValueError):
        dig_resistance(0.1, 0.6, 0.0, 0.1, SOIL)
    with pytest.raises(ValueError):
        dig_resistance(0.1, 0.6, math.pi / 2, 0.1, SOIL)
    with pytest.raises(ValueError):
        dig_resistance(-0.1, 0.6, 0.5, 0.1, SOIL)
    with pytest.raises(ValueError):
        dig_resistance(0.1, 0.0, 0.5, 0.1, SOIL)


# resistance, normal, torque_about_edge for each (soil, depth, attack angle)
# of the grid below, recorded from the SciPy ``minimize_scalar`` solver this
# module replaced; every bit must stay the same.
BIT_EXACT_DEPTHS = (0.01, 0.05, 0.085, 0.2, 0.4)
BIT_EXACT_ATTACKS = (0.06, 0.3, 0.6, 1.0, math.pi / 2 - 0.06)
BIT_EXACT_SOILS = (SOIL, SoilParams(internal_friction_angle=0.55,
                                    cohesion=3000.0))
BIT_EXACT_FORCES = [
    # default soil
    (3.265064702228256, 6.5901156804376075, 0.01632532351114128),
    (4.804438799683905, 5.704030722877224, 0.024022193998419525),
    (8.470966977259376, 5.439145345921804, 0.042354834886296884),
    (18.429621931969972, 3.178680849144114, 0.09214810965984986),
    (78.9561171158392, -27.929690370648267, 0.39478058557919604),
    (29.975402141312586, 60.50151702784763, 0.7493850535328147),
    (29.531679560871698, 35.06124534762733, 0.7382919890217925),
    (47.899118300343964, 30.75567017041583, 1.1974779575085992),
    (100.34592077540695, 17.307335865919395, 2.508648019385174),
    (421.09827304242964, -148.95798845369495, 10.527456826060742),
    (70.5690202056053, 142.4345454142753, 2.9991833587382253),
    (58.33291142713649, 69.25527263603684, 2.479148735653301),
    (89.64999192069104, 57.563597830848124, 3.810124656629369),
    (182.76827760362852, 31.52327410699136, 7.767651798154213),
    (755.0048204900015, -267.0730481046211, 32.087704870825064),
    (312.45812470267606, 630.6567786169659, 31.24581247026761),
    (199.41343131779269, 236.75196754840397, 19.94134313177927),
    (274.2170262907819, 176.0727277447813, 27.421702629078194),
    (524.0472487817985, 90.38595365104739, 52.404724878179856),
    (2078.9430038526975, -735.3988078041282, 207.89430038526976),
    (1118.4053388357997, 2257.3581943160166, 223.68106776715996),
    (612.2462077969727, 726.8843094574896, 122.44924155939455),
    (767.266012036944, 492.6558407863031, 153.4532024073888),
    (1374.3161771577552, 237.0375544938457, 274.86323543155106),
    (5209.364703454105, -1842.7444067670533, 1041.8729406908212),
    # high-cohesion soil
    (6.646875076259521, 19.093570578005814, 0.03323437538129761),
    (11.850569416124676, 18.286631903067352, 0.05925284708062338),
    (20.744921902707272, 17.32465941505661, 0.10372460951353636),
    (39.43565777747298, 12.017475884545696, 0.1971782888873649),
    (97.89219080970737, -21.377228031119017, 0.4894609540485369),
    (42.55571494643601, 122.24399247842099, 1.0638928736609004),
    (63.0146093493673, 97.23794066127623, 1.5753652337341826),
    (107.25336442197286, 89.5702581308411, 2.681334110549322),
    (201.46842687373578, 61.394740138847595, 5.0367106718433945),
    (496.873134994888, -108.50477674945863, 12.4218283748722),
    (86.08944403766577, 247.29739266883647, 3.6588013716007954),
    (112.71146989637775, 173.92524265072265, 4.790237470596055),
    (187.57622523882543, 156.65010607730952, 7.971989572650081),
    (348.87592097832885, 106.31515241139708, 14.827226641578978),
    (855.7085021291603, -186.86552652337187, 36.36761134048931),
    (307.2701849843133, 882.6531108534739, 30.72701849843133),
    (308.26639579395095, 475.68634974611115, 30.826639579395096),
    (481.8585324605142, 402.41341954765153, 48.18585324605142),
    (870.1768999539569, 265.1744765991706, 87.0176899953957),
    (2098.6395287909186, -458.29085436746436, 209.86395287909187),
    (970.2554388954989, 2787.120336805003, 194.0510877790998),
    (765.5092168566077, 1181.2584505867487, 153.10184337132156),
    (1104.2673229748893, 922.2042562242481, 220.85346459497788),
    (1911.6165144152947, 582.5389167366183, 382.32330288305894),
    (4493.514219045688, -981.272125254038, 898.7028438091377),
]


def test_bit_exact_against_recorded_forces():
    got = []
    for soil in BIT_EXACT_SOILS:
        for i, depth in enumerate(BIT_EXACT_DEPTHS):
            for j, attack in enumerate(BIT_EXACT_ATTACKS):
                if (i + j) % 2:     # callers pass numpy scalars too
                    depth, attack = np.float64(depth), np.float64(attack)
                f = dig_resistance(depth, 0.6, attack, 0.1, soil)
                got.append((f.resistance, f.normal, f.torque_about_edge))
    assert got == BIT_EXACT_FORCES
