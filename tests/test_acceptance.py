"""End-to-end acceptance suite.

Every numbered criterion runs at its stated tolerance and prints one
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Criterion 4 holds the projected pair potential to 2% wherever the
4x4 pair model is in its strong-drive regime, and checks that the
close-range remainder follows the model's second-order law. Criterion 6(c)
compares the full dynamics with a design built on the exact adiabatic
eigenvalues, in the same phase convention phi = +integral E dt.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import rydgate as rg
from rydgate.constants import CA40_MASS, COULOMB_C0, TWO_PI, mhz, to_mhz
from rydgate.dressing import D1_DEFAULT
from rydgate.errors import WeakDriveWarning

REF_DRIVE = rg.MWDrive(omega_mw_rabi=mhz(400.0), delta_s=mhz(136.074),
                       delta_p=mhz(293.957))
REF_PULSE = rg.PulseShape(omega0=mhz(0.5), delta0=mhz(0.639), tau=60.0)
REF_BLOCKADE = mhz(2.5)
REF_C6 = mhz(300.0)           # 2pi x 0.3 GHz um^6
REF_C3_MINUS = mhz(309.0)     # 2pi x 0.309 GHz um^3
REF_LIFETIME = 132.0          # us
OPERATING_R0 = 5.0            # um


def report(num, ok, detail):
    print(f"\nCRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def sim_config():
    return rg.SimConfig(blockade=REF_BLOCKADE, omega_z=mhz(1.0), eta=0.5,
                        pulse=REF_PULSE, n_phonon_max=5)


@pytest.fixture(scope="module")
def dynamic_phases(sim_config):
    return rg.entangling_phase_dynamic(sim_config)


def test_criterion_1_vdw_number():
    shift = rg.vdw_shift(REF_C6, OPERATING_R0)
    exact = REF_C6 / OPERATING_R0**6
    khz = to_mhz(shift) * 1e3
    ok = (abs(shift - exact) <= 1e-12 * exact
          and abs(khz - 20.0) / 20.0 <= 0.05
          and khz == pytest.approx(19.2, rel=1e-12))
    assert report(1, ok, f"vdW shift at {OPERATING_R0} um = 2pi x {khz:.3f} kHz "
                         f"(closed form to 1e-12, within 5% of 20 kHz)")


def test_criterion_2_dd_number():
    pair = rg.dress(REF_DRIVE)
    model = rg.dd_coefficients(pair, D1_DEFAULT)
    shift = rg.dd_shift(model.c3_minus, OPERATING_R0)
    exact = model.c3_minus / OPERATING_R0**3
    m = to_mhz(shift)
    ok = (abs(shift - exact) <= 1e-12 * exact
          and abs(m - 2.47) / 2.47 <= 0.02
          and abs(m - 2.5) / 2.5 <= 0.05
          and abs(to_mhz(model.c3_minus) / 1e3 - 0.309) / 0.309 <= 1e-9)
    assert report(2, ok, f"C3(-) = 2pi x {to_mhz(model.c3_minus)/1e3:.4f} GHz um^3, "
                         f"shift at {OPERATING_R0} um = 2pi x {m:.4f} MHz")


def test_criterion_3_dressing_numbers():
    pair = rg.dress(REF_DRIVE)
    c_ok = abs(abs(pair.c_minus) - 0.680) <= 0.005
    e_ok = abs(pair.e_minus) <= mhz(0.001)
    ok = c_ok and e_ok
    assert report(3, ok, f"|C_-| = {abs(pair.c_minus):.4f} (0.680 +- 0.005), "
                         f"|E_-| = 2pi x {abs(to_mhz(pair.e_minus)):.6f} MHz (<= 0.001)")


def test_criterion_4_full_vs_approximate_pair_potential():
    # C3(-)/R0^3 is the first-order |--> shift of the 4x4 pair model, and the
    # model is valid only where pair_potential_full does not warn. Closer in,
    # the cross-branch term is second order in the exchange, so the relative
    # deviation falls as 1/R0^3: deviation x R0^3 is constant.
    pair = rg.dress(REF_DRIVE)
    model = rg.dd_coefficients(pair, D1_DEFAULT)

    def deviation(r0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            full = rg.lower_branch_shift(REF_DRIVE, r0=r0)
        approx = rg.dd_shift(model.c3_minus, r0)
        weak = any(issubclass(w.category, WeakDriveWarning) for w in caught)
        return abs(full - approx) / approx, weak

    grid = np.linspace(2.0, 10.0, 100)
    devs, weak = map(np.array, zip(*(deviation(r0) for r0 in grid)))
    worst_strong = devs[~weak].max()
    strong_ok = worst_strong <= 0.02
    flagged_ok = bool(np.all(weak[devs > 0.02]))
    operating_ok = not deviation(OPERATING_R0)[1]
    scaled = devs * grid**3
    spread = scaled.max() / scaled.min() - 1.0
    law_ok = spread <= 0.05
    ok = strong_ok and flagged_ok and operating_ok and law_ok
    assert report(4, ok,
                  f"|full - C3/R0^3| / (C3/R0^3) over [2, 10] um: max = "
                  f"{worst_strong:.3%} where the drive is strong (<= 2%); "
                  f"WeakDriveWarning up to {grid[weak].max():.2f} um covers "
                  f"every point above 2%: {flagged_ok}; {OPERATING_R0} um "
                  f"strong-drive: {operating_ok}; deviation x R0^3 spread "
                  f"{spread:.2%} (<= 5%)")


def test_criterion_5_gate_phase_and_optimizer():
    design = rg.entangling_phase(REF_PULSE, REF_BLOCKADE)
    phase_ok = abs(rg.wrap_angle(design.phi_ent - np.pi)) <= 0.05 * np.pi
    delta0 = rg.optimize_pulse(REF_PULSE.omega0, REF_PULSE.tau, REF_BLOCKADE)
    opt_ok = abs(to_mhz(delta0) - 0.639) / 0.639 <= 0.02
    ok = phase_ok and opt_ok
    assert report(5, ok, f"phi_ent = {design.phi_ent:.5f} rad (pi within 5%), "
                         f"optimizer delta0 = 2pi x {to_mhz(delta0):.5f} MHz "
                         f"(0.639 within 2%)")


def test_criterion_6_dynamics_reproduction(sim_config, dynamic_phases):
    trace = dynamic_phases["trace_dd"]
    norm_drift = float(np.max(np.abs(trace.norms - 1.0)))
    a_ok = norm_drift < 1e-8

    max_pmm = float(np.max(trace.p_mm))
    b_ok = max_pmm < 0.05

    design = rg.entangling_phase(sim_config.pulse, sim_config.blockade)
    gap = float(rg.wrap_angle(dynamic_phases["phi_ent_dynamic"] - design.phi_ent))
    c_ok = abs(gap) < 0.05

    big = rg.SimConfig(blockade=sim_config.blockade, omega_z=sim_config.omega_z,
                       eta=sim_config.eta, pulse=sim_config.pulse, n_phonon_max=8)
    trace8 = rg.evolve(big)
    pop_shift = max(
        float(np.max(np.abs(getattr(trace, name) - getattr(trace8, name))))
        for name in ("p_dd", "p_dm", "p_mm", "p_init"))
    d_ok = pop_shift < 1e-3

    detail = (f"(a) norm drift {norm_drift:.2e} {'<' if a_ok else '>='} 1e-8; "
              f"(b) max p_mm {max_pmm:.4f} {'<' if b_ok else '>='} 0.05; "
              f"(c) |phi_dyn - phi_adiabatic| = {abs(gap):.4f} rad "
              f"{'<' if c_ok else '>='} 0.05 (exact adiabatic design); "
              f"(d) populations shift {pop_shift:.2e} "
              f"{'<' if d_ok else '>='} 1e-3 for 5 -> 8 phonons")
    ok = a_ok and b_ok and c_ok and d_ok
    assert report(6, ok, detail)


def test_criterion_7_loss_estimate(dynamic_phases):
    trace = dynamic_phases["trace_dd"]
    p_loss = rg.loss_probability(trace, REF_LIFETIME)
    ok = abs(p_loss - 0.052) / 0.052 <= 0.20
    assert report(7, ok, f"P_loss = {p_loss:.4f} (0.052 within 20%)")


def test_criterion_8_property_suites():
    # dressed-state identities over 1000 seeded drives
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(1000):
        drive = rg.MWDrive(omega_mw_rabi=rng.uniform(1e-2, 1e4),
                           delta_s=rng.uniform(-1e4, 1e4),
                           delta_p=rng.uniform(-1e4, 1e4))
        pair = rg.dress(drive)
        split = np.hypot(drive.omega_mw_rabi, drive.delta_minus)
        scale = max(1.0, abs(drive.delta_plus), split)
        worst = max(
            worst,
            abs(pair.c_plus * pair.c_minus + 1.0),
            abs(pair.e_plus + pair.e_minus - drive.delta_plus) / scale,
            abs(pair.e_plus - pair.e_minus - split) / scale,
        )
    identities_ok = worst < 1e-12

    # FC matrix: identity at equal frequencies, exact parity zeros, and
    # truncated unitarity improving with n_max
    trap = rg.from_secular(TWO_PI * 1e6, TWO_PI * 4e6, TWO_PI * 30e6, CA40_MASS)
    geom = rg.equilibrium_geometry(trap)
    ground = rg.diagonalize(rg.build_hessian("X", trap, geom))
    fc_eq = rg.fc_matrix(ground, ground, n_max=4)
    identity_ok = np.array_equal(fc_eq.entries, np.eye(25))
    excited = rg.diagonalize(rg.build_hessian("X", trap, geom, (-1e9, -1e9)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fc6 = rg.fc_matrix(ground, excited, n_max=6)
        fc12 = rg.fc_matrix(ground, excited, n_max=12)
    parity_ok = all(
        fc6.entries[fc6.flat_index(k1, k2), fc6.flat_index(j1, j2)] == 0.0
        for k1, k2 in ((0, 0), (1, 2), (3, 0))
        for j1, j2 in ((1, 0), (0, 1), (2, 1), (1, 2))
        if (k1 + j1) % 2 or (k2 + j2) % 2)

    def gram_dev(fc, keep):
        n = fc.n_max + 1
        idx = [m1 * n + m2 for m1 in range(keep) for m2 in range(keep)]
        g = fc.entries.T @ fc.entries
        return np.abs(g[np.ix_(idx, idx)] - np.eye(keep * keep))

    conv_ok = gram_dev(fc12, 5).max() < gram_dev(fc6, 5).max()

    # phonon eigen-residuals
    residual_ok = True
    for axis in ("X", "Y", "Z"):
        h = rg.build_hessian(axis, trap, geom, (-1e9, 0.0))
        basis = rg.diagonalize(h)
        m = h.matrix()
        for j in range(2):
            v = basis.eigenvectors[:, j]
            lam = basis.frequencies[j] ** 2
            residual_ok &= np.linalg.norm(m @ v - lam * v) < 1e-10 * np.linalg.norm(m)

    # piecewise-constant evolution against matrix-exponential products
    cfg = rg.SimConfig(blockade=REF_BLOCKADE, omega_z=mhz(1.0), eta=0.5,
                       pulse=rg.PulseShape(mhz(0.5), mhz(0.639), 6.0),
                       n_phonon_max=1, rtol=1e-11, atol=1e-13, n_output=7)
    levels = [(mhz(0.3), mhz(0.9)), (mhz(0.5), mhz(0.4)), (mhz(0.2), mhz(0.7))]

    def drive(t):
        return levels[min(int(t // 2.0), 2)]

    drive.breakpoints = (2.0, 4.0)
    psi0 = rg.initial_state(cfg, "DD", 0)
    trace = rg.evolve(cfg, psi0, drive=drive)
    psi = psi0.astype(complex)
    for lo, hi in [(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)]:
        h = rg.build_hamiltonian(lo + 1.0, cfg, drive=drive)
        psi = expm(-1j * h * (hi - lo)) @ psi
    oracle_ok = np.linalg.norm(trace.states[-1] - psi) < 1e-8

    ok = (identities_ok and identity_ok and parity_ok and conv_ok
          and residual_ok and oracle_ok)
    assert report(8, ok,
                  f"identities worst = {worst:.2e} (< 1e-12); FC identity "
                  f"{identity_ok}, parity zeros {parity_ok}, unitarity "
                  f"convergence {conv_ok}; eigen-residuals {residual_ok}; "
                  f"matrix-exponential oracle {oracle_ok}")


def test_criterion_9_geometry():
    trap = rg.from_secular(TWO_PI * 1e6, TWO_PI * 4e6, TWO_PI * 30e6, CA40_MASS)
    geom = rg.equilibrium_geometry(trap)
    sf = rg.secular_frequencies(trap)
    r0_um = geom.r0 * 1e6
    trap_force = trap.mass * sf.omega_z**2 * geom.z2_bar
    coulomb_force = COULOMB_C0 / (2 * geom.z2_bar) ** 2
    residual = abs(trap_force - coulomb_force) / coulomb_force
    ok = abs(r0_um - 5.6) <= 0.05 and residual < 1e-10 and abs(r0_um - 5.0) / 5.0 < 0.15
    assert report(9, ok, f"R0 = {r0_um:.4f} um (~5.6 um, near the 5 um operating "
                         f"point), force-balance residual = {residual:.2e}")
