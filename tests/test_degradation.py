"""Unit behavior of the aging mechanisms: films, fatigue, inventory."""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cellfade.cell import Cell
from cellfade.degradation import (
    DegradationState,
    StressExtrema,
    deep_soh,
    hydrostatic_stress,
    lam_cycle_update,
    plated_lithium_moles,
    sei_lithium_moles,
    step_degradation,
)
from cellfade.errors import CellDeadError, ConfigError
from cellfade.particle import at_stoichiometry
from helpers import (
    lli_rate,
    plating_flux,
    plating_growth_rate,
    plating_overpotential,
    sei_flux,
    sei_exact_step_residual,
    sei_flux_ddelta,
    sei_growth_rate,
    sei_implicit_step,
    sei_overpotential,
    sei_rate_constant,
    step_degradation_oracle,
)

R_GAS = 8.314462618
F = 96485.33212
T = 298.15


def _kin(sei, eta):
    return sei_rate_constant(sei, eta, T, R_GAS, F)


def test_state_validation():
    with pytest.raises(ConfigError):
        DegradationState(-1e-9, 0.0, 6.0, 5.0, 0.0)
    with pytest.raises(CellDeadError):
        DegradationState(0.0, 0.0, 0.0, 5.0, 0.0)
    with pytest.raises(ConfigError):
        DegradationState(0.0, 0.0, 6.0, 5.0, 1.0)
    s = DegradationState(1e-9, 0.0, 6.0, 5.0, 0.01)
    c = s.copy()
    assert c == s and c is not s


def test_state_stores_python_floats():
    # numpy scalars would carry their slower arithmetic into every step
    s = DegradationState(np.float64(1e-9), 0, np.float64(6.0), 5,
                         np.float64(0.01))
    assert [f.name for f in dataclasses.fields(s)] == [
        "delta_sei", "delta_pl", "C_p", "C_n", "LLI"]
    for f in dataclasses.fields(s):
        assert type(getattr(s, f.name)) is float
    assert s == DegradationState(1e-9, 0.0, 6.0, 5.0, 0.01)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.LLI = 0.5
    r = dataclasses.replace(s, LLI=np.float64(0.2))
    assert type(r.LLI) is float
    assert r == DegradationState(1e-9, 0.0, 6.0, 5.0, 0.2)


@pytest.mark.parametrize("args, error, message", [
    ((-1e-9, 0.0, 6.0, 5.0, 0.0), ConfigError,
     "film thicknesses must be non-negative"),
    ((0.0, np.float64(-1e-12), 6.0, 5.0, 0.0), ConfigError,
     "film thicknesses must be non-negative"),
    ((0.0, 0.0, 0, 5.0, 0.0), CellDeadError,
     "electrode capacity must be positive"),
    ((0.0, 0.0, 6.0, np.float64(-5.0), 0.0), CellDeadError,
     "electrode capacity must be positive"),
    ((0.0, 0.0, 6.0, 5.0, 1.0), ConfigError, "LLI must be in [0,1), got 1.0"),
    ((0.0, 0.0, 6.0, 5.0, np.float64(-0.5)), ConfigError,
     "LLI must be in [0,1), got -0.5"),
    ((0.0, 0.0, 6.0, 5.0, float("nan")), ConfigError,
     "LLI must be in [0,1), got nan"),
])
def test_state_rejects_invalid_input(args, error, message):
    with pytest.raises(error) as e:
        DegradationState(*args)
    assert type(e.value) is error and str(e.value) == message


@pytest.mark.parametrize("LLI, error", [
    (1.0, CellDeadError), (math.inf, CellDeadError),
    (-0.5, ConfigError), (math.nan, ConfigError)])
def test_films_that_take_all_the_lithium_end_the_cell(LLI, error):
    # a step may grow films over the whole inventory, which ends the cell;
    # a negative or NaN LLI is still no state at all
    with pytest.raises(error) as e:
        DegradationState(1e-9, 0.0, 6.0, 5.0, 0.2).grown(1e-9, 0.0, LLI)
    assert type(e.value) is error


class TestSEI:
    def test_flux_always_negative(self, degp):
        sei = degp.sei
        for d in (0.0, 1e-9, 5e-8, 1e-6):
            for eta in (-0.3, -0.05, 0.0, 0.1):
                assert sei_flux(sei, d, _kin(sei, eta)) < 0.0

    def test_flux_kinetic_limit_at_zero_thickness(self, degp):
        # with no film, the series resistance is purely kinetic
        sei = degp.sei
        eta = -0.1
        kin = sei.k_sei * math.exp(-sei.alpha_sei * F * eta / (R_GAS * T))
        assert sei_flux(sei, 0.0, _kin(sei, eta)) == pytest.approx(
            -sei.c_ec0 * kin, rel=1e-12)

    def test_flux_transport_limit_at_large_thickness(self, degp):
        # thick film: |j| -> c_ec0 * D / delta regardless of overpotential
        sei = degp.sei
        d = 1e-4
        j_a = sei_flux(sei, d, _kin(sei, -0.5))
        j_b = sei_flux(sei, d, _kin(sei, -0.1))
        lim = -sei.c_ec0 * sei.D_sei / d
        assert j_a == pytest.approx(lim, rel=1e-2)
        assert j_b == pytest.approx(lim, rel=1e-2)

    def test_flux_magnitude_decreases_with_thickness(self, degp):
        sei = degp.sei
        ds = [0.0, 1e-9, 1e-8, 1e-7, 1e-6]
        js = [abs(sei_flux(sei, d, _kin(sei, -0.1))) for d in ds]
        assert all(a > b for a, b in zip(js, js[1:]))

    def test_flux_derivative_matches_finite_difference(self, degp):
        # closed form vs central difference at several thicknesses
        sei = degp.sei
        eta = -0.12
        kin = _kin(sei, eta)
        for d in (1e-9, 5e-9, 2e-8, 8e-8, 3e-7):
            h = 1e-6 * d
            fd = (sei_flux(sei, d + h, kin)
                  - sei_flux(sei, d - h, kin)) / (2.0 * h)
            cf = sei_flux_ddelta(sei, d, eta, T, R_GAS, F)
            assert cf == pytest.approx(fd, rel=1e-4)
            assert cf > 0.0  # |j| shrinks as the film thickens

    def test_growth_rate_sign(self, degp):
        sei = degp.sei
        j = sei_flux(sei, 1e-9, _kin(sei, -0.1))
        assert sei_growth_rate(sei, j) > 0.0
        assert sei_growth_rate(sei, 0.0) == 0.0

    def test_implicit_step_satisfies_its_equation(self, degp):
        # d' = d + dt * growth(j(d')): plug the root back in
        sei = degp.sei
        kin = _kin(sei, -0.15)
        d0 = 3e-9
        for dt in (0.1, 10.0, 1000.0, 1e6):
            d1 = sei_implicit_step(sei, d0, kin, dt)
            resid = d1 - d0 - dt * sei_growth_rate(sei, sei_flux(sei, d1, kin))
            assert abs(resid) < 1e-18 + 1e-12 * d1
            assert d1 >= d0

    def test_implicit_step_long_stride_sqrt_tail(self, degp):
        # diffusion-limited growth: doubling time should less-than-double
        # the added thickness once the film is thick
        sei = degp.sei
        kin = _kin(sei, -0.15)
        d = sei_implicit_step(sei, 1e-7, kin, 1e7)
        d2 = sei_implicit_step(sei, 1e-7, kin, 2e7)
        assert d2 - 1e-7 < 2.0 * (d - 1e-7)

    def test_lithium_moles_linear_in_thickness(self, params, degp):
        sei = degp.sei
        n1 = sei_lithium_moles(params, sei, 1e-8)
        n2 = sei_lithium_moles(params, sei, 2e-8)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)
        assert n1 == pytest.approx(
            2.0 * params.film_area_neg * 1e-8 / sei.Omega_sei, rel=1e-12)


class TestPlating:
    def test_no_deposition_without_surface_enrichment(self, params, degp):
        pl = degp.plating
        c = 0.5 * params.c_smax_neg
        # surface at or below bulk: flux is >= 0 and the film cannot grow
        for c_ss in (c, 0.9 * c):
            j = plating_flux(pl, params, c_ss, c, -0.05)
            assert plating_growth_rate(pl, j) == 0.0

    def test_deposition_on_charge_like_conditions(self, params, degp):
        pl = degp.plating
        c = 0.5 * params.c_smax_neg
        j = plating_flux(pl, params, 1.1 * c, c, -0.05)
        assert j < 0.0
        assert plating_growth_rate(pl, j) > 0.0

    def test_no_stripping(self, degp):
        # positive flux never shrinks the film
        assert plating_growth_rate(degp.plating, 1e-5) == 0.0

    def test_flux_scales_with_overpotential(self, params, degp):
        pl = degp.plating
        c = 0.5 * params.c_smax_neg
        j_mild = plating_flux(pl, params, 1.1 * c, c, -0.01)
        j_hard = plating_flux(pl, params, 1.1 * c, c, -0.10)
        assert abs(j_hard) > abs(j_mild)

    def test_disabled_mechanism(self, params, degp):
        pl = type(degp.plating)(k_pl=0.0, alpha_pl=degp.plating.alpha_pl,
                                Omega_pl=degp.plating.Omega_pl,
                                kappa_pl=degp.plating.kappa_pl)
        c = 0.5 * params.c_smax_neg
        assert plating_flux(pl, params, 1.2 * c, c, -0.2) == 0.0

    def test_plated_moles_linear(self, params, degp):
        pl = degp.plating
        n = plated_lithium_moles(params, pl, 4e-8)
        assert n == pytest.approx(params.film_area_neg * 4e-8 / pl.Omega_pl,
                                  rel=1e-12)

    def test_overpotential_composition(self):
        assert plating_overpotential(-0.03, 0.08) == pytest.approx(0.05)
        assert sei_overpotential(-0.03, 0.08, 0.4) == pytest.approx(-0.35)


class TestStressAndLAM:
    def test_stress_sign(self, params, degp):
        lam = degp.lam
        c = 0.5 * params.c_smax_neg
        # depleted surface -> tensile (positive)
        assert hydrostatic_stress(lam.stress_gain_neg, params.neg, 0.9 * c, c) > 0.0
        assert hydrostatic_stress(lam.stress_gain_neg, params.neg, 1.1 * c, c) < 0.0
        assert hydrostatic_stress(lam.stress_gain_neg, params.neg, c, c) == 0.0

    def test_stress_linear_in_gradient(self, params, degp):
        lam = degp.lam
        c = 0.5 * params.c_smax_pos
        s1 = hydrostatic_stress(lam.stress_gain_pos, params.pos, c - 100.0, c)
        s2 = hydrostatic_stress(lam.stress_gain_pos, params.pos, c - 200.0, c)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)

    def test_extrema_tracking(self):
        ex = StressExtrema()
        ex = ex.update(5.0, -2.0)
        ex = ex.update(3.0, -7.0)
        ex = ex.update(8.0, 1.0)
        assert ex.sigma_max_pos == 8.0
        assert ex.sigma_min_pos == 0.0   # never went negative
        assert ex.sigma_max_neg == 1.0
        assert ex.sigma_min_neg == -7.0
        # a value: stresses inside the envelope keep it, fields are frozen
        assert ex.update(4.0, -7.0) is ex
        with pytest.raises(dataclasses.FrozenInstanceError):
            ex.sigma_max_pos = 9.0

    def test_cycle_update_reduces_capacities(self, params, degp):
        # each side loses its fatigue fraction of its capacity at active
        # fraction 1, so a thicker positive electrode loses more, alone
        ex = StressExtrema(2e7, -1e7, 3e7, -2e7)
        dC_p, dC_n = lam_cycle_update(ex, degp.lam, params)
        assert dC_p > 0.0 and dC_n > 0.0
        thick = dataclasses.replace(params, l_pos=2.0 * params.l_pos)
        dC_p2, dC_n2 = lam_cycle_update(ex, degp.lam, thick)
        assert dC_p2 == pytest.approx(2.0 * dC_p, rel=1e-14)
        assert dC_n2 == dC_n

    def test_cycle_update_zero_stress_zero_loss(self, params, degp):
        assert lam_cycle_update(StressExtrema(), degp.lam, params) == (0.0, 0.0)

    def test_cycle_update_overflow_is_a_loss_no_capacity_survives(
            self, params, degp):
        ex = StressExtrema(1e9, -1e9, 1e9, -1e9)   # past sigma_crit
        lam = dataclasses.replace(degp.lam, m_lam=1e6)
        assert lam_cycle_update(ex, lam, params) == (math.inf, math.inf)
        # a side with no fatigue coefficients loses nothing, however far
        # its stress is past sigma_crit
        lam = dataclasses.replace(lam, beta1_pos=0.0, beta2_pos=0.0)
        assert lam_cycle_update(ex, lam, params) == (0.0, math.inf)

    def test_cycle_update_dead_cell(self, params, degp):
        # a huge or a moderate envelope drives a nearly empty positive
        # electrode below zero; the new DegradationState refuses it
        state = DegradationState(0.0, 0.0, 1e-12, params.C_n_nom, 0.0)
        for ex in (StressExtrema(1e10, -1e10, 1e10, -1e10),
                   StressExtrema(2e7, -1e7, 3e7, -2e7)):
            cell = Cell(params, degp, degradation=state,
                        particles=at_stoichiometry(params, 0.5, 0.5))
            cell.extrema = ex
            with pytest.raises(CellDeadError):
                cell.apply_cycle_fatigue()


def _film_moles(params, degp, old, new):
    """Lithium, mol, that the SEI and plated films took from old to new,
    from their thickness increments."""
    area = params.film_area_neg
    return (2.0 * area * (new.delta_sei - old.delta_sei) / degp.sei.Omega_sei,
            area * (new.delta_pl - old.delta_pl) / degp.plating.Omega_pl)


class TestInventory:
    def test_lli_rate_nonnegative_terms(self, params, degp, n_li0):
        r = lli_rate(params, degp.sei, degp.plating,
                     ddelta_sei_dt=1e-12, ddelta_pl_dt=5e-13,
                     dC_p_dt=-1e-8, dC_n_dt=-2e-8,
                     x=0.6, y=0.4, n_li0=n_li0)
        assert r > 0.0
        assert lli_rate(params, degp.sei, degp.plating, 0.0, 0.0, 0.0, 0.0,
                        0.6, 0.4, n_li0) == 0.0

    def test_lli_rate_film_term_matches_moles(self, params, degp, n_li0):
        # rate * n_li0 must equal the molar consumption implied by growth
        dd_sei, dd_pl = 2e-12, 7e-13
        r = lli_rate(params, degp.sei, degp.plating, dd_sei, dd_pl,
                     0.0, 0.0, 0.5, 0.5, n_li0)
        expect = (2.0 * params.film_area_neg * dd_sei / degp.sei.Omega_sei
                  + params.film_area_neg * dd_pl / degp.plating.Omega_pl)
        assert r * n_li0 == pytest.approx(expect, rel=1e-12)

    def test_step_degradation_books_every_mole(self, params, degp, n_li0):
        state = DegradationState(2e-9, 0.0, params.C_p_nom, params.C_n_nom, 0.0)
        c = 0.5 * params.c_smax_neg
        new, i_side = step_degradation(params, degp, state,
                                       eta_neg=-0.05, u_neg_surface=0.12,
                                       c_ss_neg=1.05 * c, c_avg_neg=c,
                                       n_li0=n_li0, dt=1.0)
        # thickness increments, LLI and side current are the same books
        dn_sei, dn_pl = _film_moles(params, degp, state, new)
        assert new.LLI - state.LLI == pytest.approx(
            (dn_sei + dn_pl) / n_li0, rel=1e-12)
        assert i_side == pytest.approx(
            -params.F * (dn_sei + dn_pl) / 1.0, rel=1e-12)
        assert i_side <= 0.0
        # capacities untouched by the within-cycle step
        assert new.C_p == state.C_p and new.C_n == state.C_n

    def test_step_degradation_takes_the_sei_laws_limits(self, params, degp,
                                                         n_li0):
        # an SEI exponential past float range is transport-limited growth,
        # 1/kin = 0, and one that underflows to kin = 0 grows no film
        state = DegradationState(2e-9, 0.0, params.C_p_nom, params.C_n_nom, 0.0)
        c = 0.5 * params.c_smax_neg
        sei = degp.sei

        def after(U_sei):
            deg = dataclasses.replace(
                degp, sei=dataclasses.replace(sei, U_sei=U_sei))
            return step_degradation(params, deg, state, eta_neg=0.0,
                                    u_neg_surface=0.1, c_ss_neg=c,
                                    c_avg_neg=c, n_li0=n_li0, dt=10.0)[0]

        G = 10.0 * sei.Omega_sei * sei.c_ec0 / 2.0
        B = state.delta_sei / sei.D_sei
        assert after(1e3).delta_sei == state.delta_sei + 2.0 * G / (
            B + math.sqrt(B * B + 4.0 * G / sei.D_sei))
        assert after(-1e3) == state

    def test_step_degradation_monotone_state(self, params, degp, n_li0):
        state = DegradationState(1e-9, 1e-10, params.C_p_nom, params.C_n_nom, 0.0)
        c = 0.5 * params.c_smax_neg
        for _ in range(50):
            new, i_side = step_degradation(params, degp, state,
                                           eta_neg=-0.02, u_neg_surface=0.1,
                                           c_ss_neg=1.02 * c, c_avg_neg=c,
                                           n_li0=n_li0, dt=10.0)
            dn_sei, dn_pl = _film_moles(params, degp, state, new)
            assert dn_sei >= 0.0 and dn_pl >= 0.0 and i_side <= 0.0
            state = new
        assert state.delta_sei > 1e-9
        assert state.delta_pl > 1e-10
        assert 0.0 < state.LLI < 1.0


def _outcome(fn, *args):
    """Every float of a (state, i_side) result as float.hex, or the error
    it raised."""
    try:
        state, i_side = fn(*args)
    except (ConfigError, CellDeadError) as e:
        return type(e).__name__, str(e)
    return ([float.hex(getattr(state, f.name))
             for f in dataclasses.fields(state)] + [float.hex(i_side)])


@pytest.mark.parametrize("variant", ["default", "no plating", "skewed"])
def test_step_degradation_equals_the_composed_helpers_bitwise(
        params, degp, n_li0, variant):
    # the flat step keeps every product and quotient of the helper chain
    # in the same order, so no bit of the state or increments moves
    if variant == "no plating":   # k_pl = 0 switches the mechanism off
        degp = dataclasses.replace(
            degp, plating=dataclasses.replace(degp.plating, k_pl=0.0))
    elif variant == "skewed":   # values that make reassociation round apart
        params = dataclasses.replace(params, T=313.15)
        degp = dataclasses.replace(
            degp, sei=dataclasses.replace(degp.sei, alpha_sei=0.37),
            plating=dataclasses.replace(degp.plating, alpha_pl=0.61))
    rng = np.random.default_rng(16)
    for k in range(400):
        # every fourth state is fresh, so that no film thickness swallows
        # the low bits of a growth increment
        fresh = k % 4 == 0
        state = DegradationState(
            0.0 if fresh else rng.uniform(0.0, 3e-7),
            0.0 if fresh else rng.uniform(0.0, 5e-8),
            params.C_p_nom * rng.uniform(0.7, 1.0),
            params.C_n_nom * rng.uniform(0.7, 1.0), rng.uniform(0.0, 0.3))
        eta, u = rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.8)
        c_avg = params.c_smax_neg * rng.uniform(0.05, 0.95)
        c_ss = c_avg * rng.uniform(0.9, 1.1)
        dt = 10.0 ** rng.uniform(-6.0, 5.0)
        got = _outcome(step_degradation, params, degp, state, eta, u, c_ss,
                       c_avg, n_li0, dt)
        want = _outcome(step_degradation_oracle, params, degp, state, eta,
                        u, c_ss, c_avg, n_li0, dt)
        assert got == want


def _sei_draws(params, degp, n_li0):
    """(delta, kin, dt, d') of 2000 seeded steps of the flat step: films
    of 0 or 0.1 nm to 300 nm, dt from 0.1 s to 3000 s, and overpotentials
    from kinetically to transport-limited growth."""
    sei = degp.sei
    c = 0.5 * params.neg.c_smax
    rng = np.random.default_rng(15)
    for _ in range(2000):
        delta = (0.0 if rng.random() < 0.05
                 else 10.0 ** rng.uniform(-10.0, math.log10(3e-7)))
        dt = 10.0 ** rng.uniform(-1.0, math.log10(3000.0))
        eta, u = rng.uniform(-0.3, 0.3), rng.uniform(0.05, 1.0)
        state = DegradationState(delta, 0.0, params.C_p_nom, params.C_n_nom,
                                 0.1)
        new, _ = step_degradation(params, degp, state, eta_neg=eta,
                                  u_neg_surface=u, c_ss_neg=c, c_avg_neg=c,
                                  n_li0=n_li0, dt=dt)
        kin = sei_rate_constant(sei, sei_overpotential(eta, u, sei.U_sei),
                                params.T, params.R_gas, params.F)
        yield delta, kin, dt, new.delta_sei


def test_sei_step_misses_the_exact_law_by_its_closed_form(params, degp, n_li0):
    # at the step's rate constant the exact law K(d' - d) + (d'^2 - d^2)/(2D)
    # = G and backward Euler (d' - d)(K + d'/D) = G differ by (d' - d)^2/(2D)
    sei = degp.sei
    D = sei.D_sei
    for delta, kin, dt, d1 in _sei_draws(params, degp, n_li0):
        K, G = 1.0 / kin, dt * sei.Omega_sei * sei.c_ec0 / 2.0
        # a few ulps of the law's own terms: the growth's root adds only
        # positive terms, so it carries no cancellation of its own
        tol = 4.0 * math.ulp(1.0) * (K * d1 + d1 * d1 / D + G)
        got = sei_exact_step_residual(sei, delta, d1, kin, dt)
        assert abs(got + (d1 - delta) ** 2 / (2.0 * D)) <= tol


def test_sei_step_lands_within_two_ulps_of_the_exact_root(params, degp,
                                                          n_li0):
    # the root of the backward-Euler step (d' - d)(1/kin + d'/D) = G in
    # 60-digit decimal from the floats d, kin and G = dt*Omega*c_ec0/2 the
    # step forms: the float step lands within 2 ulps of it, and a step
    # whose growth is above ulp(d) never stalls at d
    sei = degp.sei
    D = Decimal(sei.D_sei)
    with localcontext() as ctx:
        ctx.prec = 60
        for delta, kin, dt, d1 in _sei_draws(params, degp, n_li0):
            d = Decimal(delta)
            G = Decimal(dt * sei.Omega_sei * sei.c_ec0 / 2.0)
            B = 1 / Decimal(kin) + d / D
            u = 2 * G / (B + (B * B + 4 * G / D).sqrt())
            ulp = Decimal(math.ulp(float(d + u)))
            assert abs(Decimal(d1) - d - u) <= 2 * ulp
            if u > Decimal(math.ulp(delta)):
                assert d1 > delta


def test_deep_soh_shares_sum_to_lli(params, degp, n_li0):
    # SEI and plating are the film lithium, fracture the rest of LLI, so
    # the three shares sum to LLI whatever the state
    rng = np.random.default_rng(17)
    for k in range(200):
        fresh = k % 5 == 0
        state = DegradationState(
            0.0 if fresh else rng.uniform(0.0, 3e-7),
            0.0 if fresh else rng.uniform(0.0, 5e-8),
            params.C_p_nom, params.C_n_nom, rng.uniform(0.0, 0.5))
        split = deep_soh(params, degp, state, n_li0)
        assert set(split) == {"sei", "plating", "fracture"}
        assert split["sei"] == (
            sei_lithium_moles(params, degp.sei, state.delta_sei) / n_li0)
        assert split["plating"] == (plated_lithium_moles(
            params, degp.plating, state.delta_pl) / n_li0)
        assert all(type(v) is float for v in split.values())
        assert abs(sum(split.values()) - state.LLI) <= 1e-15
