"""Unit behavior of the aging mechanisms: films, fatigue, inventory."""

import dataclasses
import math

import numpy as np
import pytest

from cellfade.degradation import (
    DegradationState,
    StressExtrema,
    _sei_implicit_step,
    hydrostatic_stress,
    lam_cycle_update,
    plated_lithium_moles,
    plating_flux,
    plating_growth_rate,
    plating_overpotential,
    sei_lithium_moles,
    sei_overpotential,
    sei_rate_constant,
    step_degradation,
)
from cellfade.errors import CellDeadError, ConfigError
from helpers import lli_rate, sei_flux, sei_flux_ddelta, sei_growth_rate

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
            d1 = _sei_implicit_step(sei, d0, kin, dt)
            resid = d1 - d0 - dt * sei_growth_rate(sei, sei_flux(sei, d1, kin))
            assert abs(resid) < 1e-18 + 1e-12 * d1
            assert d1 >= d0

    def test_implicit_step_long_stride_sqrt_tail(self, degp):
        # diffusion-limited growth: doubling time should less-than-double
        # the added thickness once the film is thick
        sei = degp.sei
        kin = _kin(sei, -0.15)
        d = _sei_implicit_step(sei, 1e-7, kin, 1e7)
        d2 = _sei_implicit_step(sei, 1e-7, kin, 2e7)
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
        assert hydrostatic_stress(lam, "neg", 0.9 * c, c, params) > 0.0
        assert hydrostatic_stress(lam, "neg", 1.1 * c, c, params) < 0.0
        assert hydrostatic_stress(lam, "neg", c, c, params) == 0.0

    def test_stress_linear_in_gradient(self, params, degp):
        lam = degp.lam
        c = 0.5 * params.c_smax_pos
        s1 = hydrostatic_stress(lam, "pos", c - 100.0, c, params)
        s2 = hydrostatic_stress(lam, "pos", c - 200.0, c, params)
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
        state = DegradationState(0.0, 0.0, params.C_p_nom, params.C_n_nom, 0.0)
        ex = StressExtrema(2e7, -1e7, 3e7, -2e7)
        new, dC_p, dC_n = lam_cycle_update(state, ex, degp.lam, params)
        assert dC_p > 0.0 and dC_n > 0.0
        assert new.C_p == pytest.approx(state.C_p - dC_p)
        assert new.C_n == pytest.approx(state.C_n - dC_n)
        assert new.delta_sei == state.delta_sei and new.LLI == state.LLI

    def test_cycle_update_zero_stress_zero_loss(self, params, degp):
        state = DegradationState(0.0, 0.0, params.C_p_nom, params.C_n_nom, 0.0)
        new, dC_p, dC_n = lam_cycle_update(state, StressExtrema(), degp.lam, params)
        assert dC_p == 0.0 and dC_n == 0.0
        assert new.C_p == state.C_p and new.C_n == state.C_n

    def test_cycle_update_dead_cell(self, params, degp):
        state = DegradationState(0.0, 0.0, 1e-12, params.C_n_nom, 0.0)
        huge = StressExtrema(1e10, -1e10, 1e10, -1e10)
        with pytest.raises(CellDeadError):
            lam_cycle_update(state, huge, degp.lam, params)


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
        new, inc = step_degradation(params, degp, state,
                                    eta_neg=-0.05, u_neg_surface=0.12,
                                    c_ss_neg=1.05 * c, c_avg_neg=c,
                                    x=0.6, y=0.4, n_li0=n_li0, dt=1.0)
        # thickness increments and mole increments are the same bookkeeping
        assert inc.dn_sei == pytest.approx(
            2.0 * params.film_area_neg * (new.delta_sei - state.delta_sei)
            / degp.sei.Omega_sei, rel=1e-12)
        assert inc.dn_pl == pytest.approx(
            params.film_area_neg * (new.delta_pl - state.delta_pl)
            / degp.plating.Omega_pl, rel=1e-12)
        assert new.LLI - state.LLI == pytest.approx(
            (inc.dn_sei + inc.dn_pl) / n_li0, rel=1e-12)
        assert inc.i_side == pytest.approx(
            -params.F * (inc.dn_sei + inc.dn_pl) / 1.0, rel=1e-12)
        assert inc.i_side <= 0.0
        # capacities untouched by the within-cycle step
        assert new.C_p == state.C_p and new.C_n == state.C_n

    def test_step_degradation_monotone_state(self, params, degp, n_li0):
        state = DegradationState(1e-9, 1e-10, params.C_p_nom, params.C_n_nom, 0.0)
        c = 0.5 * params.c_smax_neg
        for _ in range(50):
            state, inc = step_degradation(params, degp, state,
                                          eta_neg=-0.02, u_neg_surface=0.1,
                                          c_ss_neg=1.02 * c, c_avg_neg=c,
                                          x=0.6, y=0.4, n_li0=n_li0, dt=10.0)
            assert inc.dn_sei >= 0.0 and inc.dn_pl >= 0.0
        assert state.delta_sei > 1e-9
        assert state.delta_pl > 1e-10
        assert 0.0 < state.LLI < 1.0
