"""Kinetics, terminal voltage, and stoichiometric-window algebra."""

import math

import numpy as np
import pytest

from cellfade.electrochem import (
    exchange_current_density,
    intercalation_overpotential,
    interfacial_current_density,
    pristine_inventory,
    solve_window,
    terminal_voltage,
)
from cellfade.errors import CellDeadError, KineticsSingularError, SaturationError
from helpers import molar_flux, ocp


def test_overpotential_odd_in_current(params):
    c_ss = 0.5 * params.c_smax_neg
    for I in (0.1, 1.0, 5.0, 12.0):
        fwd = intercalation_overpotential(params, "neg", I, c_ss, params.C_n_nom)
        rev = intercalation_overpotential(params, "neg", -I, c_ss, params.C_n_nom)
        assert fwd == pytest.approx(-rev, rel=1e-12)
    assert intercalation_overpotential(params, "neg", 0.0, c_ss, params.C_n_nom) == 0.0


def test_overpotential_sign_convention(params):
    # discharge (I > 0) drains the negative electrode: its flux is outward,
    # its overpotential positive; the positive electrode mirrors that
    c_n = 0.5 * params.c_smax_neg
    c_p = 0.5 * params.c_smax_pos
    I = 2.0
    assert intercalation_overpotential(params, "neg", I, c_n, params.C_n_nom) > 0.0
    assert intercalation_overpotential(params, "pos", I, c_p, params.C_p_nom) < 0.0


def test_overpotential_linear_small_current(params):
    # asinh(z) ~ z, so eta ~ (RT/F) * j / i0 for tiny currents
    c_ss = 0.4 * params.c_smax_neg
    i0 = exchange_current_density(params, "neg", c_ss)
    I = 1e-6
    j = interfacial_current_density(params, "neg", I, params.C_n_nom)
    expected = params.R_gas * params.T / params.F * j / i0
    got = intercalation_overpotential(params, "neg", I, c_ss, params.C_n_nom)
    assert got == pytest.approx(expected, rel=1e-6)


def test_exchange_current_vanishes_at_endpoints(params):
    assert exchange_current_density(params, "neg", 0.0) == 0.0
    assert exchange_current_density(params, "neg", params.c_smax_neg) == 0.0
    mid = exchange_current_density(params, "neg", 0.5 * params.c_smax_neg)
    assert mid > 0.0


def test_exchange_current_out_of_range_raises(params):
    with pytest.raises(SaturationError):
        exchange_current_density(params, "neg", -1.0)
    with pytest.raises(SaturationError):
        exchange_current_density(params, "pos", params.c_smax_pos * 1.001)


def test_singular_kinetics_raises(params):
    with pytest.raises(KineticsSingularError):
        intercalation_overpotential(params, "neg", 1.0, 0.0, params.C_n_nom)


def test_molar_flux_consistent_with_current(params):
    I = 3.0
    for el, cap in (("neg", params.C_n_nom), ("pos", params.C_p_nom)):
        j = interfacial_current_density(params, el, I, cap)
        n = molar_flux(params, el, I, cap)
        assert n == pytest.approx(j / params.F, rel=1e-14)
    # total interfacial current integrates back to the applied current
    jn = interfacial_current_density(params, "neg", I, params.C_n_nom)
    assert jn * params.active_area("neg", params.C_n_nom) == pytest.approx(I, rel=1e-12)


def test_terminal_voltage_is_ocv_at_rest(params):
    y, x = 0.45, 0.6
    v = terminal_voltage(params, y * params.c_smax_pos, x * params.c_smax_neg,
                         0.0, 0.0, params.C_p_nom, params.C_n_nom)
    assert v == pytest.approx(ocp(params, "pos", y) - ocp(params, "neg", x), abs=1e-12)


def test_terminal_voltage_drops_under_load(params):
    y, x = 0.45, 0.6
    args = (y * params.c_smax_pos, x * params.c_smax_neg)
    v0 = terminal_voltage(params, *args, 0.0, 0.0, params.C_p_nom, params.C_n_nom)
    v_dis = terminal_voltage(params, *args, 2.0, 0.002, params.C_p_nom, params.C_n_nom)
    v_chg = terminal_voltage(params, *args, -2.0, 0.002, params.C_p_nom, params.C_n_nom)
    assert v_dis < v0 < v_chg


def test_film_resistance_term_is_ohmic(params):
    y, x = 0.45, 0.6
    args = (y * params.c_smax_pos, x * params.c_smax_neg)
    I = 1.5
    v_a = terminal_voltage(params, *args, I, 0.0, params.C_p_nom, params.C_n_nom)
    v_b = terminal_voltage(params, *args, I, 0.004, params.C_p_nom, params.C_n_nom)
    assert v_a - v_b == pytest.approx(I * 0.004, rel=1e-10)


class TestSolveWindow:
    def test_endpoints_hit_voltage_limits(self, params, n_li0):
        rec = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        ocv_100 = ocp(params, "pos", rec.y_100) - ocp(params, "neg", rec.x_100)
        ocv_0 = ocp(params, "pos", rec.y_0) - ocp(params, "neg", rec.x_0)
        assert ocv_100 == pytest.approx(params.V_max, abs=1e-9)
        assert ocv_0 == pytest.approx(params.V_min, abs=1e-9)

    def test_capacity_identities(self, params, n_li0):
        rec = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        C_from_neg = params.C_n_nom * (rec.x_100 - rec.x_0)
        C_from_pos = params.C_p_nom * (rec.y_0 - rec.y_100)
        assert rec.C == pytest.approx(C_from_neg, rel=1e-12)
        assert rec.C == pytest.approx(C_from_pos, rel=1e-10)

    def test_lithium_balance_holds_at_both_ends(self, params, n_li0):
        rec = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        N_Ah = n_li0 * params.F / 3600.0
        for x, y in ((rec.x_100, rec.y_100), (rec.x_0, rec.y_0)):
            assert x * params.C_n_nom + y * params.C_p_nom == pytest.approx(
                N_Ah, rel=1e-12)

    def test_window_ordering(self, params, n_li0):
        rec = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        assert 0.0 < rec.x_0 < rec.x_100 < 1.0
        assert 0.0 < rec.y_100 < rec.y_0 < 1.0

    def test_capacity_shrinks_with_lost_inventory(self, params, n_li0):
        rec0 = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        rec1 = solve_window(params, params.C_p_nom, params.C_n_nom, 0.92 * n_li0)
        assert rec1.C < rec0.C

    def test_rejects_nonpositive_inputs(self, params, n_li0):
        with pytest.raises(CellDeadError):
            solve_window(params, 0.0, params.C_n_nom, n_li0)
        with pytest.raises(CellDeadError):
            solve_window(params, params.C_p_nom, -1.0, n_li0)
        with pytest.raises(CellDeadError):
            solve_window(params, params.C_p_nom, params.C_n_nom, 0.0)

    def test_starved_inventory_raises(self, params, n_li0):
        with pytest.raises(CellDeadError):
            solve_window(params, params.C_p_nom, params.C_n_nom, 0.05 * n_li0)


def test_pristine_inventory_matches_configured_top(params, n_li0):
    # the fresh window must reproduce x100_init from the config
    rec = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
    assert rec.x_100 == pytest.approx(params.x100_init, abs=1e-9)


def test_pristine_inventory_is_positive_and_plausible(params, n_li0):
    # bounded by what both hosts could possibly hold
    n_max = 3600.0 * (params.C_p_nom + params.C_n_nom) / params.F
    assert 0.0 < n_li0 < n_max
