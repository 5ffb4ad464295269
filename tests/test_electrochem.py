"""Kinetics, terminal voltage, and stoichiometric-window algebra."""

import collections
import dataclasses
import math
import random

import numpy as np
import pytest

from cellfade.electrochem import (
    intercalation_overpotential,
    pristine_inventory,
    solve_window,
    terminal_voltage,
)
from cellfade.errors import CellDeadError, KineticsSingularError, SaturationError
from cellfade.measurement import kinetic_resistance
from cellfade.ocp import MonotoneOCPTable
from helpers import (
    active_area,
    exchange_current_density,
    interfacial_current_density,
    molar_flux,
    ocp,
    outcome,
    overpotential,
    sample_windows,
    solve_window_oracle,
)


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
    assert jn * active_area(params, "neg", params.C_n_nom) == pytest.approx(I, rel=1e-12)


def _nominal_densities(params, I):
    """Both sides' interfacial current densities, A/m^2, under cell current
    I at the nominal capacities."""
    return (interfacial_current_density(params, "pos", I, params.C_p_nom),
            interfacial_current_density(params, "neg", I, params.C_n_nom))


def test_terminal_voltage_is_ocv_at_rest(params):
    y, x = 0.45, 0.6
    v = terminal_voltage(params, y * params.c_smax_pos, x * params.c_smax_neg,
                         0.0, 0.0, *_nominal_densities(params, 0.0))
    assert v == pytest.approx(ocp(params, "pos", y) - ocp(params, "neg", x), abs=1e-12)


def test_terminal_voltage_drops_under_load(params):
    y, x = 0.45, 0.6
    args = (y * params.c_smax_pos, x * params.c_smax_neg)
    v0 = terminal_voltage(params, *args, 0.0, 0.0,
                          *_nominal_densities(params, 0.0))
    v_dis = terminal_voltage(params, *args, 2.0, 0.002,
                             *_nominal_densities(params, 2.0))
    v_chg = terminal_voltage(params, *args, -2.0, 0.002,
                             *_nominal_densities(params, -2.0))
    assert v_dis < v0 < v_chg


def test_film_resistance_term_is_ohmic(params):
    y, x = 0.45, 0.6
    args = (y * params.c_smax_pos, x * params.c_smax_neg)
    I = 1.5
    j = _nominal_densities(params, I)
    v_a = terminal_voltage(params, *args, I, 0.0, *j)
    v_b = terminal_voltage(params, *args, I, 0.004, *j)
    assert v_a - v_b == pytest.approx(I * 0.004, rel=1e-10)


def _outcome(fn, *args):
    """A kinetics result as float.hex, or the error it raised and its text."""
    try:
        return float.hex(fn(*args))
    except (SaturationError, KineticsSingularError) as e:
        return type(e).__name__, str(e)


def _skewed(params):
    """A copy whose alpha and T make reassociated products round apart."""
    return dataclasses.replace(params, alpha=0.43, T=313.15)


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("side", ["pos", "neg"])
def test_electrode_kinetics_equal_the_oracles_bitwise(params, side, skew):
    # the electrode's constants keep the oracle's left-to-right order, so
    # every value (and every error and its message) is the same
    if skew:
        params = _skewed(params)
    e = getattr(params, side)
    cmax = e.c_smax
    rng = np.random.default_rng(16)
    for cap in rng.uniform(0.3, 1.2, 50) * params.C_n_nom:
        assert e.area(cap) == active_area(params, side, cap)
    area = e.area(params.C_n_nom)
    c_draws = list(rng.uniform(0.0, cmax, 300)) + [
        0.0, cmax, cmax * (1.0 - 1e-15), 1e-300,   # the surface's ends
        -1e-9, -1.0, cmax * (1.0 + 1e-12), 2.0 * cmax]   # out of range
    j_draws = list(rng.uniform(-30.0, 30.0, len(c_draws)) / area)
    j_draws[::7] = [0.0] * len(j_draws[::7])
    errors = set()
    for c, j in zip(c_draws, j_draws):
        assert (_outcome(e.exchange_current, c)
                == _outcome(exchange_current_density, params, side, c))
        for jj in (j, 0.0, 1.0):
            got = _outcome(e.overpotential, jj, c)
            assert got == _outcome(overpotential, params, side, jj, c)
            if isinstance(got, tuple):
                errors.add(got[0])
    assert errors == {"SaturationError", "KineticsSingularError"}
    # j = 0 never reads the surface, even past its ends
    assert e.overpotential(0.0, -1.0) == 0.0
    with pytest.raises(KineticsSingularError):
        e.overpotential(1.0, cmax)


@pytest.mark.parametrize("skew", [False, True])
def test_voltage_and_resistance_equal_the_oracles_bitwise(params, skew):
    if skew:
        params = _skewed(params)
    rng = np.random.default_rng(17)
    for _ in range(200):
        c_p = params.c_smax_pos * rng.uniform(0.3, 0.95)
        c_n = params.c_smax_neg * rng.uniform(0.05, 0.9)
        I, r = rng.uniform(-20.0, 20.0), rng.uniform(0.0, 0.01)
        C_p = params.C_p_nom * rng.uniform(0.7, 1.0)
        C_n = params.C_n_nom * rng.uniform(0.7, 1.0)
        j_p = interfacial_current_density(params, "pos", I, C_p)
        j_n = interfacial_current_density(params, "neg", I, C_n)
        want = (ocp(params, "pos", c_p / params.c_smax_pos)
                + overpotential(params, "pos", j_p, c_p)
                - ocp(params, "neg", c_n / params.c_smax_neg)
                - overpotential(params, "neg", j_n, c_n) - I * r)
        got = terminal_voltage(params, c_p, c_n, I, r, j_p, j_n)
        assert float.hex(got) == float.hex(want)
        for side, cap, c in (("pos", C_p, c_p), ("neg", C_n, c_n)):
            assert float.hex(intercalation_overpotential(
                params, side, I, c, cap)) == float.hex(overpotential(
                    params, side,
                    interfacial_current_density(params, side, I, cap), c))
        # the charge-transfer resistance as it was written per electrode
        x, y = c_n / params.c_smax_neg, c_p / params.c_smax_pos
        out = 0.0
        for side, cap, s_ in (("pos", C_p, y), ("neg", C_n, x)):
            cmax = params.c_smax_pos if side == "pos" else params.c_smax_neg
            g = 1.0 / (2.0 * exchange_current_density(params, side, s_ * cmax)
                       * active_area(params, side, cap))
            out += g / math.sqrt((I * g) ** 2 + 1.0)
        want = 2.0 * params.R_gas * params.T / params.F * out
        got = kinetic_resistance(params, C_p, C_n, x, y, I)
        assert float.hex(got) == float.hex(want)


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

    def test_matches_its_brentq_oracle_to_the_bit(self, params, n_li0):
        # seeded capacities and inventories wide enough to reach every
        # refusal: each record field by float.hex (and type), each
        # exception by type and message
        rng = random.Random(24)
        narrow = dataclasses.replace(params, V_min=3.9, V_max=4.0)
        seen = collections.Counter()
        for p in (params, narrow):
            draws = [(p.C_p_nom * rng.uniform(0.1, 1.6),
                      p.C_n_nom * rng.uniform(0.1, 1.6),
                      n_li0 * rng.uniform(0.05, 1.5)) for _ in range(2000)]
            draws += [(0.0, p.C_n_nom, n_li0), (p.C_p_nom, -1.0, n_li0),
                      (p.C_p_nom, p.C_n_nom, 0.0)]
            for args in draws:
                got = outcome(solve_window, p, *args)
                want = outcome(solve_window_oracle, p, *args)
                if got[0] == want[0] == "ok":
                    got, want = ([(type(v), v if v is None else float.hex(v))
                                  for v in dataclasses.astuple(rec)]
                                 for rec in (got[1], want[1]))
                    seen["ok"] += 1
                else:
                    seen[got[-1].split(" to ")[0]] += 1
                assert got == want, args
        assert set(seen) == {
            "ok", "top of charge: OCV cannot reach up",
            "bottom of discharge: OCV cannot reach down",
            "no stoichiometry range is consistent with the inventory",
            "capacities and lithium inventory must be positive"}, seen
        assert min(seen.values()) >= 6, seen

    def test_each_bracket_end_is_evaluated_once(self, params, n_li0,
                                                monkeypatch):
        # the reach check's OCV at lo and hi is also each root's end
        # value, so per solve each table is evaluated once at each end,
        # where brentq's own evaluations of both ends of both roots made
        # it three times
        calls = []
        table_call = MonotoneOCPTable.__call__

        def recorded(table, s):
            calls.append((table, s))
            return table_call(table, s)

        windows = [solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)]
        windows += sample_windows(params, n_li0, random.Random(45), 20)
        monkeypatch.setattr(MonotoneOCPTable, "__call__", recorded)
        tp, tn = params.ocp_pos, params.ocp_neg
        for w in windows:
            calls.clear()
            assert solve_window(params, w.C_p, w.C_n, w.n_li) == w
            N_Ah = w.n_li * params.F / 3600.0
            lo = max(tn.s_min, (N_Ah - w.C_p * tp.s_max) / w.C_n)
            hi = min(tn.s_max, (N_Ah - w.C_p * tp.s_min) / w.C_n)
            for x in (lo, hi):
                for table, s in ((tn, x), (tp, (N_Ah - x * w.C_n) / w.C_p)):
                    assert calls.count((table, s)) == 1, (table.name, x, w)
            # and each root's iteration went through the recorder
            assert len(calls) > 8, calls


def test_pristine_inventory_matches_configured_top(params, n_li0):
    # the fresh window must reproduce x100_init from the config
    rec = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
    assert rec.x_100 == pytest.approx(params.x100_init, abs=1e-9)


def test_pristine_inventory_is_positive_and_plausible(params, n_li0):
    # bounded by what both hosts could possibly hold
    n_max = 3600.0 * (params.C_p_nom + params.C_n_nom) / params.F
    assert 0.0 < n_li0 < n_max
