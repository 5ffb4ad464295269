"""Health readouts: resistance, expansion, eSOH extraction."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from cellfade import measurement
from cellfade.cell import Cell
from cellfade.degradation import DegradationState
from cellfade.errors import CellDeadError, ConfigError, EstimationFailedError
from cellfade.measurement import (
    MeasurementVector,
    extract_esoh,
    film_free_resistance,
    forward_measure,
    instantaneous_resistance,
    irreversible_expansion,
    kinetic_resistance,
    material_loss_expansion,
    r_film,
    synthesize_pseudo_ocv,
)
from cellfade.electrochem import solve_window
from cellfade.protocol import run_rpt
from helpers import (bounded_trf, esoh_least_squares_oracle,
                     least_squares_lm, sample_windows, scipy_leastsq)

MINPACK = measurement._minpack   # scipy's extension, shared with scipy


def use_lmder(monkeypatch, stand_in):
    """Route extract_esoh's MINPACK call to stand_in, which takes lmder's
    positional arguments and returns its (x, infodict, ier)."""
    monkeypatch.setattr(measurement, "_minpack",
                        SimpleNamespace(_lmder=stand_in))


def fresh_state(params):
    return DegradationState(0.0, 0.0, params.C_p_nom, params.C_n_nom, 0.0)


def test_measurement_vector_validation():
    with pytest.raises(ConfigError):
        MeasurementVector(6.0, 5.0, 0.1, 0.0)
    with pytest.raises(ConfigError):
        MeasurementVector(6.0, 5.0, 0.1, 0.01, delta_irr=-1e-9)
    # a non-finite reading is bad input, not an infeasible vector
    for bad in ({"delta_irr": math.nan}, {"delta_irr": math.inf},
                {"R_s": math.inf}, {"C_p": math.inf}, {"C_n": math.inf}):
        with pytest.raises(ConfigError):
            MeasurementVector(**{"C_p": 6.0, "C_n": 5.0, "LLI": 0.1,
                                 "R_s": 0.01, "delta_irr": 2e-6, **bad})
    m = MeasurementVector(6.0, 5.0, 0.1, 0.01)
    assert "delta_irr" not in m.as_dict()
    m2 = MeasurementVector(6.0, 5.0, 0.1, 0.01, delta_irr=2e-6)
    assert m2.as_dict()["delta_irr"] == 2e-6


class TestResistance:
    def test_r_film_additive_in_layers(self, params, degp):
        s_sei = DegradationState(5e-8, 0.0, 6.0, 5.0, 0.0)
        s_pl = DegradationState(0.0, 3e-8, 6.0, 5.0, 0.0)
        s_both = DegradationState(5e-8, 3e-8, 6.0, 5.0, 0.0)
        a = r_film(params, degp, s_sei)[1]
        b = r_film(params, degp, s_pl)[1]
        c = r_film(params, degp, s_both)[1]
        assert c == pytest.approx(a + b, rel=1e-12)
        # plated lithium is the more resistive layer per meter
        assert b / 3e-8 > a / 5e-8

    def test_r_film_areal_to_cell(self, params, degp):
        s = DegradationState(5e-8, 1e-8, 6.0, 5.0, 0.0)
        areal, cell_r = r_film(params, degp, s)
        assert cell_r == pytest.approx(areal / params.film_area_neg, rel=1e-12)

    def test_instantaneous_is_film_plus_kinetic(self, params, degp):
        s = DegradationState(4e-8, 1e-8, 6.3, 5.5, 0.03)
        x, y = 0.5, 0.5
        total = instantaneous_resistance(params, degp, s, x, y)
        assert total == pytest.approx(
            r_film(params, degp, s)[1]
            + kinetic_resistance(params, s.C_p, s.C_n, x, y), rel=1e-12)

    def test_kinetic_resistance_falls_with_current(self, params):
        r0 = kinetic_resistance(params, 6.7, 6.0, 0.5, 0.5, I=0.0)
        r5 = kinetic_resistance(params, 6.7, 6.0, 0.5, 0.5, I=5.0)
        assert 0.0 < r5 < r0

    def test_pulse_matches_closed_form(self, params, degp):
        # short C/10 pulse from rest vs the asinh-derivative formula, at
        # five points across the window. The formula takes c_ss at its
        # average, valid for the instantaneous jump; a fine radial mesh
        # keeps the half-shell surface offset out of the simulated jump.
        import dataclasses
        fine = dataclasses.replace(params, n_shells=100)
        cell = Cell(fine, degp)
        cell.freeze_degradation = True
        c1 = cell.esoh().C
        i_pulse = 0.1 * c1
        for soc in (0.1, 0.3, 0.5, 0.7, 0.9):
            cell.equilibrate_at(soc=soc)
            x, y = cell.mean_stoichiometry()
            v0 = cell.open_circuit_voltage()
            rec = cell.step(i_pulse, 0.01)
            r_pulse = (v0 - rec["V"]) / i_pulse
            r_pred = instantaneous_resistance(fine, degp, cell.degradation,
                                              x, y, I=i_pulse)
            assert r_pulse == pytest.approx(r_pred, rel=0.02)


class TestExpansion:
    def test_zero_at_pristine(self, params, degp):
        assert irreversible_expansion(degp.expansion, fresh_state(params),
                                      params) == 0.0

    def test_component_shapes(self, params, degp):
        e = degp.expansion
        s_sei = DegradationState(1e-8, 0.0, params.C_p_nom, params.C_n_nom, 0.0)
        assert irreversible_expansion(e, s_sei, params) == pytest.approx(
            e.b_sei * 1e-8, rel=1e-12)
        s_pl = DegradationState(0.0, 2e-8, params.C_p_nom, params.C_n_nom, 0.0)
        assert irreversible_expansion(e, s_pl, params) == pytest.approx(
            e.b_pl * 4e-16, rel=1e-12)

    def test_plating_term_is_quadratic(self, params, degp):
        e = degp.expansion
        one = irreversible_expansion(
            e, DegradationState(0.0, 1e-8, 6.7, 6.0, 0.0), params)
        two = irreversible_expansion(
            e, DegradationState(0.0, 2e-8, 6.7, 6.0, 0.0), params)
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_material_loss_term(self, params, degp):
        e = degp.expansion
        assert material_loss_expansion(e, params.C_p_nom, params.C_n_nom,
                                       params.C_p_nom, params.C_n_nom) == 0.0
        d = material_loss_expansion(e, 0.9 * params.C_p_nom, params.C_n_nom,
                                    params.C_p_nom, params.C_n_nom)
        assert d == pytest.approx(0.1 * e.b_in_pos, rel=1e-12)

    def test_monotone_in_each_channel(self, params, degp):
        e = degp.expansion
        base = DegradationState(1e-8, 1e-8, 6.5, 5.8, 0.01)
        d0 = irreversible_expansion(e, base, params)
        more_sei = DegradationState(2e-8, 1e-8, 6.5, 5.8, 0.01)
        more_pl = DegradationState(1e-8, 2e-8, 6.5, 5.8, 0.01)
        more_lam = DegradationState(1e-8, 1e-8, 6.2, 5.5, 0.01)
        for s in (more_sei, more_pl, more_lam):
            assert irreversible_expansion(e, s, params) > d0


def test_forward_measure_components(params, degp, n_li0):
    s = DegradationState(3e-8, 1e-8, 6.4, 5.6, 0.06)
    m = forward_measure(params, degp, s, n_li0)
    assert (m.C_p, m.C_n, m.LLI) == (s.C_p, s.C_n, s.LLI)
    assert m.R_s > r_film(params, degp, s)[1]
    assert m.delta_irr == pytest.approx(
        irreversible_expansion(degp.expansion, s, params), rel=1e-12)


class TestOperatingPointMemo:
    """film_free_resistance remembers the resistance at the operating point
    (the middle of the window) of the last vector asked for on its
    CellParameters; each test takes a replace() copy, which starts with an
    empty memo."""

    @staticmethod
    def at_midpoint(params, C_p, C_n, LLI, n_li0):
        w = solve_window(params, C_p, C_n, n_li0 * (1.0 - LLI))
        return kinetic_resistance(params, C_p, C_n, 0.5 * (w.x_0 + w.x_100),
                                  0.5 * (w.y_0 + w.y_100))

    def test_equals_window_midpoint(self, params, n_li0, monkeypatch):
        p = dataclasses.replace(params)
        args = (0.93 * p.C_p_nom, 0.91 * p.C_n_nom, 0.07, n_li0)
        want = self.at_midpoint(p, *args)
        calls = []
        for name in ("solve_window", "kinetic_resistance"):
            fn = getattr(measurement, name)
            monkeypatch.setattr(measurement, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        assert film_free_resistance(p, *args) == want   # solved
        assert film_free_resistance(p, *args) == want   # remembered
        assert calls == ["solve_window", "kinetic_resistance"]
        assert p.film_free_resistances == {args: want}

    def test_copy_with_another_window_gets_its_own_answer(self, params, n_li0):
        p = dataclasses.replace(params)
        args = (0.95 * p.C_p_nom, 0.95 * p.C_n_nom, 0.05, n_li0)
        first = film_free_resistance(p, *args)
        q = dataclasses.replace(p, V_max=p.V_max - 0.05)
        assert q.film_free_resistances == {}
        second = film_free_resistance(q, *args)
        assert second == self.at_midpoint(q, *args)
        assert second != first
        assert film_free_resistance(p, *args) == first

    def test_errors_are_not_remembered(self, params, n_li0, monkeypatch):
        p = dataclasses.replace(params)
        kept = (p.C_p_nom, p.C_n_nom, 0.05, n_li0)
        held = {kept: film_free_resistance(p, *kept)}
        calls = []
        monkeypatch.setattr(measurement, "solve_window",
                            lambda *a: calls.append(a) or solve_window(*a))
        for _ in range(3):
            with pytest.raises(CellDeadError):
                film_free_resistance(p, p.C_p_nom, p.C_n_nom, 0.99, n_li0)
        assert len(calls) == 3
        assert p.film_free_resistances == held

    def test_memo_is_bounded(self, params, n_li0):
        # it holds exactly the last arguments asked for
        p = dataclasses.replace(params)
        for i in range(3):
            args = (p.C_p_nom * (1.0 - 5e-4 * i), p.C_n_nom, 0.05, n_li0)
            got = film_free_resistance(p, *args)
            assert p.film_free_resistances == {args: got}


class TestESOH:
    def test_clean_round_trip_many_windows(self, params, n_li0, rng):
        for truth in sample_windows(params, n_li0, rng, 50):
            curve = synthesize_pseudo_ocv(params, truth)
            fit = extract_esoh(curve, params)
            assert fit.C_p == pytest.approx(truth.C_p, rel=0.01)
            assert fit.C_n == pytest.approx(truth.C_n, rel=0.01)
            assert fit.n_li == pytest.approx(truth.n_li, rel=0.01)

    def test_noisy_round_trip_many_windows(self, params, n_li0, rng):
        for truth in sample_windows(params, n_li0, rng, 50):
            curve = synthesize_pseudo_ocv(params, truth, noise_mv=1.0, rng=rng)
            fit = extract_esoh(curve, params)
            assert fit.C_p == pytest.approx(truth.C_p, rel=0.02)
            assert fit.C_n == pytest.approx(truth.C_n, rel=0.02)

    def test_window_fields_self_consistent(self, params, n_li0):
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        fit = extract_esoh(synthesize_pseudo_ocv(params, truth), params)
        assert fit.x_100 == pytest.approx(fit.x_0 + fit.C / fit.C_n, rel=1e-12)
        assert fit.y_100 == pytest.approx(fit.y_0 - fit.C / fit.C_p, rel=1e-12)
        assert fit.fit_rms_v < 1e-3

    def test_rejects_short_curve(self, params):
        with pytest.raises(ConfigError):
            extract_esoh(type("C", (), {"capacity_Ah": np.arange(4.0),
                                        "voltage": np.ones(4)})(), params)

    def test_rejects_partial_window(self, params, n_li0):
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        curve = synthesize_pseudo_ocv(params, truth)
        n = len(curve.capacity_Ah)
        clipped = type(curve)(curve.capacity_Ah[: n // 2],
                              curve.voltage[: n // 2])
        with pytest.raises(ConfigError):
            extract_esoh(clipped, params)

    def test_rejects_zero_span(self, params, n_li0):
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        curve = synthesize_pseudo_ocv(params, truth)
        with pytest.raises(ConfigError):
            extract_esoh(curve, params, capacity=0.0)

    @pytest.mark.parametrize("capacity", [math.inf, -math.inf])
    def test_rejects_infinite_capacity(self, params, n_li0, capacity):
        # inf passed the positive-capacity check and ended in scipy's
        # bare ValueError on non-finite residuals
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        curve = synthesize_pseudo_ocv(params, truth)
        with pytest.raises(ConfigError, match="finite"):
            extract_esoh(curve, params, capacity=capacity)

    @pytest.mark.parametrize("column", ["capacity_Ah", "voltage"])
    def test_rejects_nan(self, params, n_li0, column):
        # NaN compares False with everything, so it would pass the span
        # check and reach the solver
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        curve = synthesize_pseudo_ocv(params, truth)
        getattr(curve, column)[100] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            extract_esoh(curve, params)


class TestESOHJacobian:
    """extract_esoh hands lmder the exact Jacobian of its residual; both
    are captured through the module's _minpack seam, and a stand-in fits
    them with scipy's least_squares."""

    @staticmethod
    def fit_problem(params, n_li0, monkeypatch):
        seen = {}

        def capture(fun, Dfun, *args):
            seen.update(fun=fun, jac=Dfun)
            return least_squares_lm(fun, Dfun, *args)

        use_lmder(monkeypatch, capture)
        truth = solve_window(params, 0.93 * params.C_p_nom,
                             0.9 * params.C_n_nom, 0.92 * n_li0)
        curve = synthesize_pseudo_ocv(params, truth, noise_mv=1.0,
                                      rng=np.random.default_rng(5))
        fit = extract_esoh(curve, params)
        return seen["fun"], seen["jac"], fit

    @staticmethod
    def central_differences(fun, theta, rel=1e-6):
        cols = []
        for j in range(len(theta)):
            h = rel * abs(theta[j])
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            cols.append((fun(up) - fun(down)) / (2.0 * h))
        return np.column_stack(cols)

    @staticmethod
    def draws(params, fit, rng, count, shrink=None):
        """Seeded theta within 2 % of the fit, with the capacity in column
        shrink (if any) cut to 0.6-0.8 of the window capacity. Draws that
        put a curve point or window end within 1e-4 of a table end are
        redrawn: central differences must not straddle a clip kink."""
        q = np.linspace(0.0, fit.C, 241)
        dq = np.append(fit.C - q, (0.0, fit.C))
        tn, tp = params.ocp_neg, params.ocp_pos
        out = []
        while len(out) < count:
            theta = np.array([fit.C_p, fit.C_n, fit.x_0, fit.y_0])
            theta *= 1.0 + rng.uniform(-0.02, 0.02, 4)
            if shrink is not None:
                theta[shrink] = fit.C * rng.uniform(0.6, 0.8)
            C_p, C_n, x_0, y_0 = theta
            x, y = x_0 + dq / C_n, y_0 - dq / C_p
            margin = min(np.abs(x - tn.s_min).min(), np.abs(x - tn.s_max).min(),
                         np.abs(y - tp.s_min).min(), np.abs(y - tp.s_max).min())
            if margin > 1e-4:
                out.append(theta)
        return out

    def check(self, fun, jac, theta):
        J = jac(theta)
        fd = self.central_differences(fun, theta)
        assert J.shape == fd.shape == (241 + 4, 4)
        for j in range(4):
            scale = np.abs(fd[:, j]).max()
            assert np.abs(J[:, j] - fd[:, j]).max() <= 1e-6 * scale, j
        return J

    def test_interior_theta(self, params, n_li0, monkeypatch):
        fun, jac, fit = self.fit_problem(params, n_li0, monkeypatch)
        for theta in self.draws(params, fit, np.random.default_rng(11), 5):
            J = self.check(fun, jac, theta)
            assert not J[-2:].any()   # nothing off-table, no penalty

    @pytest.mark.parametrize("electrode", ["neg", "pos"])
    def test_theta_off_each_table(self, params, n_li0, monkeypatch, electrode):
        # a small electrode capacity stretches its stoichiometry range past
        # the table: x over the top of the negative, y under the bottom of
        # the positive
        fun, jac, fit = self.fit_problem(params, n_li0, monkeypatch)
        col, row = (1, -2) if electrode == "neg" else (0, -1)
        for theta in self.draws(params, fit, np.random.default_rng(12), 5,
                                shrink=col):
            J = self.check(fun, jac, theta)
            # that electrode's penalty row only
            assert J[row].any() and not J[-3 - row].any()
            # clipped curve points do not move with its capacity
            assert (J[:-2, col] == 0.0).any()

    @pytest.mark.parametrize("electrode", ["neg", "pos"])
    def test_window_end_off_table_is_penalized(self, params, n_li0,
                                               monkeypatch, electrode):
        # an RPT curve stops short of the window ends, which the fit places
        # from the measured capacity; with theta unbounded, only the
        # penalty rows keep x_0 and y_0 on their tables
        seen = {}

        def capture(fun, Dfun, *args):
            seen.update(fun=fun, jac=Dfun)
            return least_squares_lm(fun, Dfun, *args)

        use_lmder(monkeypatch, capture)
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        full = synthesize_pseudo_ocv(params, truth)
        curve = type(full)(full.capacity_Ah[3:-3], full.voltage[3:-3])
        fit = extract_esoh(curve, params, capacity=truth.C)
        # 0.5 % of the window past the table end: every curve point, over
        # 1 % inside the window, stays on-table
        theta = np.array([fit.C_p, fit.C_n, fit.x_0, fit.y_0])
        if electrode == "neg":
            col, row, past = 2, -2, -0.005 * fit.C / fit.C_n
            theta[col] = params.ocp_neg.s_min + past
        else:
            col, row, past = 3, -1, 0.005 * fit.C / fit.C_p
            theta[col] = params.ocp_pos.s_max + past
        assert seen["fun"](theta)[row] == pytest.approx(1e3 * abs(past),
                                                        rel=1e-9)
        J = seen["jac"](theta)
        assert J[row, col] == 1e3 * np.sign(past)
        assert not J[-3 - row].any()

    def test_fit_agrees_with_finite_differences(self, params, n_li0, rng,
                                                monkeypatch):
        # the same residual fitted with scipy's 2-point Jacobian: the
        # exact one changes the iterates, not the answer
        def two_point(*args):
            return least_squares_lm(*args, jac="2-point")

        curves = [synthesize_pseudo_ocv(params, w, noise_mv=noise, rng=rng)
                  for noise in (0.0, 1.0)
                  for w in sample_windows(params, n_li0, rng, 15)]
        exact = [extract_esoh(c, params) for c in curves]
        use_lmder(monkeypatch, two_point)
        for curve, a in zip(curves, exact):
            b = extract_esoh(curve, params)
            for k in ("C_p", "C_n", "x_0", "y_0"):
                assert getattr(a, k) == pytest.approx(getattr(b, k), rel=1e-6)
            # clean curves fit to rounding noise (~1e-16 V), where relative
            # agreement means nothing; 1 pV is far below the 1 mV fits
            assert a.fit_rms_v == pytest.approx(b.fit_rms_v, rel=1e-6,
                                                abs=1e-12)


class TestESOHSolver:
    """extract_esoh solves with MINPACK's Levenberg-Marquardt; the bounded
    trust-region fit it replaced is the reference."""

    def test_agrees_with_bounded_trf(self, params, degp, n_li0, rng,
                                     monkeypatch):
        fits = [(synthesize_pseudo_ocv(params, w, noise_mv=noise, rng=rng), None)
                for noise in (0.0, 1.0)
                for w in sample_windows(params, n_li0, rng, 15)]
        # the production caller: a curve taken under load, fitted with the
        # measured capacity
        rpt = run_rpt(Cell(params, degp), dt=30.0)
        fits.append((rpt["pseudo_ocv"], rpt["capacity_Ah"]))
        lm = [extract_esoh(curve, params, capacity=c) for curve, c in fits]
        for (curve, c), a in zip(fits, lm):
            q = curve.capacity_Ah
            use_lmder(monkeypatch, bounded_trf(
                params, c if c is not None else q[-1] - q[0]))
            b = extract_esoh(curve, params, capacity=c)
            for k in ("C_p", "C_n", "x_0", "y_0"):
                assert getattr(a, k) == pytest.approx(getattr(b, k), rel=1e-6)
            # clean curves fit to rounding noise, where only an absolute
            # floor means anything
            assert a.fit_rms_v == pytest.approx(b.fit_rms_v, rel=1e-6,
                                                abs=1e-12)

    @pytest.mark.parametrize("field", ["x", "fun"])
    def test_non_finite_answer_is_a_failed_fit(self, params, degp, n_li0,
                                               monkeypatch, field):
        # NaN fails every comparison: "rms > 0.05" would accept a NaN
        # misfit, and a NaN answer has no misfit check of its own
        def diverged(*args):
            x, info, ier = least_squares_lm(*args)
            if field == "x":
                x = np.full_like(x, np.nan)
            else:
                info["fvec"] = np.full_like(info["fvec"], np.nan)
            return x, info, ier

        use_lmder(monkeypatch, diverged)
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        with pytest.raises(EstimationFailedError):
            extract_esoh(synthesize_pseudo_ocv(params, truth), params)
        rpt = run_rpt(Cell(params, degp), dt=30.0)
        assert rpt["esoh"] is None
        assert "did not converge" in rpt["esoh_error"]

    def test_failed_fit_names_minpack_info(self, params, degp, n_li0,
                                           monkeypatch):
        # a failed fit says why in MINPACK's own terms, and run_rpt keeps
        # that text as the RPT's esoh_error
        def capped(*args):   # lmder's tenth argument is maxfev
            return MINPACK._lmder(*args[:9], 3, *args[10:])

        use_lmder(monkeypatch, capped)
        truth = solve_window(params, 0.93 * params.C_p_nom,
                             0.88 * params.C_n_nom, 0.92 * n_li0)
        reason = "MINPACK info 5: residual evaluations reached maxfev)"
        with pytest.raises(EstimationFailedError, match=re.escape(reason)):
            extract_esoh(synthesize_pseudo_ocv(params, truth), params)
        rpt = run_rpt(Cell(params, degp), dt=30.0)
        assert rpt["esoh"] is None
        assert reason in rpt["esoh_error"]


class TestESOHOracle:
    """extract_esoh reproduces the fit it made on scipy's least_squares
    (tests/helpers.esoh_least_squares_oracle) to the bit: the same MINPACK
    call sees the same residuals and Jacobians, however often each is
    asked for."""

    FIELDS = ("C", "C_p", "C_n", "x_0", "x_100", "y_0", "y_100", "n_li",
              "fit_rms_v")

    def outcome(self, fit, curve, params, capacity):
        """The fitted record's fields as float.hex, a rejection's message,
        or a failed fit (whose message names the solver's own code)."""
        try:
            r = fit(curve, params, capacity=capacity)
        except ConfigError as e:
            return "ConfigError", str(e)
        except EstimationFailedError:
            return "EstimationFailedError"
        return tuple(float.hex(getattr(r, k)) for k in self.FIELDS)

    def test_fits_equal_the_oracle_bitwise(self, params, degp, n_li0, rng):
        cases = []
        for noise in (0.0, 0.5, 2.0):
            for w in sample_windows(params, n_li0, rng, 12):
                c = synthesize_pseudo_ocv(params, w, noise_mv=noise, rng=rng)
                # a sweep that stops short of the window ends, fitted with
                # the window's capacity
                trimmed = type(c)(c.capacity_Ah[3:-3], c.voltage[3:-3])
                cases += [(c, None), (trimmed, w.C)]
        rpt = run_rpt(Cell(params, degp), dt=30.0)
        cases.append((rpt["pseudo_ocv"], rpt["capacity_Ah"]))
        fitted = 0
        for curve, capacity in cases:
            want = self.outcome(esoh_least_squares_oracle, curve, params,
                                capacity)
            assert self.outcome(extract_esoh, curve, params, capacity) == want
            fitted += isinstance(want, tuple) and len(want) == len(self.FIELDS)
        # most cases fit; trimmed curves that miss a knee are rejected
        assert fitted >= 0.7 * len(cases)

    def test_oracle_failures_fail_here(self, params, rng):
        # random monotone curves across the window: no electrode pair fits
        fails = 0
        for _ in range(6):
            q = np.sort(rng.uniform(0.0, 4.5, 60))
            q[0] = 0.0
            v = np.sort(rng.uniform(params.V_min - 0.05, params.V_max + 0.05,
                                    60))[::-1]
            curve = measurement.PseudoOCV(q, v)
            want = self.outcome(esoh_least_squares_oracle, curve, params, None)
            assert self.outcome(extract_esoh, curve, params, None) == want
            fails += want == "EstimationFailedError"
        assert fails >= 4


class TestMinpackCall:
    """extract_esoh calls MINPACK's lmder itself, through scipy's private
    extension scipy.optimize._minpack; scipy.optimize.leastsq on the same
    problem is the oracle, to the bit. A scipy release that changes
    _lmder's signature or its outputs fails here."""

    FIELDS = TestESOHOracle.FIELDS

    @staticmethod
    def fit(monkeypatch, solver, curve, params, capacity, maxfev=None):
        """extract_esoh's outcome (its record's fields as float.hex,
        or its error's text) and what solver returned to it."""
        got = []

        def call(*args):
            if maxfev is not None:   # lmder's tenth argument
                args = (*args[:9], maxfev, *args[10:])
            got.append(solver(*args))
            return got[-1]

        use_lmder(monkeypatch, call)
        try:
            r = extract_esoh(curve, params, capacity=capacity)
            outcome = tuple(float.hex(getattr(r, k))
                            for k in TestMinpackCall.FIELDS)
        except EstimationFailedError as e:
            outcome = str(e)
        (answer,) = got
        x, info, ier = answer
        return outcome, (x.tobytes(), info["fvec"].tobytes(), info["nfev"],
                         info["njev"], ier)

    def cases(self, params, degp, n_li0, rng):
        cases = [(synthesize_pseudo_ocv(params, w, noise_mv=noise, rng=rng),
                  None)
                 for noise in (0.0, 0.5)
                 for w in sample_windows(params, n_li0, rng, 8)]
        rpt = run_rpt(Cell(params, degp), dt=30.0)
        cases.append((rpt["pseudo_ocv"], rpt["capacity_Ah"]))
        return cases

    def test_fits_equal_scipy_leastsq_bitwise(self, params, degp, n_li0, rng,
                                              monkeypatch):
        for curve, capacity in self.cases(params, degp, n_li0, rng):
            ours = self.fit(monkeypatch, MINPACK._lmder, curve, params,
                            capacity)
            want = self.fit(monkeypatch, scipy_leastsq, curve, params,
                            capacity)
            assert ours == want
            assert 1 <= ours[1][4] <= 4 and isinstance(ours[0], tuple)

    def test_capped_fit_equals_scipy_leastsq(self, params, degp, n_li0, rng,
                                             monkeypatch):
        for curve, capacity in self.cases(params, degp, n_li0, rng)[::4]:
            ours = self.fit(monkeypatch, MINPACK._lmder, curve, params,
                            capacity, maxfev=3)
            want = self.fit(monkeypatch, scipy_leastsq, curve, params,
                            capacity, maxfev=3)
            assert ours == want
            assert ours[1][4] == 5
            assert ours[0].endswith("MINPACK info 5: residual evaluations "
                                    "reached maxfev)")

    @staticmethod
    def forced(code):
        """The extension's lmder, run to its end, reporting info code."""
        lmder = MINPACK._lmder

        def forced(*args):
            x, info, _ = lmder(*args)
            return x, info, code
        return forced

    @pytest.mark.parametrize("code", range(9))
    def test_each_info_code_reads_as_leastsq_says_it(self, params, n_li0,
                                                     monkeypatch, code):
        # each MINPACK info code, the rarer ones forced on a real fit
        # through the one _minpack module both callers share, reaches the
        # fit as leastsq reports it, with the same answer
        from scipy.optimize import _minpack_py
        assert _minpack_py._minpack is MINPACK
        monkeypatch.setattr(MINPACK, "_lmder", self.forced(code))
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        curve = synthesize_pseudo_ocv(params, truth)
        ours = self.fit(monkeypatch, MINPACK._lmder, curve, params, None)
        want = self.fit(monkeypatch, scipy_leastsq, curve, params, None)
        assert ours == want
        assert ours[1][4] == code

    @pytest.mark.parametrize("code, phrase", [
        (0, "improper input parameters"),
        (5, "residual evaluations reached maxfev"),
        (6, "ftol too small, no further reduction in the sum of squares"),
        (7, "xtol too small, no further improvement in the solution"),
        (8, "gtol too small, residual orthogonal to the Jacobian's columns"),
    ])
    def test_a_failed_fit_names_its_info_code(self, params, degp, n_li0,
                                              monkeypatch, code, phrase):
        # a code that stops the fit short of convergence fails it, even on
        # a converged answer, with the code and what it means; run_rpt
        # keeps that text as the RPT's esoh_error
        use_lmder(monkeypatch, self.forced(code))
        truth = solve_window(params, params.C_p_nom, params.C_n_nom, n_li0)
        reason = f"MINPACK info {code}: {phrase})"
        with pytest.raises(EstimationFailedError, match=re.escape(reason)):
            extract_esoh(synthesize_pseudo_ocv(params, truth), params)
        rpt = run_rpt(Cell(params, degp), dt=30.0)
        assert rpt["esoh"] is None
        assert rpt["esoh_error"].endswith(reason)
