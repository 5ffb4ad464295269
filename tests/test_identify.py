"""Measurement inversion: the family, the unique root, RUL prediction."""

import dataclasses
import math

import numpy as np
import pytest

from cellfade.cell import Cell
from cellfade.degradation import (DegradationState, plated_lithium_moles,
                                  sei_lithium_moles)
from cellfade.electrochem import solve_window
from cellfade.errors import (AmbiguousRootsError, CellDeadError, ConfigError,
                             InfeasibleError)
from cellfade.identify import (
    VERIFY_TOL,
    ambiguity_experiment,
    invert_with_expansion,
    invert_without_expansion,
    predict_rul,
    sample_family,
)
from cellfade.measurement import (MeasurementVector, forward_measure,
                                  instantaneous_resistance)
from cellfade.protocol import (Campaign, ProtocolStep, Termination,
                               reference_capacity, run_campaign, run_step)
from helpers import demo_members, random_truths


@pytest.fixture(scope="module")
def truth(params):
    # film lithium fits its own LLI budget, as any simulated state's does,
    # but the budget cannot absorb the family's all-SEI endpoint
    return DegradationState(1e-7, 2e-8, 0.95 * params.C_p_nom,
                            0.95 * params.C_n_nom, 0.09)


@pytest.fixture(scope="module")
def y_full(params, degp, truth, n_li0):
    return forward_measure(params, degp, truth, n_li0)


@pytest.fixture(scope="module")
def y_no_exp(y_full):
    return MeasurementVector(y_full.C_p, y_full.C_n, y_full.LLI, y_full.R_s)


def short_campaign(params, cycles=3):
    c1 = reference_capacity(params)
    steps = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)]),
        ProtocolStep("cc", -c1 / 2.0, [Termination("voltage", ">=", 4.2)]),
        ProtocolStep("cv", 4.2, [Termination("current", "abs<=", c1 / 20.0)]),
    ]
    return Campaign(steps, eol_capacity_fraction=0.05, max_cycles=cycles)


class TestFamily:
    def test_unclipped_endpoints_are_pure_films(self, params, degp, y_no_exp,
                                                n_li0):
        fam = invert_without_expansion(params, degp, y_no_exp, n_li0,
                                       lli_budget=False)
        assert fam.kind == "family"
        (a_sei, a_pl), (b_sei, b_pl) = fam.family_endpoints
        r = fam.r_film_areal
        assert (a_sei, a_pl) == pytest.approx(
            (degp.sei.kappa_sei * r, 0.0), abs=1e-18)
        assert (b_sei, b_pl) == pytest.approx(
            (0.0, degp.plating.kappa_pl * r), abs=1e-18)
        assert fam.family_span == (0.0, 1.0)

    def test_every_sample_reproduces_the_vector(self, params, degp, y_no_exp,
                                                n_li0):
        fam = invert_without_expansion(params, degp, y_no_exp, n_li0)
        for s in sample_family(fam, y_no_exp, 7):
            m = forward_measure(params, degp, s, n_li0)
            assert m.C_p == y_no_exp.C_p and m.C_n == y_no_exp.C_n
            assert m.LLI == y_no_exp.LLI
            assert m.R_s == pytest.approx(y_no_exp.R_s, rel=1e-3)

    def test_samples_have_distinct_expansion(self, params, degp, y_no_exp,
                                             n_li0):
        fam = invert_without_expansion(params, degp, y_no_exp, n_li0)
        exps = [forward_measure(params, degp, s, n_li0).delta_irr
                for s in sample_family(fam, y_no_exp, 3)]
        assert len(set(exps)) == 3

    def test_budget_clips_the_sei_heavy_end(self, params, degp, y_no_exp,
                                            truth, n_li0):
        # the all-SEI endpoint of this vector locks up more lithium than
        # LLI admits, the all-plating endpoint less
        fam = invert_without_expansion(params, degp, y_no_exp, n_li0)
        s_lo, s_hi = fam.family_span
        assert 0.0 < s_lo < 1.0 and s_hi == 1.0
        budget = y_no_exp.LLI * n_li0
        (d_sei, d_pl), _ = fam.family_endpoints
        locked = (sei_lithium_moles(params, degp.sei, d_sei)
                  + plated_lithium_moles(params, degp.plating, d_pl))
        assert locked == pytest.approx(budget, rel=1e-6)
        # the true state sits inside the kept segment
        assert truth.delta_sei <= d_sei

    def test_degenerate_family_is_the_origin(self, params, degp, n_li0):
        clean = DegradationState(0.0, 0.0, params.C_p_nom, params.C_n_nom, 0.0)
        m = forward_measure(params, degp, clean, n_li0)
        y = MeasurementVector(m.C_p, m.C_n, m.LLI, m.R_s)
        fam = invert_without_expansion(params, degp, y, n_li0)
        assert fam.r_film_areal == 0.0
        assert fam.family_endpoints == ((0.0, 0.0), (0.0, 0.0))

    def test_r_s_below_kinetic_floor_infeasible(self, params, degp, y_no_exp,
                                                n_li0):
        bad = MeasurementVector(y_no_exp.C_p, y_no_exp.C_n, y_no_exp.LLI,
                                1e-4)
        with pytest.raises(InfeasibleError):
            invert_without_expansion(params, degp, bad, n_li0)

    def test_budget_everywhere_exceeded_infeasible(self, params, degp,
                                                   y_no_exp, n_li0):
        # huge film resistance with near-zero LLI cannot be reconciled
        bad = MeasurementVector(y_no_exp.C_p, y_no_exp.C_n, 1e-6,
                                y_no_exp.R_s + 0.05)
        with pytest.raises(InfeasibleError):
            invert_without_expansion(params, degp, bad, n_li0)

    def test_sample_family_endpoint_without_plating(self, params, degp,
                                                    n_li0):
        # the all-SEI endpoint (a_sei, 0) of an unclipped family, where
        # sqrt(a_sei)**2 lands an ulp above a_sei: the first member must
        # keep a zero plated film rather than a -1e-31 m one
        for d_sei in np.linspace(5e-8, 2.5e-7, 60):
            st = DegradationState(d_sei, 1e-8, 0.95 * params.C_p_nom,
                                  0.95 * params.C_n_nom, 0.09)
            m = forward_measure(params, degp, st, n_li0)
            y = MeasurementVector(m.C_p, m.C_n, m.LLI, m.R_s)
            fam = invert_without_expansion(params, degp, y, n_li0,
                                           lli_budget=False)
            (a_sei, a_pl), _ = fam.family_endpoints
            if math.sqrt(a_sei) ** 2 > a_sei:
                break
        else:
            pytest.fail("no family endpoint with sqrt(a)**2 > a in the sweep")
        assert a_pl == 0.0
        members = sample_family(fam, y, 5)
        assert members[0].delta_pl == 0.0
        assert all(mb.delta_pl >= 0.0 for mb in members)
        pl = [mb.delta_pl for mb in members]
        assert pl == sorted(pl)

    def test_sample_family_arguments(self, params, degp, y_no_exp, n_li0):
        fam = invert_without_expansion(params, degp, y_no_exp, n_li0)
        assert len(sample_family(fam, y_no_exp, 1)) == 1
        with pytest.raises(ConfigError):
            sample_family(fam, y_no_exp, 0)


class TestUniqueInversion:
    def test_round_trip_exact_state(self, params, degp, truth, y_full, n_li0):
        res = invert_with_expansion(params, degp, y_full, n_li0)
        assert res.kind == "unique"
        assert res.solution.delta_sei == pytest.approx(truth.delta_sei,
                                                       rel=1e-3)
        assert res.solution.delta_pl == pytest.approx(truth.delta_pl,
                                                      rel=1e-3)
        assert res.residual["ok"]

    def test_solution_lies_on_the_family(self, params, degp, y_full, n_li0):
        res = invert_with_expansion(params, degp, y_full, n_li0)
        fam = invert_without_expansion(
            params, degp,
            MeasurementVector(y_full.C_p, y_full.C_n, y_full.LLI, y_full.R_s),
            n_li0, lli_budget=False)
        sol = res.solution
        on_line = (sol.delta_sei / degp.sei.kappa_sei
                   + sol.delta_pl / degp.plating.kappa_pl)
        assert on_line == pytest.approx(fam.r_film_areal, rel=1e-9)

    def test_requires_expansion_channel(self, params, degp, y_no_exp, n_li0):
        with pytest.raises(ConfigError):
            invert_with_expansion(params, degp, y_no_exp, n_li0)

    def test_zero_film_zero_expansion(self, params, degp, n_li0):
        clean = DegradationState(0.0, 0.0, 6.5, 5.7, 0.0)
        m = forward_measure(params, degp, clean, n_li0)
        res = invert_with_expansion(params, degp, m, n_li0)
        assert res.solution.delta_sei == 0.0
        assert res.solution.delta_pl == 0.0

    def test_expansion_below_material_floor_infeasible(self, params, degp,
                                                       y_full, n_li0):
        bad = MeasurementVector(y_full.C_p, y_full.C_n, y_full.LLI,
                                y_full.R_s, delta_irr=y_full.delta_irr * 1e-3)
        with pytest.raises(InfeasibleError):
            invert_with_expansion(params, degp, bad, n_li0)

    def test_two_admissible_roots_surface_as_ambiguity(self, params, degp,
                                                       n_li0):
        # two states built to share R_film and expansion exactly: the
        # quadratic's root sum is fixed at b_sei*k_s/(k_p*b_pl), so pick
        # the roots symmetric about half of it and a family wide enough
        # to hold both
        e, sei, pl = degp.expansion, degp.sei, degp.plating
        root_sum = e.b_sei * sei.kappa_sei / (pl.kappa_pl * e.b_pl)
        d_pl_a = 0.25 * root_sum
        d_pl_b = 0.75 * root_sum
        r_areal = 2.0 * root_sum / pl.kappa_pl
        mk = lambda d_pl: DegradationState(
            sei.kappa_sei * (r_areal - d_pl / pl.kappa_pl), d_pl,
            params.C_p_nom, params.C_n_nom, 0.1)
        sa, sb = mk(d_pl_a), mk(d_pl_b)
        ma = forward_measure(params, degp, sa, n_li0)
        mb = forward_measure(params, degp, sb, n_li0)
        assert ma.R_s == pytest.approx(mb.R_s, rel=1e-12)
        assert ma.delta_irr == pytest.approx(mb.delta_irr, rel=1e-12)
        with pytest.raises(AmbiguousRootsError) as exc:
            invert_with_expansion(params, degp, ma, n_li0, lli_budget=False)
        cand_pl = sorted(c.delta_pl for c in exc.value.candidates)
        assert cand_pl[0] == pytest.approx(d_pl_a, rel=1e-6)
        assert cand_pl[1] == pytest.approx(d_pl_b, rel=1e-6)


def test_round_trip_100_random_states(params, degp, n_li0, rng):
    truths = random_truths(params, degp, n_li0, rng, 100)
    false_infeasible = 0
    for st in truths:
        y = forward_measure(params, degp, st, n_li0)
        try:
            res = invert_with_expansion(params, degp, y, n_li0)
        except InfeasibleError:
            false_infeasible += 1
            continue
        for attr in ("delta_sei", "delta_pl", "C_p", "C_n", "LLI"):
            got, want = getattr(res.solution, attr), getattr(st, attr)
            assert got == pytest.approx(want, rel=5e-3, abs=1e-12), attr
    assert false_infeasible == 0


def test_invariants_on_perturbed_parameters(params, degp, n_li0):
    # the round trip and the family's shared measurement hold off the
    # default cell too: voltage limits shifted by up to 50 mV, kinetics,
    # film conductivities and expansion coefficients scaled by 0.5-2x.
    # Each state is measured under five fresh parameter copies, so a
    # window remembered across copies would show in the direct R_s check.
    rng = np.random.default_rng(2019)
    rep = dataclasses.replace

    def scaled(v):
        return v * 2.0 ** rng.uniform(-1.0, 1.0)

    tried = dead = 0
    for st in random_truths(params, degp, n_li0, rng, 8):
        for _ in range(5):
            p = rep(params,
                    V_min=params.V_min + rng.uniform(-0.05, 0.05),
                    V_max=params.V_max + rng.uniform(-0.05, 0.05),
                    k0_pos=scaled(params.k0_pos), k0_neg=scaled(params.k0_neg))
            ex = degp.expansion
            d = rep(degp,
                    sei=rep(degp.sei, kappa_sei=scaled(degp.sei.kappa_sei)),
                    plating=rep(degp.plating,
                                kappa_pl=scaled(degp.plating.kappa_pl)),
                    expansion=rep(ex, b_sei=scaled(ex.b_sei),
                                  b_pl=scaled(ex.b_pl)))
            tried += 1
            try:
                y = forward_measure(p, d, st, n_li0)
            except CellDeadError:
                dead += 1   # the shifted window has no solution here
                continue
            w = solve_window(p, st.C_p, st.C_n, n_li0 * (1.0 - st.LLI))
            assert y.R_s == instantaneous_resistance(
                p, d, st, 0.5 * (w.x_0 + w.x_100), 0.5 * (w.y_0 + w.y_100))
            res = invert_with_expansion(p, d, y, n_li0)
            assert res.residual["ok"]
            for attr in ("delta_sei", "delta_pl"):
                assert getattr(res.solution, attr) == pytest.approx(
                    getattr(st, attr), rel=1e-9, abs=1e-18), attr
            fam = invert_without_expansion(p, d, y, n_li0)
            for member in sample_family(fam, y, 4):
                m = forward_measure(p, d, member, n_li0)
                assert abs(m.R_s - y.R_s) <= VERIFY_TOL * y.R_s
    assert tried == 40 and dead <= 10


def test_sensitivity_to_measurement_noise(params, degp, n_li0, rng):
    # 1% multiplicative noise on R_s and delta_irr; identified film
    # thicknesses stay within 15% on states with a resolvable film
    truths = [st for st in random_truths(params, degp, n_li0, rng, 160)
              if st.delta_sei > 5e-8 and st.delta_pl > 1e-8][:100]
    assert len(truths) >= 50
    for st in truths:
        y = forward_measure(params, degp, st, n_li0)
        noisy = MeasurementVector(
            y.C_p, y.C_n, y.LLI,
            y.R_s * rng.uniform(0.99, 1.01),
            delta_irr=y.delta_irr * rng.uniform(0.99, 1.01))
        try:
            res = invert_with_expansion(params, degp, noisy, n_li0)
        except (InfeasibleError, AmbiguousRootsError):
            pytest.fail("noise at the 1% level broke feasibility")
        assert res.solution.delta_sei == pytest.approx(st.delta_sei, rel=0.15)
        assert res.solution.delta_pl == pytest.approx(st.delta_pl, rel=0.15)


class TestPredictRUL:
    def test_already_past_threshold(self, params, degp, n_li0):
        tired = DegradationState(2e-7, 5e-8, 0.9 * params.C_p_nom,
                                 0.9 * params.C_n_nom, 0.22)
        camp = short_campaign(params)
        camp = Campaign(camp.cycle_protocol, eol_capacity_fraction=0.95,
                        max_cycles=3)
        assert predict_rul(params, degp, tired, camp, n_li0=n_li0,
                           dt=30.0) == 0

    def test_matches_direct_campaign(self, params, degp, n_li0):
        st = DegradationState(5e-8, 1e-8, 0.97 * params.C_p_nom,
                              0.97 * params.C_n_nom, 0.05)
        camp = short_campaign(params, cycles=3)
        rul = predict_rul(params, degp, st, camp, n_li0=n_li0, dt=30.0,
                          dt_rest=150.0)
        cell = Cell(params, degp, degradation=st.copy(), n_li0=n_li0)
        _, rul_direct, _ = run_campaign(cell, camp, dt=30.0, dt_rest=150.0)
        assert rul == rul_direct


class TestAmbiguityExperiment:
    def test_report_structure_single_member(self, params, degp, y_no_exp,
                                            n_li0):
        rep = ambiguity_experiment(params, degp, y_no_exp,
                                   short_campaign(params), n_members=1,
                                   n_li0=n_li0, dt=30.0, dt_rest=150.0)
        assert rep["n_members"] == 1
        assert len(rep["members"]) == 1
        assert "rul_spread_rel" not in rep
        assert rep["expansion_distinct"] is True
        m = rep["members"][0]
        for key in ("delta_sei_m", "delta_pl_m", "R_s_ohm", "delta_irr_m",
                    "rul_cycles", "eol_reached", "capacity_curve"):
            assert key in m

    def test_premise_holds_across_members(self, params, degp, y_no_exp,
                                          n_li0):
        rep = ambiguity_experiment(params, degp, y_no_exp,
                                   short_campaign(params, cycles=2),
                                   n_members=3, n_li0=n_li0,
                                   dt=30.0, dt_rest=150.0)
        assert rep["rs_spread_rel"] < 0.005
        assert rep["expansion_distinct"] is True
        pls = [m["delta_pl_m"] for m in rep["members"]]
        seis = [m["delta_sei_m"] for m in rep["members"]]
        assert pls == sorted(pls)
        assert seis == sorted(seis, reverse=True)

    def test_rejects_zero_members(self, params, degp, y_no_exp, n_li0):
        with pytest.raises(ConfigError):
            ambiguity_experiment(params, degp, y_no_exp,
                                 short_campaign(params), n_members=0,
                                 n_li0=n_li0)


def test_inverted_states_age_on_python_floats(params, degp, y_full, n_li0):
    # a numpy scalar in a state or a step record slows every later step
    c1 = reference_capacity(params)
    protocol = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.6),
                                      Termination("time", ">=", 1200.0)]),
        ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)]),
        ProtocolStep("cv", 4.0, [Termination("current", "abs<=", c1 / 20.0),
                                 Termination("time", ">=", 600.0)]),
    ]
    unique = invert_with_expansion(params, degp, y_full, n_li0).solution
    for state in demo_members(params, degp, n_li0) + [unique]:
        cell = Cell(params, degp, degradation=state, n_li0=np.float64(n_li0))
        records = []
        commit = cell.step

        def recording(I, dt, commit=commit):
            records.append(commit(I, dt))
            return records[-1]

        cell.step = recording
        for step in protocol:
            run_step(cell, step, dt=60.0, dt_rest=300.0)
        assert records
        values = [getattr(cell.degradation, f.name)
                  for f in dataclasses.fields(cell.degradation)]
        values += [v for rec in records for v in rec.values()]
        values += [cell.n_li0, cell.lam_lithium]
        assert all(type(v) is float for v in values), {
            type(v).__name__ for v in values}


def test_cell_from_state_books_loss_outside_films(params, degp, y_full,
                                                  n_li0):
    # a state's LLI not held in its films was trapped by material loss, so
    # the lithium books close from construction on, with no hand booking
    c1 = reference_capacity(params)
    protocol = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.6),
                                      Termination("time", ">=", 1200.0)]),
        ProtocolStep("cv", 4.0, [Termination("current", "abs<=", c1 / 20.0),
                                 Termination("time", ">=", 600.0)]),
        ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)]),
    ]

    def total(cell):
        d = cell.degradation
        return (cell.particle_lithium() + cell.lam_lithium
                + sei_lithium_moles(params, degp.sei, d.delta_sei)
                + plated_lithium_moles(params, degp.plating, d.delta_pl))

    unique = invert_with_expansion(params, degp, y_full, n_li0).solution
    for state in demo_members(params, degp, n_li0) + [unique]:
        cell = Cell(params, degp, degradation=state, n_li0=n_li0)
        assert type(cell.lam_lithium) is float and cell.lam_lithium > 0.0
        assert total(cell) == pytest.approx(n_li0, rel=1e-10)
        for step in protocol:
            run_step(cell, step, dt=60.0, dt_rest=300.0)
        cell.apply_cycle_fatigue()
        assert total(cell) == pytest.approx(n_li0, rel=1e-10)
    assert Cell(params, degp).lam_lithium == 0.0
