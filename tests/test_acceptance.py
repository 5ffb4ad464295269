"""The eight headline behaviors, each at its stated tolerance.

Every test prints one PASS line with the measured numbers; a failure
shows the same line's assertion instead. Campaign-based checks run at
the coarse bench timestep (dt=60 s active, 300 s rest) to stay fast.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.degradation import DegradationState, deep_soh
from cellfade.errors import InfeasibleError
from cellfade.identify import ambiguity_experiment, invert_with_expansion
from cellfade.measurement import (extract_esoh, forward_measure,
                                  instantaneous_resistance, kinetic_resistance,
                                  r_film, synthesize_pseudo_ocv)
from cellfade.params import DegradationParameters, PlatingParameters
from cellfade.particle import SphereFV
from cellfade.protocol import (Campaign, reference_capacity, run_campaign,
                               run_rpt)
from helpers import (c_ss, curve_gap, random_truths, sample_windows,
                     sei_flux, sei_flux_ddelta, sei_rate_constant)

DATA = Path(__file__).resolve().parents[1] / "src" / "cellfade" / "data"
DT, DT_REST = 60.0, 300.0


def ok(line):
    print(f"PASS {line}")


@pytest.fixture(scope="module")
def demo(params):
    c1 = reference_capacity(params)
    y, n_members, campaign, budget = cio.load_ambiguity_config(
        DATA / "ambiguity_demo.yaml", c1)
    return y, n_members, campaign, budget


@pytest.fixture(scope="module")
def experiment(params, degp, n_li0, demo):
    y, n_members, campaign, budget = demo
    t0 = time.monotonic()
    rep = ambiguity_experiment(params, degp, y, campaign,
                               n_members=n_members, n_li0=n_li0,
                               dt=DT, dt_rest=DT_REST, lli_budget=budget)
    rep["_elapsed_s"] = time.monotonic() - t0
    return rep


@pytest.fixture(scope="module")
def member_states(demo, experiment):
    y = demo[0]
    return [DegradationState(m["delta_sei_m"], m["delta_pl_m"],
                             y.C_p, y.C_n, y.LLI)
            for m in experiment["members"]]


def test_1_same_measurement_different_futures(params, degp, n_li0,
                                              experiment, member_states):
    # three iso-resistance states: indistinguishable on the bench today,
    # far apart in remaining life
    rep = experiment
    assert len(member_states) == 3
    films = [(s.delta_sei, s.delta_pl) for s in member_states]
    assert len(set(films)) == 3

    assert rep["rs_spread_rel"] < 0.005

    curves = []
    for s in member_states:
        cell = Cell(params, degp, degradation=s, n_li0=n_li0)
        curves.append(run_rpt(cell, dt=DT)["pseudo_ocv"])
    worst_gap = max(curve_gap(a, b)
                    for i, a in enumerate(curves) for b in curves[i + 1:])
    assert worst_gap < 5e-3

    ruls = [m["rul_cycles"] for m in rep["members"]]
    assert all(m["eol_reached"] for m in rep["members"])
    # the member RULs that perfbench fingerprints at this timestep
    assert ruls == [222, 187, 157]
    min_pair = min(abs(a - b) for i, a in enumerate(ruls)
                   for b in ruls[i + 1:])
    assert min_pair > 0.10 * max(ruls)

    assert rep["_elapsed_s"] < 300.0
    ok(f"1/8 ambiguity: R_s spread {rep['rs_spread_rel']:.2e}, "
       f"curve gap {worst_gap * 1e3:.3f} mV, RULs {ruls}, "
       f"min pairwise gap {min_pair / max(ruls):.1%} of max, "
       f"{rep['_elapsed_s']:.0f} s")


def test_2_expansion_breaks_the_tie(params, degp, n_li0, experiment,
                                    member_states):
    # the one channel that separates the members at cycle 0, and the
    # inversion that exploits it
    exps = [m["delta_irr_m"] for m in experiment["members"]]
    min_sep = min(abs(a - b) for i, a in enumerate(exps) for b in exps[i + 1:])
    assert min_sep > 0.0

    worst = 0.0
    for s in member_states:
        y = forward_measure(params, degp, s, n_li0)
        res = invert_with_expansion(params, degp, y, n_li0)
        for got, want in ((res.solution.delta_sei, s.delta_sei),
                          (res.solution.delta_pl, s.delta_pl)):
            err = abs(got - want) / want if want else abs(got)
            worst = max(worst, err)
            assert err < 1e-3
    ok(f"2/8 disambiguation: expansion separation {min_sep * 1e6:.3f} um, "
       f"worst film recovery error {worst:.2e} (tol 1e-3)")


def test_3_inversion_round_trip_100(params, degp, n_li0):
    rng = np.random.default_rng(20260822)
    truths = random_truths(params, degp, n_li0, rng, 100)
    false_infeasible = 0
    worst = 0.0
    for st in truths:
        y = forward_measure(params, degp, st, n_li0)
        try:
            res = invert_with_expansion(params, degp, y, n_li0)
        except InfeasibleError:
            false_infeasible += 1
            continue
        for attr in ("delta_sei", "delta_pl", "C_p", "C_n", "LLI"):
            got, want = getattr(res.solution, attr), getattr(st, attr)
            err = abs(got - want) / abs(want) if want else abs(got)
            worst = max(worst, err)
            assert err < 5e-3, attr
    assert false_infeasible == 0
    ok(f"3/8 round trip: 100/100 recovered, worst component error "
       f"{worst:.2e} (tol 5e-3), 0 false infeasible")


def test_4_lithium_books_balance_over_100_cycles(params, degp):
    campaign = dataclasses.replace(
        cio.load_campaign(DATA / "campaign_default.yaml",
                          reference_capacity(params)),
        rpt_every=0, max_cycles=100, eol_capacity_fraction=0.05)
    cell = Cell(params, degp)
    traj, _, eol = run_campaign(cell, campaign, dt=DT, dt_rest=DT_REST,
                                keep_series=False)
    assert len(traj.cycles) == 100 and not eol

    lli_integrated = cell.degradation.LLI * cell.n_li0
    gone = cell.n_li0 - cell.particle_lithium()
    rel = abs(lli_integrated - gone) / lli_integrated
    assert rel < 1e-5
    split = deep_soh(params, degp, cell.degradation, cell.n_li0)
    assert min(split.values()) > 0.0
    ok(f"4/8 lithium books: LLI integral vs lithium gone from the particles "
       f"rel diff {rel:.2e} over 100 cycles (tol 1e-5); deepSOH SEI "
       f"{split['sei']:.4f} + plating {split['plating']:.4f} + fracture "
       f"{split['fracture']:.4f}")


def test_5_esoh_extraction_round_trip(params, n_li0):
    rng = np.random.default_rng(5)
    names = ("C_p", "C_n", "x_0", "y_0")
    worst_clean, worst_noisy = 0.0, 0.0
    for truth in sample_windows(params, n_li0, rng, 50):
        fit = extract_esoh(synthesize_pseudo_ocv(params, truth), params)
        for k in names:
            err = abs(getattr(fit, k) - getattr(truth, k)) / abs(getattr(truth, k))
            worst_clean = max(worst_clean, err)
            assert err < 0.01, f"clean {k}"
    for truth in sample_windows(params, n_li0, rng, 50):
        curve = synthesize_pseudo_ocv(params, truth, noise_mv=1.0, rng=rng)
        fit = extract_esoh(curve, params)
        for k in names:
            err = abs(getattr(fit, k) - getattr(truth, k)) / abs(getattr(truth, k))
            worst_noisy = max(worst_noisy, err)
            assert err < 0.02, f"noisy {k}"
    ok(f"5/8 eSOH round trip: worst clean {worst_clean:.2e} (tol 1e-2), "
       f"worst at 1 mV noise {worst_noisy:.2e} (tol 2e-2), 50 cells each")


def test_6_resistance_two_routes_agree(params, degp, n_li0):
    # closed form vs simulated pulse at five SOCs, on a mesh fine enough
    # that the discrete surface offset stays out of the instantaneous jump
    fine = dataclasses.replace(params, n_shells=100)
    cell = Cell(fine, degp)
    cell.freeze_degradation = True
    i_pulse = 0.1 * cell.esoh().C
    worst = 0.0
    for soc in (0.1, 0.3, 0.5, 0.7, 0.9):
        cell.equilibrate_at(soc=soc)
        x, y = cell.mean_stoichiometry()
        v0 = cell.open_circuit_voltage()
        rec = cell.step(i_pulse, 0.01)
        r_pulse = (v0 - rec["V"]) / i_pulse
        r_pred = instantaneous_resistance(fine, degp, cell.degradation,
                                          x, y, I=i_pulse)
        err = abs(r_pulse - r_pred) / r_pred
        worst = max(worst, err)
        assert err < 0.02

    # and the decomposition is exact: total minus zero-film clone is the
    # film term alone
    aged = DegradationState(6e-8, 2e-8, 6.4, 5.6, 0.05)
    bare = DegradationState(0.0, 0.0, 6.4, 5.6, 0.05)
    diff = (instantaneous_resistance(params, degp, aged, 0.5, 0.5)
            - instantaneous_resistance(params, degp, bare, 0.5, 0.5))
    film = r_film(params, degp, aged)[1]
    assert diff == pytest.approx(film, rel=1e-12)
    kin = kinetic_resistance(params, aged.C_p, aged.C_n, 0.5, 0.5)
    assert instantaneous_resistance(params, degp, aged, 0.5, 0.5) == \
        pytest.approx(film + kin, rel=1e-12)
    ok(f"6/8 resistance: pulse vs closed form worst {worst:.2%} at 5 SOCs "
       f"(tol 2%), decomposition exact to 1e-12")


def test_7_numerical_hygiene(params, degp):
    # timestep halving: end-of-run LLI
    campaign = dataclasses.replace(
        cio.load_campaign(DATA / "campaign_default.yaml",
                          reference_capacity(params)),
        rpt_every=0, max_cycles=10, eol_capacity_fraction=0.05)
    llis = []
    for dt in (DT, DT / 2.0):
        cell = Cell(params, degp)
        run_campaign(cell, campaign, dt=dt, dt_rest=DT_REST,
                     keep_series=False)
        llis.append(cell.degradation.LLI)
    dt_err = abs(llis[0] - llis[1]) / llis[1]
    assert dt_err < 5e-3

    # radial-mesh halving: surface concentration under sustained flux
    j = -2e-5   # mol/(m^2 s), charging the particle
    css = []
    for n in (20, 40):
        sph = SphereFV(params.r_p_neg, params.D_s_neg, params.c_smax_neg,
                       n, "neg")
        c = sph.uniform(0.5)
        for _ in range(60):
            c, _ = sph.step(c, j, 10.0)
        css.append(c_ss(sph, c, j))
    mesh_err = abs(css[0] - css[1]) / css[1]
    assert mesh_err < 2e-3

    # film-growth derivative: closed form vs central differences
    sei = degp.sei
    kin = sei_rate_constant(sei, -0.12, params.T, params.R_gas, params.F)
    worst_fd = 0.0
    for d in (1e-9, 5e-9, 2e-8, 8e-8, 3e-7):
        h = 1e-6 * d
        fd = (sei_flux(sei, d + h, kin) - sei_flux(sei, d - h, kin)) / (2.0 * h)
        cf = sei_flux_ddelta(sei, d, -0.12, params.T, params.R_gas, params.F)
        worst_fd = max(worst_fd, abs(cf - fd) / abs(fd))
        assert abs(cf - fd) / abs(fd) < 1e-4
    ok(f"7/8 hygiene: dt-halving LLI shift {dt_err:.2e} (tol 5e-3), "
       f"mesh-halving c_ss shift {mesh_err:.2e} (tol 2e-3), "
       f"flux derivative vs FD {worst_fd:.2e} (tol 1e-4)")


def test_8_mechanism_isolation(params, degp):
    campaign = dataclasses.replace(
        cio.load_campaign(DATA / "campaign_default.yaml",
                          reference_capacity(params)),
        rpt_every=0, max_cycles=3, eol_capacity_fraction=0.05)

    # plating switched off: the plated film never appears
    no_pl = DegradationParameters(
        degp.sei, PlatingParameters(0.0, degp.plating.alpha_pl,
                                    degp.plating.Omega_pl,
                                    degp.plating.kappa_pl),
        degp.lam, degp.expansion)
    cell = Cell(params, no_pl)
    traj, _, _ = run_campaign(cell, campaign, dt=DT, dt_rest=DT_REST,
                              keep_series=False)
    assert all(r.degradation["delta_pl"] == 0.0 for r in traj.cycles)
    assert cell.degradation.delta_sei > 0.0   # the others keep running

    # fatigue switched off: electrode capacities never move
    lam0 = dataclasses.replace(degp.lam, beta1_pos=0.0, beta2_pos=0.0,
                               beta1_neg=0.0, beta2_neg=0.0)
    no_lam = DegradationParameters(degp.sei, degp.plating, lam0,
                                   degp.expansion)
    cell = Cell(params, no_lam)
    traj, _, _ = run_campaign(cell, campaign, dt=DT, dt_rest=DT_REST,
                              keep_series=False)
    assert all(r.degradation["C_p"] == params.C_p_nom
               and r.degradation["C_n"] == params.C_n_nom
               for r in traj.cycles)

    # everything off: films frozen and fatigue zeroed, 50 cycles flat.
    # The cycle tops up through CV to C/100 so every cycle starts from
    # the same state to within the taper tolerance.
    quiet = DegradationParameters(degp.sei, degp.plating, lam0,
                                  degp.expansion)
    c1 = reference_capacity(params)
    flat_camp = cio.load_campaign(DATA / "campaign_default.yaml", c1)
    steps = list(flat_camp.cycle_protocol)
    taper, *rest = steps[3].terminations
    steps[3] = dataclasses.replace(steps[3], terminations=(
        dataclasses.replace(taper, threshold=c1 / 100.0), *rest))
    flat_camp = dataclasses.replace(flat_camp, cycle_protocol=steps,
                                    rpt_every=0, max_cycles=50,
                                    eol_capacity_fraction=0.05)
    cell = Cell(params, quiet)
    cell.freeze_degradation = True
    traj, _, eol = run_campaign(cell, flat_camp, dt=DT, dt_rest=DT_REST,
                                keep_series=False)
    caps = [r.capacity_Ah for r in traj.cycles]
    assert len(caps) == 50 and not eol
    spread = (max(caps) - min(caps)) / max(caps)
    assert spread < 1e-3
    ok(f"8/8 isolation: k_pl=0 keeps delta_pl at 0, betas=0 keep "
       f"capacities fixed, all-off 50-cycle capacity spread {spread:.2e} "
       f"(tol 1e-3)")
