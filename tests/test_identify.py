"""Measurement inversion: the family, the unique root, RUL prediction."""

import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from importlib import resources

import numpy as np
import pytest

from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.cli import main
from cellfade.degradation import (DegradationState, deep_soh,
                                  plated_lithium_moles, sei_lithium_moles,
                                  within_lli_budget)
from cellfade.electrochem import solve_window
from cellfade.errors import (AmbiguousRootsError, CellDeadError, ConfigError,
                             InfeasibleError)
from cellfade.identify import (
    MAX_FAMILY_SAMPLES,
    VERIFY_TOL,
    IdentificationResult,
    _budget_interval,
    ambiguity_experiment,
    invert_with_expansion,
    invert_without_expansion,
    predict_rul,
    sample_family,
)
from cellfade.measurement import (MeasurementVector, forward_measure,
                                  instantaneous_resistance,
                                  material_loss_expansion)
from cellfade.protocol import (Campaign, ProtocolStep, Termination,
                               reference_capacity, run_campaign, run_step)
from helpers import (budget_interval_oracle, demo_members, random_truths,
                     sample_family_oracle)


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

    def test_sample_family_matches_its_linspace_oracle(self, params, degp,
                                                       n_li0):
        # families of seeded states, clipped and not (the unclipped ones
        # start at an end without plating), a zero-width one and r = 0
        rng = np.random.default_rng(24)
        cases = []
        for st in random_truths(params, degp, n_li0, rng, 6):
            y = MeasurementVector(*dataclasses.astuple(
                forward_measure(params, degp, st, n_li0))[:4])
            for budget in (True, False):
                try:
                    cases.append((invert_without_expansion(
                        params, degp, y, n_li0, lli_budget=budget), y))
                except InfeasibleError:
                    continue
        y = cases[0][1]
        for ends in [((1e-7, 0.0), (1e-7, 2e-8)), ((0.0, 0.0), (0.0, 0.0))]:
            cases.append((IdentificationResult("family", family_endpoints=ends),
                          y))
        assert len(cases) >= 10
        assert any(fam.family_endpoints[0][1] == 0.0 for fam, _ in cases[:-2])
        # at n = 50, 49 * (1 / 49) is an ulp short of the last t, 1.0
        for fam, y in cases:
            for n in (1, 2, 3, 7, 50, 1000):
                got, want = (
                    [[(type(v), float.hex(v)) for v in dataclasses.astuple(m)]
                     for m in members]
                    for members in (sample_family(fam, y, n),
                                    sample_family_oracle(fam, y, n)))
                assert got == want, (fam.family_endpoints, n)
                assert {t for m in got for t, _ in m} == {float}

    def test_sample_family_arguments(self, params, degp, y_no_exp, n_li0):
        fam = invert_without_expansion(params, degp, y_no_exp, n_li0)
        assert len(sample_family(fam, y_no_exp, 1)) == 1
        assert len(sample_family(fam, y_no_exp, MAX_FAMILY_SAMPLES)) == \
            MAX_FAMILY_SAMPLES
        for n in (0, MAX_FAMILY_SAMPLES + 1):
            with pytest.raises(ConfigError):
                sample_family(fam, y_no_exp, n)


    def test_sample_family_refuses_a_unique_result(self, params, degp,
                                                   y_full, n_li0):
        res = invert_with_expansion(params, degp, y_full, n_li0)
        with pytest.raises(ConfigError):
            sample_family(res, y_full, 3)


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

    def test_pure_film_states_round_trip(self, params, degp, n_li0):
        # a root at an end of the family is clipped onto it in s, so the
        # other film is never an ulp below zero (it once raised ConfigError
        # for 15.4 nm of plated lithium)
        for k in range(1, 201):
            for st in (DegradationState(0.0, k * 1e-10, params.C_p_nom,
                                        params.C_n_nom, 0.1),
                       DegradationState(k * 1e-9, 0.0, params.C_p_nom,
                                        params.C_n_nom, 0.1)):
                y = forward_measure(params, degp, st, n_li0)
                sol = invert_with_expansion(params, degp, y, n_li0).solution
                assert sol.delta_sei == pytest.approx(st.delta_sei, abs=1e-18)
                assert sol.delta_pl == pytest.approx(st.delta_pl, abs=1e-18)

    def test_expansion_below_material_floor_infeasible(self, params, degp,
                                                       y_full, n_li0):
        bad = MeasurementVector(y_full.C_p, y_full.C_n, y_full.LLI,
                                y_full.R_s, delta_irr=y_full.delta_irr * 1e-3)
        with pytest.raises(InfeasibleError):
            invert_with_expansion(params, degp, bad, n_li0)

    def test_linear_expansion_law_has_one_root(self, params, degp, truth,
                                               n_li0):
        # plating that does not swell leaves E(s) linear in s: its one
        # root is the state
        e = dataclasses.replace(degp.expansion, b_pl=0.0)
        d = dataclasses.replace(degp, expansion=e)
        y = forward_measure(params, d, truth, n_li0)
        res = invert_with_expansion(params, d, y, n_li0)
        assert res.solution.delta_sei == pytest.approx(truth.delta_sei,
                                                       rel=1e-9)
        assert res.solution.delta_pl == pytest.approx(truth.delta_pl, rel=1e-9)
        assert res.residual["ok"]

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

    def test_budget_admits_one_of_two_roots(self, params, degp, n_li0):
        # the two-root construction above with b_pl 100x larger, so both
        # roots' films fit in a plausible LLI: the SEI-heavier root holds
        # 0.282 of n_li0, the other 0.234, and an LLI between the two
        # admits only the second
        e = dataclasses.replace(degp.expansion, b_pl=100.0 * degp.expansion.b_pl)
        d = dataclasses.replace(degp, expansion=e)
        sei, pl = d.sei, d.plating
        root_sum = e.b_sei * sei.kappa_sei / (pl.kappa_pl * e.b_pl)
        r_areal = 2.0 * root_sum / pl.kappa_pl
        mk = lambda d_pl, lli: DegradationState(
            sei.kappa_sei * (r_areal - d_pl / pl.kappa_pl), d_pl,
            params.C_p_nom, params.C_n_nom, lli)
        film = [sum(deep_soh(params, d, mk(f * root_sum, 0.0), n_li0)[k]
                    for k in ("sei", "plating")) for f in (0.25, 0.75)]
        assert film[0] > film[1]
        lli = 0.5 * sum(film)
        sa, sb = mk(0.25 * root_sum, lli), mk(0.75 * root_sum, lli)
        ma = forward_measure(params, d, sa, n_li0)
        mb = forward_measure(params, d, sb, n_li0)
        assert ma.R_s == pytest.approx(mb.R_s, rel=1e-12)
        assert ma.delta_irr == pytest.approx(mb.delta_irr, rel=1e-12)
        with pytest.raises(AmbiguousRootsError):
            invert_with_expansion(params, d, ma, n_li0, lli_budget=False)
        res = invert_with_expansion(params, d, ma, n_li0)
        assert res.solution.delta_pl == pytest.approx(sb.delta_pl, rel=1e-6)
        assert res.solution.delta_sei == pytest.approx(sb.delta_sei, rel=1e-6)
        assert res.residual["ok"]


def r_star(d):
    """Areal film resistance up to which the film expansion is monotone
    along the family: E(s) = B(1 - s) + A s^2 with B = b_sei*kappa_sei*r
    and A = b_pl*(kappa_pl*r)^2 falls on [0, 1] exactly when 2A <= B."""
    e = d.expansion
    return e.b_sei * d.sei.kappa_sei / (2.0 * e.b_pl * d.plating.kappa_pl ** 2)


def test_expansion_root_is_unique_up_to_the_closed_form_bound(params, degp,
                                                              n_li0):
    # each pair scales kappa_sei, kappa_pl, b_sei and b_pl within x[1/3, 3]
    # (r* then spans 0.016 to 970 ohm*m^2) and puts a random state on a
    # family with r log-uniform in [0.01, 1000]: at or below r* its own
    # reading gives it back; past r* a reading between the interior
    # minimum of E and the lower end value has two roots on the family
    rng = np.random.default_rng(2216)
    windows = random_truths(params, degp, n_li0, rng, 20)
    sides = {"monotone": 0, "two-root": 0}
    for k in range(2000):
        f = np.exp(rng.uniform(-math.log(3.0), math.log(3.0), 4))
        sei = dataclasses.replace(degp.sei, kappa_sei=degp.sei.kappa_sei * f[0])
        pl = dataclasses.replace(degp.plating,
                                 kappa_pl=degp.plating.kappa_pl * f[1])
        ex = dataclasses.replace(degp.expansion, b_sei=degp.expansion.b_sei
                                 * f[2], b_pl=degp.expansion.b_pl * f[3])
        d = dataclasses.replace(degp, sei=sei, plating=pl, expansion=ex)
        w, r, s = windows[k % 20], 10.0 ** rng.uniform(-2.0, 3.0), rng.random()
        st = DegradationState((1.0 - s) * sei.kappa_sei * r,
                              s * pl.kappa_pl * r, w.C_p, w.C_n, w.LLI)
        y = forward_measure(params, d, st, n_li0)
        if r <= r_star(d):
            sides["monotone"] += 1
            res = invert_with_expansion(params, d, y, n_li0, lli_budget=False)
            assert res.kind == "unique"
            continue
        sides["two-root"] += 1
        B, A = ex.b_sei * sei.kappa_sei * r, ex.b_pl * (pl.kappa_pl * r) ** 2
        e_min = B - B * B / (4.0 * A)
        E = e_min + rng.uniform(0.05, 0.95) * (min(B, A) - e_min)
        y = dataclasses.replace(y, delta_irr=E + material_loss_expansion(
            ex, w.C_p, w.C_n, params.C_p_nom, params.C_n_nom))
        with pytest.raises(AmbiguousRootsError) as exc:
            invert_with_expansion(params, d, y, n_li0, lli_budget=False)
        a, b = exc.value.candidates
        assert a.delta_pl != b.delta_pl
        for c in (a, b):
            on_line = c.delta_sei / sei.kappa_sei + c.delta_pl / pl.kappa_pl
            assert on_line == pytest.approx(r, rel=1e-9)
            m = forward_measure(params, d, c, n_li0)
            assert m.R_s == pytest.approx(y.R_s, rel=1e-9)
            assert m.delta_irr == pytest.approx(y.delta_irr, rel=1e-9)
    assert min(sides.values()) >= 500, sides

    # the packaged demo's family sits far below the default cell's bound
    y, _, _, budget = cio.load_ambiguity_config(
        resources.files("cellfade.data") / "ambiguity_demo.yaml",
        reference_capacity(params))
    fam = invert_without_expansion(params, degp, y, n_li0, lli_budget=budget)
    assert r_star(degp) == pytest.approx(4.0)
    assert fam.r_film_areal == pytest.approx(0.0516, abs=5e-5)
    assert fam.r_film_areal < r_star(degp)


def test_states_near_the_double_root_come_back(params, degp, n_li0):
    # states on their own family within 1e-6 of r* at the all-plating end:
    # there rounding moves the roots by about sqrt(eps), and the
    # discriminant can round below zero, yet no reading of such a state is
    # infeasible; below r* E(s) is monotone on [0, 1] and the root unique
    rng = np.random.default_rng(43)
    r0 = r_star(degp)
    C_p, C_n = 0.95 * params.C_p_nom, 0.95 * params.C_n_nom
    below = 0
    for _ in range(2000):
        r = r0 * (1.0 + rng.uniform(-1e-6, 1e-6))
        s = 1.0 if rng.random() < 0.5 else 1.0 - rng.uniform(0.0, 1e-6)
        st = DegradationState((1.0 - s) * degp.sei.kappa_sei * r,
                              s * degp.plating.kappa_pl * r, C_p, C_n, 0.1)
        y = forward_measure(params, degp, st, n_li0)
        try:
            res = invert_with_expansion(params, degp, y, n_li0,
                                        lli_budget=False)
        except AmbiguousRootsError:
            assert r >= r0
            continue
        if r < r0:
            below += 1
            got = res.solution
            film = max(st.delta_sei, st.delta_pl)
            assert abs(got.delta_sei - st.delta_sei) <= 1e-6 * film
            assert abs(got.delta_pl - st.delta_pl) <= 1e-6 * film
    assert below >= 900


def test_budget_interval_matches_the_mole_oracle(params, degp, n_li0):
    # the interval read off the fracture share gives the verdict and the
    # span of the mole arithmetic it replaced: LLI up to 0.3 and films up
    # to 0.45 of n_li0 at the all-SEI end, so about 40 % are clipped, a
    # third infeasible, and some LLIs sit exactly on an end's share
    rng = np.random.default_rng(1919)
    per_r = sei_lithium_moles(params, degp.sei, degp.sei.kappa_sei) / n_li0
    verdicts = {"full": 0, "clipped": 0, "infeasible": 0}
    for k in range(2000):
        r_areal = rng.uniform(0.0, 0.45) / per_r
        lli = per_r * r_areal if k % 50 == 0 else rng.uniform(0.0, 0.3)
        y = MeasurementVector(params.C_p_nom, params.C_n_nom, lli, 0.02)
        try:
            want = budget_interval_oracle(params, degp, lli, r_areal, n_li0)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                _budget_interval(params, degp, y, r_areal, n_li0)
            verdicts["infeasible"] += 1
            continue
        got = _budget_interval(params, degp, y, r_areal, n_li0)
        assert got == pytest.approx(want, rel=0.0, abs=1e-15)
        verdicts["full" if got == (0.0, 1.0) else "clipped"] += 1
    assert 0.35 <= verdicts["clipped"] / 2000 <= 0.45, verdicts
    assert verdicts["infeasible"] >= 500, verdicts


def test_over_budget_vector_is_refused_on_every_path(params, degp, n_li0,
                                                     tmp_path):
    # films of 100 nm SEI and 20 nm plated lithium hold 6.7 % of n_li0
    # against an LLI of 0.001: a fracture share of -0.066, which no aging
    # history reaches
    st = DegradationState(1e-7, 2e-8, 0.95 * params.C_p_nom,
                          0.95 * params.C_n_nom, 0.001)
    assert deep_soh(params, degp, st, n_li0)["fracture"] < -0.06
    y = forward_measure(params, degp, st, n_li0)
    with pytest.raises(InfeasibleError, match="LLI budget"):
        invert_with_expansion(params, degp, y, n_li0)
    with pytest.raises(InfeasibleError, match="LLI budget"):
        invert_without_expansion(params, degp, y, n_li0)

    cell = resources.files("cellfade.data") / "cell_default.yaml"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(y.as_dict()))
    argv = ["identify", "--cell", str(cell), "--measurements", str(path)]
    for route in ("--with-expansion", "--without-expansion"):
        out = tmp_path / route
        assert main(argv + [route, "--out", str(out)]) == 3
        doc = json.loads((out / "identification.json").read_text())
        assert doc["kind"] == "infeasible" and "LLI budget" in doc["error"]
    # without the budget the expansion route gives the state back
    out = tmp_path / "no-budget"
    assert main(argv + ["--with-expansion", "--no-lli-budget",
                        "--out", str(out)]) == 0
    sol = json.loads((out / "identification.json").read_text())["solution"]
    for attr, want in st.as_dict().items():
        assert sol[attr] == pytest.approx(want, rel=1e-9), attr

    state = tmp_path / "state.json"
    cio.save_state(state, Cell(params, degp, degradation=st, n_li0=n_li0))
    with pytest.raises(ConfigError, match="more lithium than its LLI"):
        cio.load_state(state, params, degp)


# vectors that no stoichiometric window fits: the window's top cannot
# reach V_max, and no stoichiometry range holds the inventory at all
WINDOWLESS = [
    pytest.param(dict(C_p=6.6, C_n=5.6, LLI=0.99), "OCV cannot reach up",
                 id="top-of-charge"),
    pytest.param(dict(C_p=1e-9, C_n=5.6, LLI=0.11), "no stoichiometry range",
                 id="no-range"),
]


@pytest.mark.parametrize("health, cause", WINDOWLESS)
def test_windowless_vector_is_infeasible(params, degp, n_li0, health, cause):
    y = MeasurementVector(**health, R_s=0.02, delta_irr=5e-6)
    with pytest.raises(CellDeadError, match=cause):
        forward_measure(params, degp, DegradationState(
            0.0, 0.0, y.C_p, y.C_n, y.LLI), n_li0)
    for invert in (invert_with_expansion, invert_without_expansion):
        with pytest.raises(InfeasibleError) as exc:
            invert(params, degp, y, n_li0)
        msg = str(exc.value)
        assert "no stoichiometric window" in msg and cause in msg
        assert f"C_p {y.C_p:.6g}" in msg and f"LLI {y.LLI:.6g}" in msg


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
        # one family, one budget: the answer sits on the family route's span
        fam = invert_without_expansion(
            params, degp, dataclasses.replace(y, delta_irr=None), n_li0)
        s = res.solution.delta_pl / (degp.plating.kappa_pl * res.r_film_areal)
        s_lo, s_hi = fam.family_span
        assert s_lo - 1e-9 <= s <= s_hi + 1e-9
        assert within_lli_budget(
            deep_soh(params, degp, res.solution, n_li0)["fracture"])
    assert false_infeasible == 0


def test_round_trip_recovers_the_deep_soh_split(params, degp, n_li0, rng):
    # the expansion route gives back the generating state's split, not
    # only its films: this is what the added measurement buys
    for st in random_truths(params, degp, n_li0, rng, 100):
        y = forward_measure(params, degp, st, n_li0)
        got = deep_soh(params, degp,
                       invert_with_expansion(params, degp, y, n_li0).solution,
                       n_li0)
        want = deep_soh(params, degp, st, n_li0)
        assert want["fracture"] >= 0.0
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12), key


def test_family_members_share_lli_with_distinct_splits(params, degp, n_li0):
    # the packaged demo's members measure alike and hold one LLI, but
    # that LLI splits three ways between SEI, plating and fracture
    members = demo_members(params, degp, n_li0)
    splits = [deep_soh(params, degp, m, n_li0) for m in members]
    assert len({m.LLI for m in members}) == 1
    for split, m in zip(splits, members):
        assert abs(sum(split.values()) - m.LLI) <= 1e-15
        assert min(split.values()) >= 0.0
    assert len({tuple(sorted(s.items())) for s in splits}) == len(members)
    want = [(0.099, 0.0, 0.011), (0.025, 0.027, 0.058), (0.0, 0.036, 0.074)]
    for split, (sei, pl, frac) in zip(splits, want):
        assert (split["sei"], split["plating"], split["fracture"]) == (
            pytest.approx((sei, pl, frac), abs=1e-3))


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
        cell = Cell(params, degp, degradation=st, n_li0=n_li0)
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

    def test_headline_holds_at_half_the_timestep(self, params, degp, n_li0):
        # the packaged demo's members keep the RULs they reach at dt 60/300
        # when every stride halves; they age in two processes, as
        # cellfade ambiguity --jobs 2 runs them
        y, n, campaign, budget = cio.load_ambiguity_config(
            resources.files("cellfade.data") / "ambiguity_demo.yaml",
            reference_capacity(params))
        with ProcessPoolExecutor(max_workers=2) as pool:
            rep = ambiguity_experiment(params, degp, y, campaign, n_members=n,
                                       n_li0=n_li0, dt=30.0, dt_rest=150.0,
                                       lli_budget=budget, map=pool.map)
        assert [m["rul_cycles"] for m in rep["members"]] == [222, 187, 157]

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

        def recording(I, dt, evaluated=None, commit=commit):
            records.append(commit(I, dt, evaluated))
            return records[-1]

        cell.step = recording
        for step in protocol:
            run_step(cell, step, dt=60.0, dt_rest=300.0)
        assert records
        values = [getattr(cell.degradation, f.name)
                  for f in dataclasses.fields(cell.degradation)]
        values += [v for rec in records for v in rec.values()]
        values += [cell.n_li0,
                   *deep_soh(params, degp, cell.degradation, n_li0).values()]
        assert all(type(v) is float for v in values), {
            type(v).__name__ for v in values}


def test_cell_from_state_books_loss_outside_films(params, degp, y_full,
                                                  n_li0):
    # a state's LLI not held in its films was stranded by material loss:
    # its fracture share is positive, and the lithium books close from
    # construction on, with no hand booking
    c1 = reference_capacity(params)
    protocol = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.6),
                                      Termination("time", ">=", 1200.0)]),
        ProtocolStep("cv", 4.0, [Termination("current", "abs<=", c1 / 20.0),
                                 Termination("time", ">=", 600.0)]),
        ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)]),
    ]

    def total(cell):
        return cell.particle_lithium() + n_li0 * cell.degradation.LLI

    def fracture(state):
        return deep_soh(params, degp, state, n_li0)["fracture"]

    unique = invert_with_expansion(params, degp, y_full, n_li0).solution
    for state in demo_members(params, degp, n_li0) + [unique]:
        cell = Cell(params, degp, degradation=state, n_li0=n_li0)
        assert type(fracture(state)) is float and fracture(state) > 0.0
        assert total(cell) == pytest.approx(n_li0, rel=1e-10)
        for step in protocol:
            run_step(cell, step, dt=60.0, dt_rest=300.0)
        cell.apply_cycle_fatigue()
        assert total(cell) == pytest.approx(n_li0, rel=1e-10)
    assert fracture(Cell(params, degp).degradation) == 0.0
