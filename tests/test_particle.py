"""Radial diffusion: conservation, refinement oracles, saturation."""

import dataclasses
import math

import numpy as np
import pytest

from cellfade.cell import Cell
from cellfade.errors import SaturationError
from cellfade.particle import SphereFV, step_particle_diffusion
from cellfade.protocol import (MIN_DT, ProtocolStep, Termination,
                               reference_capacity, run_rpt, run_step)
from helpers import c_ss, moles, sphere_surface_under_constant_flux


def make_sphere(n=20, r=5e-6, D=3.9e-14, cmax=30000.0):
    return SphereFV(r, D, cmax, n, "toy")


def _surface_after(n, dt, t, j):
    """c_ss of a make_sphere particle drained at j from x = 0.8 for t."""
    sp = make_sphere(n)
    c = sp.uniform(0.8)
    for _ in range(round(t / dt)):
        c, _ = sp.step(c, j, dt)
    return c_ss(sp, c, j)


def test_surface_meets_the_constant_flux_sphere():
    # Carslaw & Jaeger's series, which shares no code with the propagator,
    # for the negative particle drained at j from x = 0.8
    cmax, j = 30000.0, 2e-6
    c0 = 0.8 * cmax

    def exact(t):
        return sphere_surface_under_constant_flux(5e-6, 3.9e-14, c0, j, t)

    # at 1200 s the start-up transient has decayed: the space error is
    # left, second order in the shell count
    errs = [(_surface_after(n, 60.0, 1200.0, j) - exact(1200.0)) / cmax
            for n in (10, 20, 40, 80)]
    assert 2e-5 < -errs[0] < 4e-5
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.1)
    assert abs(_surface_after(20, 1.0, 1200.0, j)
               - _surface_after(20, 60.0, 1200.0, j)) <= 1e-11 * cmax
    # just after the flux switches on, backward Euler lags the depletion
    # c0 - c_ss by a share first order in dt
    c60 = exact(60.0)
    miss = [(_surface_after(80, dt, 60.0, j) - c60) / (c0 - c60)
            for dt in (60.0, 15.0)]
    assert 0.05 < miss[0] < 0.065
    assert miss[0] / miss[1] == pytest.approx(4.0, abs=0.5)


def test_uniform_profile_is_equilibrium():
    sp = make_sphere()
    c = np.full(sp.n, 12345.6)
    c2, _ = sp.step(c, 0.0, 30.0)
    assert np.max(np.abs(c2 - c)) < 1e-9


def test_mass_balance_every_step():
    # surface flux times area times dt accounts for the full moles change
    sp = make_sphere()
    rng = np.random.default_rng(42)
    c = np.full(sp.n, 15000.0)
    area = 4.0 * np.pi * sp.r_p ** 2
    for _ in range(1000):
        j = rng.uniform(-2e-5, 2e-5)
        dt = rng.uniform(1.0, 60.0)
        try:
            c2, _ = sp.step(c, j, dt)
        except SaturationError:
            continue
        dn = moles(sp, c2) - moles(sp, c)
        expect = -j * area * dt
        assert dn == pytest.approx(expect, rel=1e-8, abs=1e-22)
        c = c2


def test_long_run_conservation_at_zero_flux():
    sp = make_sphere()
    rng = np.random.default_rng(3)
    c = 15000.0 + 2000.0 * rng.standard_normal(sp.n)
    n0 = moles(sp, c)
    for _ in range(1000):
        c, _ = sp.step(c, 0.0, 45.0)
    assert moles(sp, c) == pytest.approx(n0, rel=1e-12)
    # diffusion alone relaxes to a uniform profile
    assert np.max(c) - np.min(c) < 1e-6


def test_surface_concentration_against_fine_grid():
    # same physics on a 10x finer mesh is the reference
    coarse = make_sphere(n=20)
    fine = make_sphere(n=200)
    j = 1.5e-5
    cc = np.full(20, 20000.0)
    cf_ = np.full(200, 20000.0)
    for _ in range(120):
        cc, _ = coarse.step(cc, j, 10.0)
        cf_, _ = fine.step(cf_, j, 10.0)
    css_c = c_ss(coarse, cc, j)
    css_f = c_ss(fine, cf_, j)
    assert abs(css_c - css_f) / css_f < 0.005


def test_mesh_halving_changes_surface_by_little():
    a = make_sphere(n=20)
    b = make_sphere(n=40)
    j = 2.0e-5
    ca = np.full(20, 18000.0)
    cb = np.full(40, 18000.0)
    for _ in range(60):
        ca, _ = a.step(ca, j, 15.0)
        cb, _ = b.step(cb, j, 15.0)
    assert abs(c_ss(a, ca, j) - c_ss(b, cb, j)) / c_ss(b, cb, j) < 0.002


def test_surface_value_sign_convention():
    sp = make_sphere()
    c = np.full(sp.n, 15000.0)
    c2, _ = sp.step(c, 1e-5, 20.0)   # positive flux leaves the particle
    assert c_ss(sp, c2, 1e-5) < 15000.0
    c3, _ = sp.step(c, -1e-5, 20.0)
    assert c_ss(sp, c3, -1e-5) > 15000.0


def test_saturation_raises_not_clamps():
    sp = make_sphere(cmax=30000.0)
    c = np.full(sp.n, 29990.0)
    with pytest.raises(SaturationError):
        for _ in range(200):
            c, _ = sp.step(c, -5e-5, 30.0)   # keep inserting lithium


def test_depletion_raises():
    sp = make_sphere()
    c = np.full(sp.n, 50.0)
    with pytest.raises(SaturationError):
        for _ in range(200):
            c, _ = sp.step(c, 5e-5, 30.0)


def test_c_avg_is_volume_weighted_mean():
    sp = make_sphere()
    rng = np.random.default_rng(9)
    c = 10000.0 + 500.0 * rng.standard_normal(sp.n)
    vols = sp.volumes
    assert sp.c_avg(c) == pytest.approx(np.dot(vols, c) / vols.sum(), rel=1e-12)


def test_pair_step_moves_both_particles(params):
    from cellfade.particle import at_stoichiometry
    st = at_stoichiometry(params, x=0.5, y=0.5)
    st2 = step_particle_diffusion(params, st, j_pos=-1e-6, j_neg=1e-6, dt=10.0)
    assert st2.c_neg[-1] != st.c_neg[-1]
    assert st2.c_pos[-1] != st.c_pos[-1]
    # original untouched
    assert st.c_neg[0] == pytest.approx(0.5 * params.c_smax_neg, rel=1e-12)


def test_propagator_invariants_over_random_meshes():
    # the discrete maximum principle and volume conservation that the
    # carried enclosure rests on, for every stride the stepper can take:
    # from the clamped minimum 5e-5 s up to 1e5 s
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for _ in range(300):
        n = int(rng.integers(4, 61))
        sp = SphereFV(10 ** rng.uniform(-7, -4.5), 10 ** rng.uniform(-16, -12),
                      rng.uniform(1e4, 6e4), n, "draw")
        dt = 10 ** rng.uniform(np.log10(MIN_DT * 1e-3), 5)
        P, Pe, pe_lo, pe_hi, slack, _ = sp._propagator(dt)
        assert P.min() >= 0.0
        row_err = max(abs(math.fsum(row) - 1.0) for row in P)
        assert row_err * sp.c_smax < slack
        assert (pe_lo, pe_hi) == (Pe.min(), Pe.max())
        # both residuals scale with the conditioning of I - dt*M
        tol = n * eps * np.linalg.cond(np.eye(n) - dt * sp._M, np.inf)
        assert np.abs(sp.volumes @ P - sp.volumes).max() <= tol * sp.volumes.max()
        assert sp.volumes @ Pe == pytest.approx(sp.area_surf, rel=tol)


def test_step_and_average_match_numpy_and_write_nothing():
    # the BLAS kernel against the numpy expressions it replaces, over the
    # meshes and strides drawn above, with fluxes of both signs and zero;
    # neither the profile nor the cached propagator may change
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for _ in range(300):
        n = int(rng.integers(4, 61))
        sp = SphereFV(10 ** rng.uniform(-7, -4.5), 10 ** rng.uniform(-16, -12),
                      rng.uniform(1e4, 6e4), n, "draw")
        dt = 10 ** rng.uniform(np.log10(MIN_DT * 1e-3), 5)
        P, Pe, _, pe_hi, _, _ = sp._propagator(dt)
        P0, Pe0 = P.copy(), Pe.copy()
        c = sp.c_smax * rng.uniform(0.3, 0.7, n)
        c0 = c.copy()
        # |s| * max(Pe) <= 0.2 c_smax keeps every step inside [0, c_smax]
        j_max = 0.2 * sp.c_smax / (dt * pe_hi)
        for j in (0.0, rng.uniform(0.0, j_max), -rng.uniform(0.0, j_max)):
            c_new, _ = sp.step(c, j, dt)
            want = P @ c - dt * j * Pe
            assert np.abs(c_new - want).max() <= 4 * eps * sp.c_smax
            assert not np.shares_memory(c_new, Pe)
        assert sp.c_avg(c) == pytest.approx(sp.volumes @ c / sp.total_volume,
                                            rel=n * eps)
        assert np.array_equal(c, c0)
        assert np.array_equal(P, P0) and np.array_equal(Pe, Pe0)
        assert sp._propagator(dt)[0] is P


def _flux_walk(sp, rng, steps):
    """(j, dt) pairs: rests, sign switches, strides clamped to a
    termination the way run_step clamps them, and sustained drives that
    saturate the particle at 0 and at c_smax."""
    j_1c = sp.c_smax * sp.r_p / (3.0 * 3600.0)   # full swing in an hour
    j = 0.0
    for _ in range(steps):
        kind = rng.integers(5)
        if kind == 0:
            j = 0.0
        elif kind == 1:
            j = rng.uniform(-3.0, 3.0) * j_1c
        elif kind == 2:
            j = -j
        elif kind == 3:
            j = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 6.0) * j_1c
        dt = rng.choice([MIN_DT, 10.0, 60.0, 300.0])
        if rng.random() < 0.3:   # the last stride before a threshold
            dt = min(dt, max(rng.uniform(-1.0, 1.0) * dt, MIN_DT * 1e-3))
        yield j, float(dt)


def test_carried_enclosure_decides_as_the_exact_check(params):
    # stepping with the carried enclosure and with the exact check alone
    # gives the same profiles and raises at the same step with the same
    # message, and the enclosure always holds the profile's min and max
    rng = np.random.default_rng(17)
    fast = exact = 0
    for sp in (params.pos, params.neg):
        saturated = set()   # which end, as the sign of the flux
        for _ in range(20):
            c = sp.uniform(rng.uniform(0.02, 0.98))
            enc = (float(c[0]),) * 2
            for j, dt in _flux_walk(sp, rng, 300):
                want = got = None
                try:
                    c_want, _ = sp.step(c, j, dt)
                except SaturationError as err:
                    want = str(err)
                try:
                    c_got, enc_got = sp.step(c, j, dt, enc)
                except SaturationError as err:
                    got = str(err)
                assert got == want
                if want is not None:
                    saturated.add(j > 0.0)
                    continue   # retry from the same state, as run_step does
                assert np.array_equal(c_got, c_want)
                assert enc_got[0] <= c_got.min() and c_got.max() <= enc_got[1]
                assert 0.0 <= enc_got[0] and enc_got[1] <= sp.c_smax
                if enc_got == (c_got.min(), c_got.max()):
                    exact += 1
                else:
                    fast += 1
                c, enc = c_got, enc_got
        assert saturated == {True, False}   # emptied and filled
    assert fast > exact > 0   # both ways of deciding were exercised


def test_propagator_cache_under_clamped_time_terminations(params, degp,
                                                          monkeypatch):
    # time caps clamp each step's last stride to its own dt; past 64 sizes
    # the cache is emptied, so it holds at most 65 propagators, and a run
    # through it equals one that builds every propagator afresh
    c1 = reference_capacity(params)
    lookup, step = SphereFV._propagator, SphereFV.step
    sizes, peak = set(), [0]

    def recording(self, dt):
        sizes.add(dt)
        got = lookup(self, dt)
        peak[0] = max(peak[0], len(self._props))
        return got

    def uncached(self, *args):
        # step looks in the cache before it calls _propagator, so empty
        # the cache before every step, not before every build
        self._props.clear()
        return step(self, *args)

    def age(**methods):
        for name, method in methods.items():
            monkeypatch.setattr(SphereFV, name, method)
        rng = np.random.default_rng(7)
        cell = Cell(params, degp)
        for k in range(40):
            current = c1 / 2.0 if k % 2 == 0 else -c1 / 2.0
            limit = (Termination("voltage", "<=", params.V_min) if current > 0
                     else Termination("voltage", ">=", params.V_max))
            for mode, setpoint, until in (("cc", current, [limit]),
                                          ("rest", 0.0, [])):
                cap = Termination("time", ">=", float(rng.uniform(30.0, 900.0)))
                run_step(cell, ProtocolStep(mode, setpoint, until + [cap]),
                         dt=60.0, dt_rest=300.0)
        return cell

    cached = age(_propagator=recording)
    fresh = age(_propagator=lookup, step=uncached)
    assert len(sizes) > 64
    assert peak[0] <= 65
    assert np.array_equal(cached.particles.c_pos, fresh.particles.c_pos)
    assert np.array_equal(cached.particles.c_neg, fresh.particles.c_neg)
    assert cached.degradation == fresh.degradation
    assert cached.extrema == fresh.extrema


def test_cells_of_one_parameter_set_share_propagators(params, degp,
                                                      monkeypatch):
    # each side's particle is built once per parameter set, so neither a
    # second RPT on a cell nor a second cell stepping at a timestep the
    # first one used inverts a propagator again
    p = dataclasses.replace(params)   # a copy starts with empty caches
    inv = np.linalg.inv
    calls = [0]

    def counted(a):
        calls[0] += 1
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    cell = Cell(p, degp)
    run_rpt(cell, dt=30.0)
    after_first = calls[0]
    assert after_first > 0
    run_rpt(cell, dt=30.0)
    assert calls[0] == after_first
    Cell(p, degp).step(1.0, 7.0)
    assert calls[0] == after_first + 2   # one propagator per side
    Cell(p, degp).step(-1.0, 7.0)
    assert calls[0] == after_first + 2


def test_steps_leave_the_cached_propagator_as_built(params):
    # the step hands the cached P e to dgemv as its y, which must copy it
    # and never write it (overwrite_y is the slot after trans): after steps
    # of every flux sign, at a cached and at a fresh dt, carrying an
    # enclosure and from None, every cached entry's bytes are a fresh
    # build's on a copied parameter set
    p, ref = dataclasses.replace(params), dataclasses.replace(params)
    rng = np.random.default_rng(33)
    for sp, fresh in ((p.pos, ref.pos), (p.neg, ref.neg)):
        cached = 60.0
        sp._propagator(cached)
        for _ in range(10):
            c = sp.uniform(rng.uniform(0.3, 0.7))
            enc = (float(c[0]),) * 2
            for dt in (cached, float(rng.uniform(1.0, 600.0))):
                # |s| * max(Pe) <= 0.1 c_smax keeps each step in [0, c_smax]
                j_max = 0.1 * sp.c_smax / (dt * fresh._propagator(dt)[3])
                for j in (-rng.uniform(0.0, j_max), 0.0,
                          rng.uniform(0.0, j_max)):
                    sp.step(c, j, dt, None)
                    c, enc = sp.step(c, j, dt, enc)
        assert len(sp._props) == 11
        for dt, got in sp._props.items():
            want = fresh._propagator(dt)
            assert [type(v) for v in got] == [type(v) for v in want]
            for v, w in zip(got, want):
                if isinstance(v, np.ndarray):
                    assert v.tobytes() == w.tobytes(), dt
                else:
                    assert v.hex() == w.hex(), dt
