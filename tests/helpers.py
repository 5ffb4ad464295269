"""Shared test utilities: randomized state/window draws, curve comparison,
and closed-form oracles that the package itself does not need."""

import functools
import math
from importlib import resources

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg.blas import dgemv
from scipy.optimize import brentq, least_squares, leastsq

from cellfade import cell as cell_module
from cellfade import io as cio
from cellfade.degradation import (DegradationState, hydrostatic_stress,
                                  plated_lithium_moles, r_film,
                                  sei_lithium_moles)
from cellfade.electrochem import ESOHRecord, solve_window, terminal_voltage
from cellfade.errors import (CellDeadError, ConfigError, EstimationFailedError,
                             InfeasibleError, KineticsSingularError,
                             SaturationError)
from cellfade.identify import invert_without_expansion, sample_family
from cellfade.measurement import ENDPOINT_WEIGHT, forward_measure
from cellfade.particle import particle_state
from cellfade.protocol import reference_capacity


def random_truths(params, degp, n_li0, rng, count):
    """Ground-truth states with solvable windows and budget-consistent films."""
    out = []
    while len(out) < count:
        st = DegradationState(
            rng.uniform(0.0, 3e-7), rng.uniform(0.0, 5e-8),
            params.C_p_nom * (1.0 - 0.12 * rng.random()),
            params.C_n_nom * (1.0 - 0.12 * rng.random()),
            rng.uniform(0.02, 0.18))
        locked = (sei_lithium_moles(params, degp.sei, st.delta_sei)
                  + plated_lithium_moles(params, degp.plating, st.delta_pl))
        if locked > st.LLI * n_li0:
            continue   # a real cell's film lithium is part of its LLI
        try:
            forward_measure(params, degp, st, n_li0)
        except CellDeadError:
            continue   # no solvable window means no measurement exists
        out.append(st)
    return out


def demo_members(params, degp, n_li0):
    """The family members that the packaged ambiguity demo ages."""
    y, n, _, budget = cio.load_ambiguity_config(
        resources.files("cellfade.data") / "ambiguity_demo.yaml",
        reference_capacity(params))
    fam = invert_without_expansion(params, degp, y, n_li0, lli_budget=budget)
    return sample_family(fam, y, n)


def budget_interval_oracle(params, deg_params, LLI, r_areal, n_li0):
    """The family's s range within the LLI budget, in mole arithmetic: the
    film lithium of each end against LLI * n_li0, with a slack of 1e-9 of
    n_li0, and the zero of the linear film lithium in s."""
    budget = LLI * n_li0
    n0 = sei_lithium_moles(params, deg_params.sei,
                           deg_params.sei.kappa_sei * r_areal)
    n1 = plated_lithium_moles(params, deg_params.plating,
                              deg_params.plating.kappa_pl * r_areal)
    slack = 1e-9 * n_li0
    ok0 = n0 <= budget + slack
    ok1 = n1 <= budget + slack
    if ok0 and ok1:
        return 0.0, 1.0
    if n0 == n1:
        if ok0:
            return 0.0, 1.0
        raise InfeasibleError("film lithium exceeds the budget everywhere")
    s_star = (budget - n0) / (n1 - n0)
    if ok0:
        return 0.0, min(1.0, max(0.0, s_star))
    if ok1:
        return max(0.0, min(1.0, s_star)), 1.0
    raise InfeasibleError("film lithium exceeds the budget everywhere")


def sample_windows(params, n_li0, rng, count):
    """Random plausible aged windows, rejection-sampled for solvability."""
    out = []
    while len(out) < count:
        C_p = params.C_p_nom * (1.0 - 0.15 * rng.random())
        C_n = params.C_n_nom * (1.0 - 0.15 * rng.random())
        lli = 0.20 * rng.random()
        try:
            out.append(solve_window(params, C_p, C_n, n_li0 * (1.0 - lli)))
        except CellDeadError:
            continue
    return out


def curve_gap(a, b, n=200):
    """Max voltage difference between two pseudo-OCV curves on the
    capacity span both cover."""
    lo = max(a.capacity_Ah.min(), b.capacity_Ah.min())
    hi = min(a.capacity_Ah.max(), b.capacity_Ah.max())
    grid = np.linspace(lo, hi, n)
    va = np.interp(grid, a.capacity_Ah, a.voltage)
    vb = np.interp(grid, b.capacity_Ah, b.voltage)
    return float(np.max(np.abs(va - vb)))


# the MINPACK info code that each least_squares status stands for
LEASTSQ_INFO = {-1: 0, 0: 5, 1: 4, 2: 1, 3: 2, 4: 3}


def as_lmder(res):
    """A least_squares result as MINPACK's lmder returns it, (x, infodict,
    ier), with least_squares' status mapped back to the MINPACK info code
    it stands for."""
    info = {"fvec": res.fun, "nfev": res.nfev, "njev": res.njev}
    return res.x, info, LEASTSQ_INFO[res.status]


def least_squares_lm(fun, Dfun, x0, args, full_output, col_deriv, ftol, xtol,
                     gtol, maxfev, factor, diag, jac=None):
    """Stand-in for MINPACK's lmder (measurement._minpack._lmder), taking
    its positional arguments: scipy's least_squares with method="lm" on the
    problem extract_esoh hands lmder, to the same tolerances, with Dfun as
    the Jacobian unless jac is given."""
    return as_lmder(least_squares(
        fun, x0, jac=Dfun if jac is None else jac, method="lm",
        x_scale="jac", ftol=ftol, xtol=xtol, gtol=gtol))


def bounded_trf(params, C_meas):
    """Stand-in for MINPACK's lmder: the solver the eSOH fit used before
    MINPACK, scipy's bounded trust-region reflective method, in the box
    that kept the window ends x_0 and y_0 on their OCP tables. It fits the
    residual and Jacobian extract_esoh hands lmder, to the same
    tolerances, so only the solver differs; the answer comes back as
    lmder's."""
    lo = np.array([0.5 * C_meas, 0.5 * C_meas, params.ocp_neg.s_min, 0.4])
    hi = np.array([8.0 * C_meas, 8.0 * C_meas, 0.4, params.ocp_pos.s_max])

    def solve(fun, Dfun, theta0, *_):
        return as_lmder(least_squares(
            fun, np.clip(theta0, lo, hi), jac=Dfun, bounds=(lo, hi),
            method="trf", x_scale="jac", ftol=1e-14, xtol=1e-14, gtol=1e-14))
    return solve


def scipy_leastsq(fun, Dfun, x0, args, full_output, col_deriv, ftol, xtol,
                  gtol, maxfev, factor, diag):
    """Stand-in for MINPACK's lmder: scipy.optimize.leastsq given lmder's
    arguments, its answer as lmder's (x, infodict, ier). leastsq checks the
    shapes first, with one more residual and Jacobian at x0, and calls
    lmder on a copy of x0."""
    x, _, info, _, ier = leastsq(fun, x0, args, Dfun, full_output, col_deriv,
                                 ftol, xtol, gtol, maxfev, factor=factor,
                                 diag=diag)
    return x, info, ier


def esoh_least_squares_oracle(curve, params, capacity=None):
    """measurement.extract_esoh as it was written on scipy's least_squares
    (method="lm"): the same residual, Jacobian and checks, the residual
    and Jacobian evaluated afresh at each call."""
    q = np.asarray(curve.capacity_Ah, dtype=float)
    v = np.asarray(curve.voltage, dtype=float)
    if q.ndim != 1 or q.shape != v.shape or len(q) < 8:
        raise ConfigError("pseudo-OCV curve needs matching 1-D columns, >= 8 rows")
    if not (np.isfinite(q).all() and np.isfinite(v).all()):
        raise ConfigError("pseudo-OCV curve holds a non-finite value")
    C_meas = capacity if capacity is not None else float(q[-1] - q[0])
    if not 0.0 < C_meas < math.inf:
        raise ConfigError(f"curve capacity must be finite and > 0, got {C_meas!r}")
    span = 0.15
    if v.min() > params.V_min + span or v.max() < params.V_max - span:
        raise ConfigError(
            f"curve [{v.min():.3f}, {v.max():.3f}] V does not span the "
            f"window [{params.V_min}, {params.V_max}] V")

    tp, tn = params.ocp_pos, params.ocp_neg
    fresh = params.fresh_window
    ratio = min(max(C_meas / fresh.C, 0.3), 1.5)
    theta0 = np.array([params.C_p_nom * ratio, params.C_n_nom * ratio,
                       fresh.x_0, fresh.y_0])
    n = len(q)
    dq = np.append(C_meas - q, (0.0, C_meas))

    def stoichiometries(theta):
        C_p, C_n, x_0, y_0 = theta
        x = x_0 + dq / C_n
        y = y_0 - dq / C_p
        return x, y, np.clip(x, tn.s_min, tn.s_max), np.clip(y, tp.s_min, tp.s_max)

    def residuals(theta):
        x, y, x_c, y_c = stoichiometries(theta)
        vm = tp(y_c) - tn(x_c)
        return np.concatenate([
            vm[:n] - v,
            ENDPOINT_WEIGHT * (vm[n:] - (params.V_min, params.V_max)),
            [1e3 * np.abs(x - x_c).max(), 1e3 * np.abs(y - y_c).max()],
        ])

    def jacobian(theta):
        C_p, C_n, _, _ = theta
        x, y, x_c, y_c = stoichiometries(theta)
        dp = tp.derivative(y_c) * (y == y_c)
        dn = tn.derivative(x_c) * (x == x_c)
        J = np.zeros((n + 4, 4))
        J[:n + 2] = np.column_stack(
            [dp * dq / C_p ** 2, dn * dq / C_n ** 2, -dn, dp])
        J[n:n + 2] *= ENDPOINT_WEIGHT
        k = np.argmax(np.abs(x - x_c))
        sign = 1e3 * np.sign(x[k] - x_c[k])
        J[n + 2, [1, 2]] = -sign * dq[k] / C_n ** 2, sign
        k = np.argmax(np.abs(y - y_c))
        sign = 1e3 * np.sign(y[k] - y_c[k])
        J[n + 3, [0, 3]] = sign * dq[k] / C_p ** 2, sign
        return J

    res = least_squares(residuals, theta0, jac=jacobian, method="lm",
                        x_scale="jac", ftol=1e-14, xtol=1e-14, gtol=1e-14)
    rms = math.sqrt(float(np.mean(res.fun[:n] ** 2)))
    if not res.success or not rms <= 0.05 or not np.isfinite(res.x).all():
        raise EstimationFailedError(
            f"eSOH fit did not converge (status {res.status}, "
            f"rms {rms * 1e3:.2f} mV)")
    C_p, C_n, x_0, y_0 = (float(t) for t in res.x)
    return ESOHRecord(
        C=C_meas, C_p=C_p, C_n=C_n,
        x_0=x_0, x_100=x_0 + C_meas / C_n,
        y_0=y_0, y_100=y_0 - C_meas / C_p,
        n_li=3600.0 / params.F * (x_0 * C_n + y_0 * C_p),
        fit_rms_v=rms,
    )


@functools.lru_cache(maxsize=None)
def _scipy_pchip(table):
    """scipy's interpolant through a table's rows, and its derivative."""
    pchip = PchipInterpolator(table.stoich, table.potential, extrapolate=False)
    return pchip, pchip.derivative()


def ocp_oracle(table, s):
    """(U, dU/ds) of a MonotoneOCPTable at the scalar s: snap into the 1e-9
    band, then evaluate scipy's own PchipInterpolator and its derivative."""
    s = float(s)
    if not (table.s_min <= s <= table.s_max):
        snap = 1e-9 * (table.s_max - table.s_min)
        if table.s_min - snap <= s <= table.s_min:
            s = table.s_min
        elif table.s_max <= s <= table.s_max + snap:
            s = table.s_max
        else:
            raise SaturationError(
                f"{table.name}: stoichiometry {s:.6g} outside table "
                f"[{table.s_min:.6g}, {table.s_max:.6g}]")
    pchip, dpchip = _scipy_pchip(table)
    return float(pchip(s)), float(dpchip(s))


def c_ss(sp, c, j):
    """Surface concentration of a SphereFV profile from the outermost shell
    and the flux boundary condition."""
    return float(c[-1]) - 0.5 * sp.dr * j / sp.D


def moles(sp, c):
    """Lithium content of one SphereFV particle, mol: a numpy oracle, not
    the kernel's BLAS average."""
    return float(sp.volumes @ c)


def _particle_step_oracle(sp, c, j, dt):
    """SphereFV.step without its cache fetch or carried enclosure: P c - s Pe
    by the same dgemv on a fresh transposed view of P, and the exact range
    check on every step. It keeps the keyword call (trans=1) on purpose:
    an independent reference for the step's positional one."""
    P, Pe = sp._propagator(dt)[:2]
    c_new = dgemv(1.0, P.T, c, -(dt * j), Pe, trans=1)
    if c_new.min() < 0.0 or c_new.max() > sp.c_smax:
        raise SaturationError(f"{sp.name} particle left [0, c_smax]")
    return c_new


def count_advances(cell, monkeypatch):
    """Record (I, dt) of every step evaluation the cell makes from here on:
    each call of cellfade.cell.advance, which monkeypatch replaces, made
    from the cell's own particle state."""
    calls = []
    real = cell_module.advance

    def counted(params, deg_params, n_li0, state, I, dt, frozen):
        if state[0] is cell.particles:
            calls.append((I, dt))
        return real(params, deg_params, n_li0, state, I, dt, frozen)
    monkeypatch.setattr(cell_module, "advance", counted)
    return calls


def cell_step_oracle(cell, I, dt):
    """Cell.step composed from public pieces, writing nothing into cell:
    the areas from each side's Electrode.area on every call, a zero side
    current for a frozen probe, the degradation step from
    step_degradation_oracle (its state built by DegradationState.__init__),
    both particles stepped by _particle_step_oracle and the new state's
    means moved from the old one's by the flux through the surface,
    -dt j area_surf / total_volume on each side.
    Returns (record, (particles, degradation, extrema)), the step's record
    and the state it leaves, in Cell.get_state's order."""
    p, degp, d = cell.params, cell.deg_params, cell.degradation
    pos, neg, particles = p.pos, p.neg, cell.particles
    area_p, area_n = pos.area(d.C_p), neg.area(d.C_n)
    f_area_p, f_area_n = p.F * area_p, p.F * area_n
    c_ss_n = float(particles.c_neg[-1]) - neg.half_dr * (I / f_area_n) / neg.D
    if cell.freeze_degradation:
        deg_new, i_side = d, 0.0
    else:
        eta_neg = neg.overpotential(I / area_n, c_ss_n)
        u_neg = neg.ocp(c_ss_n / neg.c_smax)
        deg_new, i_side = step_degradation_oracle(
            p, degp, d, eta_neg, u_neg, c_ss_n, particles.averages[1],
            cell.n_li0, dt)
    j_neg = (I - i_side) / f_area_n
    j_pos = -I / f_area_p
    c_avg_p, c_avg_n = particles.averages[:2]
    parts = particle_state(
        p, _particle_step_oracle(pos, particles.c_pos, j_pos, dt),
        _particle_step_oracle(neg, particles.c_neg, j_neg, dt), means=(
            c_avg_p - dt * j_pos * (pos.area_surf / pos.total_volume),
            c_avg_n - dt * j_neg * (neg.area_surf / neg.total_volume)))
    c_ss_p = float(parts.c_pos[-1]) - pos.half_dr * j_pos / pos.D
    c_ss_n = float(parts.c_neg[-1]) - neg.half_dr * j_neg / neg.D
    v_t = terminal_voltage(p, c_ss_p, c_ss_n, I, r_film(p, degp, deg_new)[1],
                           -I / area_p, I / area_n)
    c_avg_p, c_avg_n, y, x = parts.averages
    sig_p = hydrostatic_stress(degp.lam.stress_gain_pos, pos, c_ss_p, c_avg_p)
    sig_n = hydrostatic_stress(degp.lam.stress_gain_neg, neg, c_ss_n, c_avg_n)
    record = {"I": I, "V": v_t, "x": x, "y": y}
    return record, (parts, deg_new, cell.extrema.update(sig_p, sig_n))


_INTEGERS = (int, np.integer)


def write_csv_oracle(path, columns):
    """io.write_csv as it was written before its rows were formatted by %
    and written in chunks: a type test and a str or repr per value, and
    one write per row."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in zip(*columns.values(), strict=True):
            f.write(",".join([str(int(v)) if isinstance(v, _INTEGERS)
                              else repr(float(v)) for v in row]) + "\n")


def sphere_surface_under_constant_flux(r_p, D, c0, j, t, terms=200):
    """Exact surface concentration of a sphere at c0 whose surface loses
    the molar flux j from t = 0 (Carslaw & Jaeger, "Conduction of Heat in
    Solids", 2nd ed., 1959, the sphere under constant surface flux):
    c0 - (j r_p/D) (3Dt/r_p^2 + 1/5 - 2 sum exp(-D l^2 t/r_p^2) / l^2)
    over the positive roots l of tan l = l, one in each (n pi, n pi + pi/2).
    The default 200 terms hold it to round-off once D t/r_p^2 > 1e-4."""
    tail = 0.0
    for n in range(1, terms + 1):
        lam = brentq(lambda x: math.sin(x) - x * math.cos(x),
                     n * math.pi, (n + 0.5) * math.pi, xtol=1e-15)
        tail += math.exp(-D * lam * lam * t / r_p ** 2) / (lam * lam)
    return c0 - j * r_p / D * (3.0 * D * t / r_p ** 2 + 0.2 - 2.0 * tail)


def ocp(params, electrode, stoichiometry):
    """Open-circuit potential of one electrode at a stoichiometry."""
    table = params.ocp_pos if electrode == "pos" else params.ocp_neg
    return table(stoichiometry)


# --- kinetics by electrode name: the oracles of electrochem.Electrode ---

def active_area(params, electrode, capacity_Ah):
    """Total interfacial area A*l*a_s, m^2, at a given capacity."""
    if electrode == "pos":
        l, cmax, r = params.l_pos, params.c_smax_pos, params.r_p_pos
    else:
        l, cmax, r = params.l_neg, params.c_smax_neg, params.r_p_neg
    eps_s = 3600.0 * capacity_Ah / (params.A * params.F * l * cmax)
    return params.A * l * (3.0 * eps_s / r)


def exchange_current_density(params, electrode, c_ss):
    """i0 in A/m^2; vanishes at an empty or saturated surface."""
    cmax = params.c_smax_pos if electrode == "pos" else params.c_smax_neg
    k0 = params.k0_pos if electrode == "pos" else params.k0_neg
    if c_ss < 0.0 or c_ss > cmax:
        raise SaturationError(
            f"{electrode} surface concentration {c_ss:.6g} outside [0, {cmax:g}]")
    a = params.alpha
    return k0 * params.c_e ** (1.0 - a) * (cmax - c_ss) ** (1.0 - a) * c_ss ** a


def interfacial_current_density(params, electrode, I, capacity_Ah):
    """Per-area intercalation current density, A/m^2, positive
    delithiating."""
    area = active_area(params, electrode, capacity_Ah)
    return I / area if electrode == "neg" else -I / area


def overpotential(params, electrode, j, c_ss):
    """Butler-Volmer overpotential, V, at interfacial current density j."""
    if j == 0.0:
        return 0.0
    i0 = exchange_current_density(params, electrode, c_ss)
    if i0 == 0.0:
        raise KineticsSingularError(
            f"{electrode} exchange current is zero with nonzero current "
            f"density {j:g} A/m^2")
    return 2.0 * params.R_gas * params.T / params.F * math.asinh(j / (2.0 * i0))


def molar_flux(params, electrode, I, capacity_Ah):
    """Surface molar flux for the diffusion step, mol/(m^2 s), outflow positive."""
    return interfacial_current_density(params, electrode, I, capacity_Ah) / params.F


# --- film growth term by term: the oracles of step_degradation ---

def sei_overpotential(eta_neg, u_neg_surface, U_sei):
    """Driving overpotential of the film reaction."""
    return eta_neg + u_neg_surface - U_sei


def sei_rate_constant(sei, eta_sei, T, R_gas, F):
    """Kinetic rate constant of solvent reduction at overpotential
    eta_sei, m/s."""
    return sei.k_sei * math.exp(-sei.alpha_sei * F * eta_sei / (R_gas * T))


def sei_implicit_step(sei, delta, kin, dt):
    """Backward-Euler thickness update d' = d + dt*(Omega*c_ec0/2)/(K + d'/D)
    with K = 1/kin, solved for the growth u = d' - d: the positive root of
    u^2/D + (K + d/D) u - G = 0, G = dt*Omega*c_ec0/2, in the form that
    adds only positive terms."""
    G = dt * sei.Omega_sei * sei.c_ec0 / 2.0
    D = sei.D_sei
    B = 1.0 / kin + delta / D
    u = 2.0 * G / (B + math.sqrt(B * B + 4.0 * G / D))
    return delta + u


def sei_exact_step_residual(sei, delta, delta_new, kin, dt):
    """Residual of the exact one-step SEI law at a fixed rate constant:
    (K + d/D) dd = (Omega*c_ec0/2) dt integrated over the step gives
    K(d' - d) + (d'^2 - d^2)/(2D) = G, with K = 1/kin and
    G = dt*Omega*c_ec0/2. The backward-Euler step (d' - d)(K + d'/D) = G
    leaves -(d' - d)^2/(2D) here."""
    K = 1.0 / kin
    G = dt * sei.Omega_sei * sei.c_ec0 / 2.0
    D = sei.D_sei
    return K * (delta_new - delta) + (delta_new ** 2 - delta ** 2) / (2.0 * D) - G


def plating_overpotential(eta_neg, u_neg_surface):
    return eta_neg + u_neg_surface


def plating_flux(plating, params, c_ss_neg, c_avg_neg, eta_pl):
    """Plating molar flux, mol/(m^2 s); negative when depositing."""
    drive = (c_ss_neg - c_avg_neg) / params.c_smax_neg
    if plating.k_pl == 0.0:
        return 0.0
    expo = math.exp(-plating.alpha_pl * params.F * eta_pl
                    / (params.R_gas * params.T))
    return -plating.k_pl * params.c_e * drive * expo


def plating_growth_rate(plating, j_pl):
    """Thickness growth, m/s; deposition only, the model has no stripping."""
    return plating.Omega_pl * max(0.0, -j_pl)


def step_degradation_oracle(params, deg, state, eta_neg, u_neg_surface,
                            c_ss_neg, c_avg_neg, n_li0, dt):
    """degradation.step_degradation composed from the helpers above."""
    sei = deg.sei
    pl = deg.plating
    eta_sei = sei_overpotential(eta_neg, u_neg_surface, sei.U_sei)
    kin = sei_rate_constant(sei, eta_sei, params.T, params.R_gas, params.F)
    d_sei_new = sei_implicit_step(sei, state.delta_sei, kin, dt)
    eta_pl = plating_overpotential(eta_neg, u_neg_surface)
    j_pl = plating_flux(pl, params, c_ss_neg, c_avg_neg, eta_pl)
    d_pl_new = state.delta_pl + dt * plating_growth_rate(pl, j_pl)
    dn_sei = 2.0 * params.film_area_neg * (d_sei_new - state.delta_sei) / sei.Omega_sei
    dn_pl = params.film_area_neg * (d_pl_new - state.delta_pl) / pl.Omega_pl
    lli_new = state.LLI + (dn_sei + dn_pl) / n_li0
    new = DegradationState(d_sei_new, d_pl_new, state.C_p, state.C_n, lli_new)
    return new, -params.F * (dn_sei + dn_pl) / dt


def sei_flux(sei, delta_sei, kin):
    """Solvent-reduction molar flux, mol/(m^2 s), always <= 0.

    Kinetic and film-transport resistances compose in series; growth is
    self-limiting because the transport term scales with thickness.
    kin is the kinetic rate constant from sei_rate_constant, m/s.
    """
    return -sei.c_ec0 / (1.0 / kin + delta_sei / sei.D_sei)


def sei_flux_ddelta(sei, delta_sei, eta_sei, T, R_gas, F):
    """Closed-form d(j_sei)/d(delta_sei) at fixed overpotential."""
    kin = sei_rate_constant(sei, eta_sei, T, R_gas, F)
    S = 1.0 / kin + delta_sei / sei.D_sei
    return sei.c_ec0 / (sei.D_sei * S * S)


def sei_growth_rate(sei, j_sei):
    """Film thickness growth rate, m/s, >= 0."""
    return -sei.Omega_sei * j_sei / 2.0


def lli_rate(params, sei, plating, ddelta_sei_dt, ddelta_pl_dt,
             dC_p_dt, dC_n_dt, x, y, n_li0):
    """Normalized inventory loss rate, 1/s.

    Film terms convert growth rates back to molar consumption; the
    material-loss term books the lithium trapped in lost host sites at
    the prevailing stoichiometries. Capacity rates are <= 0, so every
    contribution here is >= 0.
    """
    film = params.film_area_neg * (2.0 * ddelta_sei_dt / sei.Omega_sei
                                   + ddelta_pl_dt / plating.Omega_pl)
    trapped = -(3600.0 / params.F) * (y * dC_p_dt + x * dC_n_dt)
    return (film + trapped) / n_li0


# --- scipy's brentq and numpy's linspace: the oracles of the root and
# sampling arithmetic the package does on Python floats ---

def solve_window_oracle(params, C_p, C_n, n_li):
    """electrochem.solve_window as it was written on scipy.optimize.brentq,
    re-evaluating the OCV at the bracket ends for each window end."""
    if C_p <= 0.0 or C_n <= 0.0 or n_li <= 0.0:
        raise CellDeadError("capacities and lithium inventory must be positive")
    N_Ah = n_li * params.F / 3600.0
    tp, tn = params.ocp_pos, params.ocp_neg

    def y_of(x):
        return (N_Ah - x * C_n) / C_p

    lo = max(tn.s_min, (N_Ah - C_p * tp.s_max) / C_n)
    hi = min(tn.s_max, (N_Ah - C_p * tp.s_min) / C_n)
    if not lo < hi:
        raise CellDeadError("no stoichiometry range is consistent with the inventory")

    def ocv(x):
        return tp(y_of(x)) - tn(x)

    def endpoint(V, label):
        f = lambda x: ocv(x) - V
        flo, fhi = f(lo), f(hi)
        if flo >= 0.0 and fhi >= 0.0:
            raise CellDeadError(f"{label}: OCV cannot reach down to {V:g} V")
        if flo <= 0.0 and fhi <= 0.0:
            raise CellDeadError(f"{label}: OCV cannot reach up to {V:g} V")
        return brentq(f, lo, hi, xtol=1e-13)

    x_100 = endpoint(params.V_max, "top of charge")
    x_0 = endpoint(params.V_min, "bottom of discharge")
    if not x_0 < x_100:
        raise CellDeadError("voltage window collapsed")
    return ESOHRecord(
        C=C_n * (x_100 - x_0),
        C_p=C_p, C_n=C_n,
        x_0=x_0, x_100=x_100,
        y_0=y_of(x_0), y_100=y_of(x_100),
        n_li=n_li,
    )


def inverse_oracle(table, v):
    """MonotoneOCPTable.inverse as it was written on scipy.optimize.brentq,
    in the range of the interpolant's own end values."""
    lo, hi = table(table.s_max), table(table.s_min)
    if not (lo <= v <= hi):
        raise SaturationError(
            f"{table.name}: potential {v:.6g} outside table range "
            f"[{lo:.6g}, {hi:.6g}]")
    pv, ps = table.potential[::-1], table.stoich[::-1]
    j = int(np.searchsorted(pv, v))
    j = min(max(j, 1), len(pv) - 1)
    a, b = ps[j], ps[j - 1]
    if table(a) == v:
        return float(a)
    if table(b) == v:
        return float(b)
    return float(brentq(lambda s: table(s) - v, a, b, xtol=1e-14))


def sample_family_oracle(result, y, n):
    """identify.sample_family with its parameters drawn by np.linspace."""
    (a_sei, a_pl), (b_sei, b_pl) = result.family_endpoints
    ts = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.5])
    ra, rb = math.sqrt(a_sei), math.sqrt(b_sei)
    out = []
    for t in ts:
        d_sei = (ra + (rb - ra) * t) ** 2
        frac = (d_sei - a_sei) / (b_sei - a_sei) if b_sei != a_sei else t
        frac = min(max(frac, 0.0), 1.0)
        d_pl = a_pl + (b_pl - a_pl) * frac
        out.append(DegradationState(d_sei, d_pl, y.C_p, y.C_n, y.LLI))
    return out


def outcome(fn, *args):
    """fn(*args) as ("ok", value) or ("raised", type name, message): a
    result to compare with an oracle's, exceptions included."""
    try:
        return ("ok", fn(*args))
    except (ArithmeticError, CellDeadError, RuntimeError, SaturationError,
            ValueError) as e:
        return ("raised", type(e).__name__, str(e))
