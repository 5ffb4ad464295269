"""Shared test utilities: randomized state/window draws, curve comparison,
and closed-form oracles that the package itself does not need."""

import bisect
from importlib import resources

import numpy as np

from cellfade import io as cio
from cellfade.degradation import (DegradationState, plated_lithium_moles,
                                  sei_lithium_moles, sei_rate_constant)
from cellfade.electrochem import interfacial_current_density, solve_window
from cellfade.errors import CellDeadError, SaturationError
from cellfade.identify import invert_without_expansion, sample_family
from cellfade.measurement import forward_measure
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


def ocp_oracle(table, s):
    """(U, dU/ds) of a MonotoneOCPTable at the scalar s, located the way
    the table first did it: snap into the 1e-9 band, unbounded bisect,
    clamp to the last segment, Horner on scipy's own coefficients."""
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
    breaks = table._pchip.x.tolist()
    c0, c1, c2, c3 = (row.tolist() for row in table._pchip.c)
    i = bisect.bisect_right(breaks, s) - 1
    if i >= len(c0):
        i = len(c0) - 1
    dx = s - breaks[i]
    value = ((c0[i] * dx + c1[i]) * dx + c2[i]) * dx + c3[i]
    slope = (3.0 * c0[i] * dx + 2.0 * c1[i]) * dx + c2[i]
    return value, slope


def moles(sp, c):
    """Lithium content of one SphereFV particle, mol: a numpy oracle, not
    the kernel's BLAS average."""
    return float(sp.volumes @ c)


def molar_flux(params, electrode, I, capacity_Ah):
    """Surface molar flux for the diffusion step, mol/(m^2 s), outflow positive."""
    return interfacial_current_density(params, electrode, I, capacity_Ah) / params.F


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
