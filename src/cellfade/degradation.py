"""Degradation mechanisms and their coupled state.

State vector: SEI thickness, plated-lithium thickness, the two electrode
capacities, and the fractional loss of lithium inventory. Film thicknesses
only grow; capacities only shrink. Lithium bookkeeping runs through the
frozen pristine interfacial area (params.a_s0_neg) so that thickness,
consumed moles, and the LLI integral stay algebraically identical.

Sign conventions: side-reaction molar fluxes are <= 0 (lithium leaving the
cyclable pool); every physically lossy process increases LLI.
"""

import math
from dataclasses import dataclass

from .errors import CellDeadError, ConfigError


@dataclass(frozen=True)
class DegradationState:
    delta_sei: float   # m
    delta_pl: float    # m
    C_p: float         # Ah
    C_n: float         # Ah
    LLI: float         # fraction of pristine inventory lost

    def __init__(self, delta_sei, delta_pl, C_p, C_n, LLI):
        # Fields are stored as Python floats: a numpy scalar (from a
        # linspace or a root solve) would carry its slower arithmetic into
        # every step that starts from this state.
        delta_sei = float(delta_sei)
        delta_pl = float(delta_pl)
        C_p = float(C_p)
        C_n = float(C_n)
        LLI = float(LLI)
        if delta_sei < 0.0 or delta_pl < 0.0:
            raise ConfigError("film thicknesses must be non-negative")
        if C_p <= 0.0 or C_n <= 0.0:
            raise CellDeadError("electrode capacity must be positive")
        if not (0.0 <= LLI < 1.0):
            raise ConfigError(f"LLI must be in [0,1), got {LLI}")
        # frozen: fill the fields past the blocked __setattr__
        self.__dict__.update(delta_sei=delta_sei, delta_pl=delta_pl,
                             C_p=C_p, C_n=C_n, LLI=LLI)

    def copy(self):
        return DegradationState(self.delta_sei, self.delta_pl,
                                self.C_p, self.C_n, self.LLI)

    def as_dict(self):
        return {"delta_sei": self.delta_sei, "delta_pl": self.delta_pl,
                "C_p": self.C_p, "C_n": self.C_n, "LLI": self.LLI}


# --- SEI ---

def sei_overpotential(eta_neg, u_neg_surface, U_sei):
    """Driving overpotential of the film reaction."""
    return eta_neg + u_neg_surface - U_sei


def sei_rate_constant(sei, eta_sei, T, R_gas, F):
    """Kinetic rate constant of solvent reduction at overpotential
    eta_sei, m/s."""
    return sei.k_sei * math.exp(-sei.alpha_sei * F * eta_sei / (R_gas * T))


def sei_lithium_moles(params, sei, delta_sei):
    """Lithium locked in a film of the given thickness, mol."""
    return 2.0 * params.film_area_neg * delta_sei / sei.Omega_sei


def _sei_implicit_step(sei, delta, kin, dt):
    """Backward-Euler thickness update, exact via the quadratic it implies.

    d' solves d' = d + dt*(Omega*c_ec0/2)/(K + d'/D): growth evaluated at
    the new thickness, which keeps the diffusion-limited tail stable at
    long strides. Kinetic and film-transport resistances compose in
    series, K = 1/kin with kin from sei_rate_constant (m/s), so growth is
    self-limiting.
    """
    K = 1.0 / kin
    G = dt * sei.Omega_sei * sei.c_ec0 / 2.0
    D = sei.D_sei
    # (1/D) d'^2 + (K - d/D) d' - (K d + G) = 0, take the positive root
    a = 1.0 / D
    b = K - delta / D
    c = -(K * delta + G)
    disc = b * b - 4.0 * a * c
    d_new = (-b + math.sqrt(disc)) / (2.0 * a)
    return max(d_new, delta)


# --- lithium plating ---

def plating_overpotential(eta_neg, u_neg_surface):
    return eta_neg + u_neg_surface


def plating_flux(plating, params, c_ss_neg, c_avg_neg, eta_pl):
    """Plating molar flux, mol/(m^2 s); negative when depositing.

    The surface-enrichment factor (c_ss - c_avg) keeps the mechanism
    quiet at rest and during discharge without an explicit clamp.
    """
    drive = (c_ss_neg - c_avg_neg) / params.c_smax_neg
    if plating.k_pl == 0.0:
        return 0.0
    expo = math.exp(-plating.alpha_pl * params.F * eta_pl
                    / (params.R_gas * params.T))
    return -plating.k_pl * params.c_e * drive * expo


def plating_growth_rate(plating, j_pl):
    """Thickness growth, m/s; deposition only, the model has no stripping."""
    return plating.Omega_pl * max(0.0, -j_pl)


def plated_lithium_moles(params, plating, delta_pl):
    """Lithium held in the plated film, mol."""
    return params.film_area_neg * delta_pl / plating.Omega_pl


# --- mechanical stress and material loss ---

def hydrostatic_stress(lam, electrode, c_ss, c_avg, params):
    """Surface hydrostatic stress closure, Pa.

    Tensile (positive) when the surface is depleted relative to the bulk,
    i.e. during discharge on the negative electrode.
    """
    if electrode == "pos":
        gain, cmax = lam.stress_gain_pos, params.c_smax_pos
    else:
        gain, cmax = lam.stress_gain_neg, params.c_smax_neg
    return gain * (c_avg - c_ss) / cmax


@dataclass(frozen=True)
class StressExtrema:
    """Per-cycle stress envelope, Pa."""
    sigma_max_pos: float = 0.0
    sigma_min_pos: float = 0.0
    sigma_max_neg: float = 0.0
    sigma_min_neg: float = 0.0

    def update(self, sigma_pos, sigma_neg):
        """The envelope widened to hold both stresses; itself when it
        already does."""
        if (self.sigma_min_pos <= sigma_pos <= self.sigma_max_pos
                and self.sigma_min_neg <= sigma_neg <= self.sigma_max_neg):
            return self
        return StressExtrema(max(self.sigma_max_pos, sigma_pos),
                             min(self.sigma_min_pos, sigma_pos),
                             max(self.sigma_max_neg, sigma_neg),
                             min(self.sigma_min_neg, sigma_neg))


def lam_cycle_update(state, extrema, lam, params):
    """Apply one cycle's fatigue loss to the electrode capacities.

    Returns (new_state, dC_p_loss, dC_n_loss) with losses >= 0 in Ah.
    The within-cycle capacities are frozen; this runs once per cycle.
    """
    def frac(beta1, beta2, smax, smin, scrit):
        return (beta1 * (abs(smax) / scrit) ** lam.m_lam
                + beta2 * (abs(smin) / scrit) ** lam.m_lam)

    deps_pos = frac(lam.beta1_pos, lam.beta2_pos,
                    extrema.sigma_max_pos, extrema.sigma_min_pos,
                    lam.sigma_crit_pos)
    deps_neg = frac(lam.beta1_neg, lam.beta2_neg,
                    extrema.sigma_max_neg, extrema.sigma_min_neg,
                    lam.sigma_crit_neg)
    dC_p = deps_pos * params.A * params.F * params.l_pos * params.c_smax_pos / 3600.0
    dC_n = deps_neg * params.A * params.F * params.l_neg * params.c_smax_neg / 3600.0
    C_p_new = state.C_p - dC_p
    C_n_new = state.C_n - dC_n
    if C_p_new <= 0.0 or C_n_new <= 0.0:
        raise CellDeadError("fatigue loss drove an electrode capacity to zero")
    new = DegradationState(state.delta_sei, state.delta_pl,
                           C_p_new, C_n_new, state.LLI)
    return new, dC_p, dC_n


@dataclass
class StepIncrements:
    """What one coupled step consumed, for flux splitting and audits."""
    i_side: float     # side-reaction current, A, <= 0
    dn_sei: float     # mol of lithium into SEI this step
    dn_pl: float      # mol of lithium plated this step


def step_degradation(params, deg, state, eta_neg, u_neg_surface,
                     c_ss_neg, c_avg_neg, x, y, n_li0, dt):
    """Advance film thicknesses and LLI over one timestep.

    Capacities are untouched here (fatigue applies per cycle). Returns
    (new_state, StepIncrements). The caller splits the applied current
    using i_side before stepping the particles.
    """
    sei = deg.sei
    pl = deg.plating
    eta_sei = sei_overpotential(eta_neg, u_neg_surface, sei.U_sei)
    kin = sei_rate_constant(sei, eta_sei, params.T, params.R_gas, params.F)
    d_sei_new = _sei_implicit_step(sei, state.delta_sei, kin, dt)

    eta_pl = plating_overpotential(eta_neg, u_neg_surface)
    j_pl = plating_flux(pl, params, c_ss_neg, c_avg_neg, eta_pl)
    d_pl_new = state.delta_pl + dt * plating_growth_rate(pl, j_pl)

    # moles from the same thickness increments that the state keeps,
    # so the component reconstruction matches the LLI integral exactly
    dn_sei = 2.0 * params.film_area_neg * (d_sei_new - state.delta_sei) / sei.Omega_sei
    dn_pl = params.film_area_neg * (d_pl_new - state.delta_pl) / pl.Omega_pl
    lli_new = state.LLI + (dn_sei + dn_pl) / n_li0

    new = DegradationState(d_sei_new, d_pl_new, state.C_p, state.C_n, lli_new)
    inc = StepIncrements(
        i_side=-params.F * (dn_sei + dn_pl) / dt,
        dn_sei=dn_sei, dn_pl=dn_pl)
    return new, inc
