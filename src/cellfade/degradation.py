"""Degradation mechanisms and their coupled state.

State vector: SEI thickness, plated-lithium thickness, the two electrode
capacities, and the fractional loss of lithium inventory. Film thicknesses
only grow; capacities only shrink. Lithium bookkeeping runs through the
frozen pristine interfacial area (params.film_area_neg) so that thickness,
consumed moles, and the LLI integral stay algebraically identical.

Sign conventions: side-reaction molar fluxes are <= 0 (lithium leaving the
cyclable pool); every physically lossy process increases LLI.

The film model lives here whole, and no other module reads its coefficients:
film lithium, resistance and expansion, and the iso-resistance family.
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

    def grown(self, delta_sei, delta_pl, LLI):
        """This state with the films and LLI that step_degradation grew,
        made without __init__: the step passes floats, grows each film by
        an amount >= 0 and keeps the capacities, so only LLI is checked:
        the films may take all the lithium there is, which ends the cell."""
        if not (0.0 <= LLI < 1.0):
            if LLI >= 1.0:
                raise CellDeadError("lithium inventory exhausted")
            raise ConfigError(f"LLI must be in [0,1), got {LLI}")
        new = object.__new__(DegradationState)
        new.__dict__.update(self.__dict__, delta_sei=delta_sei,
                            delta_pl=delta_pl, LLI=LLI)
        return new

    def copy(self):
        return DegradationState(self.delta_sei, self.delta_pl,
                                self.C_p, self.C_n, self.LLI)

    def as_dict(self):
        return {"delta_sei": self.delta_sei, "delta_pl": self.delta_pl,
                "C_p": self.C_p, "C_n": self.C_n, "LLI": self.LLI}


# --- film lithium ---

def sei_lithium_moles(params, sei, delta_sei):
    """Lithium locked in a film of the given thickness, mol."""
    return 2.0 * params.film_area_neg * delta_sei / sei.Omega_sei


def plated_lithium_moles(params, plating, delta_pl):
    """Lithium held in the plated film, mol."""
    return params.film_area_neg * delta_pl / plating.Omega_pl


BUDGET_TOL = 1e-9   # fracture share below zero that is still round-off


def deep_soh(params, deg_params, state, n_li0):
    """deepSOH: the state's LLI split into the fractions of n_li0 held in
    the SEI and plated films and, by difference, stranded by fracture."""
    sei = sei_lithium_moles(params, deg_params.sei, state.delta_sei) / n_li0
    pl = plated_lithium_moles(params, deg_params.plating, state.delta_pl) / n_li0
    return {"sei": sei, "plating": pl, "fracture": state.LLI - sei - pl}


def within_lli_budget(fracture):
    """Whether a deepSOH fracture share keeps the LLI budget: the films
    hold no more lithium than the state has lost."""
    return fracture >= -BUDGET_TOL


# --- film resistance and expansion ---

def r_film(params, deg_params, state):
    """Film resistance from the two layer thicknesses.

    Returns (area_specific ohm*m^2, cell ohm). The cell value spreads the
    areal film over the pristine negative interfacial area.
    """
    areal = (state.delta_sei / deg_params.sei.kappa_sei
             + state.delta_pl / deg_params.plating.kappa_pl)
    return areal, areal / params.film_area_neg


def point_on_family(deg_params, r_areal, s):
    """(delta_sei, delta_pl) at s on the films of areal resistance r_areal.
    s=0: all SEI; s=1: all plated lithium."""
    d_sei = (1.0 - s) * deg_params.sei.kappa_sei * r_areal
    d_pl = s * deg_params.plating.kappa_pl * r_areal
    return d_sei, d_pl


def film_expansion(exp_params, delta_sei, delta_pl):
    """Expansion due to the films, m: linear in SEI, quadratic in plating."""
    return exp_params.b_sei * delta_sei + exp_params.b_pl * delta_pl ** 2


def material_loss_expansion(exp_params, C_p, C_n, C_p_nom, C_n_nom):
    """Expansion due to lost active material alone, m."""
    lam_pos = 1.0 - C_p / C_p_nom
    lam_neg = 1.0 - C_n / C_n_nom
    return exp_params.b_in_pos * lam_pos + exp_params.b_in_neg * lam_neg


# --- mechanical stress and material loss ---

def hydrostatic_stress(gain, electrode, c_ss, c_avg):
    """Surface hydrostatic stress closure, Pa, of an electrochem.Electrode
    with stress gain gain (Pa per unit stoichiometry difference).

    Tensile (positive) when the surface is depleted relative to the bulk,
    i.e. during discharge on the negative electrode.
    """
    return gain * (c_avg - c_ss) / electrode.c_smax


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


def lam_cycle_update(extrema, lam, params):
    """One cycle's fatigue loss of the electrode capacities.

    Returns (dC_p_loss, dC_n_loss), >= 0 in Ah: the active-material
    fraction each side loses times its capacity at fraction 1, inf where
    the power law overflows, a loss that no capacity survives. The
    within-cycle capacities are frozen; this runs once per cycle.
    """
    def loss(beta, sigma, scrit):
        if beta == 0.0:   # no fatigue, however far sigma is past scrit
            return 0.0
        try:
            return beta * (abs(sigma) / scrit) ** lam.m_lam
        except OverflowError:
            return math.inf

    deps_pos = (loss(lam.beta1_pos, extrema.sigma_max_pos, lam.sigma_crit_pos)
                + loss(lam.beta2_pos, extrema.sigma_min_pos, lam.sigma_crit_pos))
    deps_neg = (loss(lam.beta1_neg, extrema.sigma_max_neg, lam.sigma_crit_neg)
                + loss(lam.beta2_neg, extrema.sigma_min_neg, lam.sigma_crit_neg))
    return (deps_pos * params.pos.full_capacity,
            deps_neg * params.neg.full_capacity)


def step_degradation(params, deg, state, eta_neg, u_neg_surface,
                     c_ss_neg, c_avg_neg, n_li0, dt):
    """Advance film thicknesses and LLI over one timestep.

    Capacities are untouched here (fatigue applies per cycle). Returns
    (new_state, i_side): i_side (A, <= 0) is the side-reaction current,
    the lithium the films took this step, which the caller splits off the
    applied current before stepping the particles.

    SEI: solvent reduction at eta_neg + U-(c_ss) - U_sei, rate constant
    kin (m/s) in series with film transport, so growth self-limits. The
    thickness takes the backward-Euler step d' = d + dt*(Omega*c_ec0/2) /
    (1/kin + d'/D): growth at the new thickness keeps the diffusion-limited
    tail stable at long strides. It is solved for the growth u = d' - d,
    the positive root of u^2/D + B u - G = 0 with B = 1/kin + d/D and
    G = dt*Omega*c_ec0/2, as u = 2G / (B + sqrt(B^2 + 4G/D)): every term
    is positive, so nothing cancels, u >= 0 and films never shrink.

    Plating: flux -k_pl*c_e*drive*exp(...) at eta_neg + U-(c_ss), < 0 when
    depositing; the surface enrichment drive (c_ss - c_avg)/c_smax keeps it
    quiet at rest and in discharge. k_pl = 0 switches it off; nothing strips.

    An exponential past float range takes its law's limit: SEI kinetics
    that overflow are transport-limited (1/kin = 0), SEI kinetics that
    underflow to kin = 0 grow no film, and plating that overflows where it
    deposits takes all the lithium there is, which grown refuses with
    CellDeadError.
    """
    sei = deg.sei
    pl = deg.plating
    F = params.F
    RT = params.R_gas * params.T
    delta, delta_pl = state.delta_sei, state.delta_pl
    eta_pl = eta_neg + u_neg_surface    # plating's; the SEI's less U_sei
    try:
        kin = sei.k_sei * math.exp(-sei.alpha_sei * F * (eta_pl - sei.U_sei) / RT)
    except OverflowError:
        kin = math.inf
    G = dt * sei.Omega_sei * sei.c_ec0 / 2.0
    try:
        B = 1.0 / kin + delta / sei.D_sei
    except ZeroDivisionError:   # B = inf grows u = 0
        B = math.inf
    d_sei_new = delta + 2.0 * G / (B + math.sqrt(B * B + 4.0 * G / sei.D_sei))

    if pl.k_pl == 0.0:
        j_pl = 0.0
    else:
        drive = (c_ss_neg - c_avg_neg) / params.neg.c_smax
        try:
            rate = math.exp(-pl.alpha_pl * F * eta_pl / RT)
        except OverflowError:   # drive 0 then makes j_pl NaN: no deposit
            rate = math.inf
        j_pl = -pl.k_pl * params.c_e * drive * rate
    d_pl_new = delta_pl + dt * (pl.Omega_pl * (-j_pl if j_pl < 0.0 else 0.0))

    # moles from the same thickness increments that the state keeps,
    # so the component reconstruction matches the LLI integral exactly
    area = params.film_area_neg
    dn_sei = 2.0 * area * (d_sei_new - delta) / sei.Omega_sei
    dn_pl = area * (d_pl_new - delta_pl) / pl.Omega_pl
    dn = dn_sei + dn_pl
    return (state.grown(d_sei_new, d_pl_new, state.LLI + dn / n_li0),
            -F * dn / dt)
