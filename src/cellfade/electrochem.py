"""Cell-level electrochemistry: kinetics, terminal voltage, and the
stoichiometric operating window.

Overpotentials use the inverse symmetric Butler-Volmer form
eta = (2*R*T/F) * asinh(j / (2*i0)); alpha only shapes the exchange current.
Both electrode overpotentials are dissipative: discharge (I > 0) always
pulls the terminal voltage below the OCV.
"""

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import CellDeadError, KineticsSingularError, SaturationError


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
    """Per-area intercalation current density, A/m^2.

    Positive density delithiates the electrode: discharge (I > 0) drains
    the negative electrode and fills the positive one.
    """
    area = params.active_area(electrode, capacity_Ah)
    return I / area if electrode == "neg" else -I / area


def overpotential(params, electrode, j, c_ss):
    """Butler-Volmer overpotential, V, at interfacial current density j
    (A/m^2, positive delithiating). Odd in j, dissipative both ways."""
    if j == 0.0:
        return 0.0
    i0 = exchange_current_density(params, electrode, c_ss)
    if i0 == 0.0:
        raise KineticsSingularError(
            f"{electrode} exchange current is zero with nonzero current "
            f"density {j:g} A/m^2")
    return 2.0 * params.R_gas * params.T / params.F * math.asinh(j / (2.0 * i0))


def intercalation_overpotential(params, electrode, I, c_ss, capacity_Ah):
    """Butler-Volmer overpotential, V, under applied cell current I."""
    return overpotential(
        params, electrode,
        interfacial_current_density(params, electrode, I, capacity_Ah), c_ss)


def terminal_voltage(params, c_ss_pos, c_ss_neg, I, r_film_cell, C_p, C_n):
    """V_T = U+ + eta+ - U- - eta- - I*R_film (discharge positive)."""
    return voltage_at_densities(
        params, c_ss_pos, c_ss_neg, I, r_film_cell,
        interfacial_current_density(params, "pos", I, C_p),
        interfacial_current_density(params, "neg", I, C_n))


def voltage_at_densities(params, c_ss_pos, c_ss_neg, I, r_film_cell,
                         j_pos, j_neg):
    """terminal_voltage with the interfacial current densities given, for
    callers that hold the active areas."""
    eta_pos = overpotential(params, "pos", j_pos, c_ss_pos)
    eta_neg = overpotential(params, "neg", j_neg, c_ss_neg)
    return (params.ocp_pos(c_ss_pos / params.c_smax_pos) + eta_pos
            - params.ocp_neg(c_ss_neg / params.c_smax_neg) - eta_neg
            - I * r_film_cell)


@dataclass(frozen=True)
class ESOHRecord:
    """Electrode-level health: capacities and stoichiometric window.

    fit_rms_v is the rms voltage misfit of a record fitted to a pseudo-OCV
    curve; a window solved from known capacities has none."""
    C: float
    C_p: float
    C_n: float
    x_0: float
    x_100: float
    y_0: float
    y_100: float
    n_li: float   # mol
    fit_rms_v: float = None

    def as_dict(self):
        d = {k: float(getattr(self, k)) for k in
             ("C", "C_p", "C_n", "x_0", "x_100", "y_0", "y_100", "n_li")}
        if self.fit_rms_v is not None:
            d["fit_rms_v"] = float(self.fit_rms_v)
        return d


def solve_window(params, C_p, C_n, n_li):
    """Stoichiometric window endpoints for given capacities and inventory.

    Solves U+(y(x)) - U-(x) = V at both voltage limits under the lithium
    constraint x*C_n + y*C_p = const. The OCV is strictly increasing in x
    along that constraint (both tables strictly decreasing), so each root
    is unique when it exists.
    """
    if C_p <= 0.0 or C_n <= 0.0 or n_li <= 0.0:
        raise CellDeadError("capacities and lithium inventory must be positive")
    N_Ah = n_li * params.F / 3600.0
    tp, tn = params.ocp_pos, params.ocp_neg

    def y_of(x):
        return (N_Ah - x * C_n) / C_p

    # x range keeping both stoichiometries inside their tables
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


def pristine_inventory(params):
    """Cyclable lithium of the fresh cell, mol, from the configured
    full-charge stoichiometry. Fixed at construction, never recomputed."""
    u_top = params.V_max + params.ocp_neg(params.x100_init)
    y100 = params.ocp_pos.inverse(u_top)
    N_Ah = params.x100_init * params.C_n_nom + y100 * params.C_p_nom
    return 3600.0 * N_Ah / params.F
