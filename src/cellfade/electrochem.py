"""Cell-level electrochemistry: kinetics, terminal voltage, and the
stoichiometric operating window.

Each side of the cell is one Electrode, built once per parameter set
(CellParameters.pos and .neg). It is the side's representative particle
(a particle.SphereFV: r_p, D, c_smax, the mesh and its propagator cache)
and holds the OCP table, the capacity to active-area formula, and the
kinetic constants: the exchange-current prefix k0*c_e**(1-alpha), alpha,
1-alpha and 2RT/F. Each prefix is the leading, left-to-right part of the
expression it starts, so a value rounds as the expression written out in
full does.

Overpotentials use the inverse symmetric Butler-Volmer form
eta = (2*R*T/F) * asinh(j / (2*i0)); alpha only shapes the exchange current.
Both electrode overpotentials are dissipative: discharge (I > 0) always
pulls the terminal voltage below the OCV.
"""

import math
from dataclasses import asdict, dataclass

from .errors import (CellDeadError, ConfigError, KineticsSingularError,
                     SaturationError)
from .ocp import brent
from .particle import SphereFV


class Electrode(SphereFV):
    """One electrode: its particle, OCP, area and Butler-Volmer kinetics."""

    def __init__(self, params, name):
        pos = name == "pos"
        super().__init__(params.r_p_pos if pos else params.r_p_neg,
                         params.D_s_pos if pos else params.D_s_neg,
                         params.c_smax_pos if pos else params.c_smax_neg,
                         params.n_shells, name)
        self.ocp = params.ocp_pos if pos else params.ocp_neg
        thickness = params.l_pos if pos else params.l_neg
        k0 = params.k0_pos if pos else params.k0_neg
        self.alpha = params.alpha
        self.one_minus_alpha = 1.0 - params.alpha
        self.i0_prefix = k0 * params.c_e ** self.one_minus_alpha
        self.rt2f = 2.0 * params.R_gas * params.T / params.F
        self._volume = params.A * thickness
        self._full_charge = params.A * params.F * thickness * self.c_smax
        self.full_capacity = self._full_charge / 3600.0   # Ah at eps_s = 1
        if not 0.0 < self._full_charge < math.inf:
            raise ConfigError(
                f"A {params.A:g} m^2, l_{name} {thickness:g} m and c_smax_"
                f"{name} {self.c_smax:g} mol/m^3 put the full charge outside "
                f"double precision")
        nominal = params.C_p_nom if pos else params.C_n_nom
        if nominal > self.full_capacity:
            raise ConfigError(
                f"C_{name[0]}_nom {nominal:g} Ah exceeds the full "
                f"{self.full_capacity:g} Ah that A {params.A:g} m^2, l_{name} "
                f"{thickness:g} m and c_smax_{name} {self.c_smax:g} mol/m^3 "
                f"hold: an active-material fraction above 1")
        if not 0.0 < self.area(nominal) < math.inf:
            raise ConfigError(
                f"C_{name[0]}_nom {nominal:g} Ah of a full {self.full_capacity:g}"
                f" Ah (A, l_{name}, c_smax_{name}) at r_p_{name} {self.r_p:g} "
                f"m puts the interfacial area outside double precision")

    def area(self, capacity_Ah):
        """Total interfacial area A*l*a_s, m^2, at a given capacity: the
        capacity implies the active-material volume fraction eps_s, and
        a_s = 3*eps_s/r_p is the interfacial area per electrode volume."""
        eps_s = 3600.0 * capacity_Ah / self._full_charge
        return self._volume * (3.0 * eps_s / self.r_p)

    def exchange_current(self, c_ss):
        """i0 in A/m^2; vanishes at an empty or saturated surface."""
        cmax = self.c_smax
        if c_ss < 0.0 or c_ss > cmax:
            raise SaturationError(
                f"{self.name} surface concentration {c_ss:.6g} outside "
                f"[0, {cmax:g}]")
        return (self.i0_prefix * (cmax - c_ss) ** self.one_minus_alpha
                * c_ss ** self.alpha)

    def overpotential(self, j, c_ss):
        """Butler-Volmer overpotential, V, at interfacial current density j
        (A/m^2, positive delithiating). Odd in j, dissipative both ways."""
        if j == 0.0:
            return 0.0
        i0 = self.exchange_current(c_ss)
        if i0 == 0.0:
            raise KineticsSingularError(
                f"{self.name} exchange current is zero with nonzero current "
                f"density {j:g} A/m^2")
        return self.rt2f * math.asinh(j / (2.0 * i0))


def intercalation_overpotential(params, electrode, I, c_ss, capacity_Ah):
    """Butler-Volmer overpotential, V, of electrode "pos" or "neg" under
    cell current I: discharge (I > 0) delithiates the negative electrode."""
    if electrode == "pos":
        pos = params.pos
        return pos.overpotential(-I / pos.area(capacity_Ah), c_ss)
    return params.neg.overpotential(I / params.neg.area(capacity_Ah), c_ss)


def terminal_voltage(params, c_ss_pos, c_ss_neg, I, r_film_cell, j_pos, j_neg):
    """V_T = U+ + eta+ - U- - eta- - I*R_film (discharge positive), V, at
    surface concentrations c_ss_* (mol/m^3), cell current I (A), film
    resistance r_film_cell (ohm) and interfacial current densities j_pos =
    -I/area_pos and j_neg = I/area_neg (A/m^2, positive delithiating)."""
    pos, neg = params.pos, params.neg
    eta_pos = pos.overpotential(j_pos, c_ss_pos)
    eta_neg = neg.overpotential(j_neg, c_ss_neg)
    return (pos.ocp(c_ss_pos / pos.c_smax) + eta_pos
            - neg.ocp(c_ss_neg / neg.c_smax) - eta_neg
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

    def __init__(self, C, C_p, C_n, x_0, x_100, y_0, y_100, n_li,
                 fit_rms_v=None):
        # frozen: fill the fields past the blocked __setattr__
        self.__dict__.update(C=C, C_p=C_p, C_n=C_n, x_0=x_0, x_100=x_100,
                             y_0=y_0, y_100=y_100, n_li=n_li,
                             fit_rms_v=fit_rms_v)

    def as_dict(self):
        # float(): a numpy field (a float32, say) would not write as JSON
        return {k: float(v) for k, v in asdict(self).items() if v is not None}


def solve_window(params, C_p, C_n, n_li):
    """Stoichiometric window endpoints for given capacities and inventory.

    Solves U+(y(x)) - U-(x) = V at both voltage limits under the lithium
    constraint x*C_n + y*C_p = const. The OCV is strictly increasing in x
    along that constraint (both tables strictly decreasing), so each root
    is unique when it exists. The OCV at the bracket ends is evaluated once,
    for both limits' reach checks, and each root's iteration takes its end
    values from there rather than evaluating the tables again.
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

    ocv_lo = tp(y_of(lo)) - tn(lo)
    ocv_hi = tp(y_of(hi)) - tn(hi)

    def endpoint(V, label):
        if ocv_lo >= V and ocv_hi >= V:
            raise CellDeadError(f"{label}: OCV cannot reach down to {V:g} V")
        if ocv_lo <= V and ocv_hi <= V:
            raise CellDeadError(f"{label}: OCV cannot reach up to {V:g} V")

        def f(x):   # brentq evaluates lo and hi first: the check's values
            return (ocv_lo - V if x == lo else ocv_hi - V if x == hi
                    else tp((N_Ah - x * C_n) / C_p) - tn(x) - V)
        return brent(f, lo, hi, 1e-13)

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
