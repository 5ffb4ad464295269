"""The coupled cell: two particles, film growth, inventory accounting.

The step, advance, is a function from one state value to the next: from
the particles, the degradation state and the stress envelope, one
applied-current timestep gives the next three and a record. Kinetics are
evaluated at the incoming surface state, the side-reaction current is
split off, the particles advance under the remaining intercalation
current, the degradation state integrates alongside and the envelope
takes the new surface stresses. Fatigue capacity loss is applied from
outside at cycle boundaries (see protocol.run_campaign).

Particles, kinetics, OCP and areas come from the parameter set's two
electrochem.Electrode objects (params.pos and params.neg), built once, so
no step branches on an electrode name, rebuilds a kinetic constant or
inverts a propagator another cell of the set has inverted.
The particle averages are computed when the particle state is made
(carried in closed form by a step), and a CV solve's last trial, which
voltage_after returns as a value, is committed by step as it stands.
"""

import math

from . import electrochem as ec
from .degradation import (DegradationState, StressExtrema,
                          hydrostatic_stress, lam_cycle_update, r_film,
                          step_degradation)
from .errors import CellDeadError, ConfigError
from .particle import at_stoichiometry, step_particle_diffusion


class Cell:
    """A cell whose state is held as values.

    particles (ParticleState), degradation (DegradationState) and the
    stress envelope (StressExtrema) are replaced, never changed in place,
    so a snapshot is a tuple of references, and a trial is a value: the
    (state, record) of advance that voltage_after returns and step commits.
    """

    def __init__(self, params, deg_params, degradation=None, n_li0=None,
                 particles=None):
        self.params = params
        self.deg_params = deg_params
        self.n_li0 = float(ec.pristine_inventory(params) if n_li0 is None
                           else n_li0)
        if degradation is None:
            degradation = DegradationState(0.0, 0.0, params.C_p_nom,
                                           params.C_n_nom, 0.0)
        self.degradation = degradation
        self.extrema = StressExtrema()
        self.freeze_degradation = False   # RPT probes measure without aging
        if particles is None:
            w = self.esoh()
            particles = at_stoichiometry(params, w.x_100, w.y_100)
        self.particles = particles

    # --- derived views ---

    @property
    def n_li(self):
        """Cyclable lithium now, mol."""
        return self.n_li0 * (1.0 - self.degradation.LLI)

    def esoh(self):
        d = self.degradation
        return ec.solve_window(self.params, d.C_p, d.C_n, self.n_li)

    def mean_stoichiometry(self):
        _, _, y, x = self.particles.averages
        return x, y

    def particle_lithium(self):
        """Lithium held in the particles, mol, at live volume fractions."""
        p = self.params
        d = self.degradation
        x, y = self.mean_stoichiometry()
        return 3600.0 / p.F * (x * d.C_n + y * d.C_p)

    def open_circuit_voltage(self):
        x, y = self.mean_stoichiometry()
        return self.params.ocp_pos(y) - self.params.ocp_neg(x)

    # --- state placement ---

    def equilibrate_at(self, soc):
        """Uniform profiles at window state of charge soc, with the
        positive side fixed by lithium conservation."""
        w = self.esoh()
        x = w.x_0 + soc * w.C / w.C_n
        N_Ah = self.n_li * self.params.F / 3600.0
        y = (N_Ah - x * w.C_n) / w.C_p
        self.particles = at_stoichiometry(self.params, x, y)
        return self

    def clone(self):
        """New cell with the same parameters, at rest at the top of its
        window: uniform particles at the window's 100 % stoichiometries,
        whose open-circuit voltage is V_max. It shares the degradation
        state, a frozen value, by reference, and with it the state's
        deepSOH split (degradation.deep_soh)."""
        return Cell(self.params, self.deg_params, degradation=self.degradation,
                    n_li0=self.n_li0)

    def get_state(self):
        """Snapshot for rollback during adaptive stepping: references to
        the state values, none of them copied."""
        return self.particles, self.degradation, self.extrema

    def set_state(self, snap):
        self.particles, self.degradation, self.extrema = snap

    # --- stepping ---

    def voltage_after(self, I, dt):
        """(V, evaluated): the terminal voltage one trial step ahead and
        the step itself, advance's (state, record). Changes nothing;
        step(I, dt, evaluated) commits the trial without evaluating it
        again."""
        evaluated = advance(self.params, self.deg_params, self.n_li0,
                            (self.particles, self.degradation, self.extrema),
                            I, dt, self.freeze_degradation)
        return evaluated[1]["V"], evaluated

    def step(self, I, dt, evaluated=None):
        """Advance the cell one timestep under applied current I (A).

        Commits the next state and returns its record {I, V, x, y}: the
        current, terminal voltage and mean stoichiometries. evaluated, the
        trial voltage_after(I, dt) returned from this state, is committed as
        it stands. Raises SaturationError if the step drives a particle out
        of range (caller may retry with smaller dt).
        """
        state, record = evaluated or advance(
            self.params, self.deg_params, self.n_li0,
            (self.particles, self.degradation, self.extrema), I, dt,
            self.freeze_degradation)
        self.particles, self.degradation, self.extrema = state
        return record

    def apply_cycle_fatigue(self):
        """Close out a cycle: apply fatigue loss, book the lithium it
        strands as LLI, so the state's deepSOH fracture share grows by
        dn/n_li0, and reset the stress envelope. A capacity lost to zero
        or below ends the cell: the new DegradationState refuses it."""
        p = self.params
        d = self.degradation
        x, y = self.mean_stoichiometry()
        dC_p, dC_n = lam_cycle_update(self.extrema, self.deg_params.lam, p)
        dn = 3600.0 / p.F * (y * dC_p + x * dC_n)
        lli = d.LLI + dn / self.n_li0
        if lli >= 1.0:
            raise CellDeadError("lithium inventory exhausted")
        self.degradation = DegradationState(d.delta_sei, d.delta_pl,
                                            d.C_p - dC_p, d.C_n - dC_n, lli)
        self.extrema = StressExtrema()


def advance(params, deg_params, n_li0, state, I, dt, frozen):
    """((particles, degradation, extrema), record {I, V, x, y}): the state
    one step of current I (A) over dt (s) past the state tuple, with the
    degradation state held if frozen (Cell.freeze_degradation). Reads
    nothing but its arguments and changes none of them."""
    if not 0.0 < dt < math.inf:   # NaN fails too
        raise ConfigError(f"dt must be finite and > 0, got {dt!r}")
    particles, d, extrema = state
    pos, neg = params.pos, params.neg
    area_p, area_n = pos.area(d.C_p), neg.area(d.C_n)
    f_area_p, f_area_n = params.F * area_p, params.F * area_n

    # surface concentrations: the outer shell corrected by the flux
    # boundary condition across its half width
    c_ss_n = float(particles.c_neg[-1]) - neg.half_dr * (I / f_area_n) / neg.D
    if frozen:
        deg_new, i_side = d, 0.0
    else:
        eta_neg = neg.overpotential(I / area_n, c_ss_n)
        u_neg = neg.ocp(c_ss_n / neg.c_smax)
        deg_new, i_side = step_degradation(
            params, deg_params, d, eta_neg, u_neg, c_ss_n,
            particles.averages[1], n_li0, dt)

    # side reactions take their share of the negative-electrode current
    j_neg = (I - i_side) / f_area_n
    j_pos = -I / f_area_p
    parts = step_particle_diffusion(params, particles, j_pos, j_neg, dt)

    c_ss_p2 = float(parts.c_pos[-1]) - pos.half_dr * j_pos / pos.D
    c_ss_n2 = float(parts.c_neg[-1]) - neg.half_dr * j_neg / neg.D
    r_film_cell = r_film(params, deg_params, deg_new)[1]
    v_t = ec.terminal_voltage(params, c_ss_p2, c_ss_n2, I, r_film_cell,
                              -I / area_p, I / area_n)
    c_avg_p, c_avg_n, y, x = parts.averages
    lam = deg_params.lam
    extrema = extrema.update(
        hydrostatic_stress(lam.stress_gain_pos, pos, c_ss_p2, c_avg_p),
        hydrostatic_stress(lam.stress_gain_neg, neg, c_ss_n2, c_avg_n))
    return (parts, deg_new, extrema), {"I": I, "V": v_t, "x": x, "y": y}
