"""The coupled cell: two particles, film growth, inventory accounting.

The step is a map from one state value to the next: from the particles,
the degradation state and the stress envelope, one applied-current
timestep gives the next three and a record of the step. Kinetics are
evaluated at the incoming surface state, the side-reaction current is
split off, the particles advance under the remaining intercalation
current, the degradation state integrates alongside and the envelope
takes the new surface stresses. Fatigue capacity loss is applied from
outside at cycle boundaries (see protocol.run_campaign).

Particles, kinetics, OCP and areas come from the parameter set's two
electrochem.Electrode objects (params.pos and params.neg), built once, so
no step branches on an electrode name, rebuilds a kinetic constant or
inverts a propagator another cell of the set has inverted.
Each value is computed once over the span in which it can change:
the active areas once per pair of electrode capacities (they move only
when fatigue closes a cycle), the particle averages when the particle
state is made, and a CV solve's last trial, which voltage_after returns
as a value, is committed by step as it stands instead of evaluated again.
"""

from . import electrochem as ec
from .degradation import (DegradationState, StressExtrema,
                          hydrostatic_stress, lam_cycle_update, r_film,
                          step_degradation)
from .errors import CellDeadError
from .particle import at_stoichiometry, step_particle_diffusion


class Cell:
    """A cell whose state is held as values.

    particles (ParticleState), degradation (DegradationState) and the
    stress envelope (StressExtrema) are replaced, never changed in place,
    so a snapshot is a tuple of references, and a trial is a value: the
    (state, record) that voltage_after returns and step commits.
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
        self._ctx_key = None     # (C_p, C_n) that _ctx belongs to
        self._ctx = None         # active areas and their Faraday multiples
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
        """New cell with the same parameters, at the top of its window. It
        shares the degradation state, a frozen value, by reference, and
        with it the state's deepSOH split (degradation.deep_soh)."""
        return Cell(self.params, self.deg_params, degradation=self.degradation,
                    n_li0=self.n_li0)

    def get_state(self):
        """Snapshot for rollback during adaptive stepping: references to
        the state values, none of them copied."""
        return self.particles, self.degradation, self.extrema

    def set_state(self, snap):
        self.particles, self.degradation, self.extrema = snap

    # --- stepping ---

    def _advance(self, I, dt):
        """((particles, degradation, extrema), record): the state one step
        of current I (A) over dt (s) ahead, and its record. Changes nothing."""
        p = self.params
        d = self.degradation
        particles = self.particles
        pos, neg = p.pos, p.neg
        key = (d.C_p, d.C_n)
        if key != self._ctx_key:
            area_p = pos.area(d.C_p)
            area_n = neg.area(d.C_n)
            self._ctx = (area_p, area_n, p.F * area_p, p.F * area_n)
            self._ctx_key = key
        area_p, area_n, f_area_p, f_area_n = self._ctx

        # surface concentrations: the outer shell corrected by the flux
        # boundary condition across its half width
        j_neg0 = I / f_area_n
        c_ss_n = float(particles.c_neg[-1]) - neg.half_dr * j_neg0 / neg.D
        if self.freeze_degradation:
            deg_new, i_side = d, 0.0
        else:
            eta_neg = neg.overpotential(I / area_n, c_ss_n)
            u_neg = neg.ocp(c_ss_n / neg.c_smax)
            deg_new, i_side = step_degradation(
                p, self.deg_params, d, eta_neg, u_neg, c_ss_n,
                particles.averages[1], self.n_li0, dt)

        # side reactions take their share of the negative-electrode current
        j_neg = (I - i_side) / f_area_n
        j_pos = -I / f_area_p
        parts = step_particle_diffusion(p, particles, j_pos, j_neg, dt)

        c_ss_p2 = float(parts.c_pos[-1]) - pos.half_dr * j_pos / pos.D
        c_ss_n2 = float(parts.c_neg[-1]) - neg.half_dr * j_neg / neg.D
        r_film_cell = r_film(p, self.deg_params, deg_new)[1]
        v_t = ec.terminal_voltage(p, c_ss_p2, c_ss_n2, I, r_film_cell,
                                  -I / area_p, I / area_n)
        c_avg_p, c_avg_n, y, x = parts.averages
        lam = self.deg_params.lam
        extrema = self.extrema.update(
            hydrostatic_stress(lam.stress_gain_pos, pos, c_ss_p2, c_avg_p),
            hydrostatic_stress(lam.stress_gain_neg, neg, c_ss_n2, c_avg_n))
        return (parts, deg_new, extrema), {"I": I, "V": v_t, "x": x, "y": y}

    def voltage_after(self, I, dt):
        """(V, evaluated): the terminal voltage one trial step ahead and
        the step itself, _advance's (state, record). Changes nothing;
        step(I, dt, evaluated) commits the trial without evaluating it
        again."""
        evaluated = self._advance(I, dt)
        return evaluated[1]["V"], evaluated

    def step(self, I, dt, evaluated=None):
        """Advance the cell one timestep under applied current I (A).

        Commits the next state and returns its record {I, V, x, y}: the
        current, terminal voltage and mean stoichiometries. evaluated, the
        trial voltage_after(I, dt) returned from this state, is committed as
        it stands. Raises SaturationError if the step drives a particle out
        of range (caller may retry with smaller dt).
        """
        state, record = evaluated or self._advance(I, dt)
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
