"""The coupled cell: two particles, film growth, inventory accounting.

Cell.step applies one applied-current timestep: kinetics are evaluated at
the incoming surface state, the side-reaction current is split off, the
particles advance under the remaining intercalation current, and the
degradation state integrates alongside. Fatigue capacity loss is applied
from outside at cycle boundaries (see protocol.run_campaign).

Each value is computed once over the span in which it can change:
the active areas once per pair of electrode capacities (they move only
when fatigue closes a cycle), the particle averages once per particle
state, and the step that a CV solve's last trial evaluated is committed
as it stands instead of being evaluated again.
"""

from . import electrochem as ec
from .degradation import (DegradationState, StepIncrements, StressExtrema,
                          hydrostatic_stress, lam_cycle_update,
                          plated_lithium_moles, sei_lithium_moles,
                          step_degradation)
from .errors import CellDeadError
from .measurement import r_film
from .particle import ParticlePair, step_particle_diffusion


class Cell:
    """A cell whose state is held as values.

    particles (ParticleState), degradation (DegradationState) and the
    stress envelope (StressExtrema) are replaced, never changed in place,
    so a snapshot is a tuple of references and the caches below may key
    on them by identity.
    """

    def __init__(self, params, deg_params, degradation=None, n_li0=None,
                 particles=None):
        self.params = params
        self.deg_params = deg_params
        self.pair = ParticlePair(params)
        self.n_li0 = float(ec.pristine_inventory(params) if n_li0 is None
                           else n_li0)
        if degradation is None:
            degradation = DegradationState(0.0, 0.0, params.C_p_nom,
                                           params.C_n_nom, 0.0)
        self.degradation = degradation
        self.extrema = StressExtrema()
        # mol booked against material loss, audit trail; a given state's
        # LLI not held in its films was trapped before the cell was built
        self.lam_lithium = float(
            self.n_li0 * degradation.LLI
            - (sei_lithium_moles(params, deg_params.sei, degradation.delta_sei)
               + plated_lithium_moles(params, deg_params.plating,
                                      degradation.delta_pl)))
        self.freeze_degradation = False   # RPT probes measure without aging
        self._ctx_key = None     # (C_p, C_n) that _ctx belongs to
        self._ctx = None
        self._trial = None       # last voltage_after: its key and result
        if particles is None:
            w = self.esoh()
            particles = self.pair.at_stoichiometry(w.x_100, w.y_100)
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
        _, _, y, x = self.pair.averages(self.particles)
        return x, y

    def particle_lithium(self):
        """Lithium held in the particles, mol, at live volume fractions."""
        p = self.params
        d = self.degradation
        x, y = self.mean_stoichiometry()
        return 3600.0 / p.F * (x * d.C_n + y * d.C_p)

    def r_film_cell(self):
        return r_film(self.params, self.deg_params, self.degradation)[1]

    def open_circuit_voltage(self):
        x, y = self.mean_stoichiometry()
        return self.params.ocp_pos(y) - self.params.ocp_neg(x)

    # --- state placement ---

    def equilibrate_at(self, x=None, soc=None):
        """Uniform profiles at negative stoichiometry x (or window SOC),
        with the positive side fixed by lithium conservation."""
        w = self.esoh()
        if x is None:
            if soc is None:
                raise ValueError("give either x or soc")
            x = w.x_0 + soc * w.C / w.C_n
        N_Ah = self.n_li * self.params.F / 3600.0
        y = (N_Ah - x * w.C_n) / w.C_p
        self.particles = self.pair.at_stoichiometry(x, y)
        return self

    def clone(self, degradation=None):
        """New cell with the same parameters, at the top of its window. It
        shares the degradation state, a frozen value, by reference, and
        books the state's lithium loss not held in films as lam_lithium,
        like any cell built from a state."""
        if degradation is None:
            degradation = self.degradation
        return Cell(self.params, self.deg_params, degradation=degradation,
                    n_li0=self.n_li0)

    def get_state(self):
        """Snapshot for rollback during adaptive stepping: references to
        the state values, none of them copied."""
        return (self.particles, self.degradation, self.extrema,
                self.lam_lithium)

    def set_state(self, snap):
        self.particles, self.degradation, self.extrema, self.lam_lithium = snap
        self._trial = None

    # --- stepping ---

    def _context(self):
        """Per-cycle constants at the capacities in play: the positive and
        negative active areas and their Faraday multiples."""
        d = self.degradation
        key = (d.C_p, d.C_n)
        if key != self._ctx_key:
            p = self.params
            area_p = p.active_area("pos", d.C_p)
            area_n = p.active_area("neg", d.C_n)
            self._ctx = (area_p, area_n, p.F * area_p, p.F * area_n)
            self._ctx_key = key
        return self._ctx

    def _advance(self, I, dt):
        p = self.params
        d = self.degradation
        particles = self.particles
        neg, pos = self.pair.neg, self.pair.pos
        area_p, area_n, f_area_p, f_area_n = self._context()

        j_neg0 = I / f_area_n
        c_ss_n = neg.c_ss(particles.c_neg, j_neg0)
        if self.freeze_degradation:
            deg_new = d
            inc = StepIncrements(0.0, 0.0, 0.0)
        else:
            eta_neg = ec.overpotential(p, "neg", I / area_n, c_ss_n)
            u_neg = p.ocp_neg(c_ss_n / p.c_smax_neg)
            _, c_avg_n, y_bar, x_bar = self.pair.averages(particles)
            deg_new, inc = step_degradation(
                p, self.deg_params, d, eta_neg, u_neg, c_ss_n, c_avg_n,
                x_bar, y_bar, self.n_li0, dt)

        # side reactions take their share of the negative-electrode current
        j_neg = (I - inc.i_side) / f_area_n
        j_pos = -I / f_area_p
        parts = step_particle_diffusion(self.pair, particles,
                                        j_pos, j_neg, dt)

        c_ss_p2 = pos.c_ss(parts.c_pos, j_pos)
        c_ss_n2 = neg.c_ss(parts.c_neg, j_neg)
        v_t = ec.voltage_at_densities(
            p, c_ss_p2, c_ss_n2, I, r_film(p, self.deg_params, deg_new)[1],
            -I / area_p, I / area_n)
        return parts, deg_new, inc, c_ss_p2, c_ss_n2, v_t

    def voltage_after(self, I, dt):
        """Terminal voltage one trial step ahead, without committing.

        The trial is kept: a step(I, dt) from the same state commits it
        without evaluating it again.
        """
        result = self._advance(I, dt)
        self._trial = (I, dt, self.particles, self.degradation,
                       self.freeze_degradation, result)
        return result[5]

    def step(self, I, dt):
        """Advance the cell one timestep under applied current I (A).

        Returns a record dict; raises SaturationError if the step drives
        a particle out of range (caller may retry with smaller dt).
        """
        t = self._trial
        if (t is not None and t[0] == I and t[1] == dt
                and t[2] is self.particles and t[3] is self.degradation
                and t[4] == self.freeze_degradation):
            result = t[5]
        else:
            result = self._advance(I, dt)
        self._trial = None
        parts, deg_new, inc, c_ss_p, c_ss_n, v_t = result
        self.particles = parts
        self.degradation = deg_new
        c_avg_p, c_avg_n, y, x = self.pair.averages(parts)
        lam = self.deg_params.lam
        sig_p = hydrostatic_stress(lam, "pos", c_ss_p, c_avg_p, self.params)
        sig_n = hydrostatic_stress(lam, "neg", c_ss_n, c_avg_n, self.params)
        self.extrema = self.extrema.update(sig_p, sig_n)
        return {"I": I, "V": v_t, "x": x, "y": y,
                "i_side": inc.i_side, "dn_sei": inc.dn_sei, "dn_pl": inc.dn_pl,
                "sigma_pos": sig_p, "sigma_neg": sig_n}

    def apply_cycle_fatigue(self):
        """Close out a cycle: apply fatigue loss, book trapped lithium,
        reset the stress envelope."""
        p = self.params
        x, y = self.mean_stoichiometry()
        new, dC_p, dC_n = lam_cycle_update(self.degradation, self.extrema,
                                           self.deg_params.lam, p)
        dn = 3600.0 / p.F * (y * dC_p + x * dC_n)
        lli = new.LLI + dn / self.n_li0
        if lli >= 1.0:
            raise CellDeadError("lithium inventory exhausted")
        self.degradation = DegradationState(new.delta_sei, new.delta_pl,
                                            new.C_p, new.C_n, lli)
        self.lam_lithium += dn
        self.extrema = StressExtrema()
