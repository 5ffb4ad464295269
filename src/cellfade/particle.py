"""Radial solid diffusion in spherical particles.

Finite-volume shells on a fixed mesh, backward-Euler in time. The propagator
P = (I - dt*M)^-1 is cached per timestep size, so advancing a particle is one
small matrix-vector product; that is what makes multi-month aging runs cheap.
At 20 shells numpy's per-call dispatch costs more than the arithmetic, so a
step is one BLAS dgemv and the volume average of a profile one ddot,
called directly and with positional arguments only: a keyword sends
scipy's f2py wrapper through its keyword parser, which cost about 0.5 us
more per dgemv call (1.2-2.1 us against 0.8-1.4 us, timeit on a 2-vCPU
machine) than the same call, with the same result bits, given
positionally.

The kernels come from scipy's f2py extension scipy.linalg._fblas, loaded
by file (_load_scipy_extension, which also loads measurement.py's MINPACK
and ocp.py's brentq) without scipy.linalg's package import: that package
pulls in scipy's array API layer, which loads numpy.f2py, numpy.testing
and unittest, about 285 modules and 19 MB, none of which a step uses.
They are the objects scipy.linalg.blas hands out, in either import
order, so OpenBLAS's kernel choice governs them as before.

A step carries each side's volume mean in closed form instead of averaging
the new profile again: the propagator rescale fixes volumes . P = volumes
and volumes . Pe = area_surf, so P c - dt j Pe has the mean
c_avg - dt j area_surf / total_volume. The lithium books then close to
round-off whatever the number of steps, where a ddot per state left each
mean's rounding bias in them (4e-12 of the inventory over a life at dt
60/300, 3e-11 at dt 5/30), and no step, a discarded CV trial included,
reads its profile to average it. Only a state made from profiles
(particle_state without means) takes the ddot.

Flux sign: surface molar flux j > 0 removes lithium from the particle
(delithiation). Concentrations are never clamped; a step that would leave
[0, c_smax] raises SaturationError.

P has no negative entry and rows summing to 1, so min(P c) >= min(c) and
max(P c) <= max(c). A step moves an enclosure (lo, hi) of the profile in
closed form and takes the exact min and max only when it leaves [0, c_smax];
inside, the exact check cannot fail, so no step's outcome changes.

Each side of a cell is one SphereFV, the electrochem.Electrode that its
parameter set builds once (CellParameters.pos and .neg), so every cell of
that set shares the side's propagator cache. The functions below take
that pair: anything with .pos and .neg particles.
"""

import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np
import scipy

from .errors import ConfigError, SaturationError


def _load_scipy_extension(subpackage, name):
    """scipy's compiled extension scipy.<subpackage>.<name>, loaded by file
    under its own name without the subpackage's package import, after
    scipy's own set-up (such as the DLL paths of Windows wheels). The
    subpackage, imported before or after, finds this one module in
    sys.modules. Three modules use it: this one for the BLAS kernels
    (linalg._fblas), measurement.py for MINPACK (optimize._minpack) and
    ocp.py for brentq's C code (optimize._zeros)."""
    qualified = f"scipy.{subpackage}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    directory = os.path.join(scipy.__path__[0], subpackage)
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            spec = spec_from_file_location(
                qualified, path, loader=ExtensionFileLoader(qualified, path))
            module = sys.modules[qualified] = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no scipy extension {name} in {directory}")


_fblas = _load_scipy_extension("linalg", "_fblas")
dgemv, ddot = _fblas.dgemv, _fblas.ddot


class SphereFV:
    """One spherical particle discretized into n_shells finite volumes."""

    def __init__(self, r_p, D, c_smax, n_shells, name):
        self.r_p = float(r_p)
        self.D = float(D)
        self.c_smax = float(c_smax)
        self.n = int(n_shells)
        self.name = name
        self.dr = self.r_p / self.n
        self.half_dr = 0.5 * self.dr   # surface: c[-1] - half_dr * j / D
        faces = np.linspace(0.0, self.r_p, self.n + 1)
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            cubes = faces ** 3
            self.volumes = 4.0 / 3.0 * np.pi * (cubes[1:] - cubes[:-1])
        self.total_volume = float(self.volumes.sum())
        # the smallest shell underflows first, and the total overflows
        # first; a finite total bounds r_p ** 2 as well
        if not (self.volumes.min() > 0.0 and self.total_volume < math.inf):
            raise ConfigError(f"r_p_{name} {self.r_p:g} m puts the particle's "
                              f"shell volumes outside double precision")
        area_int = 4.0 * np.pi * faces[1:-1] ** 2   # internal faces
        self.area_surf = 4.0 * np.pi * self.r_p ** 2
        # a step of flux j over dt moves the volume mean by -dt j times this
        self.surf_per_volume = self.area_surf / self.total_volume

        # dc/dt = M c - j * e ; M rows sum to zero (flux telescoping)
        n = self.n
        M = np.zeros((n, n))
        with np.errstate(over="ignore"):   # checked below
            w = self.D * area_int / self.dr
            inner, outer = w / self.volumes[:-1], w / self.volumes[1:]
        if not (np.isfinite(inner).all() and np.isfinite(outer).all()):
            raise ConfigError(f"D_s_{name} {self.D:g} m^2/s puts the "
                              f"particle's exchange rates outside double "
                              f"precision")
        for i in range(n - 1):
            M[i, i] -= inner[i]
            M[i, i + 1] += inner[i]
            M[i + 1, i + 1] -= outer[i]
            M[i + 1, i] += outer[i]
        self._M = M
        self._e = np.zeros(n)
        self._e[-1] = self.area_surf / self.volumes[-1]
        self._props = {}

    def _propagator(self, dt):
        """(P, P e, min(P e), max(P e), slack, P's transposed view) for
        one timestep size, the last for step's dgemv; cached per size."""
        got = self._props.get(dt)
        if got is None:
            P = np.linalg.inv(np.eye(self.n) - dt * self._M)
            # Volume-weighted column sums rescaled to the volumes: the error
            # the inverse leaves there would repeat at every step, drifting
            # the books linearly. The factors are positive, so P stays >= 0.
            P *= self.volumes / (self.volumes @ P)
            Pe = P @ self._e
            Pe *= self.area_surf / (self.volumes @ Pe)
            # Rounding of a step and its enclosure per c_smax: the row sums'
            # measured distance from 1, the n-term sums of the step and of
            # that measurement, eight single operations. P < 0 voids it.
            rho = np.abs(P.sum(axis=1) - 1.0).max() if P.min() >= 0.0 else np.inf
            slack = float(rho + (self.n + 4) * np.finfo(float).eps) * self.c_smax
            got = (P, Pe, float(Pe.min()), float(Pe.max()), slack, P.T)
            if len(self._props) > 64:
                self._props.clear()
            self._props[dt] = got
        return got

    def step(self, c, j, dt, enclosure=None):
        """Advance one backward-Euler step under surface molar flux j.
        Returns c_new and its enclosure, moved from c's enclosure (inside
        [0, c_smax]) or, past those ends or from None, computed exactly."""
        _, Pe, pe_lo, pe_hi, slack, PT = (self._props.get(dt)
                                          or self._propagator(dt))
        s = dt * j
        # P c - s Pe; PT is P's F-ordered view, and Pe is copied, not written.
        # Positional (alpha, a, x, beta, y, offx, incx, offy, incy, trans),
        # overwrite_y left at 0: a keyword costs f2py's keyword parse
        c_new = dgemv(1.0, PT, c, -s, Pe, 0, 1, 0, 1, 1)
        if enclosure is not None:
            e_lo, e_hi = (pe_hi, pe_lo) if s >= 0.0 else (pe_lo, pe_hi)
            lo = enclosure[0] - s * e_lo - slack
            hi = enclosure[1] - s * e_hi + slack
            if lo >= 0.0 and hi <= self.c_smax:   # NaN falls through
                return c_new, (lo, hi)
        lo, hi = float(c_new.min()), float(c_new.max())
        if lo < 0.0 or hi > self.c_smax:
            raise SaturationError(
                f"{self.name} particle concentration left [0, {self.c_smax:g}]: "
                f"range [{lo:.6g}, {hi:.6g}] under flux {j:.6g}")
        return c_new, (lo, hi)

    def c_avg(self, c):
        return ddot(self.volumes, c) / self.total_volume

    def uniform(self, stoichiometry):
        return np.full(self.n, stoichiometry * self.c_smax)


@dataclass(slots=True)
class ParticleState:
    """Radial concentration profiles for the electrode pair, mol/m^3.

    A value, made with its averages (c_avg_pos, c_avg_neg, y, x: the
    volume-averaged concentrations and the mean stoichiometries); a step
    makes a new state and never writes. A state made from profiles
    (particle_state) averages them by ddot, and a stepped state
    (step_particle_diffusion) carries its means in closed form, which stay
    within round-off of its profiles' ddot means. enclosure pairs a
    (lo, hi) in [0, c_smax] around each profile's min and max, or None
    where unknown (read from a file); it only lets a step skip a range
    check that cannot fail, so it changes no result.
    """
    c_pos: np.ndarray
    c_neg: np.ndarray
    averages: tuple = field(repr=False, compare=False)
    enclosure: tuple = field(default=None, repr=False, compare=False)


def particle_state(pair, c_pos, c_neg, enclosure=None, means=None):
    """The ParticleState of two profiles, with their averages: means, the
    (c_avg_pos, c_avg_neg) the state carries, or else each profile's."""
    c_p, c_n = means or (pair.pos.c_avg(c_pos), pair.neg.c_avg(c_neg))
    return ParticleState(c_pos, c_neg, (c_p, c_n, c_p / pair.pos.c_smax,
                                        c_n / pair.neg.c_smax), enclosure)


def at_stoichiometry(pair, x, y):
    """Equilibrated state: uniform profiles at (x negative, y positive)."""
    return particle_state(pair, pair.pos.uniform(y), pair.neg.uniform(x), tuple(
        (float(v * sp.c_smax),) * 2 if 0.0 <= v <= 1.0 else None
        for sp, v in ((pair.pos, y), (pair.neg, x))))


def step_particle_diffusion(pair, state, j_pos, j_neg, dt):
    """Advance both particles one step; returns a new ParticleState, its
    means carried from state's in closed form."""
    pos, neg = pair.pos, pair.neg
    enc_pos, enc_neg = state.enclosure or (None, None)
    c_pos, enc_pos = pos.step(state.c_pos, j_pos, dt, enc_pos)
    c_neg, enc_neg = neg.step(state.c_neg, j_neg, dt, enc_neg)
    c_avg_pos, c_avg_neg = state.averages[:2]
    c_p = c_avg_pos - dt * j_pos * pos.surf_per_volume
    c_n = c_avg_neg - dt * j_neg * neg.surf_per_volume
    # particle_state's averages, built here: its call costs about 0.2 us
    # of the 2.9 us this function takes on every step and CV trial
    return ParticleState(c_pos, c_neg, (c_p, c_n, c_p / pos.c_smax,
                                        c_n / neg.c_smax), (enc_pos, enc_neg))
