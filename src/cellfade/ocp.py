"""Open-circuit potential tables.

Half-cell OCPs enter as two-column tables (stoichiometry, potential vs
Li/Li+) and are interpolated with a shape-preserving monotone cubic, so the
interpolant is exact at every knot and strictly monotone between them.
Evaluation outside the tabulated stoichiometry range is an error, not an
extrapolation.
"""

from bisect import bisect_right
from importlib import resources

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, SaturationError

MIN_ROWS = 20


class MonotoneOCPTable:
    """Strictly monotone potential(stoichiometry) interpolant.

    Scalar calls run on precomputed piecewise-cubic coefficients (the
    simulator evaluates these in its inner loop) and return a Python
    float. An in-range float finds its segment inline, by one bisect
    bounded to the segments so that s_max falls in the last one. Any other
    scalar (a numpy scalar, an int, a value in the 1e-9 snap band or off
    the table) and every derivative call take _segment, which converts,
    snaps onto the table or raises SaturationError, then bisects the same
    way. Array calls go through the underlying scipy interpolant.
    """

    def __init__(self, stoich, potential, name="ocp"):
        s = np.asarray(stoich, dtype=float)
        v = np.asarray(potential, dtype=float)
        if s.ndim != 1 or s.shape != v.shape:
            raise ConfigError(f"{name}: expected matching 1-D columns")
        if len(s) < MIN_ROWS:
            raise ConfigError(f"{name}: need at least {MIN_ROWS} rows, got {len(s)}")
        if not np.all(np.isfinite(s)) or not np.all(np.isfinite(v)):
            raise ConfigError(f"{name}: non-finite table entry")
        if not np.all(np.diff(s) > 0):
            raise ConfigError(f"{name}: stoichiometry column must be strictly increasing")
        dv = np.diff(v)
        if np.all(dv < 0):
            self.direction = -1
        elif np.all(dv > 0):
            self.direction = 1
        else:
            raise ConfigError(f"{name}: potential column must be strictly monotone")
        self.name = name
        self.stoich = s
        self.potential = v
        self.s_min = float(s[0])
        self.s_max = float(s[-1])
        self._pchip = PchipInterpolator(s, v, extrapolate=False)
        self._dpchip = self._pchip.derivative()
        # flat python lists beat numpy indexing for one point at a time
        self._breaks = s.tolist()
        self._n_segments = len(s) - 1
        c = self._pchip.c  # (4, n-1)
        self._c0 = c[0].tolist()
        self._c1 = c[1].tolist()
        self._c2 = c[2].tolist()
        self._c3 = c[3].tolist()

    @classmethod
    def from_file(cls, path, name=None):
        """Load a two-column text table (comma or whitespace separated)."""
        name = name or str(path)
        for delimiter in (",", None):
            try:
                data = np.loadtxt(path, delimiter=delimiter, comments="#",
                                  ndmin=2)
                break
            except ValueError:
                continue
            except OSError as e:
                raise ConfigError(
                    f"{name}: cannot read {path}: {e.strerror or e}") from None
        else:
            raise ConfigError(f"{name}: {path} is not a numeric table")
        if data.shape[1] != 2:
            raise ConfigError(f"{name}: {path}: expected exactly two columns")
        return cls(data[:, 0], data[:, 1], name=name)

    def _segment(self, s):
        """Segment index and offset of the scalar s, of any numeric type."""
        s = float(s)
        if not (self.s_min <= s <= self.s_max):
            # absorb sub-ulp excursions from solving balance equations
            snap = 1e-9 * (self.s_max - self.s_min)
            if self.s_min - snap <= s <= self.s_min:
                s = self.s_min
            elif self.s_max <= s <= self.s_max + snap:
                s = self.s_max
            else:
                raise SaturationError(
                    f"{self.name}: stoichiometry {s:.6g} outside table "
                    f"[{self.s_min:.6g}, {self.s_max:.6g}]")
        i = bisect_right(self._breaks, s, 0, self._n_segments) - 1
        return i, s - self._breaks[i]

    def _snap_array(self, s):
        # in-range input (the common case) is returned as is, uncopied;
        # NaN fails this test and takes the checks below
        lo, hi = (s.min(), s.max()) if s.size else (self.s_min, self.s_max)
        if self.s_min <= lo and hi <= self.s_max:
            return s
        snap = 1e-9 * (self.s_max - self.s_min)
        if np.any(s < self.s_min - snap) or np.any(s > self.s_max + snap):
            raise SaturationError(
                f"{self.name}: stoichiometry in [{lo:.6g}, {hi:.6g}] outside "
                f"table [{self.s_min:.6g}, {self.s_max:.6g}]")
        return np.clip(s, self.s_min, self.s_max)

    def __call__(self, s):
        if type(s) is float and self.s_min <= s <= self.s_max:
            i = bisect_right(self._breaks, s, 0, self._n_segments) - 1
            dx = s - self._breaks[i]
        elif isinstance(s, np.ndarray):
            return self._pchip(self._snap_array(s))
        else:
            i, dx = self._segment(s)
        return ((self._c0[i] * dx + self._c1[i]) * dx + self._c2[i]) * dx + self._c3[i]

    def derivative(self, s):
        """dU/ds at a scalar or array of stoichiometries."""
        if isinstance(s, np.ndarray):
            return self._dpchip(self._snap_array(s))
        i, dx = self._segment(s)
        return (3.0 * self._c0[i] * dx + 2.0 * self._c1[i]) * dx + self._c2[i]

    def inverse(self, v):
        """Stoichiometry at potential v. Monotonicity makes this unique."""
        lo, hi = sorted((self.potential[0], self.potential[-1]))
        if not (lo <= v <= hi):
            raise SaturationError(
                f"{self.name}: potential {v:.6g} outside table range "
                f"[{lo:.6g}, {hi:.6g}]")
        pv = self.potential if self.direction > 0 else self.potential[::-1]
        ps = self.stoich if self.direction > 0 else self.stoich[::-1]
        j = int(np.searchsorted(pv, v))
        j = min(max(j, 1), len(pv) - 1)
        a, b = sorted((ps[j - 1], ps[j]))
        from scipy.optimize import brentq
        if self(a) == v:
            return float(a)
        if self(b) == v:
            return float(b)
        return float(brentq(lambda s: self(s) - v, a, b, xtol=1e-14))


def load_builtin(which):
    """Built-in demo tables: 'graphite' (negative) or 'nmc' (positive)."""
    fname = {"graphite": "ocp_graphite.csv", "nmc": "ocp_nmc.csv"}.get(which)
    if fname is None:
        raise ConfigError(f"unknown builtin OCP table {which!r}")
    with resources.as_file(resources.files("cellfade.data") / fname) as p:
        return MonotoneOCPTable.from_file(p, name=which)
