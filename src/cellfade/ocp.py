"""Open-circuit potential tables.

Half-cell OCPs enter as two-column tables (stoichiometry, potential vs
Li/Li+, strictly decreasing) and are interpolated with a shape-preserving
monotone cubic, exact at every knot and strictly decreasing between them:
PCHIP (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980), whose power
series rows are computed here, to the bits of scipy's PchipInterpolator,
and summed alike by scalar and array calls. Evaluation outside the
tabulated stoichiometry range is an error, not an extrapolation. The
module also holds the package's one root finder, brent, which inverts a
table here and solves the stoichiometric window in electrochem: scipy's
compiled brentq, from the extension scipy.optimize._zeros, which
particle.py's loader takes by file without scipy.optimize's package
import.
"""

import sys
from bisect import bisect_right
from importlib import resources

import numpy as np

from .errors import ConfigError, SaturationError
from .particle import _load_scipy_extension

MIN_ROWS = 20
BRENT_RTOL = 4.0 * sys.float_info.epsilon   # scipy.optimize.brentq's floor
BRENT_MAXITER = 100
_zeros = _load_scipy_extension("optimize", "_zeros")   # brentq's C code


def brent(f, a, b, xtol):
    """Root of f in [a, b] by Brent's method ("Algorithms for Minimization
    without Derivatives", 1973, ch. 4): the call scipy.optimize.brentq
    makes into its compiled iteration, rtol 4*eps and 100 iterations, so
    the root is brentq's to the bit. Only brentq's check of every value
    for NaN is left out, so f must return finite floats. The iteration
    evaluates both ends itself; an end with f = 0 is the root, ends of one
    sign are a ValueError and no convergence in 100 iterations a
    RuntimeError.
    """
    # scipy 1.17's order: f, a, b, xtol, rtol, maxiter, args,
    # full_output (0: the root alone) and disp (True: raise on failure)
    return _zeros._brentq(f, a, b, xtol, BRENT_RTOL, BRENT_MAXITER, (), 0,
                          True)


def _pchip_rows(s, v):
    """(value rows, slope rows) of PCHIP on the table (s, v): on each
    segment, the coefficients of t**0 to t**3 of the potential and of t**0
    to t**2 of its slope, t the offset from the segment's left knot.

    They are scipy's PchipInterpolator(s, v).c and .derivative().c to the
    bit, computed in scipy's order of operations: each interior knot's
    slope is the weighted harmonic mean of its two secants (Fritsch &
    Butland, SIAM J. Sci. Stat. Comput. 5, 1984), each end knot's Moler's
    one-sided three-point estimate (pchiptx in "Numerical Computing with
    MATLAB", 2004), set to 0 where its sign leaves the end secant's; the
    rows are CubicHermiteSpline's, the slope rows scaled x3, x2 and x1 as
    PPoly.derivative scales them, and each constant row gets + 0.0, as
    PPoly's sum starts from 0.0 and so turns a -0.0 into 0.0. The
    constructor passes only tables of at least 20 rows whose secants are
    all below zero, so scipy's branches for a zero secant, for secants of
    two signs and for an end slope past three secants never fire.
    """
    h = np.diff(s)
    m = np.diff(v) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(v)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    for k, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                              (-1, h[-1], h[-2], m[-1], m[-2])):
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d[k] = end if end < 0.0 else 0.0
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1 = t / h, (m - d[:-1]) / h - t   # scipy's c[0] and c[1]
    return (v[:-1] + 0.0, d[:-1], c1, c0), (d[:-1] + 0.0, c1 * 2, c0 * 3)


class MonotoneOCPTable:
    """Strictly decreasing potential(stoichiometry) interpolant.

    Scalar and array calls sum one formula: PPoly's power series, in
    PPoly's order, on the rows _pchip_rows builds to scipy's bits, so each
    value and slope is scipy's to the bit, a scalar's as a Python float. A
    scalar call (the simulator's inner loop) reads one row of Python
    floats, its segment's left knot and coefficients; an in-range float
    indexes it inline by one bisect over the interior knots, as locate
    searches them, so s_max falls in the last segment.
    Any other scalar (a numpy scalar, an int, a value in the 1e-9 snap
    band or off the table) and every scalar derivative take _segment,
    which converts, snaps onto the table or raises SaturationError, then
    bisects the same way. Arrays snap the same way, then locate. A caller
    that evaluates the same points more than once, or takes value and
    slope, calls locate once and value_at and slope_at on its result.
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
        # slopes past double precision end in the ConfigError, unwarned
        with np.errstate(all="ignore"):
            # a secant that underflows to 0 is as flat as two equal rows
            if not np.all(np.diff(v) / np.diff(s) < 0):
                raise ConfigError(f"{name}: potential column must be strictly decreasing")
            self._value_c, self._slope_c = _pchip_rows(s, v)
        if not np.all(np.isfinite(self._value_c + self._slope_c)):
            raise ConfigError(f"{name}: table slopes overflow double precision")
        self.name = name
        self.stoich = s
        self.potential = v
        self.s_min = float(s[0])
        self.s_max = float(s[-1])
        # snapped onto the table: sub-ulp excursions of balance solves
        self._snap_band = 1e-9 * (self.s_max - self.s_min)
        self._interior = s[1:-1]
        # python floats beat numpy indexing for one point: knots, rows
        self._knots = self._interior.tolist()
        self._rows = list(zip(s[:-1].tolist(),
                              *(r.tolist() for r in self._value_c)))

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
            if self.s_min - self._snap_band <= s <= self.s_min:
                s = self.s_min
            elif self.s_max <= s <= self.s_max + self._snap_band:
                s = self.s_max
            else:
                raise SaturationError(
                    f"{self.name}: stoichiometry {s:.6g} outside table "
                    f"[{self.s_min:.6g}, {self.s_max:.6g}]")
        i = bisect_right(self._knots, s)
        return i, s - self._rows[i][0]

    def _snap_array(self, s):
        # in-range input (the common case) is returned as is, uncopied;
        # NaN fails this test and takes the checks below
        lo, hi = (s.min(), s.max()) if s.size else (self.s_min, self.s_max)
        if self.s_min <= lo and hi <= self.s_max:
            return s
        if (np.any(s < self.s_min - self._snap_band)
                or np.any(s > self.s_max + self._snap_band)):
            raise SaturationError(
                f"{self.name}: stoichiometry in [{lo:.6g}, {hi:.6g}] outside "
                f"table [{self.s_min:.6g}, {self.s_max:.6g}]")
        return np.clip(s, self.s_min, self.s_max)

    def __call__(self, s):
        if type(s) is float and self.s_min <= s <= self.s_max:
            knot, c3, c2, c1, c0 = self._rows[bisect_right(self._knots, s)]
            t = s - knot
        elif isinstance(s, np.ndarray):
            return self._on_array(s, self.value_at)
        else:
            i, t = self._segment(s)
            _, c3, c2, c1, c0 = self._rows[i]
        t2 = t * t
        return c3 + c2 * t + c1 * t2 + c0 * (t2 * t)

    def derivative(self, s):
        """dU/ds at a scalar or array of stoichiometries."""
        if isinstance(s, np.ndarray):
            return self._on_array(s, self.slope_at)
        i, t = self._segment(s)
        return float(self.slope_at((i, t, t * t)))

    def _on_array(self, s, at):
        # as PPoly does: float64 points, located flat, shaped like s
        s = self._snap_array(s.astype(float, copy=False))
        return at(self.locate(s.ravel())).reshape(s.shape)

    def locate(self, s):
        """Segment index, offset and squared offset of each point of the
        float64 array s, which must be on the table (nothing here checks
        it) or NaN, which evaluates to NaN. As scipy's find_interval,
        segment i holds stoich[i] <= s < stoich[i + 1], and s_max falls in
        the last segment.
        """
        i = self._interior.searchsorted(s, side="right")
        t = s - self.stoich[i]
        return i, t, t * t

    def value_at(self, located):
        """Potential at the points locate() placed; PPoly's value to the
        bit, as it sums its terms in this order."""
        i, t, t2 = located
        c3, c2, c1, c0 = self._value_c
        return c3[i] + c2[i] * t + c1[i] * t2 + c0[i] * (t2 * t)

    def slope_at(self, located):
        """dU/ds at the points locate() placed; the value of PPoly's
        derivative to the bit."""
        i, t, t2 = located
        d2, d1, d0 = self._slope_c
        return d2[i] + d1[i] * t + d0[i] * t2

    def inverse(self, v):
        """Stoichiometry at potential v. Monotonicity makes this unique."""
        # the interpolant's own end values, which may round past the rows
        lo, hi = self(self.s_max), self(self.s_min)
        if not (lo <= v <= hi):
            raise SaturationError(
                f"{self.name}: potential {v:.6g} outside table range "
                f"[{lo:.6g}, {hi:.6g}]")
        # the tables decrease, so search the reversed (increasing) columns
        pv, ps = self.potential[::-1], self.stoich[::-1]
        j = int(np.searchsorted(pv, v))
        j = min(max(j, 1), len(pv) - 1)
        a, b = float(ps[j]), float(ps[j - 1])
        return brent(lambda s: self(s) - v, a, b, 1e-14)


def load_builtin(which):
    """Built-in demo tables: 'graphite' (negative) or 'nmc' (positive)."""
    fname = {"graphite": "ocp_graphite.csv", "nmc": "ocp_nmc.csv"}.get(which)
    if fname is None:
        raise ConfigError(f"unknown builtin OCP table {which!r}")
    with resources.as_file(resources.files("cellfade.data") / fname) as p:
        return MonotoneOCPTable.from_file(p, name=which)
