"""Monotone table interpolation: validation, evaluation, inversion."""

import math
import random

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from cellfade.errors import ConfigError, SaturationError
from cellfade.ocp import MIN_ROWS, MonotoneOCPTable, brent, load_builtin
from helpers import inverse_oracle, ocp_oracle, outcome


def make_table(n=25, direction=-1):
    s = np.linspace(0.02, 0.98, n)
    v = 4.0 - 1.1 * s if direction < 0 else 3.0 + 0.9 * s
    return MonotoneOCPTable(s, v, name="toy")


def test_knots_reproduced_exactly():
    t = make_table()
    for s, v in zip(t.stoich, t.potential):
        assert t(s) == pytest.approx(v, abs=1e-12)


def test_builtin_tables_load_and_are_monotone():
    for name in ("graphite", "nmc"):
        t = load_builtin(name)
        assert len(t.stoich) >= 20
        dense = np.linspace(t.s_min, t.s_max, 5001)
        dv = np.diff(t(dense))
        assert np.all(dv < 0), f"{name} not strictly decreasing between knots"


def test_rejects_too_few_rows():
    s = np.linspace(0.1, 0.9, 5)
    with pytest.raises(ConfigError):
        MonotoneOCPTable(s, 4.0 - s)


def test_rejects_non_monotone_voltage():
    s = np.linspace(0.1, 0.9, 30)
    v = np.cos(6 * s)
    with pytest.raises(ConfigError):
        MonotoneOCPTable(s, v)


def test_rejects_increasing_voltage():
    with pytest.raises(ConfigError, match="strictly decreasing"):
        make_table(direction=1)


def test_rejects_slopes_past_double_precision():
    k = np.arange(25.0)
    # potentials one subnormal apart over segments 3 wide: each secant
    # underflows to -0.0, as flat as two equal rows
    with pytest.raises(ConfigError, match="strictly decreasing"):
        MonotoneOCPTable(3.0 * k, -5e-324 * k)
    # a secant past the float range, and a cubic row past it over tiny
    # segments, leave no finite row to sum
    huge = np.concatenate([[1e308, -1e308], -1e308 - 1e306 * k[1:-1]])
    for s, v in ((k, huge), (1e-300 * k, 4.0 - 0.1 * k)):
        with pytest.raises(ConfigError, match="overflow double precision"):
            MonotoneOCPTable(s, v)


def test_rejects_unsorted_stoichiometry():
    s = np.linspace(0.1, 0.9, 30)
    v = 4.0 - s
    s2 = s.copy()
    s2[10], s2[11] = s2[11], s2[10]
    with pytest.raises(ConfigError):
        MonotoneOCPTable(s2, 4.0 - s2)


def test_out_of_range_raises():
    t = make_table()
    with pytest.raises(SaturationError):
        t(0.001)
    with pytest.raises(SaturationError):
        t(0.999)
    with pytest.raises(SaturationError):
        t(np.array([0.5, 1.2]))
    with pytest.raises(SaturationError, match=r"in \[0\.5, 1\.2\] outside"):
        t(np.array([0.5, 1.2]))


def test_edge_values_are_valid():
    t = make_table()
    assert np.isfinite(t(t.s_min))
    assert np.isfinite(t(t.s_max))
    # sub-ulp excursion from a balance solve must not blow up
    assert np.isfinite(t(t.s_min - 1e-15))


def test_scalar_and_array_paths_agree():
    # one formula: a float, a numpy float and an in-range int each read
    # the bits an array call reads at that point, value and slope
    rng = np.random.default_rng(3)
    for name, t in _oracle_tables():
        ints = list(range(math.ceil(t.s_min), math.floor(t.s_max) + 1))
        points = np.concatenate([
            np.linspace(t.s_min, t.s_max, 257), rng.uniform(t.s_min, t.s_max, 2000),
            t.stoich, np.nextafter(t.stoich, -1.0), np.nextafter(t.stoich, 2.0),
            ints])
        for f in (t, t.derivative):
            want = [float(v).hex() for v in f(points)]
            for kind in (float, np.float64):
                got = [f(kind(p)) for p in points]
                assert all(type(v) is float for v in got), (name, kind)
                assert [v.hex() for v in got] == want, (name, kind)
            got = [f(k) for k in ints]
            assert all(type(v) is float for v in got), name
            assert [v.hex() for v in got] == want[len(points) - len(ints):], name


@pytest.mark.parametrize("which", ["graphite", "nmc"])
def test_array_calls_are_pointwise(which):
    # callers batch points into one call (eSOH appends the window ends to
    # the curve), which is only sound if each point is evaluated alone
    t = load_builtin(which)
    snap = 1e-9 * (t.s_max - t.s_min)
    rng = np.random.default_rng(11)
    s = np.concatenate([t.stoich, rng.uniform(t.s_min, t.s_max, 300),
                        [t.s_min - 0.5 * snap, t.s_max + 0.5 * snap]])
    rng.shuffle(s)
    cuts = [0, 1, 40, 41, 200, len(s)]
    pieces = [s[a:b] for a, b in zip(cuts, cuts[1:])] + [
        np.asarray(t.s_min), np.asarray(t.s_max + 0.25 * snap)]
    whole = np.concatenate([np.atleast_1d(p) for p in pieces])
    for f in (t, t.derivative):
        got = f(whole)
        want = np.concatenate([np.atleast_1d(f(p)) for p in pieces])
        assert np.array_equal(got, want)
    # snapping is a clip: exact for sub-snap excursions, and in-range
    # input is evaluated as is, uncopied
    inside = np.clip(s, t.s_min, t.s_max)
    pchip = PchipInterpolator(t.stoich, t.potential, extrapolate=False)
    for arr in (whole, inside):
        assert np.array_equal(t(arr), pchip(np.clip(arr, t.s_min, t.s_max)))
    assert t._snap_array(inside) is inside


def _oracle_tables():
    """Both packaged tables, seeded random monotone tables (uneven knots,
    slopes over four decades) and a table through -0.0 whose power sum at
    that knot is -0.0 unless it starts from 0.0, as PPoly's does."""
    yield "graphite", load_builtin("graphite")
    yield "nmc", load_builtin("nmc")
    rng = np.random.default_rng(2024)
    for n in (MIN_ROWS, 37, 200):
        s = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
        v = 4.2 - np.cumsum(10.0 ** rng.uniform(-4.0, 0.0, n))
        yield f"random-{n}", MonotoneOCPTable(s, v, name=f"random-{n}")
    s = np.linspace(0.0, 1.0, 21)
    v = np.exp(2.5) - np.exp(5.0 * s)
    v[10] = -0.0
    yield "through -0.0", MonotoneOCPTable(s, v, name="through -0.0")


def _bits(a):
    # every NaN as one NaN; any other value by its bits, so -0.0 != 0.0
    assert isinstance(a, np.ndarray) and a.dtype == np.float64
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


@pytest.mark.parametrize("name, t", list(_oracle_tables()))
def test_array_calls_are_scipy_pchip_to_the_bit(name, t):
    # the table builds its PCHIP rows itself, and array calls sum them; each
    # row, value and slope must be scipy's own, so that every fit is
    # unchanged. random-200 zeroes both end slopes, whose three-point
    # estimates leave the end secants' sign; the other five tables keep
    # the three-point estimate at both ends
    pchip = PchipInterpolator(t.stoich, t.potential, extrapolate=False)
    dpchip = pchip.derivative()
    # rows constant first, as the table keeps them, each constant row + 0.0
    c, d = pchip.c, dpchip.c
    want = (c[3] + 0.0, c[2], c[1], c[0], d[2] + 0.0, d[1], d[0])
    assert [r.tobytes() for r in t._value_c + t._slope_c] == \
        [r.tobytes() for r in want], name
    snap = 1e-9 * (t.s_max - t.s_min)
    edges = [t.s_min, t.s_max, t.s_min - snap, t.s_max + snap,
             t.s_min - 0.5 * snap, t.s_max + 0.5 * snap,
             np.nextafter(t.s_min, -1.0), np.nextafter(t.s_max, 2.0),
             np.nextafter(t.s_min, 2.0), np.nextafter(t.s_max, -1.0)]
    nudged = np.concatenate([np.nextafter(t.stoich, -1.0),
                             np.nextafter(t.stoich, 2.0)])
    rng = np.random.default_rng(5)
    inside = rng.uniform(t.s_min, t.s_max, 1000)
    points = np.concatenate([t.stoich, edges, nudged, inside, [np.nan]])
    rng.shuffle(points)
    cases = [points, points[:600].reshape(20, 30), points[:600].reshape(20, 30).T,
             np.array(t.stoich[3]), np.array(np.nan), np.array([]),
             np.array([], dtype=int), inside.astype(np.float32)]
    if t.s_min <= 0.0 and 1.0 <= t.s_max:
        cases.append(np.array([[0, 1], [1, 0]]))
    for s in cases:
        # in-range points as they are, float64; band points snapped
        want_at = np.clip(s.astype(float), t.s_min, t.s_max)
        for f, oracle in ((t, pchip), (t.derivative, dpchip)):
            got, want = f(s), oracle(want_at)
            assert got.shape == s.shape == want.shape, (name, s.dtype)
            assert np.array_equal(_bits(got), _bits(want)), (name, s.dtype)
    # what the eSOH fit uses: one location, then value and slope from it
    on_table = np.clip(points, t.s_min, t.s_max)
    at = t.locate(on_table)
    assert np.array_equal(_bits(t.value_at(at)), _bits(pchip(on_table)))
    assert np.array_equal(_bits(t.slope_at(at)), _bits(dpchip(on_table)))


@pytest.mark.parametrize("which", ["graphite", "nmc"])
def test_array_nan_and_empty_input(which):
    t = load_builtin(which)
    for f in (t, t.derivative):
        for empty in (np.array([]), np.array([], dtype=int)):
            out = f(empty)
            assert out.shape == (0,) and out.dtype == np.float64
        assert np.isnan(f(np.array(np.nan)))
        out = f(np.array([np.nan, 0.5]))
        assert np.isnan(out[0]) and out[1] == f(np.array([0.5]))[0]
        with pytest.raises(SaturationError):
            f(np.array([np.nan, 2.0]))


def test_derivative_matches_finite_differences():
    t = load_builtin("nmc")
    ss = np.linspace(t.s_min + 0.01, t.s_max - 0.01, 41)
    h = 1e-7
    for s in ss:
        fd = (t(s + h) - t(s - h)) / (2 * h)
        assert t.derivative(float(s)) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_inverse_round_trip():
    t = load_builtin("graphite")
    for s in np.linspace(t.s_min, t.s_max, 23):
        v = t(float(s))
        assert t.inverse(v) == pytest.approx(s, abs=1e-10)


def test_inverse_out_of_range_raises():
    t = make_table()
    with pytest.raises(SaturationError):
        t.inverse(10.0)


def test_inverse_matches_its_brentq_oracle_to_the_bit():
    # every knot potential (where the bracket ends are the answer, or one
    # end misses it by the rounding of the last segment's power sum), the
    # interpolant's end values and 1000 seeded potentials, a few of them
    # off the table
    rng = random.Random(24)
    for t in (load_builtin("graphite"), load_builtin("nmc"), make_table()):
        lo, hi = float(t.potential[-1]), float(t.potential[0])
        vs = list(t.potential) + [float(v) for v in t.potential]
        vs += [t(t.s_min), t(t.s_max)]
        vs += [rng.uniform(lo - 0.01, hi + 0.01) for _ in range(1000)]
        for v in vs:
            got, want = outcome(t.inverse, v), outcome(inverse_oracle, t, v)
            if got[0] == want[0] == "ok":
                assert type(got[1]) is float
                got, want = float.hex(got[1]), float.hex(want[1])
            assert got == want, (t.name, v)


def _brent_case(rng, tables):
    """A seeded (f, a, b, xtol) in one of several shapes: smooth and
    monotone, flat near the root, steep, oscillating with several roots,
    values near the underflow threshold, a root at a bracket end, an OCP
    table, or ends of one sign."""
    r = rng.uniform(-2.0, 2.0)
    a, b = r - rng.uniform(1e-9, 3.0), r + rng.uniform(1e-9, 3.0)
    kind = rng.randrange(9)
    if kind == 0:
        c3, c1 = rng.uniform(0.0, 5.0), rng.uniform(0.0, 2.0)
        f = lambda x: c3 * (x - r) ** 3 + c1 * (x - r) + 1e-3
    elif kind == 1:
        p = rng.choice((5, 7, 9, 11))
        f = lambda x: (x - r) ** p
    elif kind == 2:
        k = 10.0 ** rng.uniform(0.0, 4.0)
        f = lambda x: math.tanh(k * (x - r))
    elif kind == 3:
        w, c = rng.uniform(0.5, 8.0), rng.uniform(-0.9, 0.9)
        f = lambda x: math.sin(w * x) + c
        a, b = sorted((rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)))
    elif kind == 4:
        k = rng.uniform(0.1, 3.0)
        f = lambda x: 1e-150 * ((x - r) ** 3 + k * (x - r))
    elif kind == 5:
        f = lambda x: math.exp(x) - math.exp(r)
    elif kind == 6:
        a = round(a, 3)
        f = lambda x: (x - a) * (x + 7.0)
    else:
        t = tables[kind - 7]
        a, b = t.s_min, t.s_max
        v = rng.uniform(float(t.potential[-1]), float(t.potential[0]))
        f = lambda s: t(s) - v
    if rng.random() < 0.5:
        a, b = b, a
    xtol = rng.choice((1e-13, 1e-14, 10.0 ** rng.uniform(-16.0, -2.0)))
    return f, a, b, xtol


def test_brent_is_brentq_to_the_bit():
    # each result, or each refusal with its message, and brent evaluates
    # f as often as brentq: both run the same compiled iteration, which
    # evaluates the bracket ends itself
    rng = random.Random(24)
    tables = (load_builtin("graphite"), load_builtin("nmc"))
    kinds = {"ok": 0, "raised": 0}
    for _ in range(6000):
        f, a, b, xtol = _brent_case(rng, tables)
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        got = outcome(brent, counted, a, b, xtol)
        want = outcome(lambda: brentq(f, a, b, xtol=xtol, full_output=True))
        kinds[got[0]] += 1
        if got[0] == want[0] == "ok":
            assert type(got[1]) is float
            assert len(calls) == want[1][1].function_calls
            got, want = float.hex(got[1]), float.hex(want[1][0])
        assert got == want, (a, b, xtol)
    assert min(kinds.values()) > 100, kinds


def test_from_file_comma_and_whitespace(tmp_path):
    s = np.linspace(0.05, 0.95, 21)
    v = 4.1 - 0.9 * s
    pc = tmp_path / "c.csv"
    pc.write_text("# hdr\n" + "\n".join(f"{a},{b}" for a, b in zip(s, v)))
    pw = tmp_path / "w.txt"
    pw.write_text("\n".join(f"{a} {b}" for a, b in zip(s, v)))
    tc = MonotoneOCPTable.from_file(pc)
    tw = MonotoneOCPTable.from_file(pw)
    assert tc(0.5) == pytest.approx(tw(0.5), abs=1e-14)


def _oracle_points(t, rng):
    """Seeded interior points, every knot, both ends, the snap band."""
    snap = 1e-9 * (t.s_max - t.s_min)
    return np.concatenate([
        rng.uniform(t.s_min, t.s_max, 2000), t.stoich,
        np.nextafter(t.stoich, -np.inf)[1:], np.nextafter(t.stoich, np.inf)[:-1],
        [t.s_min, t.s_max, t.s_min - snap, t.s_max + snap],
        t.s_min - rng.uniform(0.0, snap, 50),
        t.s_max + rng.uniform(0.0, snap, 50)]).tolist()


def _assert_matches_oracle(t, arg):
    value, slope = ocp_oracle(t, arg)
    got, got_slope = t(arg), t.derivative(arg)
    assert type(got) is float and type(got_slope) is float
    assert got.hex() == value.hex() and got_slope.hex() == slope.hex(), arg


@pytest.mark.parametrize("which", ["graphite", "nmc"])
def test_scalar_calls_match_the_segment_oracle(which):
    t = load_builtin(which)
    for s in _oracle_points(t, np.random.default_rng(12)):
        _assert_matches_oracle(t, s)
        _assert_matches_oracle(t, np.float64(s))


def test_int_calls_match_the_segment_oracle():
    s = np.linspace(0.0, 3.0, 25)
    t = MonotoneOCPTable(s, 4.0 - 0.3 * s ** 1.5, name="wide")
    for k in range(4):
        _assert_matches_oracle(t, k)


@pytest.mark.parametrize("which", ["graphite", "nmc"])
def test_scalar_calls_outside_the_band_raise_as_the_oracle(which):
    t = load_builtin(which)
    snap = 1e-9 * (t.s_max - t.s_min)
    wide = MonotoneOCPTable(np.linspace(0.0, 3.0, 25),
                            np.linspace(4.0, 3.0, 25), name="wide")
    cases = [(t, s) for s in (t.s_min - 2.0 * snap, t.s_max + 2.0 * snap,
                              -0.5, 1.5, float("nan"), float("inf"))]
    cases += [(t, np.float64(t.s_max + 1e-6)), (wide, -1), (wide, 4)]
    for table, s in cases:
        with pytest.raises(SaturationError) as want:
            ocp_oracle(table, s)
        for method in (table.__call__, table.derivative):
            with pytest.raises(SaturationError) as got:
                method(s)
            assert str(got.value) == str(want.value)
