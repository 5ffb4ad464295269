"""Monotone table interpolation: validation, evaluation, inversion."""

import numpy as np
import pytest

from cellfade.errors import ConfigError, SaturationError
from cellfade.ocp import MonotoneOCPTable, load_builtin
from helpers import ocp_oracle


def make_table(n=25, direction=-1):
    s = np.linspace(0.02, 0.98, n)
    v = 4.0 - 1.1 * s if direction < 0 else 3.0 + 0.9 * s
    return MonotoneOCPTable(s, v, name="toy")


def test_knots_reproduced_exactly():
    t = make_table()
    for s, v in zip(t.stoich, t.potential):
        assert t(s) == pytest.approx(v, abs=1e-12)


def test_builtin_tables_load_and_are_monotone():
    for name, direction in (("graphite", -1), ("nmc", -1)):
        t = load_builtin(name)
        assert len(t.stoich) >= 20
        assert t.direction == direction
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
    t = load_builtin("graphite")
    ss = np.linspace(t.s_min, t.s_max, 257)
    arr = t(ss)
    scal = np.array([t(float(s)) for s in ss])
    assert np.max(np.abs(arr - scal)) < 1e-12


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
    for arr in (whole, inside):
        assert np.array_equal(t(arr), t._pchip(np.clip(arr, t.s_min, t.s_max)))
    assert t._snap_array(inside) is inside


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
