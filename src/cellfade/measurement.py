"""The bench's readouts: the measurement vector, the forward map from a
degradation state (composing degradation.py's film laws), pseudo-OCV
synthesis and the eSOH fit.

All functions here are pure (film_free_resistance's memo on the
frozen CellParameters cannot go stale); the simulated-pulse and
RPT routes that exercise them live in protocol.py so the two paths to
each quantity stay independent of one another.

The eSOH fit calls MINPACK's lmder in scipy's extension
scipy.optimize._minpack, loaded by file at import by particle.py's loader,
so no process imports scipy.optimize's package, whose import would add
about 525 modules and 39 MB, scipy.linalg's package among them.
"""

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .degradation import film_expansion, material_loss_expansion, r_film
from .electrochem import ESOHRecord, solve_window
from .errors import ConfigError, EstimationFailedError, KineticsSingularError
from .particle import _load_scipy_extension

PSEUDO_OCV_POINTS = 241   # samples on a synthesized or RPT pseudo-OCV curve
ENDPOINT_WEIGHT = 10.0    # eSOH fit: weight of the two voltage-limit rows
PENALTY_WEIGHT = 1e3      # eSOH fit: V per unit of off-table stoichiometry

_minpack = _load_scipy_extension("optimize", "_minpack")
# why MINPACK stopped short of its convergence tests, info 1-4
MINPACK_FAILURES = {
    0: "improper input parameters",
    5: "residual evaluations reached maxfev",
    6: "ftol too small, no further reduction in the sum of squares",
    7: "xtol too small, no further improvement in the solution",
    8: "gtol too small, residual orthogonal to the Jacobian's columns",
}


@dataclass
class MeasurementVector:
    """What a test bench reports about an aged cell."""
    C_p: float
    C_n: float
    LLI: float
    R_s: float            # ohm, cell level
    delta_irr: float = None   # m; None in the under-determined case

    def __post_init__(self):
        if not (0.0 < self.C_p < math.inf and 0.0 < self.C_n < math.inf):
            raise ConfigError(f"C_p and C_n must be positive and finite, got "
                              f"{self.C_p}, {self.C_n}")
        if not (0.0 <= self.LLI < 1.0):
            raise ConfigError(f"LLI must be in [0,1), got {self.LLI}")
        if not 0.0 < self.R_s < math.inf:
            raise ConfigError(f"R_s must be positive and finite, got {self.R_s}")
        if self.delta_irr is not None and not 0.0 <= self.delta_irr < math.inf:
            raise ConfigError(f"delta_irr must be finite and >= 0, got "
                              f"{self.delta_irr}")

    def as_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


# --- the readouts of a state: resistance and expansion ---

def kinetic_resistance(params, C_p, C_n, x, y, I=0.0):
    """Film-independent charge-transfer resistance, ohm.

    Exact derivative of the asinh overpotentials at the operating point,
    with surface concentrations approximated by the averages. Decreases
    with |I| as the kinetics leave the linear regime.
    """
    out = 0.0
    for electrode, cap, s in ((params.pos, C_p, y), (params.neg, C_n, x)):
        i0 = electrode.exchange_current(s * electrode.c_smax)
        if i0 == 0.0:
            raise KineticsSingularError(
                f"{electrode.name} stoichiometry {s:g} gives zero exchange "
                f"current")
        g = 1.0 / (2.0 * i0 * electrode.area(cap))
        out += g / math.sqrt((I * g) ** 2 + 1.0)
    return params.pos.rt2f * out


def instantaneous_resistance(params, deg_params, state, x, y, I=0.0):
    """Cell resistance: film plus charge-transfer parts, ohm."""
    return (r_film(params, deg_params, state)[1]
            + kinetic_resistance(params, state.C_p, state.C_n, x, y, I))


def irreversible_expansion(exp_params, state, params):
    """Permanent thickness growth, m: the films' and the material-loss
    contributions."""
    return (film_expansion(exp_params, state.delta_sei, state.delta_pl)
            + material_loss_expansion(exp_params, state.C_p, state.C_n,
                                      params.C_p_nom, params.C_n_nom))


# --- the forward measurement map used by identification ---

def film_free_resistance(params, C_p, C_n, LLI, n_li0):
    """Charge-transfer resistance, ohm, mid-window of a health triple: the
    film-free part of R_s, where forward_measure reads it and inversion
    reads it back. Remembered on params for the last arguments only, errors
    excepted: both routes and their forward checks ask for one vector."""
    memo = params.film_free_resistances
    key = (C_p, C_n, LLI, n_li0)
    got = memo.get(key)
    if got is None:
        w = solve_window(params, C_p, C_n, n_li0 * (1.0 - LLI))
        got = kinetic_resistance(params, C_p, C_n, 0.5 * (w.x_0 + w.x_100),
                                 0.5 * (w.y_0 + w.y_100))
        memo.clear()
        memo[key] = got
    return got


def forward_measure(params, deg_params, state, n_li0):
    """Noiseless measurement vector of a degradation state.

    R_s is taken in the zero-current limit at the middle of the state's
    own stoichiometric window; inversion reconstructs the same operating
    point from (C_p, C_n, LLI), so the map is exactly invertible.
    """
    return MeasurementVector(
        C_p=state.C_p, C_n=state.C_n, LLI=state.LLI,
        R_s=(r_film(params, deg_params, state)[1]
             + film_free_resistance(params, state.C_p, state.C_n, state.LLI,
                                    n_li0)),
        delta_irr=irreversible_expansion(deg_params.expansion, state, params))


# --- eSOH extraction ---

@dataclass
class PseudoOCV:
    """Low-rate voltage curve. capacity_Ah counts charge removed since
    the top of the window: 0 at V_max, C at V_min."""
    capacity_Ah: np.ndarray
    voltage: np.ndarray


def synthesize_pseudo_ocv(params, esoh, noise_mv=0.0, rng=None):
    """Exact OCV-difference curve for a known window (test/demo helper)."""
    q = np.linspace(0.0, esoh.C, PSEUDO_OCV_POINTS)
    x = esoh.x_0 + (esoh.C - q) / esoh.C_n
    y = esoh.y_0 - (esoh.C - q) / esoh.C_p
    v = params.ocp_pos(y) - params.ocp_neg(x)
    if noise_mv:
        v = v + (rng or np.random.default_rng()).normal(
            0.0, noise_mv * 1e-3, size=v.shape)
    return PseudoOCV(q, v)


def extract_esoh(curve, params, capacity=None):
    """Fit (C_p, C_n, x_0, y_0) to a pseudo-OCV curve.

    Least squares over the whole curve shape plus the two voltage-limit
    constraints; the endpoint equations alone leave the problem
    under-determined. Initial guess scales the nominal electrode pair by
    the measured capacity ratio. MINPACK's Levenberg-Marquardt (lmder)
    runs the whole iteration in compiled code, on the residual's exact
    Jacobian, without bounds: penalty rows keep every evaluated point on
    the OCP tables. Each trial theta's points are located on each table
    once, for the residual's values and the Jacobian's slopes alike.
    """
    q = np.asarray(curve.capacity_Ah, dtype=float)
    v = np.asarray(curve.voltage, dtype=float)
    if q.ndim != 1 or q.shape != v.shape or len(q) < 8:
        raise ConfigError("pseudo-OCV curve needs matching 1-D columns, >= 8 rows")
    if not (np.isfinite(q).all() and np.isfinite(v).all()):
        raise ConfigError("pseudo-OCV curve holds a non-finite value")
    C_meas = capacity if capacity is not None else float(q[-1] - q[0])
    if not 0.0 < C_meas < math.inf:
        raise ConfigError(f"curve capacity must be finite and > 0, got {C_meas!r}")
    # a sweep under load stops short of the quasi-static window edges
    # (about 0.1 V at end of life); reject only curves missing a knee
    span = 0.15
    if v.min() > params.V_min + span or v.max() < params.V_max - span:
        raise ConfigError(
            f"curve [{v.min():.3f}, {v.max():.3f}] V does not span the "
            f"window [{params.V_min}, {params.V_max}] V")

    tp, tn = params.ocp_pos, params.ocp_neg
    fresh = params.fresh_window
    ratio = min(max(C_meas / fresh.C, 0.3), 1.5)
    theta0 = np.array([params.C_p_nom * ratio, params.C_n_nom * ratio,
                       fresh.x_0, fresh.y_0])
    n = len(q)
    # charge left above the bottom of the window: the curve points, then
    # the window ends at 0 % (x_0, y_0) and 100 % (x100, y100) state of charge
    dq = np.append(C_meas - q, (0.0, C_meas))
    target = np.append(v, (params.V_min, params.V_max))
    weight = np.append(np.ones(n), (ENDPOINT_WEIGHT, ENDPOINT_WEIGHT))
    # each takes theta's bytes and remembers its last answer only: the
    # solver asks for the start twice, and each Jacobian's theta is
    # the one whose residual was evaluated last. (MINPACK keeps the first
    # residual array as its own and overwrites it once past the start.)

    @lru_cache(maxsize=1)
    def evaluate(key):
        """(residual, located): the residual at theta and its points as
        each OCP table located them, with their off-table excursions."""
        C_p, C_n, x_0, y_0 = np.frombuffer(key)
        x = x_0 + dq / C_n
        y = y_0 - dq / C_p
        # keep trial evaluations on-table; penalize the excursion instead
        x_c = np.minimum(np.maximum(x, tn.s_min), tn.s_max)
        y_c = np.minimum(np.maximum(y, tp.s_min), tp.s_max)
        # clipped points are on-table or NaN, which locate takes as they
        # are: the snap an array table call makes first would change none
        at_n, at_p = tn.locate(x_c), tp.locate(y_c)
        out_n, out_p = x - x_c, y - y_c
        # curve and window ends located together (each point is summed
        # alone, so batching changes no bit)
        residual = np.concatenate([
            (tp.value_at(at_p) - tn.value_at(at_n) - target) * weight,
            [PENALTY_WEIGHT * np.abs(out_n).max(),
             PENALTY_WEIGHT * np.abs(out_p).max()],
        ])
        return residual, (at_n, at_p, out_n, out_p)

    @lru_cache(maxsize=1)
    def jacobian(key):
        C_p, C_n, _, _ = np.frombuffer(key)
        at_n, at_p, out_n, out_p = evaluate(key)[1]
        # a clipped point does not move with theta: the clip's derivative
        # is 1 on the closed table range and 0 outside it
        dp = tp.slope_at(at_p) * (out_p == 0.0)
        dn = tn.slope_at(at_n) * (out_n == 0.0)
        J = np.zeros((n + 4, 4))
        J[:n + 2, 0] = dp * dq / C_p ** 2
        J[:n + 2, 1] = dn * dq / C_n ** 2
        J[:n + 2, 2] = -dn
        J[:n + 2, 3] = dp
        J[n:n + 2] *= ENDPOINT_WEIGHT
        # each penalty's subgradient at the point argmax picks, signed by
        # the excursion; a zero row when that electrode stays on-table
        k = np.abs(out_n).argmax()
        sign = PENALTY_WEIGHT * np.sign(out_n[k])
        J[n + 2, 1], J[n + 2, 2] = -sign * dq[k] / C_n ** 2, sign
        k = np.abs(out_p).argmax()
        sign = PENALTY_WEIGHT * np.sign(out_p[k])
        J[n + 3, 0], J[n + 3, 3] = sign * dq[k] / C_p ** 2, sign
        return J

    # MINPACK's lmder, with the arguments scipy.optimize.leastsq passes it
    # (and least_squares(method="lm", x_scale="jac") too); it writes its
    # iterate into theta0
    theta, info, ier = _minpack._lmder(
        lambda theta: evaluate(theta.tobytes())[0],
        lambda theta: jacobian(theta.tobytes()), theta0, (), 1, 0, 1e-14,
        1e-14, 1e-14, 400, 100, None)
    rms = math.sqrt(float(np.mean(info["fvec"][:n] ** 2)))
    if not 1 <= ier <= 4 or not rms <= 0.05 or not np.isfinite(theta).all():
        why = f": {MINPACK_FAILURES[ier]}" if ier in MINPACK_FAILURES else ""
        raise EstimationFailedError(
            f"eSOH fit did not converge (rms {rms * 1e3:.2f} mV, MINPACK "
            f"info {ier}{why})")
    C_p, C_n, x_0, y_0 = (float(t) for t in theta)
    return ESOHRecord(
        C=C_meas, C_p=C_p, C_n=C_n,
        x_0=x_0, x_100=x_0 + C_meas / C_n,
        y_0=y_0, y_100=y_0 - C_meas / C_p,
        n_li=3600.0 / params.F * (x_0 * C_n + y_0 * C_p),
        fit_rms_v=rms,
    )
