"""Inverting measurements into degradation states.

Without expansion the film pair (delta_sei, delta_pl) is pinned only to an
iso-resistance line segment: infinitely many states share one measurement
vector. Adding irreversible expansion closes the system: along the segment
the expansion is a quadratic in the segment coordinate s, whose admissible
root is the state. The family line and the expansion law are
degradation.py's. Every inversion is checked by running the forward
measurement model on the answer, never trusted from algebra alone.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cell import Cell
from .degradation import (DegradationState, deep_soh, film_expansion,
                          material_loss_expansion, plated_lithium_moles,
                          point_on_family, sei_lithium_moles, within_lli_budget)
from .errors import (AmbiguousRootsError, CellDeadError, ConfigError,
                     InfeasibleError)
from .measurement import (film_free_resistance, forward_measure,
                          synthesize_pseudo_ocv)
from .electrochem import pristine_inventory, solve_window
from .protocol import DT, DT_REST, run_campaign

REL_TOL = 1e-9          # slack for float cancellation in feasibility checks
VERIFY_TOL = 1e-7       # forward-model residual accepted for a verdict
MAX_FAMILY_SAMPLES = 1000


@dataclass
class IdentificationResult:
    kind: str                       # "unique" | "family"
    solution: DegradationState = None
    family_endpoints: tuple = None  # ((d_sei, d_pl) at s=0, at s=1)
    family_span: tuple = None       # feasible (s_lo, s_hi) after LLI budget
    r_film_areal: float = 0.0       # ohm*m^2 shared by the whole family
    residual: dict = field(default_factory=dict)


def _film_target(params, deg_params, y, n_li0):
    """Areal film resistance the measurement demands, ohm*m^2."""
    try:
        h4 = film_free_resistance(params, y.C_p, y.C_n, y.LLI, n_li0)
    except CellDeadError as e:
        raise InfeasibleError(
            f"no stoichiometric window fits C_p {y.C_p:.6g} Ah, C_n "
            f"{y.C_n:.6g} Ah and LLI {y.LLI:.6g} ({e})") from None
    gap = y.R_s - h4
    if gap < -REL_TOL * max(y.R_s, h4):
        raise InfeasibleError(
            f"measured R_s {y.R_s:.6g} ohm is below the film-free kinetic "
            f"resistance {h4:.6g} ohm")
    return max(gap, 0.0) * params.film_area_neg, h4


def _budget_interval(params, deg_params, y, r_areal, n_li0):
    """The s range of the family within the LLI budget: the fracture share
    is linear in s, so the budget clips [0, 1] to one subinterval, which
    ends where that share is zero."""
    d_sei = point_on_family(deg_params, r_areal, 0.0)[0]
    d_pl = point_on_family(deg_params, r_areal, 1.0)[1]
    f0 = y.LLI - sei_lithium_moles(params, deg_params.sei, d_sei) / n_li0
    f1 = y.LLI - plated_lithium_moles(params, deg_params.plating, d_pl) / n_li0
    ok0, ok1 = within_lli_budget(f0), within_lli_budget(f1)
    if ok0 and ok1:
        return 0.0, 1.0
    if not (ok0 or ok1):
        raise InfeasibleError("film lithium exceeds the LLI budget everywhere "
                              f"on the family (fracture share {max(f0, f1):.6g})")
    s_star = min(max(f0 / (f0 - f1), 0.0), 1.0)
    return (0.0, s_star) if ok0 else (s_star, 1.0)


def _verify(params, deg_params, state, y, n_li0, check_expansion):
    m = forward_measure(params, deg_params, state, n_li0)
    rs_res = abs(m.R_s - y.R_s) / max(abs(y.R_s), 1e-30)
    out = {"R_s_rel": rs_res}
    worst = rs_res
    if check_expansion and y.delta_irr is not None:
        e_res = abs(m.delta_irr - y.delta_irr) / max(abs(y.delta_irr), 1e-12)
        out["delta_irr_rel"] = e_res
        worst = max(worst, e_res)
    out["ok"] = worst < VERIFY_TOL
    return out


def invert_without_expansion(params, deg_params, y, n_li0, lli_budget=True):
    """The set of states consistent with [C_p, C_n, LLI, R_s].

    Returns a family result: the iso-resistance segment in film space,
    optionally clipped so each candidate's film lithium fits in the LLI
    budget. Degenerate zero-resistance gap collapses to the single point
    (0, 0).
    """
    r_areal, h4 = _film_target(params, deg_params, y, n_li0)
    s_lo, s_hi = (_budget_interval(params, deg_params, y, r_areal, n_li0)
                  if lli_budget else (0.0, 1.0))
    p_lo = point_on_family(deg_params, r_areal, s_lo)
    p_hi = point_on_family(deg_params, r_areal, s_hi)
    probe = DegradationState(*p_lo, y.C_p, y.C_n, y.LLI)
    res = _verify(params, deg_params, probe, y, n_li0, check_expansion=False)
    res["h4_ohm"] = h4
    return IdentificationResult(
        kind="family", family_endpoints=(p_lo, p_hi),
        family_span=(s_lo, s_hi), r_film_areal=r_areal, residual=res)


def sample_family(result, y, n):
    """n states spanning the feasible family segment, endpoints included.

    Spacing is uniform in sqrt(delta_sei) rather than in thickness:
    diffusion-limited film growth follows delta ~ sqrt(age), so equal
    steps in sqrt(delta_sei) are equal steps in equivalent film age and
    spread the members' forward trajectories more evenly than thickness
    steps would.
    """
    if result.kind != "family":
        raise ConfigError("can only sample a family result")
    if not 1 <= n <= MAX_FAMILY_SAMPLES:
        raise ConfigError(f"need 1 to {MAX_FAMILY_SAMPLES} samples, got {n}")
    (a_sei, a_pl), (b_sei, b_pl) = result.family_endpoints
    if n > 1:
        # np.linspace(0, 1, n) on Python floats: i*step, the last exactly 1
        step = 1.0 / (n - 1)
        ts = [i * step for i in range(n - 1)] + [1.0]
    else:
        ts = [0.5]
    ra, rb = math.sqrt(a_sei), math.sqrt(b_sei)
    out = []
    for t in ts:
        d_sei = (ra + (rb - ra) * t) ** 2
        frac = (d_sei - a_sei) / (b_sei - a_sei) if b_sei != a_sei else t
        # sqrt(a)**2 can miss a by an ulp; that must not push the plated
        # film an ulp below zero at an endpoint without plating
        frac = min(max(frac, 0.0), 1.0)
        d_pl = a_pl + (b_pl - a_pl) * frac
        out.append(DegradationState(d_sei, d_pl, y.C_p, y.C_n, y.LLI))
    return out


def invert_with_expansion(params, deg_params, y, n_li0, lli_budget=True):
    """Unique state from [C_p, C_n, LLI, R_s, delta_irr], or infeasible.

    Along the family of invert_without_expansion the film expansion is
    E(s) = E(0)*(1 - s) + E(1)*s^2, a quadratic in s. Its roots on the
    family's span (the LLI budget's, with lli_budget; else [0, 1]) are
    the admissible states; two are AmbiguousRootsError (carrying both).
    A root is on the span within its own rounding, REL_TOL at least: near
    a double root, rounding moves it by about sqrt(eps), not eps.
    """
    if y.delta_irr is None:
        raise ConfigError("no delta_irr (expansion channel) in the measurement")
    ex = deg_params.expansion
    r_areal, h4 = _film_target(params, deg_params, y, n_li0)
    e_sei = film_expansion(ex, *point_on_family(deg_params, r_areal, 0.0))
    E = y.delta_irr - material_loss_expansion(ex, y.C_p, y.C_n,
                                              params.C_p_nom, params.C_n_nom)
    scale_E = max(abs(y.delta_irr), e_sei, 1e-15)
    if E < -REL_TOL * scale_E:
        raise InfeasibleError(
            f"expansion {y.delta_irr:.6g} m is below the material-loss floor; "
            f"film excess {E:.6g} m cannot be negative")
    E = max(E, 0.0)
    s_lo, s_hi = (_budget_interval(params, deg_params, y, r_areal, n_li0)
                  if lli_budget else (0.0, 1.0))

    a = film_expansion(ex, *point_on_family(deg_params, r_areal, 1.0))
    b = -e_sei
    c = e_sei - E
    roots, slack = [], REL_TOL
    if a == 0.0:
        if b != 0.0:
            roots = [-c / b]
        elif abs(c) <= REL_TOL * scale_E:
            roots = [0.0]
    else:
        disc = b * b - 4.0 * a * c
        # what rounding can move disc by, the cancellation in c included
        noise = 8.0 * math.ulp(1.0) * (b * b + 4.0 * a * (E - b))
        if disc > noise:
            # b <= 0 here, so q is the numerically safe large root pair
            q = -(b - math.sqrt(disc)) / 2.0
            roots = [q / a, c / q]
            slack = max(slack, noise / (math.sqrt(disc) + math.sqrt(noise))
                        / (2.0 * a))
        elif disc >= -noise:
            # zero within its rounding: one double root, at the vertex
            roots = [-b / (2.0 * a)]
            slack = max(slack, (math.sqrt(max(disc, 0.0)) + math.sqrt(noise))
                        / (2.0 * a))

    # a root within slack of the span is on it; two within REL_TOL are one
    ss = [min(max(s, s_lo), s_hi) for s in roots
          if s_lo - slack <= s <= s_hi + slack]
    if len(ss) == 2 and abs(ss[0] - ss[1]) <= REL_TOL:
        del ss[1]
    cands = [DegradationState(*point_on_family(deg_params, r_areal, s),
                              y.C_p, y.C_n, y.LLI) for s in ss]
    if not cands:
        raise InfeasibleError("no admissible film pair reproduces the expansion"
                              + (" within the LLI budget" if lli_budget else ""))
    if len(cands) > 1:
        raise AmbiguousRootsError(
            "two admissible film pairs reproduce the measurements", cands)

    sol = cands[0]
    res = _verify(params, deg_params, sol, y, n_li0, check_expansion=True)
    res["h4_ohm"] = h4
    return IdentificationResult(kind="unique", solution=sol,
                                r_film_areal=r_areal, residual=res)


def _age_member(params, deg_params, n_li0, campaign, dt, dt_rest, state):
    """Run a cell that starts at this state to end of life: (rul, eol,
    cycle records). Module level, so a process pool can run it."""
    cell = Cell(params, deg_params, degradation=state, n_li0=n_li0)
    traj, rul, eol = run_campaign(cell, campaign, dt=dt, dt_rest=dt_rest,
                                  keep_series=False)
    return rul, eol, traj.cycles


def predict_rul(params, deg_params, state, campaign, n_li0=None, dt=DT,
                dt_rest=DT_REST):
    """Cycles a cell starting at this state survives before EOL."""
    return _age_member(params, deg_params, n_li0, campaign, dt, dt_rest,
                       state)[0]


def ambiguity_experiment(params, deg_params, y, campaign, n_members=3,
                         n_li0=None, dt=DT, dt_rest=DT_REST, lli_budget=True,
                         progress=None, map=map):
    """The headline demonstration: states that measure identically but
    age apart.

    Builds n members on the family of a measurement vector, checks the
    premise (same pseudo-OCV curve, same R_s, distinct expansion), then
    runs each to end of life through map (the builtin, or a process
    pool's map: the results are the same). Returns a report dict.
    """
    if not 1 <= n_members <= MAX_FAMILY_SAMPLES:
        raise ConfigError(f"n_members must be in [1, {MAX_FAMILY_SAMPLES}], "
                          f"got {n_members}")
    if n_li0 is None:
        n_li0 = pristine_inventory(params)
    fam = invert_without_expansion(params, deg_params, y, n_li0,
                                   lli_budget=lli_budget)
    members = sample_family(fam, y, n_members)

    w = solve_window(params, y.C_p, y.C_n, n_li0 * (1.0 - y.LLI))
    curve = synthesize_pseudo_ocv(params, w)
    measures = [forward_measure(params, deg_params, m, n_li0) for m in members]
    rs_vals = [m.R_s for m in measures]
    rs_spread = (max(rs_vals) - min(rs_vals)) / max(rs_vals)

    report = {
        "n_members": n_members,
        "family_endpoints": fam.family_endpoints,
        "family_span": fam.family_span,
        "r_film_areal": fam.r_film_areal,
        "rs_spread_rel": rs_spread,
        "esoh": w.as_dict(),
        "pseudo_ocv": curve,
        "members": [],
    }
    aged = map(partial(_age_member, params, deg_params, n_li0, campaign, dt,
                       dt_rest), members)
    for i, (m, meas) in enumerate(zip(members, measures)):
        if progress is not None:
            progress(f"member {i + 1}/{n_members}")
        rul, eol, cycles = next(aged)
        report["members"].append({
            "delta_sei_m": m.delta_sei,
            "delta_pl_m": m.delta_pl,
            "deep_soh": deep_soh(params, deg_params, m, n_li0),
            "R_s_ohm": meas.R_s,
            "delta_irr_m": meas.delta_irr,
            "rul_cycles": rul,
            "eol_reached": eol,
            "capacity_curve": [(c.cycle, c.capacity_Ah) for c in cycles],
            "degradation_curve": [(c.cycle, c.degradation) for c in cycles],
        })
    ruls = [mb["rul_cycles"] for mb in report["members"]]
    if len(ruls) > 1 and max(ruls) > 0:
        report["rul_spread_rel"] = (max(ruls) - min(ruls)) / max(ruls)
    exps = [mb["delta_irr_m"] for mb in report["members"]]
    report["expansion_distinct"] = len(set(np.round(exps, 15))) == len(exps)
    return report
