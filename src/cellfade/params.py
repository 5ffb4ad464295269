"""Parameter containers and config loading.

All quantities SI unless noted; capacities are in Ah (the 3600 factors that
convert to coulombs appear explicitly wherever they are used). Charge
convention: discharge current is positive. Everything downstream derives
fluxes from that one choice.
"""

import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path

import yaml

from . import electrochem as ec
from .errors import CellDeadError, ConfigError, SaturationError
from .ocp import MonotoneOCPTable, load_builtin


def read_mapping(path, what, parse=yaml.safe_load):
    """The mapping held by a YAML input file (or, with parse=json.load, a
    JSON one). A file that is missing, unreadable, malformed or not a
    mapping is a ConfigError naming what it is."""
    try:
        with open(path) as f:
            raw = parse(f)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"{what} {path}: {e.strerror or e}") from None
    except (yaml.YAMLError, ValueError) as e:
        raise ConfigError(f"{what} {path} does not parse: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must be a mapping")
    return raw


def reject_unknown(raw, known, where):
    """ConfigError unless raw is a mapping whose keys all lie in known: a
    misspelled key would otherwise be ignored without a word."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")


@contextmanager
def _input(where, errors=ConfigError):
    """Name the input where in the message of an error (of the kinds in
    errors) that the block raises, which goes on as a ConfigError."""
    try:
        yield
    except errors as e:
        raise ConfigError(f"{where}: {e}") from None


def field_names(*classes):
    return {f.name for cls in classes for f in fields(cls)}


def _number(kind, value, what):
    """value as a finite int or float (kind). Numeric strings count (YAML
    1.1 reads an unquoted 1e8 as one); a bool, a non-number, a non-finite
    value, or a fraction where an int belongs is a ConfigError naming
    what it is."""
    try:
        x = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None:
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(x) or (kind is int and not x.is_integer()):
        raise ConfigError(f"{what} must be a finite {kind.__name__}, got {value!r}")
    return kind(x)


def from_mapping(cls, raw, where, **given):
    """Dataclass cls from the mapping raw: each field not in given is read
    by name through _number as its annotated type. An absent field (or a
    null one whose default is None) keeps its default; an absent required
    one is a ConfigError, as is a value that cls rejects."""
    for f in fields(cls):
        if f.name in given:
            continue
        value = raw.get(f.name, f.default)
        if value is MISSING:
            raise ConfigError(f"{where}: missing {f.name}")
        if value is not f.default:
            given[f.name] = _number(f.type, value, f"{where}: {f.name}")
    with _input(where, (ConfigError, CellDeadError)):
        return cls(**given)


def _require_positive(obj, names):
    for n in names:
        v = getattr(obj, n)
        if not (v > 0):
            raise ConfigError(f"{type(obj).__name__}.{n} must be > 0, got {v!r}")


def _require_nonneg(obj, names):
    for n in names:
        v = getattr(obj, n)
        if not (v >= 0):
            raise ConfigError(f"{type(obj).__name__}.{n} must be >= 0, got {v!r}")


@dataclass(frozen=True)
class CellParameters:
    """Electrochemical cell description.

    a_s and eps_s are not stored: the active-material volume fraction is
    owned by the capacity state (it shrinks under material loss), so the
    surface area per volume is always computed from the capacity in play.
    """

    A: float                 # electrode area, m^2
    l_pos: float             # electrode thickness, m
    l_neg: float
    r_p_pos: float           # particle radius, m
    r_p_neg: float
    c_smax_pos: float        # max solid concentration, mol/m^3
    c_smax_neg: float
    D_s_pos: float           # solid diffusivity, m^2/s
    D_s_neg: float
    k0_pos: float            # intercalation rate constant, A/m^2 / (mol/m^3)^...
    k0_neg: float
    alpha: float             # charge-transfer symmetry factor
    c_e: float               # electrolyte concentration, mol/m^3
    T: float                 # K
    ocp_pos: MonotoneOCPTable
    ocp_neg: MonotoneOCPTable
    V_max: float
    V_min: float
    C_p_nom: float           # nominal electrode capacities, Ah
    C_n_nom: float
    x100_init: float = 0.84  # fresh negative stoichiometry at top of charge
    n_shells: int = 20       # radial finite volumes per particle
    F = 96485.33212          # C/mol; F and R_gas are class attributes,
    R_gas = 8.314462618      # J/(mol K); not cell-file keys

    def __post_init__(self):
        _require_positive(self, [
            "A", "l_pos", "l_neg", "r_p_pos", "r_p_neg",
            "c_smax_pos", "c_smax_neg", "D_s_pos", "D_s_neg",
            "k0_pos", "k0_neg", "c_e", "T", "C_p_nom", "C_n_nom",
        ])
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if not (self.V_min < self.V_max):
            raise ConfigError("V_min must be below V_max")
        if not (0.0 < self.x100_init < 1.0):
            raise ConfigError("x100_init must be in (0,1)")
        if not 4 <= self.n_shells <= 1000:   # 1000: an 8 MB propagator
            raise ConfigError("n_shells must be in [4, 1000]")
        for name, tab in (("ocp_pos", self.ocp_pos), ("ocp_neg", self.ocp_neg)):
            if not isinstance(tab, MonotoneOCPTable):
                raise ConfigError(f"{name} must be an OCP table")

    # Frozen: copies come from dataclasses.replace, so what derives from
    # a parameter set is computed once.
    @cached_property
    def pos(self):
        """The positive electrode (electrochem.Electrode)."""
        return ec.Electrode(self, "pos")

    @cached_property
    def neg(self):
        """The negative electrode (electrochem.Electrode)."""
        return ec.Electrode(self, "neg")

    @cached_property
    def film_area_neg(self):
        """Nominal negative interfacial area, m^2, frozen for film and
        lithium-mole bookkeeping so those algebraic identities stay exact."""
        return self.neg.area(self.C_n_nom)

    @cached_property
    def fresh_window(self):
        """The pristine cell's window (a frozen ESOHRecord): the reference
        capacity and the eSOH fit's initial guess."""
        return ec.solve_window(self, self.C_p_nom, self.C_n_nom,
                               ec.pristine_inventory(self))

    @cached_property
    def film_free_resistances(self):
        """measurement.film_free_resistance's memo: its last (C_p, C_n, LLI,
        n_li0) and their resistance. A replace() copy starts with its own."""
        return {}


@dataclass(frozen=True)
class SEIParameters:
    k_sei: float        # kinetic rate constant, m/s
    alpha_sei: float
    U_sei: float        # equilibrium potential of the side reaction, V
    c_ec0: float        # bulk solvent concentration, mol/m^3
    D_sei: float        # solvent diffusivity through the film, m^2/s
    Omega_sei: float    # molar volume, m^3/mol
    kappa_sei: float    # film ionic conductivity, S/m

    def __post_init__(self):
        _require_positive(self, ["k_sei", "c_ec0", "D_sei", "Omega_sei", "kappa_sei"])
        if not (0.0 < self.alpha_sei < 1.0):
            raise ConfigError(f"alpha_sei must be in (0,1), got {self.alpha_sei}")


@dataclass(frozen=True)
class PlatingParameters:
    k_pl: float         # plating rate constant, m/s
    alpha_pl: float
    Omega_pl: float     # molar volume of plated lithium, m^3/mol
    kappa_pl: float     # film conductivity, S/m

    def __post_init__(self):
        # k_pl = 0 is allowed: it switches the mechanism off entirely
        _require_nonneg(self, ["k_pl"])
        _require_positive(self, ["Omega_pl", "kappa_pl"])
        if not (0.0 < self.alpha_pl < 1.0):
            raise ConfigError(f"alpha_pl must be in (0,1), got {self.alpha_pl}")


@dataclass(frozen=True)
class LAMParameters:
    beta1_pos: float
    beta2_pos: float
    beta1_neg: float
    beta2_neg: float
    sigma_crit_pos: float   # Pa
    sigma_crit_neg: float
    m_lam: float
    stress_gain_pos: float  # Pa per unit stoichiometry difference
    stress_gain_neg: float

    def __post_init__(self):
        _require_nonneg(self, ["beta1_pos", "beta2_pos", "beta1_neg", "beta2_neg",
                               "stress_gain_pos", "stress_gain_neg"])
        _require_positive(self, ["sigma_crit_pos", "sigma_crit_neg"])
        if self.m_lam < 1.0:
            raise ConfigError(f"m_lam must be >= 1, got {self.m_lam}")


@dataclass(frozen=True)
class ExpansionParameters:
    b_sei: float      # dimensionless
    b_pl: float       # 1/m, squares the plating thickness into meters
    b_in_pos: float   # m per unit fractional material loss
    b_in_neg: float

    def __post_init__(self):
        _require_nonneg(self, ["b_sei", "b_pl", "b_in_pos", "b_in_neg"])


@dataclass(frozen=True)
class DegradationParameters:
    sei: SEIParameters
    plating: PlatingParameters
    lam: LAMParameters
    expansion: ExpansionParameters


_PARAMETER_CLASSES = (SEIParameters, PlatingParameters, LAMParameters,
                      ExpansionParameters)


def _load_ocp(raw, name, path, where):
    """The OCP table named by raw[name]: a builtin, or a CSV path resolved
    relative to the cell file at path."""
    spec = raw.get(name)
    if not isinstance(spec, str):
        raise ConfigError(f"{where}: {name} must be a file path or "
                          f"builtin:<table>, got {spec!r}")
    with _input(where):
        if spec.startswith("builtin:"):
            return load_builtin(spec.split(":", 1)[1])
        return MonotoneOCPTable.from_file(Path(path).parent / spec, name=name)


def load_cell_config(path):
    """Read a flat key-value YAML cell file.

    Returns (CellParameters, DegradationParameters). OCP tables are given
    as "builtin:graphite" / "builtin:nmc" or as CSV paths relative to the
    cell file. A cell whose fresh state (x100_init at V_max, then the
    window down to V_min) does not fit its tables is a ConfigError.
    """
    raw = read_mapping(path, "cell config")
    where = f"cell config {path}"
    reject_unknown(raw, field_names(CellParameters, *_PARAMETER_CLASSES), where)
    cell = from_mapping(CellParameters, raw, where,
                        ocp_pos=_load_ocp(raw, "ocp_pos", path, where),
                        ocp_neg=_load_ocp(raw, "ocp_neg", path, where))
    deg = DegradationParameters(*(from_mapping(cls, raw, where)
                                  for cls in _PARAMETER_CLASSES))
    with _input(where):
        cell.pos, cell.neg   # each electrode checks what it derives
    try:
        cell.fresh_window   # places the fresh cell: pristine_inventory too
    except (SaturationError, CellDeadError) as e:
        raise ConfigError(f"{where}: x100_init, V_max and V_min do not place "
                          f"the fresh cell on its OCP tables ({e})") from None
    return cell, deg


def default_cell():
    """The built-in demo cell (illustrative parameter set, not fitted)."""
    from importlib import resources
    with resources.as_file(resources.files("cellfade.data") / "cell_default.yaml") as p:
        return load_cell_config(p)
