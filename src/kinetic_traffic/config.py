"""Run configuration: YAML files, flag overrides, and initial states.

A run is described by one declarative mapping (usually a YAML file) that
CLI flags override key by key, inside its sections too; this module alone
parses, defaults and validates it, and every malformed value raises
ConfigurationError.  Each default lives once, on the dataclass that holds
it; sweep ratio lists default to [r] when the run has a ratio.  One
table, READ_BY, says which CLI command reads which key: a run for a
command refuses every key that command does not read, so a file serves
one command, and the CLI gives each command the flags of its keys.  The
velocity grid can be pinned by any two of (cell count, cell width,
cells-per-jump ratio, jump count); the resolver derives the rest and
rejects inconsistent combinations.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import numpy as np
import yaml

from .equilibrium import closed_form_on_grid
from .matrices import GridRatio, VelocityGrid
from .params import (
    ConfigurationError,
    CustomLaw,
    Kernel,
    ModelParams,
    PowerLaw,
    ProbabilityLaw,
)

__all__ = [
    "InitialCondition",
    "IntegratorSettings",
    "OutputSettings",
    "DiagramSettings",
    "ConvergenceSettings",
    "RunConfig",
    "load_config",
    "parse_ratio",
    "build_initial_state",
]

IC_KINDS = ("uniform", "all-at-rest", "congested", "custom", "equilibrium")


@dataclass(frozen=True)
class InitialCondition:
    """How the starting cell masses are laid out.

    uniform        rho spread evenly over all cells
    all-at-rest    everything in the lowest-speed cell
    congested      rho*(1-epsilon) in the top cell, the rest spread below
    custom         explicit mass vector
    equilibrium    closed-form equilibrium on the grid, plus epsilon added
                   to one cell (may be negative; jump kernel only)
    """

    kind: str = "uniform"
    epsilon: float = 0.0
    cell: int = 1
    masses: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in IC_KINDS:
            raise ConfigurationError(
                f"unknown initial condition {self.kind!r}; pick one of {IC_KINDS}"
            )
        if self.kind == "congested" and not (0.0 <= self.epsilon <= 1.0):
            raise ConfigurationError("congested epsilon must lie in [0, 1]")
        if self.kind == "custom" and not self.masses:
            raise ConfigurationError("custom initial condition needs a mass vector")
        if self.cell < 1:
            raise ConfigurationError("cells are numbered from 1")


@dataclass(frozen=True)
class IntegratorSettings:
    step: Optional[float] = None
    t_end: float = 50.0
    t_max: float = 1e7
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.step is not None and self.step <= 0:
            raise ConfigurationError("step must be positive")
        if self.t_end <= 0 or self.t_max <= 0 or self.residual_tol <= 0:
            raise ConfigurationError("time horizons and tolerances must be positive")


@dataclass(frozen=True)
class OutputSettings:
    directory: Path = Path("out")
    prefix: str = "run"


@dataclass(frozen=True)
class DiagramSettings:
    rho_grid: tuple[float, ...] = ()
    # without a ratios key, load_config uses [r] when the run has a ratio
    ratios: tuple[float, ...] = (1.0,)
    insert_critical: bool = True
    kink_threshold: float = 0.2


@dataclass(frozen=True)
class ConvergenceSettings:
    rho_set: tuple[float, ...] = ()
    # without a ratios key, load_config uses [r] when the run has a ratio
    ratios: tuple[float, ...] = (1.0, 2.0)
    t_end: Optional[float] = None


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    law: ProbabilityLaw
    ratio: Optional[Fraction] = None  # sweeps carry their own ratio lists
    rho: Optional[float] = None  # sweeps carry their own density lists
    initial: InitialCondition = InitialCondition()
    integrator: IntegratorSettings = IntegratorSettings()
    output: OutputSettings = OutputSettings()
    diagram: Optional[DiagramSettings] = None
    convergence: Optional[ConvergenceSettings] = None

    def __post_init__(self):
        if self.rho is not None and not (0.0 <= self.rho <= self.params.rho_max):
            raise ConfigurationError(
                f"rho={self.rho} outside [0, {self.params.rho_max}]"
            )

    def require_rho(self) -> float:
        if self.rho is None:
            raise ConfigurationError("this command needs the run density rho")
        return self.rho

    def require_ratio(self) -> Fraction:
        if self.ratio is None:
            raise ConfigurationError(
                "this command needs the cells-per-jump ratio r (or N, or dv)"
            )
        return self.ratio


def parse_ratio(value: Union[str, int, float, Fraction]) -> Fraction:
    """Cells-per-jump ratio from 4, 4.0, '4', '14/3', or a Fraction.

    Numbers become fractions by GridRatio's rule.
    """
    if isinstance(value, str):
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"cannot parse ratio {value!r}") from exc
    return GridRatio(value).fraction


def _resolve_grid(
    v_max: float,
    n_cells: Optional[int],
    cell_width: Optional[float],
    ratio: Optional[Fraction],
    n_jumps: Optional[int],
) -> tuple[Optional[Fraction], int]:
    """Derive (ratio, n_jumps) from any consistent pair of grid controls.

    The ratio may stay None: sweep subcommands carry their own ratio
    lists.  The jump count is always required.
    """
    if cell_width is not None and not (math.isfinite(cell_width) and cell_width > 0):
        raise ConfigurationError(
            f"cell width dv must be finite and positive, got {cell_width!r}"
        )
    r, t = ratio, n_jumps
    if t is None and r is not None and n_cells is not None:
        jumps = Fraction(n_cells - 1) / r
        if jumps.denominator != 1:
            raise ConfigurationError(
                f"N={n_cells} with r={r} gives a fractional jump count {jumps}"
            )
        t = int(jumps)
    if t is None and r is not None and cell_width is not None:
        t_val = v_max / (float(r) * cell_width)
        t = round(t_val)
        if abs(t_val - t) > 1e-9 * max(abs(t_val), 1.0):
            raise ConfigurationError(
                f"dv={cell_width} with r={r} gives a fractional jump count {t_val}"
            )
    if t is None:
        raise ConfigurationError(
            "the grid is underdetermined: give at least two of N, dv, r, T "
            "(the jump count T must be derivable)"
        )
    if t < 1:
        raise ConfigurationError(f"jump count must be at least 1, got {t}")
    if r is None and n_cells is not None:
        r = parse_ratio(Fraction(n_cells - 1, t))
    if r is None and cell_width is not None:
        r = parse_ratio(v_max / (t * cell_width))
    if r is not None:
        n_expected = r * t + 1
        if n_expected.denominator != 1:
            raise ConfigurationError(
                f"r={r}, T={t} give a fractional cell count {n_expected}"
            )
        if n_cells is not None and n_cells != int(n_expected):
            raise ConfigurationError(
                f"N={n_cells} conflicts with r={r}, T={t} "
                f"(expect N={int(n_expected)})"
            )
        if cell_width is not None:
            dv_expected = v_max / (float(r) * t)
            if abs(cell_width - dv_expected) > 1e-9 * dv_expected:
                raise ConfigurationError(
                    f"dv={cell_width} conflicts with r={r}, T={t} "
                    f"(expect dv={dv_expected!r})"
                )
    return r, t


def _integer(value: Any) -> int:
    # bool is an int subclass, and int() would truncate 3.7 to 3
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or isinstance(value, float) and value.is_integer()
    ):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _boolean(value: Any) -> bool:
    # bool() would read the string "false" as True
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _real(value: Any) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _items(values: Any) -> list:
    if isinstance(values, (str, Mapping)):
        raise TypeError(f"expected a list, got {values!r}")
    return list(values)


def _reals(values: Any) -> tuple[float, ...]:
    return tuple(_real(v) for v in _items(values))


def _densities(values: Any, rho_max: float) -> tuple[float, ...]:
    """A density list, or a {count, start=0.01, stop=rho_max} linspace."""
    if not isinstance(values, Mapping):
        return _reals(values)
    _reject_unknown(values, "", ("start", "stop", "count"))
    if values.get("count") is None:
        raise ValueError("a {start, stop, count} mapping needs a count")
    count = _integer(values["count"])
    if count < 1:
        raise ValueError("count must be positive")
    start, stop = values.get("start"), values.get("stop")
    start = 0.01 if start is None else _real(start)
    stop = rho_max if stop is None else _real(stop)
    return tuple(float(x) for x in np.linspace(start, stop, count))


def _ratios(values: Any) -> tuple[float, ...]:
    out = []
    for v in _items(values):
        if isinstance(v, str) and v.strip().lower() in ("inf", "infinity"):
            out.append(math.inf)
        elif isinstance(v, float) and v == math.inf:
            out.append(math.inf)
        else:
            out.append(float(parse_ratio(v)))
    return tuple(out)


def _read(section: Mapping[str, Any], prefix: str, /, **readers) -> dict[str, Any]:
    """The keys of a section that are set, each passed through its reader.

    The settings dataclasses' defaults fill the keys left out.  A value its
    reader rejects raises ConfigurationError naming the key.
    """
    out = {}
    for key, read in readers.items():
        if section.get(key) is not None:
            try:
                out[key] = read(section[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{prefix}{key}: {exc}") from exc
    return out


_SECTIONS = ("initial_condition", "integrator", "output", "diagram", "convergence")
_EVERY = ("simulate", "equilibrium", "diagram", "convergence")
# The commands that read each key; a section named whole is read whole.
# load_config refuses a key its command does not read, and the CLI gives
# each command the flags of exactly these keys.  diagram solves each
# density of its grid without a start or a march, and convergence takes
# its densities from rho_set and marches to a fixed horizon.
READ_BY = {
    **dict.fromkeys(("kernel", "v_max", "rho_max", "eta", "gamma", "law",
                     "N", "dv", "r", "T", "output"), _EVERY),
    "rho": ("simulate", "equilibrium"),
    "initial_condition": ("simulate", "equilibrium", "convergence"),
    "integrator.step": ("simulate",),
    "integrator.t_end": ("simulate",),
    "integrator.t_max": ("equilibrium",),
    "integrator.residual_tol": ("equilibrium", "diagram"),
    "diagram": ("diagram",),
    "convergence": ("convergence",),
}
_TOP_KEYS = {key.partition(".")[0] for key in READ_BY}


def read_by(key: str) -> tuple[str, ...]:
    """The commands that read a key: "kernel", "integrator.t_end", "diagram.ratios"."""
    section, _, leaf = key.partition(".")
    return READ_BY.get(f"{section}.{leaf}", READ_BY.get(section))


def _reject_unknown(mapping: Mapping[str, Any], prefix: str, known) -> None:
    """Raise ConfigurationError naming the first key not in known."""
    for key in mapping:
        if key not in known:
            hint = f"; give {key} at the top level" if prefix and key in _TOP_KEYS else ""
            raise ConfigurationError(f"unknown key {prefix}{key}{hint}")


def _read_section(data: Mapping[str, Any], key: str, /, **readers) -> dict[str, Any]:
    """_read over one section, whose keys must all be among the readers'."""
    section = _section(data, key)
    _reject_unknown(section, key + ".", readers)
    return _read(section, key + ".", **readers)


def _section(data: Mapping[str, Any], key: str) -> dict[str, Any]:
    value = data.get(key)
    if value is None:
        return {}
    if key == "initial_condition" and isinstance(value, str):
        return {"kind": value}
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{key}: expected a mapping, got {value!r}")
    return dict(value)


def _sweep(
    data: Mapping[str, Any], key: str, settings: type,
    ratio: Optional[Fraction], **readers,
) -> Any:
    """A diagram or convergence section, or None when the run has none."""
    if key not in data:
        return None
    fields = _read_section(data, key, ratios=_ratios, **readers)
    if ratio is not None:
        fields.setdefault("ratios", (float(ratio),))
    return settings(**fields)


def _law_from_mapping(data: Mapping[str, Any]) -> ProbabilityLaw:
    custom = data.get("law")
    if custom is None:
        return PowerLaw(**_read(data, "", gamma=_real))
    if data.get("gamma") is not None:
        raise ConfigurationError("give either gamma or a custom law, not both")
    if isinstance(custom, Mapping):
        _reject_unknown(custom, "law.", ("points",))
    points = custom.get("points") if isinstance(custom, Mapping) else custom
    if not points:
        raise ConfigurationError("custom law needs a points table")
    try:
        return CustomLaw(tuple((_real(a), _real(b)) for a, b in points))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"law: {exc}") from exc


def load_config(
    path: Optional[Union[str, Path]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    command: Optional[str] = None,
) -> RunConfig:
    """Read a YAML run description, merge overrides over it, validate.

    Overrides use the file's key names (kernel, gamma, eta, rho, N, dv, r,
    T, ...).  A mapping given for one of the sections
    initial_condition, integrator, output, diagram or convergence is
    merged key by key over the file's section and creates the section if
    the file has none.  None values are ignored at both levels, so CLI
    flags can pass through unconditionally.  With the CLI command that
    will run, a key READ_BY does not give that command is refused, naming
    the key and the command.
    """
    data: dict[str, Any] = {}
    if path is not None:
        loaded = yaml.safe_load(Path(path).read_text())
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, Mapping):
            raise ConfigurationError(f"{path}: config must be a mapping")
        data.update(loaded)
    for key, value in (overrides or {}).items():
        if key in _SECTIONS and isinstance(value, Mapping):
            given = {k: v for k, v in value.items() if v is not None}
            data[key] = {**_section(data, key), **given}
        elif value is not None:
            data[key] = value
    _reject_unknown(data, "", _TOP_KEYS)

    model = _read(
        data, "", kernel=lambda v: Kernel(str(v).lower()),
        v_max=_real, rho_max=_real, eta=_real,
    )
    v_max = model.get("v_max", ModelParams.v_max)
    grid = _read(data, "", N=_integer, dv=_real, r=parse_ratio, T=_integer)
    ratio, n_jumps = _resolve_grid(
        v_max, grid.get("N"), grid.get("dv"), grid.get("r"), grid.get("T")
    )
    params = ModelParams(delta_v=v_max / n_jumps, **model)

    def densities(values: Any) -> tuple[float, ...]:
        return _densities(values, params.rho_max)

    cfg = RunConfig(
        params=params,
        law=_law_from_mapping(data),
        ratio=ratio,
        initial=InitialCondition(**_read_section(
            data, "initial_condition",
            kind=str, epsilon=_real, cell=_integer, masses=_reals,
        )),
        integrator=IntegratorSettings(**_read_section(
            data, "integrator",
            step=_real, t_end=_real, t_max=_real, residual_tol=_real,
        )),
        output=OutputSettings(**_read_section(
            data, "output", directory=Path, prefix=str,
        )),
        diagram=_sweep(
            data, "diagram", DiagramSettings, ratio, rho_grid=densities,
            insert_critical=_boolean, kink_threshold=_real,
        ),
        convergence=_sweep(
            data, "convergence", ConvergenceSettings, ratio, rho_set=densities,
            t_end=_real,
        ),
        **_read(data, "", rho=_real),
    )
    # after the values, so that a malformed one is reported as such
    for key, commands in READ_BY.items() if command else ():
        section, _, leaf = key.rpartition(".")
        given = (_section(data, section) if section else data).get(leaf)
        if given is not None and command not in commands:
            raise ConfigurationError(f"{key}: the {command} command does not read this key")
    return cfg


def build_initial_state(cfg: RunConfig, grid: VelocityGrid) -> np.ndarray:
    """Materialize the configured initial masses on a concrete grid."""
    n = grid.n_cells
    ic = cfg.initial
    rho = cfg.require_rho()
    if ic.kind == "uniform":
        return np.full(n, rho / n)
    if ic.kind == "all-at-rest":
        f = np.zeros(n)
        f[0] = rho
        return f
    if ic.kind == "congested":
        f = np.full(n, rho * ic.epsilon / (n - 1))
        f[-1] = rho * (1.0 - ic.epsilon)
        return f
    if ic.kind == "custom":
        f = np.asarray(ic.masses, dtype=float)
        if f.shape != (n,):
            raise ConfigurationError(
                f"custom vector has {f.size} entries, the grid has {n} cells"
            )
        if f.min() < 0:
            raise ConfigurationError("custom initial masses must be non-negative")
        total = float(f.sum())
        if abs(total - rho) > 1e-9 * max(rho, 1.0):
            raise ConfigurationError(
                f"custom masses sum to {total!r}, declared rho is {rho!r}"
            )
        return f
    # equilibrium +/- perturbation
    if cfg.params.kernel is not Kernel.DELTA:
        raise ConfigurationError(
            "equilibrium initial conditions need the jump kernel's closed form"
        )
    closed = closed_form_on_grid(cfg.params, cfg.law, rho, cfg.require_ratio(), grid)
    if closed is None:
        raise ConfigurationError(
            "equilibrium initial conditions need an integer cells-per-jump ratio"
        )
    f = closed.masses.copy()
    if ic.cell > n:
        raise ConfigurationError(f"perturbation cell {ic.cell} beyond grid size {n}")
    f[ic.cell - 1] += ic.epsilon
    if f[ic.cell - 1] < 0:
        raise ConfigurationError("perturbation drives a cell mass negative")
    return f
