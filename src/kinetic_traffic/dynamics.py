"""Collision dynamics: right-hand side, time integration, steady states.

The state is the vector of cell masses f.  Its evolution under binary
interactions is the quadratic system

    df_j/dt = eta * (f^T A^j f - f_j * sum_k f_k),

which conserves total mass and preserves non-negativity.  The right-hand
side is evaluated in a rearranged form that avoids the near-cancellation
of gain and loss terms close to equilibrium: with C_j / U_j the mass below
/ above cell j,

    df_j/dt = eta * [ f_j (-C_j - P f_j + (1 - 2P) U_j) + (W f)_j * rho ],

where W is the acceleration weight matrix.  The two forms are identical
algebraically; the second loses no precision when the state is within
roundoff of a fixed point, which matters when measuring residuals at the
1e-10 scale.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import ODEintWarning, odeint

from .matrices import InteractionTensor, VelocityGrid
from .params import ConfigurationError

__all__ = [
    "CellMassVector",
    "Trajectory",
    "TimeSeries",
    "IntegratorControls",
    "FitResult",
    "NumericalError",
    "SteadyStateTimeout",
    "collision_rhs",
    "integrate",
    "find_steady_state",
    "distance_to_equilibrium",
    "fit_convergence_rate",
    "select_fit_window",
    "cumulative_distribution",
    "PiecewiseLinearCDF",
    "staircase_distance",
]

logger = logging.getLogger(__name__)

NEGATIVITY_TOL = -1e-12
DRIFT_TOL = 1e-10
# Most RK4 steps one integrate call may take; the test suite and the
# benchmark ask for at most 7,200.
MAX_STEPS = 10**7


class NumericalError(RuntimeError):
    """Integration or fitting failure (maps to CLI exit code 3)."""


class SteadyStateTimeout(NumericalError):
    """Steady-state search hit t_max; carries the last state and residual.

    Also carries the work done: LSODA steps, RHS and Jacobian evaluations
    summed over the chunks, the number of chunks and the time reached.
    """

    def __init__(
        self,
        message: str,
        state: "CellMassVector",
        residual: float,
        *,
        steps: int = 0,
        rhs_evals: int = 0,
        jac_evals: int = 0,
        chunks: int = 0,
        t_reached: float = 0.0,
    ):
        super().__init__(message)
        self.state = state
        self.residual = residual
        self.steps = steps
        self.rhs_evals = rhs_evals
        self.jac_evals = jac_evals
        self.chunks = chunks
        self.t_reached = t_reached


@dataclass(frozen=True)
class CellMassVector:
    """Non-negative cell masses tied to their velocity grid."""

    masses: np.ndarray
    grid: VelocityGrid

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).copy()
        if m.shape != (self.grid.n_cells,):
            raise ConfigurationError(
                f"state has {m.shape} entries for a {self.grid.n_cells}-cell grid"
            )
        _check_finite(m)
        low = m.min(initial=0.0)
        if low < NEGATIVITY_TOL:
            raise NumericalError(
                f"negative cell mass {low:.3e} exceeds tolerance {NEGATIVITY_TOL:.0e}"
            )
        m[m < 0.0] = 0.0
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def rho(self) -> float:
        return float(self.masses.sum())

    def __len__(self) -> int:
        return self.masses.size


@dataclass(frozen=True)
class Trajectory:
    """Stored states of one integration run."""

    times: np.ndarray
    states: np.ndarray  # (n_times, N)
    grid: VelocityGrid
    terminal_residual: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("trajectory times must be strictly increasing")

    def state(self, i: int) -> CellMassVector:
        return CellMassVector(self.states[i], self.grid)

    @property
    def final_state(self) -> CellMassVector:
        return CellMassVector(self.states[-1], self.grid)

    @property
    def mass_drift(self) -> float:
        totals = self.states.sum(axis=1)
        return float(np.abs(totals - totals[0]).max())


@dataclass(frozen=True)
class TimeSeries:
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class FitResult:
    rate: float
    log_amplitude: float
    residual: float
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class IntegratorControls:
    """Knobs for the fixed-step integrator.

    step=None picks h = 0.1/(eta*rho), a tenth of the fastest quadratic
    timescale.  States are stored at geometrically spaced times (factor
    store_factor) unless explicit sample_times are given; the initial and
    final states are always stored.
    """

    step: Optional[float] = None
    store_factor: float = 1.2
    sample_times: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.step is not None and self.step <= 0:
            raise ConfigurationError("step must be positive")
        if self.store_factor <= 1.0:
            raise ConfigurationError("store_factor must exceed 1")


def _check_finite(f: np.ndarray):
    if not np.isfinite(f).all():
        raise ConfigurationError("state has non-finite cell masses")


def _check_eta(eta: float):
    # ModelParams' rule, repeated for callers that pass eta directly
    if not (math.isfinite(eta) and eta > 0):
        raise ConfigurationError(f"interaction rate eta must be finite and positive; got {eta!r}")


def _as_array(f: Union[CellMassVector, np.ndarray], tensor: InteractionTensor) -> np.ndarray:
    if isinstance(f, CellMassVector):
        if f.grid.n_cells != tensor.n_cells:
            raise ConfigurationError("state and tensor grids differ")
        return np.asarray(f.masses, dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape != (tensor.n_cells,):
        raise ConfigurationError(
            f"state has shape {arr.shape}, tensor expects ({tensor.n_cells},)"
        )
    return arr


def _make_rhs(
    tensor: InteractionTensor, eta: float, accel_op: Callable[[np.ndarray], np.ndarray]
):
    """RHS closure; accel_op(f) supplies the acceleration product W @ f."""
    p = tensor.p
    one_minus_2p = 1.0 - 2.0 * p

    def rhs(f: np.ndarray) -> np.ndarray:
        total = f.sum()
        csum = np.cumsum(f)
        below = csum - f                     # C_j, mass strictly below j
        above = total - csum                 # U_j, mass strictly above j
        return eta * (f * (-below - p * f + one_minus_2p * above) + accel_op(f) * total)

    return rhs


def _make_jac(tensor: InteractionTensor, eta: float):
    """Dense Jacobian of the RHS closure, for the steady-state solver.

    Row j holds (1 - 2P) f_j right of the diagonal and -f_j left of it,
    plus (W f)_j everywhere, the diagonal term -C_j - 2P f_j + (1 - 2P) U_j
    and total * W on the acceleration band.  Each entry gets the same
    floating-point operations in the same order as the sum of a diagonal,
    two triangles, the column (W f) and total * W would give it, so the
    result is bit-identical to that sum, without its N x N temporaries.
    """
    p = tensor.p
    w = tensor.accel
    one_minus_2p = 1.0 - 2.0 * p
    n = tensor.n_cells
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    rows, cols = np.nonzero(tensor.band)
    band_at = (rows, rows - tensor.bandwidth + cols)
    band_w = tensor.band[rows, cols]
    diag_at = np.diag_indices(n)

    def jac(f: np.ndarray) -> np.ndarray:
        total = f.sum()
        csum = np.cumsum(f)
        below = csum - f
        above = total - csum
        wf = w @ f
        out = np.where(upper, (one_minus_2p * f + wf)[:, None], (-f + wf)[:, None])
        out[diag_at] = (-below - 2.0 * p * f + one_minus_2p * above) + wf
        out[band_at] += total * band_w
        out *= eta
        return out

    return jac


def collision_rhs(
    f: Union[CellMassVector, np.ndarray], tensor: InteractionTensor, eta: float
) -> np.ndarray:
    """Rate of change of each cell mass; sums to zero up to rounding."""
    arr = _as_array(f, tensor)
    return _make_rhs(tensor, eta, tensor.accel_operator())(arr)


def _clamp_negativity(f: np.ndarray, context: str) -> int:
    low = f.min(initial=0.0)
    if low < NEGATIVITY_TOL:
        raise NumericalError(
            f"{context}: component {low:.3e} below tolerance {NEGATIVITY_TOL:.0e}; "
            "this indicates an integration bug, not a model property"
        )
    mask = f < 0.0
    count = int(mask.sum())
    if count:
        f[mask] = 0.0
    return count


def integrate(
    f0: Union[CellMassVector, np.ndarray],
    tensor: InteractionTensor,
    eta: float,
    t_end: float,
    controls: Optional[IntegratorControls] = None,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step.

    The default step 0.1/(eta*rho) resolves the quadratic timescale with a
    wide stability margin.  A run that would take more than MAX_STEPS
    steps is refused with ConfigurationError before the first one.  Mass
    drift beyond 1e-10 or negativity beyond -1e-12 abort the run; negative
    components above that tolerance are clamped to zero with a logged
    warning.
    """
    if t_end <= 0:
        raise ConfigurationError("t_end must be positive")
    _check_eta(eta)
    controls = controls or IntegratorControls()
    f = _as_array(f0, tensor).copy()
    _check_finite(f)
    _clamp_negativity(f, "initial state")
    rho0 = f.sum()
    rhs = _make_rhs(tensor, eta, tensor.accel_operator())

    scale = eta * max(rho0, 1e-12)
    h = controls.step if controls.step is not None else 0.1 / scale
    if not t_end / h <= MAX_STEPS:  # inf too
        raise ConfigurationError(
            f"t_end={t_end:.6g} at step {h:.6g} needs {t_end / h:.3g} steps, "
            f"more than the budget of {MAX_STEPS:.0e}"
        )
    n_steps = max(1, math.ceil(t_end / h - 1e-12))
    h = t_end / n_steps

    if controls.sample_times is not None:
        wanted = np.asarray(sorted(set(float(t) for t in controls.sample_times)))
        if wanted.size and (wanted[0] < 0 or wanted[-1] > t_end * (1 + 1e-12)):
            raise ConfigurationError("sample_times outside [0, t_end]")
    else:
        wanted = None

    times = [0.0]
    states = [f.copy()]
    next_store = h if wanted is None else None
    clamped = 0
    t = 0.0
    for k in range(1, n_steps + 1):
        k1 = rhs(f)
        k2 = rhs(f + 0.5 * h * k1)
        k3 = rhs(f + 0.5 * h * k2)
        k4 = rhs(f + h * k3)
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clamped += _clamp_negativity(f, f"step {k} (t={k * h:.6g})")
        t = k * h
        if wanted is not None:
            store = np.any((wanted > t - h) & (wanted <= t + 1e-12 * max(t, 1.0)))
        else:
            store = t >= next_store - 1e-12 * max(t, 1.0)
            if store:
                next_store = max(t * controls.store_factor, t + h)
        if store or k == n_steps:
            times.append(t)
            states.append(f.copy())

    if clamped:
        logger.warning("clamped %d slightly negative components to zero", clamped)
    drift = abs(f.sum() - rho0)
    if not drift <= DRIFT_TOL:  # NaN too
        raise NumericalError(
            f"mass drift {drift:.3e} exceeds budget {DRIFT_TOL:.0e}"
        )
    residual = float(np.abs(rhs(f)).max())
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        grid=tensor.grid,
        terminal_residual=residual,
    )


def _chunk_end(t_hi: float, t_max: float) -> float:
    """Chunk end capped at t_max; an end within LSODA's start threshold of
    t_max (2 eps t_max) becomes t_max, since a last chunk that short is
    illegal input to LSODA."""
    if t_max - t_hi <= 2.0 * np.finfo(float).eps * t_max:
        return t_max
    return t_hi


def find_steady_state(
    f0: Union[CellMassVector, np.ndarray],
    tensor: InteractionTensor,
    eta: float,
    residual_tol: float = 1e-10,
    t_max: float = 1e9,
) -> CellMassVector:
    """March the system until the right-hand side is numerically zero.

    Stops when BOTH the residual max-norm and the state change per unit
    time (relative to the total mass) are at or below residual_tol: the
    residual alone can dip early while the state still drifts along a slow
    manifold.

    Stepping uses LSODA (scipy's odeint, with the analytic dense Jacobian)
    over horizon chunks ending at 10/(eta*rho) and then five times further
    each, one compiled call per chunk that stops exactly at its end.  Components below zero by
    no more than 1e-12 are clamped after each chunk and total mass is
    re-projected to its exact initial value (both guarded, so genuine
    integration errors are not masked).  Raises NumericalError if LSODA
    fails and SteadyStateTimeout, carrying the last state, the residual and
    the work done, if t_max is exhausted.  The work is logged at DEBUG
    level when the solve ends.
    """
    if residual_tol <= 0:
        raise ConfigurationError("residual_tol must be positive")
    _check_eta(eta)
    f = _as_array(f0, tensor).copy()
    _check_finite(f)
    _clamp_negativity(f, "initial state")
    rho0 = f.sum()
    # LSODA gets the dense product, not the band one: the band product
    # rounds differently, which costs it about 10% more RHS calls on the
    # criterion 09 sweep and changes the steady states in the last bits.
    w = tensor.accel
    rhs = _make_rhs(tensor, eta, lambda y: w @ y)
    residual = float(np.abs(rhs(f)).max())
    if residual <= residual_tol:
        return CellMassVector(f, tensor.grid)
    if rho0 <= 0:
        # Empty road: the only mass-zero state is already stationary.
        return CellMassVector(f, tensor.grid)

    jac = _make_jac(tensor, eta)
    scale = eta * rho0
    t = 0.0
    t_hi = _chunk_end(10.0 / scale, t_max)
    atol = 1e-15 * max(rho0, 1e-3)
    work = dict(steps=0, rhs_evals=0, jac_evals=0, chunks=0, t_reached=t)
    try:
        while True:
            with warnings.catch_warnings():
                # a failed call is reported through info below
                warnings.simplefilter("ignore", ODEintWarning)
                ys, info = odeint(
                    lambda y, _t: rhs(y),
                    f,
                    [t, t_hi],
                    Dfun=lambda y, _t: jac(y),
                    rtol=1e-11,
                    atol=atol,
                    tcrit=[t_hi],
                    mxstep=2**31 - 1,
                    full_output=True,
                )
            work["steps"] += int(info["nst"][-1])
            work["rhs_evals"] += int(info["nfe"][-1])
            work["jac_evals"] += int(info["nje"][-1])
            if info["message"] != "Integration successful.":
                raise NumericalError(f"steady-state stepping failed: {info['message']}")
            work["chunks"] += 1
            work["t_reached"] = t_hi
            prev = f
            f = ys[-1]
            _clamp_negativity(f, f"steady-state chunk ending at t={t_hi:.3g}")
            total = f.sum()
            if not abs(total - rho0) <= 1e-8 * max(rho0, 1.0):  # NaN too
                raise NumericalError(
                    f"mass drifted by {total - rho0:.3e} within one chunk; aborting"
                )
            if total > 0:
                f *= rho0 / total
            residual = float(np.abs(rhs(f)).max())
            change_rate = float(np.abs(f - prev).max()) / (rho0 * (t_hi - t))
            if residual <= residual_tol and change_rate <= residual_tol:
                return CellMassVector(f, tensor.grid)
            if t_hi >= t_max:
                raise SteadyStateTimeout(
                    f"no steady state within t_max={t_max:.3g}: "
                    f"residual {residual:.3e}, state change rate {change_rate:.3e}",
                    state=CellMassVector(f, tensor.grid),
                    residual=residual,
                    **work,
                )
            t = t_hi
            t_hi = _chunk_end(t_hi * 5.0, t_max)
    finally:
        logger.debug(
            "steady-state solve ended: t_reached=%.6g chunks=%d steps=%d "
            "rhs_evals=%d jac_evals=%d",
            work["t_reached"], work["chunks"],
            work["steps"], work["rhs_evals"], work["jac_evals"],
        )


def distance_to_equilibrium(
    traj: Trajectory, f_inf: Union[CellMassVector, np.ndarray]
) -> TimeSeries:
    """Euclidean distance of each stored state from a reference state."""
    ref = f_inf.masses if isinstance(f_inf, CellMassVector) else np.asarray(f_inf, float)
    if ref.shape != (traj.states.shape[1],):
        raise ConfigurationError("reference state has wrong dimension")
    values = np.linalg.norm(traj.states - ref[None, :], axis=1)
    return TimeSeries(times=traj.times.copy(), values=values)


def select_fit_window(series: TimeSeries, decades_above_floor: float = 1.5,
                      head_drop: float = 1e-2) -> tuple[float, float]:
    """Pick a tail window where log e(t) is cleanly linear.

    Skips the initial transient (until e drops below head_drop * e(0)) and
    stops before the rounding floor (a safety band of decades_above_floor
    decades above the smallest positive value).
    """
    e = series.values
    t = series.times
    positive = e > 0
    if not positive.any():
        raise NumericalError("distance series is identically zero; nothing to fit")
    floor = e[positive].min() * 10.0 ** decades_above_floor
    start = e <= max(head_drop * e[0], floor)
    usable = positive & (e >= floor) & start
    idx = np.nonzero(usable)[0]
    if idx.size < 3:
        # Decay too short for the guard bands; fall back to the positive tail.
        idx = np.nonzero(positive)[0][-max(3, positive.sum() // 2):]
    return float(t[idx[0]]), float(t[idx[-1]])


def fit_convergence_rate(
    series: TimeSeries,
    window: Optional[tuple[float, float]] = None,
    full: bool = False,
):
    """Exponential decay rate M from a least-squares fit of log e(t).

    The fit runs over the given (t_lo, t_hi) window; values must be
    strictly positive there.  Returns M (the negated slope), or a full
    FitResult when full=True.
    """
    if window is None:
        window = (float(series.times[0]), float(series.times[-1]))
    t_lo, t_hi = window
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    t = series.times[mask]
    e = series.values[mask]
    if t.size < 2:
        raise NumericalError(f"fit window [{t_lo}, {t_hi}] holds {t.size} samples")
    if np.any(e <= 0):
        raise NumericalError("fit window contains zero or negative distances")
    log_e = np.log(e)
    coeffs, res, *_ = np.polyfit(t, log_e, 1, full=True)
    slope, intercept = coeffs
    rms = float(np.sqrt(res[0] / t.size)) if res.size else 0.0
    if not full:
        return float(-slope)
    return FitResult(
        rate=float(-slope),
        log_amplitude=float(intercept),
        residual=rms,
        window=(t_lo, t_hi),
        n_points=int(t.size),
    )


@dataclass(frozen=True)
class PiecewiseLinearCDF:
    """Cumulative mass below speed v, linear within each velocity cell."""

    edges: np.ndarray
    values: np.ndarray

    def __call__(self, v) -> np.ndarray:
        return np.interp(v, self.edges, self.values)

    @property
    def total(self) -> float:
        return float(self.values[-1])


def cumulative_distribution(f: CellMassVector) -> PiecewiseLinearCDF:
    """CDF of the piecewise-constant kinetic density described by f."""
    grid = f.grid
    dv = grid.dv
    n = grid.n_cells
    edges = np.empty(n + 1)
    edges[0] = 0.0
    edges[1:-1] = (np.arange(1, n) - 0.5) * dv
    edges[-1] = grid.v_max
    values = np.concatenate(([0.0], np.cumsum(f.masses)))
    return PiecewiseLinearCDF(edges=edges, values=values)


def staircase_distance(
    cdf: PiecewiseLinearCDF, jump_speeds: Sequence[float], jump_masses: Sequence[float]
) -> float:
    """Levy distance between the CDF and a right-continuous staircase.

    The staircase puts mass jump_masses[l] at jump_speeds[l].  The Levy
    distance is the smallest eps such that

        G(v - eps) - eps <= F(v) <= G(v + eps) + eps   for all v,

    with F the piecewise-linear CDF and G the staircase.  The plain vertical
    sup-distance is useless here: against any continuous F it is bounded
    below by half of G's largest jump, so it can never shrink under grid
    refinement.  The Levy metric measures graph proximity instead and does
    converge.

    Because both curves are nondecreasing, each inequality only needs to be
    checked where its right side is about to jump: at v = s_l - eps for the
    upper bound and v = s_l + eps for the lower one.  The smallest feasible
    eps is then found by bisection, to far below float resolution.
    """
    speeds = np.asarray(jump_speeds, float)
    masses = np.asarray(jump_masses, float)
    if speeds.size == 0:
        raise ValueError("staircase needs at least one jump")
    order = np.argsort(speeds)
    speeds, masses = speeds[order], masses[order]
    cum = np.cumsum(masses)
    lo_edge, hi_edge = cdf.edges[0], cdf.edges[-1]

    def feasible(eps: float) -> bool:
        # F(s_l - eps) <= cum[l-1] + eps, plus the top edge against total mass
        v_hi = np.concatenate((speeds - eps, (hi_edge,)))
        upper = np.concatenate((cum - masses, cum[-1:]))
        if np.any(cdf(np.clip(v_hi, lo_edge, hi_edge)) - upper > eps + 1e-15):
            return False
        # cum[l] - eps <= F(s_l + eps)
        v_lo = np.clip(speeds + eps, lo_edge, hi_edge)
        return not np.any(cum - cdf(v_lo) > eps + 1e-15)

    lo, hi = 0.0, max(1.0, float(cum[-1]), cdf.total)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)
