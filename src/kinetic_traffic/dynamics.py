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
1e-10 scale.  The product W f comes from the tensor's band: a vecdot of
each band row against its window of f, except on wide jump-kernel bands,
whose rows below the top one hold at most two weights on a few fixed
diagonals and take one O(N) slice product per diagonal instead.  Both
paths give the same bits.

Trajectories come from classical fourth-order Runge-Kutta with a fixed
step.  `integrate_many` marches B states on one grid in one loop over
(B, N) arrays, rows in the order given: each row keeps its own tensor (so
its own P and band) and its own step t_end/ceil(t_end*eta*rho/0.1), held
as a column, and stands still once its steps are done.  Every row gets
the arithmetic of a lone run, so a trajectory does not depend on the
batch it was marched in; `integrate` is the one-row case.  Steady states
come from LSODA, see `find_steady_state`.
"""
from __future__ import annotations

import bisect
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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
    "integrate_many",
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
# Narrowest band, in columns (b + 1), whose leading rows take the diagonal
# product (see _diagonal_plan).  Narrower bands keep the vecdot, for speed
# and for bit-identity.  Speed, one jump-kernel product of one state on a
# 2-core Xeon with one BLAS thread: 7.8 us by vecdot against 6.5 us by
# diagonals at 64 columns (N=190, r=63), 6.3 against 6.8 at 48 columns,
# 3.6 against 8.5 at 16 and 11.4 against 4.0 at 101 columns (N=401,
# r=100).  Bit-identity: OpenBLAS's Haswell ddot (0.3.31) rounds the two
# products of a row apart only on vectors of 16 or more elements and fuses
# them into one rounding on shorter ones, so the diagonal sum differed from
# vecdot in the last bit on rows 5-13 at r=14/3 and on the top row at r=1.
# Every width from 16 up matched, for r = k, k + 1/3 and k + 2/3 up to
# k = 69 on N = 3r + 1 cells, and on the N=401 and N=1001 grids.
DIAGONAL_MIN_WIDTH = 64
# select_fit_window's guard bands, see there
HEAD_DROP = 1e-2
DECADES_ABOVE_FLOOR = 1.5


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
    """RHS closure on one state; accel_op(f) supplies the product W @ f."""
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


def _diagonal_plan(band: np.ndarray) -> tuple[int, list[tuple[int, np.ndarray]]]:
    """Rows and diagonals of a band stack that take the diagonal product.

    Returns m and the pairs (k, band[:, :m, k]) for every band column k
    that rows [0, m) use, each as a contiguous (B, m) array: rows [0, m)
    hold at most two nonzero weights in every tensor of the stack together,
    and m >= N - 1.  Without such rows, or on a band narrower than
    DIAGONAL_MIN_WIDTH, m is 0 and every row keeps the vecdot.
    """
    n, width = band.shape[1:]
    if width < DIAGONAL_MIN_WIDTH:
        return 0, []
    used = band.any(axis=0)  # the union of the stack's nonzero patterns
    wide = np.flatnonzero(used.sum(axis=1) > 2)
    m = int(wide[0]) if wide.size else n
    if m < n - 1:
        return 0, []
    return m, [(int(k), np.ascontiguousarray(band[:, :m, k]))
               for k in np.flatnonzero(used[:m].any(axis=0))]


def _make_band_product(band: np.ndarray, rows: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a (rows, N) stack f to the rows of W @ f, on a band stack.

    `band` is (B, N, b + 1), with B = 1 or B = rows.  Row j of the band
    meets the window f[j - b .. j] of a zero-padded buffer.  Rows [0, m)
    of `_diagonal_plan` take one slice product per diagonal, added into an
    accumulator that starts at zero, in O(N) each; the rows left, or all of
    them, run as one vecdot of the band against the windows.  Both give a
    row the bits of the vecdot of its band row alone.  The result is a
    buffer that the next call overwrites.
    """
    n, width = band.shape[1:]
    padded = np.zeros((rows, n + width - 1))
    windows = sliding_window_view(padded, width, axis=1)
    m, diagonals = _diagonal_plan(band)
    if not m:
        # the vecdot alone: the diagonal closure with m = 0 gives the same
        # bits, but 0.3-0.4 us (3%) more per RHS on six rows of 6 or 11 cells
        def product(f: np.ndarray) -> np.ndarray:
            padded[:, width - 1:] = f
            return np.vecdot(band, windows)

        return product
    out = np.empty((rows, n))
    acc, top = out[:, :m], out[:, m:]
    band_top, windows_top = band[:, m:], windows[:, m:]

    def product(f: np.ndarray) -> np.ndarray:
        padded[:, width - 1:] = f
        # from +0, so a row of products -0 and +0 sums to +0, as in vecdot
        acc[...] = 0.0
        for k, weights in diagonals:
            acc[...] += weights * padded[:, k:k + m]
        np.vecdot(band_top, windows_top, out=top)
        return out

    return product


def _make_batch_rhs(tensors: Sequence[InteractionTensor], eta: float, rows: int):
    """RHS closure on a stack of `rows` states, one per row.

    Row i evolves under tensors[i], or every row under the tensor when only
    one is given; all share the grid and bandwidth.  The band product W @ f
    comes from `_make_band_product`, planned once per closure.  Every row
    gets the operations `_make_rhs` gives one state with the vecdot band
    product, bit for bit, so its rate depends on neither the batch nor the
    path the product takes.
    """
    band = tensors[0].band[None] if len(tensors) == 1 else np.stack([t.band for t in tensors])
    p = np.array([[t.p] for t in tensors])
    one_minus_2p = 1.0 - 2.0 * p
    product = _make_band_product(band, rows)

    def rhs(f: np.ndarray) -> np.ndarray:
        total = f.sum(axis=1, keepdims=True)
        csum = f.cumsum(axis=1)
        below = csum - f
        above = total - csum
        return eta * (f * (-below - p * f + one_minus_2p * above) + product(f) * total)

    return rhs


def collision_rhs(
    f: Union[CellMassVector, np.ndarray], tensor: InteractionTensor, eta: float
) -> np.ndarray:
    """Rate of change of each cell mass; sums to zero up to rounding.

    f is one state or a (B, N) stack of states; a stack gets the rates of
    every row from one batched evaluation.
    """
    stacked = np.ndim(f) == 2
    arr = np.asarray(f, dtype=float) if stacked else _as_array(f, tensor)[None]
    if arr.shape[1] != tensor.n_cells:
        raise ConfigurationError(
            f"states have {arr.shape[1]} cells, tensor expects {tensor.n_cells}"
        )
    out = _make_batch_rhs([tensor], eta, len(arr))(arr)
    return out if stacked else out[0]


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


def _row_label(i: int, rho: float) -> str:
    """How a batch error names its row: index and density."""
    return f"row {i} (rho={rho:.6g}): "


def _start(
    f0: Union[CellMassVector, np.ndarray],
    tensor: InteractionTensor,
    eta: float,
    t_end: float,
    step: Optional[float],
) -> tuple[np.ndarray, float, int]:
    """Checked initial state, step and step count of one RK4 row.

    The step is `step`, else 0.1/(eta*rho), shortened to t_end/n so that n
    whole steps end on t_end.  A row that would need more than MAX_STEPS
    steps is refused with ConfigurationError.
    """
    f = _as_array(f0, tensor).copy()
    _check_finite(f)
    _clamp_negativity(f, "initial state")
    h = step if step is not None else 0.1 / (eta * max(f.sum(), 1e-12))
    if not t_end / h <= MAX_STEPS:  # inf too
        raise ConfigurationError(
            f"t_end={t_end:.6g} at step {h:.6g} needs {t_end / h:.3g} steps, "
            f"more than the budget of {MAX_STEPS:.0e}"
        )
    n_steps = max(1, math.ceil(t_end / h - 1e-12))
    return f, t_end / n_steps, n_steps


def _store_steps(
    h: float, n_steps: int, factor: float, wanted: Optional[list[float]]
) -> list[int]:
    """The steps after which a row of step h stores its state.

    The storing rule of a lone run, applied step by step: with t = k h and
    a slack of 1e-12 max(t, 1), step k stores when a wanted time lies in
    (t - h, t + slack]; without wanted times, when t reaches the next
    storing time (h at first) less the slack, which then becomes
    max(factor t, t + h).  The last step always stores.
    """
    steps, next_store = [], h
    for k in range(1, n_steps + 1):
        t = k * h
        slack = 1e-12 * max(t, 1.0)
        if wanted is not None:
            i = bisect.bisect_right(wanted, t - h)  # first wanted time past t - h
            store = i < len(wanted) and wanted[i] <= t + slack
        else:
            store = t >= next_store - slack
            if store:
                next_store = max(t * factor, t + h)
        if store or k == n_steps:
            steps.append(k)
    return steps


def integrate_many(
    states: Sequence[Union[CellMassVector, np.ndarray]],
    tensors: Sequence[InteractionTensor],
    eta: float,
    t_end: float,
    controls: Optional[IntegratorControls] = None,
) -> list[Trajectory]:
    """Classical fourth-order Runge-Kutta for B states on one grid at once.

    Row i starts from states[i] and evolves under tensors[i]; the tensors
    must share the grid and the bandwidth, and each keeps its own P and
    band.  Each row takes its own fixed step h_i = t_end/ceil(t_end/s_i),
    with s_i the controls' step or 0.1/(eta*rho_i), a tenth of the row's
    fastest quadratic timescale, which resolves it with a wide stability
    margin.  All rows march in input order in one loop over (B, N) arrays,
    the steps held as a column, until the longest row is done; a finished
    row takes steps of zero, and f + 0*k is exactly f.  Every row gets the
    arithmetic of a lone run, so its trajectory does not depend on the batch.

    Each row is checked on its own.  A row that would take more than
    MAX_STEPS steps is refused with ConfigurationError before the first
    step of any row.  Mass drift beyond 1e-10 or negativity beyond -1e-12
    abort the run with NumericalError; negative components above that
    tolerance are clamped to zero with a logged warning.  With more than
    one row, every such error names the row's index and density.
    """
    if len(states) != len(tensors) or not tensors:
        raise ConfigurationError(
            f"{len(states)} states for {len(tensors)} tensors; need one per row"
        )
    if t_end <= 0:
        raise ConfigurationError("t_end must be positive")
    _check_eta(eta)
    controls = controls or IntegratorControls()
    first = tensors[0]
    for i, tensor in enumerate(tensors):
        if tensor.grid != first.grid or tensor.bandwidth != first.bandwidth:
            raise ConfigurationError(
                f"row {i} has a {tensor.n_cells}-cell grid and bandwidth "
                f"{tensor.bandwidth}; row 0 has {first.n_cells} cells and "
                f"bandwidth {first.bandwidth}"
            )
    batch = len(tensors) > 1
    starts = []
    for i, (f0, tensor) in enumerate(zip(states, tensors)):
        try:
            starts.append(_start(f0, tensor, eta, t_end, controls.step))
        except (ConfigurationError, NumericalError) as exc:
            if not batch:
                raise
            rho = float(np.sum(getattr(f0, "masses", f0)))
            raise type(exc)(_row_label(i, rho) + str(exc)) from exc

    wanted = None
    if controls.sample_times is not None:
        wanted = sorted(set(float(t) for t in controls.sample_times))
        if wanted and (wanted[0] < 0 or wanted[-1] > t_end * (1 + 1e-12)):
            raise ConfigurationError("sample_times outside [0, t_end]")

    f = np.stack([start[0] for start in starts])
    h = np.array([[start[1]] for start in starts])
    n_steps = np.array([[start[2]] for start in starts])
    rho0 = f.sum(axis=1)
    rhs = _make_batch_rhs(tensors, eta, len(starts))
    storing: dict[int, list[int]] = {}  # step -> rows that store after it
    for row, (_, h_row, n_row) in enumerate(starts):
        for k in _store_steps(h_row, n_row, controls.store_factor, wanted):
            storing.setdefault(k, []).append(row)

    def label(row: int) -> str:
        return _row_label(row, rho0[row]) if batch else ""

    times = [[0.0] for _ in starts]
    stored = [[row.copy()] for row in f]
    clamped = 0
    hk = h.copy()
    for k in range(1, int(n_steps.max()) + 1):
        k1 = rhs(f)
        k2 = rhs(f + 0.5 * hk * k1)
        k3 = rhs(f + 0.5 * hk * k2)
        k4 = rhs(f + hk * k3)
        f += (hk / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if f.min(initial=0.0) < 0.0:
            row = int(np.argmin(f)) // f.shape[1]
            clamped += _clamp_negativity(f, f"{label(row)}step {k} (t={k * h[row, 0]:.6g})")
        for row in storing.get(k, ()):
            times[row].append(k * h[row, 0])
            stored[row].append(f[row].copy())
        hk[n_steps == k] = 0.0  # a finished row steps by zero from now on

    if clamped:
        logger.warning("clamped %d slightly negative components to zero", clamped)
    drift = np.abs(f.sum(axis=1) - rho0)
    bad = np.flatnonzero(~(drift <= DRIFT_TOL))  # NaN too
    if bad.size:
        row = bad[0]
        raise NumericalError(
            f"{label(row)}mass drift {drift[row]:.3e} exceeds budget {DRIFT_TOL:.0e}"
        )
    residuals = np.abs(rhs(f)).max(axis=1)
    return [
        Trajectory(times=np.asarray(ts), states=np.asarray(ss), grid=first.grid,
                   terminal_residual=float(res))
        for ts, ss, res in zip(times, stored, residuals)
    ]


def integrate(
    f0: Union[CellMassVector, np.ndarray],
    tensor: InteractionTensor,
    eta: float,
    t_end: float,
    controls: Optional[IntegratorControls] = None,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step: one row of
    `integrate_many`.

    The default step 0.1/(eta*rho), shortened so that whole steps end on
    t_end, resolves the quadratic timescale with a wide stability margin.
    A run that would take more than MAX_STEPS steps is refused with
    ConfigurationError before the first one.  Mass drift beyond 1e-10 or
    negativity beyond -1e-12 abort the run; negative components above that
    tolerance are clamped to zero with a logged warning.
    """
    return integrate_many([f0], [tensor], eta, t_end, controls)[0]


def _chunk_end(t_hi: float, t_max: float) -> float:
    """Chunk end capped at t_max; an end within LSODA's start threshold of
    t_max (2 eps t_max) becomes t_max, since a last chunk that short is
    illegal input to LSODA."""
    if t_max - t_hi <= 2.0 * np.finfo(float).eps * t_max:
        return t_max
    return t_hi


def _upper_cells(tensor: InteractionTensor, empty: int) -> InteractionTensor:
    """The tensor of cells empty+1..N alone, for states whose cells
    1..empty stay empty: band rows empty.. with the weights from the empty
    cells set to 0, at most N - empty columns wide."""
    n, b = tensor.n_cells, tensor.bandwidth
    band = tensor.band[empty:].copy()
    rows, cols = np.indices(band.shape)
    band[rows + cols < b] = 0.0  # source cell empty + row - b + col < empty
    return InteractionTensor(
        kernel=tensor.kernel,
        p=tensor.p,
        grid=VelocityGrid(n_cells=n - empty, v_max=tensor.grid.v_max),
        band=band[:, max(b + 1 - (n - empty), 0):],
    )


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

    Braking into cell k goes at a rate proportional to f_k and acceleration
    only moves mass up, so the start's empty bottom cells 1..s stay empty
    for all time.  When s > 0 (and some cell below the top is occupied),
    only cells s+1..N are marched, on `tensor.band[s:]` without the weights
    from the empty cells, and the result, a timeout's state too, gets its s
    exact zeros back.  A march of all N cells lets rounding seed the empty
    cells, which can then grow into the stable branch's bottom.
    """
    if residual_tol <= 0:
        raise ConfigurationError("residual_tol must be positive")
    _check_eta(eta)
    f = _as_array(f0, tensor).copy()
    _check_finite(f)
    _clamp_negativity(f, "initial state")
    grid = tensor.grid
    # the first occupied cell below the top, 0 when there is none
    empty = int(np.argmax(f[:-1] > 0.0))
    if empty:
        f, tensor = f[empty:], _upper_cells(tensor, empty)

    def state(f: np.ndarray) -> CellMassVector:
        return CellMassVector(np.concatenate((np.zeros(empty), f)), grid)

    rho0 = f.sum()
    # LSODA gets the dense product, not the band one: the band product
    # rounds differently, which moves the steady states and the failure
    # points in the last bits.  Swapped in, it broke the bit-identity to the
    # solve_ivp reference in three of its cases, and the near-critical
    # failure (spread kernel, T=2, r=20, rho=0.49) dipped to -3.577e-10
    # instead of -1.737e-9.
    w = tensor.accel
    rhs = _make_rhs(tensor, eta, lambda y: w @ y)
    residual = float(np.abs(rhs(f)).max())
    if residual <= residual_tol:
        return state(f)

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
                return state(f)
            if t_hi >= t_max:
                raise SteadyStateTimeout(
                    f"no steady state within t_max={t_max:.3g}: "
                    f"residual {residual:.3e}, state change rate {change_rate:.3e}",
                    state=state(f),
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


def select_fit_window(series: TimeSeries) -> tuple[float, float]:
    """Pick a tail window where log e(t) is cleanly linear.

    Skips the initial transient (until e drops below HEAD_DROP * e(0)) and
    stops before the rounding floor (a safety band of DECADES_ABOVE_FLOOR
    decades above the smallest positive value).
    """
    e = series.values
    t = series.times
    positive = e > 0
    if not positive.any():
        raise NumericalError("distance series is identically zero; nothing to fit")
    floor = e[positive].min() * 10.0 ** DECADES_ABOVE_FLOOR
    start = e <= max(HEAD_DROP * e[0], floor)
    usable = positive & (e >= floor) & start
    idx = np.nonzero(usable)[0]
    if idx.size < 3:
        # Decay too short for the guard bands; fall back to the positive tail.
        idx = np.nonzero(positive)[0][-max(3, positive.sum() // 2):]
    return float(t[idx[0]]), float(t[idx[-1]])


def fit_convergence_rate(
    series: TimeSeries, window: Optional[tuple[float, float]] = None
) -> FitResult:
    """Exponential decay rate M from a least-squares fit of log e(t).

    The fit runs over the given (t_lo, t_hi) window; values must be
    strictly positive there.  The result holds M (the negated slope), the
    intercept, the rms residual of the fit, the window and its point count.
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
