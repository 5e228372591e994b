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
1e-10 scale.  One function, `_rates`, evaluates that form for a lone
state, for the RK4 stack and for the implicit march alike.  The product
W f comes from the tensor's band: a vecdot of each band row against its
window of f (`matrices._windows`), except on wide jump-kernel bands,
whose rows below the top one hold at most two weights on a few fixed
diagonals and take one O(N) slice product per diagonal instead.  Both
paths give the same bits.

Trajectories come from classical fourth-order Runge-Kutta with a fixed
step, which clamps nothing: a step that leaves a negative cell mass is an
error.  `integrate_many` marches B states in one loop over a (B, N) stack,
rows in the order given: each row keeps its own tensor (so its own grid,
P and band) and its own step t_end/ceil(t_end*eta*rho/0.1), held as a
column, and stands still once its steps are done; a row on a smaller
grid fills the top of its stack row above cells held at exactly 0.
Every row gets the arithmetic of a lone run on its own grid, so a
trajectory does not depend on the batch it was marched in; `integrate`
is the one-row case.  The march evaluates into buffers of the stack's
full shape, allocated once: its stages, the rates, and P, 1 - 2P, the
row totals and the step factors at every cell, so that no operation
broadcasts a column and none allocates per step.  A rate evaluation
called without an output buffer returns a fresh array.  Steady states
come from a linearly implicit march on the whole grid whose every step
is one forward substitution on the band; a start's empty bottom cells
stay exactly 0, see `find_steady_state`.
"""
from __future__ import annotations

import bisect
import logging
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .matrices import InteractionTensor, VelocityGrid, _windows
from .params import ConfigurationError, _check_eta

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
# Most Newton steps that polish a converged steady state, see
# find_steady_state
POLISH_STEPS = 8
# Least scale, relative to the total mass, against which find_steady_state
# sizes a cell's change when it picks the next step: a cell that drains
# geometrically towards 0 would otherwise read a relative change of 1/2 at
# every step and hold dt in place.  It only picks the next step; the
# rejection rule and the drift check are unchanged.  Accepted steps from
# uniform starts at floors 0 / 1e-4 / 1e-3: spread T=4, r=100 at rho 0.3
# and 0.45, 138 / 52 / 39 and 298 / 99 / 74; spread T=2, r=20, rho=0.49,
# 562 / 110 / 87; jump T=4, r=100, rho=0.45, 54 / 32 / 26, none rejected.
# At 1e-2 the clock runs out: dt grows while the residual stalls, and
# spread T=4, r=100, rho=0.45 and T=2, r=20, rho=0.49 use up t_max=1e7 at
# residuals 4.5e-5 and 3.2e-6.  1e-3 already thins that margin where a
# spread-kernel cell's steady mass leaves 0: from uniform starts at 3,000
# densities in [0.3, 0.9] on T=3, r=4; T=2, r=6 and T=4, r=4, 1e-3 used up
# t_max=1e7 at rho 0.4666 (two grids) and 0.4782, where 0 and 1e-4
# converge; of 100 densities in [0.4655, 0.4675) on T=3, r=4, 10 time
# out at 1e-3, 3 at 1e-4 and 3 at 0.  So 1e-4, a decade below that.
STEP_MASS_FLOOR = 1e-4
# select_fit_window's guard bands, see there
HEAD_DROP = 1e-2
DECADES_ABOVE_FLOOR = 1.5


class NumericalError(RuntimeError):
    """Integration or fitting failure (maps to CLI exit code 3)."""


class SteadyStateTimeout(NumericalError):
    """Steady-state search hit t_max; carries the last state and residual.

    Also carries the work done: accepted and rejected steps, RHS
    evaluations, Jacobian evaluations (one per implicit solve), the time
    reached and the Newton polish steps kept, which a march that times out
    never reaches.
    """

    def __init__(
        self,
        message: str,
        state: "CellMassVector",
        residual: float,
        *,
        steps: int = 0,
        rejected: int = 0,
        rhs_evals: int = 0,
        jac_evals: int = 0,
        t_reached: float = 0.0,
        polished: int = 0,
    ):
        super().__init__(message)
        self.state = state
        self.residual = residual
        self.steps = steps
        self.rejected = rejected
        self.rhs_evals = rhs_evals
        self.jac_evals = jac_evals
        self.t_reached = t_reached
        self.polished = polished


@dataclass(frozen=True)
class CellMassVector:
    """Non-negative cell masses tied to their velocity grid.

    The constructor copies the masses and refuses a wrong length, a
    non-finite mass or one below the -1e-12 negativity floor; it sets the
    masses within the floor to 0.  The stored masses are read-only.
    """

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

    @classmethod
    def _trusted(cls, masses: np.ndarray, grid: VelocityGrid) -> "CellMassVector":
        """The state of masses this package has just computed, finite and
        non-negative on this grid, in an array nothing else writes to: made
        read-only in place, with no copy and no check."""
        masses.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "masses", masses)
        object.__setattr__(state, "grid", grid)
        return state

    @property
    def rho(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class Trajectory:
    """Stored states of one integration run, and its own RK4 step count
    (`steps`; 0 for a trajectory built by hand)."""

    times: np.ndarray
    states: np.ndarray  # (n_times, N)
    grid: VelocityGrid
    terminal_residual: float
    steps: int = 0

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
        # written so that NaN fails every check
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ConfigurationError(f"step must be positive and finite; got {self.step!r}")
        if not 1.0 < self.store_factor < math.inf:
            raise ConfigurationError(
                f"store_factor must exceed 1 and be finite; got {self.store_factor!r}"
            )
        if self.sample_times is not None and not all(map(math.isfinite, self.sample_times)):
            raise ConfigurationError("sample_times must be finite")


def _check_finite(f: np.ndarray):
    if not np.isfinite(f).all():
        raise ConfigurationError("state has non-finite cell masses")


def _check_positive(name: str, value: float):
    if not value > 0:  # NaN too
        raise ConfigurationError(f"{name} must be positive; got {value!r}")


def _as_array(f: Union[CellMassVector, np.ndarray], tensor: InteractionTensor) -> np.ndarray:
    """One state, or a (B, N) stack of states, of the tensor's grid as a
    float array of finite cell masses.

    A CellMassVector's masses are finite and read-only by construction, so
    they are taken as they are if its grid is the tensor's; any other
    array is checked."""
    if isinstance(f, CellMassVector):
        if f.grid != tensor.grid:
            raise ConfigurationError("state and tensor grids differ")
        return f.masses
    arr = np.asarray(f, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != tensor.n_cells:
        raise ConfigurationError(
            f"state has shape {arr.shape}, tensor expects ({tensor.n_cells},) or "
            f"(B, {tensor.n_cells})"
        )
    _check_finite(arr)
    return arr


def _start_masses(f0: Union[CellMassVector, np.ndarray], tensor: InteractionTensor) -> np.ndarray:
    """A start's masses, checked as the CellMassVector constructor checks
    them on the tensor's grid; then a CellMassVector on another grid, of
    the same cell count but another v_max, is refused too."""
    f = CellMassVector(getattr(f0, "masses", f0), tensor.grid).masses
    if isinstance(f0, CellMassVector) and f0.grid != tensor.grid:
        raise ConfigurationError("state and tensor grids differ")
    return f


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


def _make_band_product(band: np.ndarray, out: np.ndarray) -> Callable[[np.ndarray], None]:
    """The map from a (rows, N) stack f to the rows of W @ f, written into `out`.

    `band` is (B, N, b + 1), with B = 1 or B = rows, and `out` is a
    (rows, N) array or view.  Row j of the band meets the window
    f[j - b .. j] of a zero-padded buffer (`matrices._windows`).  Rows
    [0, m) of `_diagonal_plan` take one slice product per diagonal, added
    into `out` from zero, in O(N) each; the rows from m on, every row when
    m is 0, run as one vecdot of the band against the windows.  Both give a
    row the bits of the vecdot of its band row alone.
    """
    rows = out.shape[0]
    n, width = band.shape[1:]
    padded = np.zeros((rows, n + width - 1))
    windows = _windows(padded, width)
    m, diagonals = _diagonal_plan(band)
    acc, top = out[:, :m], out[:, m:]
    term = np.empty_like(acc)
    band_top, windows_top = band[:, m:], windows[:, m:]

    def product(f: np.ndarray) -> None:
        padded[:, width - 1:] = f
        # without diagonal rows, skipped: zeroing an empty acc cost 0.3-0.4
        # us (3%) per RHS on six rows of 6 or 11 cells
        if m:
            # from +0, so a row of products -0 and +0 sums to +0, as in vecdot
            acc[...] = 0.0
            for k, weights in diagonals:
                np.multiply(weights, padded[:, k:k + m], term)
                np.add(acc, term, acc)
        np.vecdot(band_top, windows_top, out=top)

    return product


def _rates(f: np.ndarray, wf: np.ndarray, total, p, q, eta: float,
           out: Optional[np.ndarray] = None,
           work: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """The rearranged right-hand side along f's last axis, from wf = W @ f,
    the total mass, p and q = 1 - 2p: the one formula every rate
    evaluation runs, so a lone state gets its row's bits.

    total, p and q are scalars for a lone state and arrays of f's shape for
    a stack, so that no operation broadcasts.  The result goes into `out`,
    with `work`, two more arrays of f's shape, holding the intermediates;
    the ufuncs allocate whichever is left out, so a call without `out`
    returns a fresh array.
    """
    a, b = work if work is not None else (None, None)
    a = np.add.accumulate(f, -1, None, a)  # the cumsum: a = C + f
    b = np.subtract(total, a, b)  # b = U, the mass above
    np.subtract(a, f, a)  # a = C, the mass below
    np.negative(a, a)
    out = np.multiply(p, f, out)
    np.subtract(a, out, a)  # -C - P f
    np.multiply(q, b, b)
    np.add(a, b, a)  # -C - P f + (1 - 2P) U
    np.multiply(f, a, a)
    np.multiply(wf, total, b)
    np.add(a, b, a)
    return np.multiply(eta, a, out)


def _make_batch_rhs(tensors: Sequence[InteractionTensor], eta: float, rows: int):
    """RHS closure on a stack of `rows` states, one per row.

    Row i evolves under tensors[i], or every row under the tensor when only
    one is given.  Rows may sit on grids of different sizes: the stack has
    as many cells as the largest grid, and a row on N cells fills its top N
    cells, the cells below them held at 0.  The cumsum, the elementwise
    terms and the RK4 combinations run on the whole stack, where those
    leading zeros change no bit.  The row sum and the band product W @ f do
    not: numpy's pairwise sum regroups a longer row, and so does the vecdot
    against a band with leading zero columns.  So each run of consecutive
    rows whose bands share a shape sums its own cells and takes its own
    `_make_band_product`, planned once per closure, into its slice of one
    W @ f buffer whose padded cells stay 0; a run of one tensor reads that
    tensor's band in place, a longer run a stack of its bands.  A padded
    cell's rate is then exactly +0, and every row gets `_rates` on its own
    grid, the operations `collision_rhs` gives it alone, bit for bit, so its
    rate depends on neither the batch nor the path the product takes.

    The closure is rhs(f, out=None).  P and 1 - 2P are held at the stack's
    full shape, and each call copies the row sums into one full-shape
    total that both of its uses read, so `_rates` broadcasts nothing; its
    intermediates go to two work buffers of the closure.  The rates go to
    `out` when given, else to a fresh array, which callers may keep.
    """
    n_max = max(t.n_cells for t in tensors)
    shape = (rows, n_max)
    p = np.empty(shape)
    p[...] = [[t.p] for t in tensors]
    q = 1.0 - 2.0 * p
    sums = np.empty((rows, 1))
    total = np.empty(shape)
    wf = np.zeros(shape)
    work = (np.empty(shape), np.empty(shape))
    firsts = [i for i, t in enumerate(tensors)
              if i == 0 or t.band.shape != tensors[i - 1].band.shape]
    runs = []
    for a, b in zip(firsts, firsts[1:] + [rows]):
        group = tensors[a:b]
        band = group[0].band[None] if len(group) == 1 else np.stack([t.band for t in group])
        cells = (slice(a, b), slice(n_max - band.shape[1], None))
        runs.append((cells, sums[a:b], _make_band_product(band, wf[cells])))

    def rhs(f: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        for cells, run_sums, product in runs:
            own = f[cells]
            np.add.reduce(own, axis=1, keepdims=True, out=run_sums)
            product(own)
        np.copyto(total, sums)
        return _rates(f, wf, total, p, q, eta, out, work)

    return rhs


def collision_rhs(
    f: Union[CellMassVector, np.ndarray], tensor: InteractionTensor, eta: float
) -> np.ndarray:
    """Rate of change of each cell mass; sums to zero up to rounding.

    f is one state or a (B, N) stack of states, checked alike; a stack gets
    the rates of every row from one batched evaluation (`_make_batch_rhs`).
    One state takes W @ f as one vecdot of the band against the windows of
    one zero-padded copy of f, with no plan, and then the same `_rates` as
    a row of a stack, so it gets that row's bits.  A non-finite cell mass, or
    an eta that is not finite and positive, raises ConfigurationError.
    """
    _check_eta(eta)
    f = _as_array(f, tensor)
    if f.ndim == 2:
        return _make_batch_rhs([tensor], eta, len(f))(f)
    n, width = tensor.band.shape
    padded = np.zeros(n + width - 1)
    padded[width - 1:] = f
    wf = np.vecdot(tensor.band, _windows(padded, width))
    return _rates(f, wf, f.sum(), tensor.p, 1.0 - 2.0 * tensor.p, eta)


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
    f = _start_masses(f0, tensor)
    # in Python floats, where a quotient past the float range is inf
    # without a RuntimeWarning
    t_end = float(t_end)
    h = float(step) if step is not None else 0.1 / (float(eta) * max(float(f.sum()), 1e-12))
    steps = t_end / h if h > 0.0 else math.inf
    if not steps <= MAX_STEPS:  # inf too
        raise ConfigurationError(
            f"t_end={t_end:.6g} at step {h:.6g} needs {steps:.3g} steps, "
            f"more than the budget of {MAX_STEPS:.0e}"
        )
    n_steps = max(1, math.ceil(steps - 1e-12))
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
    """Classical fourth-order Runge-Kutta for B states at once.

    Row i starts from states[i] and evolves under tensors[i], on that
    tensor's grid with its own P and band; the grids may differ in size.
    Each row takes its own fixed step h_i = t_end/ceil(t_end/s_i), with s_i
    the controls' step or 0.1/(eta*rho_i), a tenth of the row's fastest
    quadratic timescale, which resolves it with a wide stability margin.
    All rows march in input order in one loop over a (B, N_max) stack, N_max
    the largest grid's cell count, the steps held as a column, until the
    longest row is done; a row on N cells fills the stack's top N cells
    above empty ones that stay exactly 0 (see `_make_batch_rhs`), and a
    finished row takes steps of zero, since f + 0*k is exactly f.  Every
    row gets the arithmetic of a lone run on its own grid, so its
    trajectory does not depend on the batch; its stored states, its
    Trajectory's grid and its step count `steps` are its own.  Rows on one
    grid, next to each other, share the band product's and the row sum's
    numpy calls.  The four stages, the stage state and the step factors
    h, h/2 and h/6 are (B, N_max) buffers allocated once, each stage
    written into them in place in the order of `f + (h/2) k1`, and a
    finished row's factors are zeroed; the stored states are copies.

    Each row is checked on its own.  A start is checked as a
    `CellMassVector` is: negatives above -1e-12 are set to 0 and deeper
    ones refused, and a `CellMassVector` on another grid than its
    tensor's is refused.  A row that would take more than MAX_STEPS steps
    is refused with ConfigurationError before the first step of any row.  RK4
    clamps nothing: a step that leaves any component below 0 aborts the
    run with NumericalError, naming the step and its time, and so does mass
    drift beyond 1e-10 at the end.  With more than one row, every such
    error names the row's index and density.
    """
    if len(states) != len(tensors) or not tensors:
        raise ConfigurationError(
            f"{len(states)} states for {len(tensors)} tensors; need one per row"
        )
    _check_positive("t_end", t_end)
    _check_eta(eta)
    controls = controls or IntegratorControls()
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

    n_max = max(t.n_cells for t in tensors)
    pads = [n_max - t.n_cells for t in tensors]
    f = np.zeros((len(starts), n_max))
    for row, (start, pad) in enumerate(zip(starts, pads)):
        f[row, pad:] = start[0]
    h = np.array([[start[1]] for start in starts])
    n_steps = np.array([[start[2]] for start in starts])
    rho0 = np.array([start[0].sum() for start in starts])
    rhs = _make_batch_rhs(tensors, eta, len(starts))
    storing: dict[int, list[int]] = {}  # step -> rows that store after it
    for row, (_, h_row, n_row) in enumerate(starts):
        for k in _store_steps(h_row, n_row, controls.store_factor, wanted):
            storing.setdefault(k, []).append(row)

    def label(row: int) -> str:
        return _row_label(row, rho0[row]) if batch else ""

    times = [[0.0] for _ in starts]
    stored = [[start[0]] for start in starts]
    # 0.5*hk*k is (0.5*hk)*k, so the step's factors are kept, at the
    # stack's shape, until a row finishes; from then on its row of them is
    # 0, and f + 0*k is exactly f
    hk = np.empty_like(f)
    hk[...] = h
    half, sixth = 0.5 * hk, hk / 6.0
    k1, k2, k3, k4, g = (np.empty_like(f) for _ in range(5))
    finishing = set(n_steps.ravel().tolist())
    for k in range(1, int(n_steps.max()) + 1):
        rhs(f, k1)
        np.multiply(half, k1, g)
        np.add(f, g, g)
        rhs(g, k2)
        np.multiply(half, k2, g)
        np.add(f, g, g)
        rhs(g, k3)
        np.multiply(hk, k3, g)
        np.add(f, g, g)
        rhs(g, k4)
        # f += sixth * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(2.0, k2, k2)
        np.add(k1, k2, k1)
        np.multiply(2.0, k3, k3)
        np.add(k1, k3, k1)
        np.add(k1, k4, k1)
        np.multiply(sixth, k1, k1)
        np.add(f, k1, f)
        low = f.min(initial=0.0)
        if low < 0.0:
            row = int(np.argmin(f)) // n_max
            raise NumericalError(
                f"{label(row)}step {k} (t={k * h[row, 0]:.6g}): component {low:.3e} "
                "below 0; this indicates an integration bug, not a model property"
            )
        for row in storing.get(k, ()):
            times[row].append(k * h[row, 0])
            stored[row].append(f[row, pads[row]:].copy())
        if k in finishing:
            done = n_steps[:, 0] == k
            for factors in (hk, half, sixth):
                factors[done] = 0.0

    drift = np.abs(np.array([row[pad:].sum() for row, pad in zip(f, pads)]) - rho0)
    bad = np.flatnonzero(~(drift <= DRIFT_TOL))  # NaN too
    if bad.size:
        row = bad[0]
        raise NumericalError(
            f"{label(row)}mass drift {drift[row]:.3e} exceeds budget {DRIFT_TOL:.0e}"
        )
    residuals = np.abs(rhs(f)).max(axis=1)
    return [
        Trajectory(times=np.asarray(ts), states=np.asarray(ss), grid=tensor.grid,
                   terminal_residual=float(res), steps=start[2])
        for ts, ss, tensor, res, start in zip(times, stored, tensors, residuals, starts)
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
    ConfigurationError before the first one.  A step that leaves any
    component below 0, or mass drift beyond 1e-10, aborts the run with
    NumericalError; nothing is clamped after the start.
    """
    return integrate_many([f0], [tensor], eta, t_end, controls)[0]


def _make_implicit_solve(
    tensor: InteractionTensor, eta: float
) -> Callable[[np.ndarray, np.ndarray, float], Optional[np.ndarray]]:
    """The map (f, rate, sigma) to the d with (sigma I - J) d = rate, J the
    RHS Jacobian at f, in O(N b).

    J = eta (T + u 1^T) with T lower triangular: T_jk = -2 (1 - P) f_j
    + S W_jk left of the diagonal and T_jj = -C_j - f_j + (1 - 2P) U_j
    + S W_jj on it, S the total mass.  The columns of T sum to -(1 - P) S
    and the rates to 0, so 1^T d = 0 and the u 1^T term drops out: d comes
    from one forward substitution of sigma I - eta T, row j from the
    running sum of d below it and band row j.  sigma = 1/dt gives a
    linearly implicit Euler step, sigma = 0 the mass-conserving Newton
    step.

    The substitution is a forward sweep on the tensor's sweep plan (see
    `matrices._plan_sweep`), planned once per grid from the P-free band and
    shared with `banded_equilibrium`; P joins the row scale s = eta S P,
    and nothing is planned here.  Row j reads

        d_j = (r_j + c_j (prefix + inside) + s (out_j + w_j inside)) / diag_j,

    with r the rates, c_j = -2 eta (1 - P) f_j, prefix the sum of d below
    the block, inside the sum of the block's d below row j, out_j the
    block's vecdot and w_j the plan's weight.  Taken over diag_j this is
    an affine recurrence in inside, d_j = a_j + g_j inside: r / diag,
    c / diag and s / diag come once per solve over the whole grid, g with
    them, and a once per block from its vecdot, so only that sequential
    step is left to Python.  A row whose weights on the block's cells are
    not all w (the plan's deviations: the spread kernel's edge rows, and
    on a jump band of at most SOLVE_BLOCK columns the rows that meet the
    jump's diagonals inside their block) adds s / diag_j times the
    deviations' products with the block's d.  The prefix advances once
    per block.

    The solve returns None when a diagonal entry sigma - eta T_jj is not
    positive: the step would not damp that cell's mode.  Cells below f's
    first occupied one are left out of that check: their rates and braking
    terms are exact zeros, so their d is exactly 0 whatever the diagonal,
    which long steps make negative there.  Otherwise d is a buffer that the
    next solve overwrites.
    """
    plan, factor = tensor._sweep
    b = tensor.bandwidth
    padded = np.zeros(b + tensor.n_cells)  # d behind b zeros: row j meets padded[j:j + b]
    windows = _windows(padded, b)
    near = np.array([w for *_, weights in plan for w, _ in weights])  # w of every row
    blocks = []
    for s, e, rows, weights in plan:
        rests = tuple(rest for _, rest in weights)
        blocks.append((s, e, rows, windows[s:e], rests if any(rests) else None))
    q = 1.0 - 2.0 * tensor.p
    brake = -2.0 * eta * (1.0 - tensor.p)
    self_weights = tensor.band[:, b]
    mul = operator.mul

    def solve(f: np.ndarray, rate: np.ndarray, sigma: float) -> Optional[np.ndarray]:
        total = f.sum()
        # sigma - eta T_jj, with C_j + f_j the running sum of f
        diag = ((sigma - eta * q * total) + (eta * (1.0 + q)) * np.cumsum(f)
                - (eta * total) * self_weights)
        # out of the check: an empty bottom cell's d is 0 / 1
        diag[:int(np.argmax(f > 0.0))] = 1.0
        if not diag.min() > 0.0:
            return None
        # r, c and s over diag, and g = (c + s w) / diag
        rates = rate / diag
        brakes = (brake * f) / diag
        scales = ((eta * total) * factor) / diag
        gains = (brakes + scales * near).tolist()
        padded[b:] = 0.0
        prefix = 0.0
        for s, e, rows, row_windows, deviations in blocks:
            # the block's own cells are still 0 in padded
            outside = np.vecdot(rows, row_windows)
            # a = (r + c prefix + s out) / diag
            offsets = (rates[s:e] + brakes[s:e] * prefix + scales[s:e] * outside).tolist()
            ds: list[float] = []
            inside = 0.0  # the sum of ds
            if deviations is None:
                for a_j, g_j in zip(offsets, gains[s:e]):
                    d_j = a_j + g_j * inside
                    ds.append(d_j)
                    inside += d_j
            else:
                for a_j, g_j, s_j, rest_j in zip(offsets, gains[s:e], scales[s:e].tolist(),
                                                 deviations):
                    d_j = a_j + g_j * inside
                    if rest_j:
                        d_j += s_j * sum(map(mul, rest_j, ds))
                    ds.append(d_j)
                    inside += d_j
            prefix += inside
            padded[b + s:b + e] = ds
        return padded[b:]

    return solve


def find_steady_state(
    f0: Union[CellMassVector, np.ndarray],
    tensor: InteractionTensor,
    eta: float,
    residual_tol: float = 1e-10,
    t_max: float = 1e9,
) -> CellMassVector:
    """March the system until the right-hand side is numerically zero.

    The start is checked as a `CellMassVector` is, and one on another
    grid than the tensor's is refused.  Stops when BOTH the residual
    max-norm and the state change per unit time (relative to the total
    mass) are at or below residual_tol: the residual alone can dip early
    while the state still drifts along a slow manifold.

    Pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal.
    35, 1998): a step of length dt solves (I - dt J) d = dt F(f) by one
    O(N b) forward substitution (`_make_implicit_solve`) and sets
    f <- f + d.
    The first dt is the RK4 step 0.1/(eta*rho).  A step whose solve meets a
    non-positive diagonal entry, or whose state has a negative component,
    is rejected and dt quartered; nothing is clamped.  An accepted step
    scales dt by 0.5 over the largest relative change of a cell,
    |d_j| / max(f_j, f_j + d_j, STEP_MASS_FLOOR * rho), at most fourfold:
    the floor, relative to the total mass rho, keeps a cell that drains
    towards 0 from holding dt in place.  The steps count against
    t_max, the last one cut to end on it.  Once the stopping rule holds, up
    to POLISH_STEPS Newton steps follow, each kept, with rounding-level
    negatives set to 0 and the mass re-projected, while it lowers the
    residual or, after a kept one, while its largest entry is below half
    of that step's and above 4 eps times the total mass (eps the float64
    machine epsilon, so above rounding of the masses): near a slow mode
    the residual reaches its rounding floor up to about 2e-14 from the
    steady state, where only the shrinking step shows that Newton still
    converges.  A step that leaves a component below -1e-12 ends the
    polish.

    A new state whose mass is not finite, or has drifted by more than 1e-8
    relative, raises NumericalError: from a finite state a step leaves a
    finite one unless the rates overflow, which no shorter step mends.  So
    does a dt too small to advance t, which only rejections without end
    can bring about; both messages name the time reached and the accepted
    and rejected steps.  t_max exhausted raises SteadyStateTimeout, carrying
    the last state, the residual and the work done.  The work done, the
    Newton polish steps kept among it, is logged at DEBUG level when the
    march ends, however it ends.

    Braking into cell k goes at a rate proportional to f_k and acceleration
    only moves mass up, so the start's empty bottom cells stay empty for
    all time.  The march runs on the whole grid: there the rates, and so
    every step, are exact zeros, and the solve leaves those cells out of
    its diagonal check, so they stay exactly 0, a timeout's state too, and
    the march ends on the shifted branch above them.
    """
    _check_positive("residual_tol", residual_tol)
    _check_positive("t_max", t_max)
    _check_eta(eta)
    f = _start_masses(f0, tensor)
    rho0 = f.sum()
    batch_rhs = _make_batch_rhs([tensor], eta, 1)
    implicit_solve = _make_implicit_solve(tensor, eta)
    work = dict(steps=0, rejected=0, rhs_evals=0, jac_evals=0, t_reached=0.0, polished=0)

    def rhs(f: np.ndarray) -> tuple[np.ndarray, float]:
        work["rhs_evals"] += 1
        rate = batch_rhs(f[None])[0]
        return rate, float(np.abs(rate).max())

    def solve(f: np.ndarray, rate: np.ndarray, sigma: float) -> Optional[np.ndarray]:
        work["jac_evals"] += 1
        return implicit_solve(f, rate, sigma)

    def done() -> str:
        return (f"t_reached={work['t_reached']:.6g} steps={work['steps']} "
                f"rejected={work['rejected']}")

    rate, residual = rhs(f)
    if residual <= residual_tol:
        return CellMassVector._trusted(f, tensor.grid)

    t, dt = 0.0, 0.1 / (eta * float(rho0))  # Python floats: 1/dt may overflow
    floor = STEP_MASS_FLOOR * rho0
    change_rate = math.inf
    try:
        while not (residual <= residual_tol and change_rate <= residual_tol):
            if t >= t_max:
                raise SteadyStateTimeout(
                    f"no steady state within t_max={t_max:.3g}: "
                    f"residual {residual:.3e}, state change rate {change_rate:.3e}",
                    state=CellMassVector._trusted(f, tensor.grid),
                    residual=residual,
                    **work,
                )
            last = dt >= t_max - t
            if last:
                dt = t_max - t
            if t + dt == t:  # no step left that moves the clock
                raise NumericalError(
                    f"steady-state step {dt:.3e} too small to advance t ({done()})"
                )
            d = solve(f, rate, 1.0 / dt)
            if d is not None:
                g = f + d
                total = g.sum()
                if not abs(total - rho0) <= 1e-8 * max(rho0, 1.0):  # NaN and inf too
                    raise NumericalError(
                        f"mass drifted by {total - rho0:.3e} within one step; aborting "
                        f"({done()})"
                    )
            if d is None or g.min() < 0.0:
                work["rejected"] += 1
                dt *= 0.25
                continue
            work["steps"] += 1
            t = t_max if last else t + dt
            work["t_reached"] = t
            # |d_j| <= max(f_j, g_j) as g >= 0, and the floor only raises
            # the scale: worst <= 1, so dt at most halves, when a cell at or
            # above the floor empties or fills from nothing
            scale = np.maximum(np.maximum(f, g), floor)
            size = np.abs(d)
            worst = float((size / scale).max())
            f = g
            rate, residual = rhs(f)
            change_rate = float(size.max()) / (rho0 * dt)
            dt *= min(4.0, 0.5 / worst) if worst > 0.0 else 4.0

        last_step, ulps = 0.0, 4.0 * np.finfo(float).eps * rho0
        for _ in range(POLISH_STEPS):
            d = solve(f, rate, 0.0)
            if d is None:
                break
            g = f + d
            if not g.min() >= NEGATIVITY_TOL:  # NaN too
                break
            g[g < 0.0] = 0.0
            g *= rho0 / g.sum()
            g_rate, g_residual = rhs(g)
            step = float(np.abs(d).max())
            if not (g_residual < residual or ulps < step < 0.5 * last_step):
                break
            last_step = step
            f, rate, residual = g, g_rate, g_residual
            work["polished"] += 1
        return CellMassVector._trusted(f, tensor.grid)
    finally:
        logger.debug(
            "steady-state solve ended: t_reached=%.6g steps=%d rejected=%d "
            "rhs_evals=%d jac_evals=%d polished=%d",
            work["t_reached"], work["steps"], work["rejected"],
            work["rhs_evals"], work["jac_evals"], work["polished"],
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

    The fit runs over the given (t_lo, t_hi) window, which must hold at
    least three samples, all strictly positive: a line through two points
    fits them exactly, so its residual would say nothing.  The result holds
    M (the negated slope), the intercept, the rms residual of the fit, the
    window and its point count.
    """
    if window is None:
        window = (float(series.times[0]), float(series.times[-1]))
    t_lo, t_hi = window
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    t = series.times[mask]
    e = series.values[mask]
    if t.size < 3:
        # no comma: the CLI writes this message as one CSV cell
        raise NumericalError(f"fit window [{t_lo} to {t_hi}] holds {t.size} samples")
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
        raise ConfigurationError("staircase needs at least one jump")
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
