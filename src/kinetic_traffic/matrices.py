"""Velocity grid and discrete interaction tensors.

The velocity range [0, v_max] is split into N cells: two half-width cells
at the ends and N-2 full cells of width dv in between, so that the speeds
0, dv, 2*dv, ..., v_max are cell centers (the end speeds sit a quarter-cell
inside their half cells).  A binary interaction maps a candidate speed in
cell h and a field speed in cell k to a distribution over output cells j;
collecting those probabilities gives N matrices A^j whose entries are
nonnegative and sum to 1 over j for every (h, k) pair.

Braking and keep-speed terms are identical for both kernels and contribute
(1 - P) to every (h, k) pair.  Acceleration contributes weight P spread
over candidate rows only (field-independent): the weight matrix W, with
W[j, h] the acceleration probability mass sent from candidate cell h to
output cell j.  Acceleration never lowers the speed and raises it by at
most ceil(r) cells, so W is lower-banded with bandwidth b <= ceil(r).
Both kernels' bands come from one assembler and one `landing` per grid,
which takes the column of every candidate cell h at once and returns the
output cells j and the share of h landing in each: an interval overlap
on int64 edges, exact in float64, for the jump kernel (two shares per
candidate), a closed-form window integral for the spread kernel (r + 1
shares per candidate, exact up to the division by r and one logarithm
per candidate).  The shares do not depend on P.  So one cache entry per
(kernel, N, r), kept for the 8 grids used last, holds the P-free band
(the band at P = 1), read-only and checked once, when it enters the
cache, and the plan of a forward sweep over its rows (`_plan_sweep`),
which the band chain and the steady-state solve share.  At N=1001, r=100
a spread-kernel entry is 0.8 MB of band and 0.15 MB of plan; a jump band
at r=1000/3 is 2.7 MB.  A build at any P is then one product, P times
the P-free band, and a sweep takes P into its row scale: a diagram or a
march at a new density on a cached grid lands and plans nothing.
Only the band, an (N, b + 1) array, is stored; the band plus P is the
whole tensor: the right-hand side takes W @ f from it, in O(N * b) by
one vecdot over the band, or in O(N + b) on a wide jump-kernel band,
whose rows below the top one hold at most two weights on fixed diagonals
and take one slice product per diagonal; stochasticity reduces to every
column of W summing to P; and the dense (N, N) matrix is derived on
demand, for inspection and dense references: no solver reads it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .params import ConfigurationError, Kernel, ModelParams

__all__ = [
    "VelocityGrid",
    "GridRatio",
    "InteractionTensor",
    "StochasticityReport",
    "build_grid",
    "build_delta_tensor_integer",
    "build_delta_tensor_generic",
    "build_chi_tensor",
    "build_tensor",
    "verify_stochasticity",
]

# Largest deviation of an acceleration column sum from P that
# verify_stochasticity passes
STOCHASTICITY_TOL = 1e-12
# Most rows per block of a forward sweep over the band, see _plan_sweep:
# one vecdot per block for the cells below it, Python float arithmetic per
# row.  Numpy's per-call cost swings with the shared machine's speed far
# more than the benchmark's yardstick does: across processes (2-core Xeon,
# one BLAS thread, N=401, r=100) a numpy dot per row took 2.1 times the
# yardstick's change in log time, blocks of 32 take 1.4 and a plain Python
# loop 1.1.  Blocks of 64 took 32 % more time on the spread kernel, whose
# top rows keep per-cell deviations; blocks of 16 take twice the vecdots.
SOLVE_BLOCK = 32

# Blocks (s, e, rows, weights) of a forward sweep over band rows s .. e - 1,
# see _plan_sweep
SweepPlan = tuple[tuple[int, int, np.ndarray, tuple[tuple[float, tuple[float, ...]], ...]], ...]


@dataclass(frozen=True)
class VelocityGrid:
    """Partition of [0, v_max] into N velocity cells.

    Cell j (1-based) spans [(j - 3/2) dv, (j - 1/2) dv] clipped to the
    range, so cells 1 and N have width dv/2 and centers dv/4 and
    v_max - dv/4; interior centers are (j - 1) dv.
    """

    n_cells: int
    v_max: float

    def __post_init__(self):
        if not isinstance(self.n_cells, numbers.Integral) or self.n_cells < 2:
            raise ConfigurationError(
                f"grid needs a whole number of at least 2 cells; got {self.n_cells!r}"
            )
        if not 0.0 < self.v_max < math.inf:  # NaN too
            raise ConfigurationError(f"v_max must be positive and finite; got {self.v_max!r}")

    @property
    def dv(self) -> float:
        return self.v_max / (self.n_cells - 1)

    @property
    def centers(self) -> np.ndarray:
        dv = self.dv
        c = np.arange(self.n_cells, dtype=float) * dv
        c[0] = 0.25 * dv
        c[-1] = self.v_max - 0.25 * dv
        return c

    @property
    def widths(self) -> np.ndarray:
        w = np.full(self.n_cells, self.dv)
        w[0] = w[-1] = 0.5 * self.dv
        return w


@dataclass(frozen=True)
class GridRatio:
    """Ratio r = delta_v / dv between the speed jump and the cell width.

    Carried as an exact Fraction so that the jump-kernel builder can put
    every cell edge and the jump on one integer scale, with no
    floating-point tie hazards at half-integer r.  Integers and
    Fractions are taken as they are; a float must be a rational within
    1e-9 relative of a fraction with denominator at most 10**9.
    """

    fraction: Fraction

    def __post_init__(self):
        r = self.fraction
        if isinstance(r, numbers.Rational):
            frac = Fraction(r)
        elif isinstance(r, numbers.Real) and math.isfinite(r):
            frac = Fraction(r).limit_denominator(10**9)
            if abs(float(frac) - r) > 1e-9 * max(1.0, abs(r)):
                raise ConfigurationError(f"grid ratio {r!r} is not a usable rational")
        else:
            raise ConfigurationError(f"grid ratio {r!r} is not a finite real number")
        if frac <= 0:
            raise ConfigurationError("grid ratio r must be positive")
        object.__setattr__(self, "fraction", frac)

    @property
    def r(self) -> float:
        return float(self.fraction)

    @property
    def is_integer(self) -> bool:
        return self.fraction.denominator == 1


@dataclass(frozen=True)
class StochasticityReport:
    """Worst deviation of an acceleration column sum from P.

    Braking adds exactly 1 - P to every (h, k) pair, so the deviation from
    one depends only on the candidate cell h; worst_cell is 1-based.
    """

    max_deviation: float
    worst_cell: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


@dataclass(frozen=True)
class InteractionTensor:
    """The N interaction matrices of one kernel at one braking level.

    Entry (h, k) of matrix j is the probability that a candidate in cell h
    meeting a field vehicle in cell k leaves the interaction in cell j.
    Matrix j decomposes as a braking/keep-speed part, identical for both
    kernels -- weight (1 - p) on entry (j, j), on row j for columns k > j,
    and on column j for rows h > j -- plus a field-independent acceleration
    part: weight accel[j, h] on every entry of row h.  The band and p are
    all that is stored; no (N, N, N) array is ever built.

    The acceleration weights (P baked in) are stored as `band`, an
    (N, b + 1) array holding row j of accel over columns j - b .. j:
    band[j, k] = accel[j, j - b + k] (0-based), so column b - d is the d-th
    lower diagonal.  Entries left of column 0 are zero.  `collision_rhs`
    applies the weights from the band; `accel` is the dense (N, N) matrix,
    built from the band on first use, which no solver reads.  The
    constructor requires 0 <= p <= 1 and a finite, nonnegative band, the
    assumptions of the column-sum check in `verify_stochasticity`, and keeps
    a float copy of the band, so the caller's array stays writable; it plans
    the band's sweep on first use.  The builders check p and take their
    band as p times their grid's cached P-free band, which was checked
    once, when it entered the cache, so a build copies and rescans nothing.
    Both stored arrays are read-only.
    """

    kernel: Kernel
    p: float
    grid: VelocityGrid
    band: np.ndarray

    def __post_init__(self):
        _check_probability(self.p)
        band = np.array(self.band, dtype=float)
        _check_band(band, self.grid.n_cells)
        band.setflags(write=False)
        object.__setattr__(self, "band", band)

    @classmethod
    def _scaled(cls, kernel: Kernel, p: float, grid: VelocityGrid, band: np.ndarray,
                plan: SweepPlan) -> "InteractionTensor":
        """The tensor whose read-only band is p times a P-free band from the
        landing cache, with that band's cached sweep plan at factor p.  The
        P-free band was checked when it entered the cache and p by the
        builder, so nothing is copied or rescanned here."""
        tensor = object.__new__(cls)
        for name, value in (("kernel", kernel), ("p", p), ("grid", grid), ("band", band)):
            object.__setattr__(tensor, name, value)
        object.__setattr__(tensor, "_sweep", (plan, p))
        return tensor

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @property
    def bandwidth(self) -> int:
        """Largest number of cells an acceleration can move a candidate up."""
        return self.band.shape[1] - 1

    @cached_property
    def accel(self) -> np.ndarray:
        """Dense (N, N) acceleration weights, [j-1, h-1], derived from the band.

        For inspection and dense references; no solver reads it.
        """
        n, b = self.n_cells, self.bandwidth
        rows, cols = np.nonzero(self.band)
        dense = np.zeros((n, n))
        dense[rows, rows - b + cols] = self.band[rows, cols]
        dense.setflags(write=False)
        return dense

    @cached_property
    def _sweep(self) -> tuple[SweepPlan, float]:
        """The sweep plan of this band's rows and the factor its weights take:
        the band's own plan at factor 1.  A builder's tensor instead carries
        the cached plan of its grid's P-free band at factor p."""
        return _plan_sweep(self.band), 1.0


def build_grid(params: ModelParams, r: Union[int, float, Fraction]) -> tuple[VelocityGrid, GridRatio]:
    """Velocity grid with N = r*T + 1 cells plus the exact grid ratio.

    T = v_max/delta_v comes from the parameters; r may be fractional as
    long as r*T is an integer (so the last cell edge lands on v_max).
    """
    ratio = GridRatio(r)
    t = params.n_jumps
    n_minus_1 = ratio.fraction * t
    if n_minus_1.denominator != 1:
        raise ConfigurationError(
            f"r*T = {ratio.fraction} * {t} is not an integer; no such grid"
        )
    return VelocityGrid(n_cells=int(n_minus_1) + 1, v_max=params.v_max), ratio


def _check_probability(p: float):
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"probability P={p!r} outside [0, 1]")


def _check_band(band: np.ndarray, n: int):
    """Refuse an acceleration band that does not fit n cells, has a negative
    or non-finite weight, or puts weight left of the first cell."""
    if band.ndim != 2 or band.shape[0] != n or not 1 <= band.shape[1] <= n:
        raise ConfigurationError(
            f"acceleration band of shape {band.shape} does not fit {n} cells"
        )
    if not np.isfinite(band).all() or np.any(band < 0.0):
        raise ConfigurationError("acceleration band has a negative or non-finite weight")
    rows, cols = np.nonzero(band)
    if np.any(rows + cols < band.shape[1] - 1):
        raise ConfigurationError("acceleration band has weight left of the first cell")


def build_delta_tensor_integer(grid: VelocityGrid, ratio: GridRatio, p: float) -> InteractionTensor:
    """Jump-kernel tensor for an integer grid ratio.

    A candidate in cell h accelerates to cell h + r, except that every cell
    within r of the top saturates into cell N.  The integer-ratio entry
    point of `build_delta_tensor_generic`, which builds the tensor.
    """
    if not ratio.is_integer:
        raise ConfigurationError("integer-ratio builder called with fractional r")
    return build_delta_tensor_generic(grid, ratio, p)


def build_delta_tensor_generic(grid: VelocityGrid, ratio: GridRatio, p: float) -> InteractionTensor:
    """Jump-kernel tensor for any rational grid ratio r >= 1.

    The image of candidate cell h under v -> v + delta_v is as wide as the
    cell, so it meets at most cells h + ceil(r) - 1 and h + ceil(r); all of
    it past the top cell's lower edge saturates into cell N.  Each weight
    is the overlap of the image with its output cell over the width of cell
    h.  With r = k/q every cell edge and the jump are whole multiples of
    dv/(2q).  A ratio with q > N - 1 fits no N-cell grid (r*T = N - 1 needs
    q to divide T) and is refused; below it every edge is under 4 N^2 such
    units, so each weight is one ratio of int64 integers that float64 holds
    exactly (for N below 4.7e7), and the division rounds correctly (no tie
    cases at half-integer r).  For whole r all of it goes to h + r.  The bandwidth
    is ceil(r); every candidate lands at once, in O(N) work, once per grid.
    """
    _check_probability(p)
    rf = ratio.fraction
    if rf < 1:
        raise ConfigurationError(
            "generic-ratio builder requires r >= 1 (jump at least one cell wide)"
        )
    n = grid.n_cells
    if rf > n - 1:
        raise ConfigurationError(f"jump spans {float(rf):g} cells but the grid has only {n}")
    if rf.denominator > n - 1:
        raise ConfigurationError(
            f"grid ratio {rf} fits no {n}-cell grid: its denominator exceeds {n - 1}"
        )
    return _assemble(Kernel.DELTA, grid, rf, p)


def _jump_landing(n: int, rf: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """Output cells and shares of every jump-kernel candidate cell, on int64
    edges in units of dv/(2q) (see `build_delta_tensor_generic`)."""
    q, jump, cr = rf.denominator, 2 * rf.numerator, math.ceil(rf)
    h = np.arange(1, n + 1)[:, None]

    # upper edge of cell j in units of dv/(2q); cell 0's is 0
    def edge(j: np.ndarray) -> np.ndarray:
        return np.clip(2 * j - 1, 0, 2 * n - 2) * q

    lo, hi = edge(h - 1) + jump, edge(h) + jump  # the image of cell h
    # cells h + cr - 1 and h + cr, or N and one past it once all saturates
    j = np.minimum(h + cr - 1, n) + np.arange(2)
    top = np.where(j == n, hi, np.minimum(hi, edge(j)))  # cell N takes all past its lower edge
    return j, np.maximum(top - np.maximum(lo, edge(j - 1)), 0) / (hi - lo)


def build_chi_tensor(grid: VelocityGrid, ratio: GridRatio, p: float) -> InteractionTensor:
    """Spread-kernel tensor (accelerated speed uniform over the jump window).

    Each weight is the defining kernel integrated exactly over the
    candidate cell, in closed form (units of dv, output cell j = [a, c]).
    For candidate speed x below the saturation speed m - r the output is
    uniform on [x, x + r]; the window's overlap with cell j integrates to
    (Q(x2 + r) - Q(x1 + r) - Q(x2) + Q(x1)) / 2 over [x1, x2], with
    Q(t) = (t - a)_+^2 - (t - c)_+^2.  Every term is a multiple of 1/4, so
    the sum is exact and only the division by r rounds.  Above m - r the
    output is uniform on the shrinking window [x, m], giving one logarithm
    per candidate, L = log((m - x1) / (m - x2)): cells above the
    candidate's own get (c - a) L, its own cell (x2 - x1) - (m - c) L.
    Valid for every integer r >= 1 and any N >= r + 1.  Every candidate
    lands at once, in O(N * r) work, once per grid.
    """
    _check_probability(p)
    if not ratio.is_integer:
        raise ConfigurationError("spread-kernel tensor requires integer r")
    n = grid.n_cells
    r = int(ratio.fraction)
    if not 1 <= r <= n - 1:
        raise ConfigurationError(f"jump of {r} cells incompatible with {n}-cell grid")
    return _assemble(Kernel.CHI, grid, ratio.fraction, p)


def _spread_landing(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Output cells and shares of every spread-kernel candidate cell, in
    closed form (see `build_chi_tensor`)."""
    m = n - 1              # v_max in units of dv
    h = np.arange(1, n + 1)[:, None]

    def edges(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # of cell j in units of dv
        return np.maximum(j - 1.5, 0.0), np.minimum(j - 0.5, m)

    lo, hi = edges(h)
    s = np.clip(m - r, lo, hi)  # candidate speeds above m - r saturate at v_max
    j = h + np.arange(r + 1)    # acceleration never lowers the speed
    a, c = edges(j)

    def quad(t: np.ndarray) -> np.ndarray:
        return np.maximum(t - a, 0.0) ** 2 - np.maximum(t - c, 0.0) ** 2

    below = 0.5 * (quad(s + r) - quad(lo + r) - quad(s) + quad(lo)) / r
    # math.log, not np.log, rounds as the reference builder does
    shrink = np.divide(m - s, m - hi, out=np.ones_like(hi), where=hi < m)
    log = np.reshape([math.log(x) for x in shrink.flat], shrink.shape)
    above = np.where(j == h, (hi - s) - (m - c) * log, (c - a) * log)
    return j, (below + above) / (hi - lo)


def _windows(padded: np.ndarray, width: int) -> np.ndarray:
    """The overlapping view whose row j is padded[j:j + width], for a
    contiguous 1-d padded: the window a band row meets.  No copy, and a
    twentieth of sliding_window_view's cost per call (0.5 against 12 us)."""
    step = padded.itemsize
    return np.ndarray((len(padded) - width + 1, width), padded.dtype, padded, 0, (step, step))


def _plan_sweep(band: np.ndarray) -> SweepPlan:
    """The blocks of a forward sweep over the rows of an (N, b + 1) band.

    A forward sweep gives row j the sum of band row j's weights against the
    b cells below j, all found before row j, then one scalar step: the
    band chain's quadratic root (`banded_equilibrium`) or the implicit
    solve's division (`dynamics._make_implicit_solve`).  The rows go in
    blocks of m = min(SOLVE_BLOCK, b + 1): one vecdot of the block's `rows`,
    band[s:e, :b], against their windows gives every row of the block the
    weights of the cells below the block, and the block's own cells are
    added row by row in Python floats.  Row t of block s .. e - 1 weighs the
    block's cell u < t by band[s + t, b - t + u]; `weights` holds these per
    row as the weight w of cell t - 1 and the deviations from w, or no
    deviations when they are all 0: the spread kernel's and the jump
    kernel's rows below the top weigh every cell of a block alike.  A row
    sums w times the running sum of the block's cells plus the deviations'
    products.  With m <= b + 1 every earlier cell of a block lies inside
    the row's band window; a longer block would count a cell outside it as
    w minus w, which rounding does not cancel.  A sweep scales every weight
    by one factor, so a grid's P-free band plans the sweep at every P.
    """
    n, width = band.shape
    b = width - 1
    m = min(SOLVE_BLOCK, width)
    blocks = -(-n // m)
    lower = np.zeros((blocks * m, b))  # band[:, :b], then zero rows to whole blocks
    lower[:n] = band[:, :b]
    t, u = np.tril_indices(m, -1)
    tri = np.zeros((blocks, m, m))
    tri[:, t, u] = lower[np.arange(0, blocks * m, m)[:, None] + t, b - t + u]
    near = np.zeros((blocks, m))
    near[:, 1:] = tri[:, np.arange(1, m), np.arange(m - 1)]
    rest = np.zeros((blocks, m, m))
    rest[:, t, u] = tri[:, t, u] - near[:, t]
    kk, tt = np.nonzero(rest.any(axis=2))
    deviations = {(k, t): tuple(row[:t])
                  for k, t, row in zip(kk.tolist(), tt.tolist(), rest[kk, tt].tolist())}
    plan = []
    for k, (s, near_k) in enumerate(zip(range(0, n, m), near.tolist())):
        e = min(s + m, n)
        weights = tuple((w, deviations.get((k, t), ())) for t, w in enumerate(near_k[:e - s]))
        plan.append((s, e, band[s:e, :b], weights))
    return tuple(plan)


# 8 grids cover every benchmark workload: fd-sweep uses 2, refined-solve 4,
# cli-runs 5.  At N=1001, r=100 a spread-kernel entry holds an 0.8 MB band
# and a 0.15 MB plan.
@lru_cache(maxsize=8)
def _landing(kernel: Kernel, n: int, rf: Fraction) -> tuple[np.ndarray, SweepPlan]:
    """The P-free band of this kernel and grid, the band at P = 1, read-only,
    and its sweep plan: the part of every band that does not depend on P.

    The band's columns come from the output cells j and shares of every
    candidate cell h = 1 .. N; output cells past N get rows of their own,
    which are dropped.  The band is checked here, once per grid, as the
    constructor checks a band from outside: finite, non-negative and inside
    the band.
    """
    if kernel is Kernel.CHI:
        j, share = _spread_landing(n, int(rf))
    else:
        j, share = _jump_landing(n, rf)
    cr = math.ceil(rf)
    h = np.arange(1, n + 1)[:, None]
    band = np.zeros((j.max(), cr + 1))  # column cr - d is the d-th lower diagonal
    band[j - 1, cr - (j - h)] = share
    band = band[:n]
    _check_band(band, n)
    band.setflags(write=False)
    return band, _plan_sweep(band)


def _assemble(kernel: Kernel, grid: VelocityGrid, rf: Fraction, p: float) -> InteractionTensor:
    """Band of bandwidth ceil(r) at braking level p: p times the cached
    P-free band of this kernel, grid and ratio, with its cached sweep plan."""
    free, plan = _landing(kernel, grid.n_cells, rf)
    band = p * free
    band.setflags(write=False)
    return InteractionTensor._scaled(kernel, p, grid, band, plan)


def build_tensor(kernel: Kernel, grid: VelocityGrid, ratio: GridRatio, p: float) -> InteractionTensor:
    """Tensor of either kernel on this grid at braking level p.

    One builder per kernel; the jump-kernel builder takes every ratio.
    """
    if kernel is Kernel.CHI:
        return build_chi_tensor(grid, ratio, p)
    return build_delta_tensor_generic(grid, ratio, p)


def verify_stochasticity(tensor: InteractionTensor) -> StochasticityReport:
    """Check that the matrices sum to one over the output index.

    Braking and keep-speed put exactly 1 - p on every (h, k) pair, so the
    tensor is stochastic when every candidate column of the acceleration
    weights sums to p.  The column sums are taken from the band, one
    diagonal at a time: O(N * b) work and no N x N array.
    """
    n, b = tensor.n_cells, tensor.bandwidth
    # band[j, k] sits in column j - b + k, summed into sums[j + k]
    sums = np.zeros(n + b)
    for k in range(b + 1):
        sums[k:k + n] += tensor.band[:, k]
    dev = np.abs(sums[b:] - tensor.p)
    h = int(np.argmax(dev))
    return StochasticityReport(
        max_deviation=float(dev[h]), worst_cell=h + 1, tol=STOCHASTICITY_TOL
    )
