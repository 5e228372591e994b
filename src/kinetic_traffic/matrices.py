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
Both kernels' bands come from one assembler, given the share of each
candidate cell h that lands in output cell j: an exact interval overlap
for the jump kernel, an exact window integral for the spread kernel.
Only the band, an (N, b + 1) array, is stored; the band plus P is the
whole tensor: the RK4 right-hand side takes W @ f from it, in O(N * b) by
one vecdot over the band, or in O(N + b) on a wide jump-kernel band,
whose rows below the top one hold at most two weights on fixed diagonals
and take one slice product per diagonal; stochasticity reduces to every
column of W summing to P; and the dense (N, N) matrix is derived on
demand for the steady-state solver.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Union

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
        if self.n_cells < 2:
            raise ConfigurationError("grid needs at least 2 cells")
        if self.v_max <= 0:
            raise ConfigurationError("v_max must be positive")

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
    built from the band on first use for the steady-state solver.  The
    constructor requires 0 <= p <= 1 and a finite, nonnegative band, the
    assumptions of the column-sum check in `verify_stochasticity`, and keeps
    a float copy of the band, so the caller's array stays writable.  Both
    stored arrays are read-only.
    """

    kernel: Kernel
    p: float
    grid: VelocityGrid
    band: np.ndarray

    def __post_init__(self):
        _check_probability(self.p)
        n = self.grid.n_cells
        band = np.array(self.band, dtype=float)
        if band.ndim != 2 or band.shape[0] != n or not 1 <= band.shape[1] <= n:
            raise ConfigurationError(
                f"acceleration band of shape {band.shape} does not fit {n} cells"
            )
        if not np.isfinite(band).all() or np.any(band < 0.0):
            raise ConfigurationError("acceleration band has a negative or non-finite weight")
        rows, cols = np.nonzero(band)
        if np.any(rows + cols < band.shape[1] - 1):
            raise ConfigurationError("acceleration band has weight left of the first cell")
        band.setflags(write=False)
        object.__setattr__(self, "band", band)

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @property
    def bandwidth(self) -> int:
        """Largest number of cells an acceleration can move a candidate up."""
        return self.band.shape[1] - 1

    @cached_property
    def accel(self) -> np.ndarray:
        """Dense (N, N) acceleration weights, [j-1, h-1], derived from the band."""
        n, b = self.n_cells, self.bandwidth
        rows, cols = np.nonzero(self.band)
        dense = np.zeros((n, n))
        dense[rows, rows - b + cols] = self.band[rows, cols]
        dense.setflags(write=False)
        return dense


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
    dv/(2q), so each weight is one ratio of integers, which Python's true
    division rounds correctly (no tie cases at half-integer r).  For whole
    r all of it goes to h + r.  The bandwidth is ceil(r).
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
    cr = math.ceil(rf)
    q, jump = rf.denominator, 2 * rf.numerator

    def edge(j: int) -> int:  # upper edge of cell j in units of dv/(2q); cell 0's is 0
        return min(max(2 * j - 1, 0), 2 * n - 2) * q

    def landing(h: int) -> list[tuple[int, float]]:
        lo, hi = edge(h - 1) + jump, edge(h) + jump  # the image of cell h
        pairs = []
        for j in range(min(h + cr - 1, n), min(h + cr, n) + 1):
            top = hi if j == n else min(hi, edge(j))  # cell N takes all past its lower edge
            pairs.append((j, max(0, top - max(lo, edge(j - 1))) / (hi - lo)))
        return pairs

    return _assemble(Kernel.DELTA, grid, cr, p, landing)


def build_chi_tensor(grid: VelocityGrid, ratio: GridRatio, p: float) -> InteractionTensor:
    """Spread-kernel tensor (accelerated speed uniform over the jump window).

    Derived by integrating the defining kernel exactly over each candidate
    cell: for candidate speed x below v_max - delta_v the output is uniform
    on [x, x + delta_v] (overlap of that window with cell j is piecewise
    linear in x, integrated as exact trapezoids); above it the output is
    uniform on the shrinking window [x, v_max], giving logarithmic weights.
    Valid for every integer r >= 1 and any N >= r + 1, including grids too
    small for the saturated and unsaturated index ranges to stay disjoint.
    Costs O(N*r + r^2): only the bottom cell and the top r + 1 cells are
    integrated one output cell at a time.
    """
    _check_probability(p)
    if not ratio.is_integer:
        raise ConfigurationError("spread-kernel tensor requires integer r")
    n = grid.n_cells
    r = int(ratio.fraction)
    if not 1 <= r <= n - 1:
        raise ConfigurationError(f"jump of {r} cells incompatible with {n}-cell grid")
    m = n - 1              # v_max in units of dv

    def landing(h: int) -> list[tuple[int, float]]:
        lo_h, hi_h = _cell_edges(h, m)
        cells = range(h, min(h + r, n) + 1)  # acceleration never lowers the speed
        return [(j, _chi_cell_mass(lo_h, hi_h, j, m, r) / (hi_h - lo_h)) for j in cells]

    return _assemble(Kernel.CHI, grid, r, p, landing)


def _assemble(kernel: Kernel, grid: VelocityGrid, cr: int, p: float,
              landing: Callable[[int], list[tuple[int, float]]]) -> InteractionTensor:
    """Band of bandwidth cr from `landing(h)`, the (output cell, weight)
    pairs of candidate cell h, each weight the share of the cell landing
    there.  Candidate cells 2 .. N-cr-1 are full-width and land below the
    top cell, so their weights depend on j - h alone: candidate 2's weights
    fill the diagonals as one slice each.  Cell 1 and the top cr + 1 cells write
    their own pairs."""
    n = grid.n_cells
    band = np.zeros((n, cr + 1))  # column cr - d is the d-th lower diagonal
    interior_end = n - cr  # one past the last interior candidate
    if interior_end > 2:
        for j, weight in landing(2):
            d = j - 2
            band[1 + d:interior_end - 1 + d, cr - d] = p * weight
    for h in (1, *range(max(interior_end, 2), n + 1)):
        for j, weight in landing(h):
            band[j - 1, cr - (j - h)] = p * weight
    return InteractionTensor(kernel=kernel, p=p, grid=grid, band=band)


def _cell_edges(j: int, m: int) -> tuple[float, float]:
    """Edges of 1-based cell j in units of dv on a grid spanning [0, m]."""
    return (max(j - 1.5, 0.0), min(j - 0.5, float(m)))


def _chi_cell_mass(lo_h: float, hi_h: float, j: int, m: int, r: int) -> float:
    """Spread-kernel mass sent from the candidate cell [lo_h, hi_h] to cell j.

    The chance of landing in cell j, integrated over candidate speeds in
    the cell (units of dv); dividing by its width gives the weight.
    Below the saturation speed m - r every breakpoint is a half-integer, so
    the trapezoid sums are exact and only the final division by r rounds.
    """
    sat = m - r            # candidate speeds above this saturate at v_max
    lo_j, hi_j = _cell_edges(j, m)
    total = 0.0
    # Unsaturated part: window overlap is piecewise linear with
    # breakpoints where the window edge crosses a cell edge.
    a, b = lo_h, min(hi_h, sat)
    if b > a:
        pts = sorted({a, b, *(
            q for q in (lo_j - r, hi_j - r, lo_j, hi_j) if a < q < b
        )})
        part = 0.0
        for x1, x2 in zip(pts, pts[1:]):
            w1 = max(0.0, min(x1 + r, hi_j) - max(x1, lo_j))
            w2 = max(0.0, min(x2 + r, hi_j) - max(x2, lo_j))
            part += 0.5 * (w1 + w2) * (x2 - x1)
        total += part / r
    # Saturated part: output uniform on [x, m], density 1/(m - x).
    a, b = max(lo_h, sat), hi_h
    if b > a:
        pts = sorted({a, b, *(q for q in (lo_j, hi_j) if a < q < b)})
        part = 0.0
        for x1, x2 in zip(pts, pts[1:]):
            if x2 <= lo_j:
                part += (hi_j - lo_j) * math.log((m - x1) / (m - x2))
            elif x1 >= lo_j and x2 <= hi_j:
                part += x2 - x1
                if hi_j < m:
                    part -= (m - hi_j) * math.log((m - x1) / (m - x2))
            # segments beyond hi_j contribute nothing
        total += part
    return total


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
