"""Closed-form equilibria of the jump-kernel model and support diagnostics.

For the kernel that jumps a full speed step, the long-time state is known
in closed form: all mass rides at top speed when the passing probability
p is at least one half; otherwise the masses of the occupied speed
classes obey a chain of quadratics solved class by class from the bottom.
These functions evaluate that closed form (the analytic oracle the ODE
solver is tested against), lay it onto a velocity grid, and check whether
an arbitrary grid state is supported on a quantized speed ladder.  The
same chain, solved cell by cell from an interaction tensor's acceleration
band, gives the grid steady state of either kernel without a time march
(`banded_equilibrium`); begun above a start's empty bottom cells, it is
the shifted (unstable) branch.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dynamics import NEGATIVITY_TOL, CellMassVector, NumericalError
from .matrices import InteractionTensor, VelocityGrid, _check_probability, _windows
from .params import (
    ConfigurationError,
    Kernel,
    ModelParams,
    ProbabilityLaw,
    evaluate_probability,
)

__all__ = [
    "QuantizedEquilibrium",
    "SupportCluster",
    "SupportReport",
    "banded_equilibrium",
    "closed_form_equilibrium",
    "closed_form_on_grid",
    "equilibrium_on_grid",
    "reference_equilibrium",
    "verify_quantized_support",
]

MASS_TOL = 1e-12


@dataclass(frozen=True)
class QuantizedEquilibrium:
    """Masses of the speed classes l = 1..T+1 at speeds (l-1)*v_max/T."""

    masses: np.ndarray
    rho: float
    p: float

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).copy()
        if m.ndim != 1 or m.size < 2:
            raise ConfigurationError("need at least two speed classes")
        _check_class_masses(m[None], np.array([self.rho], dtype=float))
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def n_jumps(self) -> int:
        return self.masses.size - 1

    def speeds(self, v_max: float = 1.0) -> np.ndarray:
        return _limit_speeds(self.n_jumps, v_max)


def _limit_speeds(n_jumps: int, v_max: float) -> np.ndarray:
    """Speeds (l-1)*v_max/T of the classes l = 1..T+1, where the classes
    sit in the limit r -> inf."""
    return np.arange(n_jumps + 1) * (v_max / n_jumps)


def _check_class_masses(masses: np.ndarray, rho: np.ndarray):
    """Refuse a row of class masses (B, T + 1) below the -1e-12 floor (NaN
    too) or not summing to its density rho (B,) within 1e-12, both scaled
    by max(rho, 1); set the masses within the floor to 0, in place.  The
    first row refused is named."""
    tol = MASS_TOL * np.maximum(rho, 1.0)
    low = masses.min(axis=1)
    masses[masses < 0.0] = 0.0
    sums = masses.sum(axis=1)
    ok = (low >= -tol) & (np.abs(sums - rho) <= tol)
    if not ok.all():
        i = int(np.argmin(ok))
        if not low[i] >= -tol[i]:
            raise NumericalError(
                f"negative class mass {low[i]:.3e} at density {float(rho[i])!r}"
            )
        raise NumericalError(
            f"class masses sum to {float(sums[i])!r}, expected {float(rho[i])!r}"
        )


def _check_density(rho: float):
    if not (math.isfinite(rho) and rho > 0.0):
        raise ConfigurationError(f"density must be finite and positive, got {rho!r}")


def closed_form_equilibrium(rho: float, p: float, n_jumps: int) -> QuantizedEquilibrium:
    """Stable long-time class masses for given density and probability.

    p >= 1/2 puts everything in the top class.  Below one half, class 1
    carries rho*(1-2p)/(1-p) and each following class solves

        -(1-p) f^2 + b f + c = 0,
        b = (1-2p)*rho - 2(1-p)*(mass below),  c = p*rho*(previous class),

    taking the positive root.  b stays strictly negative along the chain
    (the other root of each quadratic is negative); the quadratic is
    evaluated via the negative root and the root product so that the tiny
    positive root survives cancellation.  The top class closes the mass
    balance exactly.  The one-row case of `_closed_form_masses`, which
    runs the chain for every density of a diagram at once.
    """
    _check_density(rho)
    _check_probability(p)
    if n_jumps < 1:
        raise ConfigurationError("need at least one speed jump")
    masses = _closed_form_masses(np.array([rho], dtype=float), np.array([p], dtype=float),
                                 n_jumps)
    return QuantizedEquilibrium(masses=masses[0], rho=rho, p=p)


def _closed_form_masses(rho: np.ndarray, p: np.ndarray, n_jumps: int) -> np.ndarray:
    """Closed-form class masses (B, T + 1) at densities rho and acceleration
    probabilities p, each (B,).

    The chain of `closed_form_equilibrium` runs once over the rows with
    p < 1/2, class by class, in the scalar chain's order of operations, so
    each row gets the bits it gets alone.  A linear coefficient that is not
    negative, or a top class below -1e-12 rho, is a fault of its row; the
    chain runs to its end and raises NumericalError for the first density
    in input order with a fault, naming it.  float64 reaches both faults
    only at densities whose products leave the normal range (about 1e-160
    and below).  The masses are not checked as `QuantizedEquilibrium`
    checks them: each caller runs that check once, through the class or
    `_check_class_masses`.
    """
    masses = np.zeros((rho.size, n_jumps + 1))
    masses[:, -1] = rho  # p >= 1/2: all of it in the top class
    free = np.flatnonzero(p < 0.5)
    if free.size:
        r, q = rho[free], p[free]
        a = 1.0 - q
        two_a, four_a, qr = 2.0 * a, 4.0 * a, q * r
        lin = (1.0 - 2.0 * q) * r
        m = masses[free]
        prev = lin / a
        m[:, 0] = prev
        below = prev.copy()
        faults = {}  # row of r -> its first fault
        for l in range(1, n_jumps):
            b = lin - two_a * below
            lost = b >= 0.0
            if lost.any():
                for i in np.flatnonzero(lost).tolist():
                    faults.setdefault(i, (
                        f"class {l + 1}: linear coefficient {b[i]:.3e} lost its sign at "
                        f"density {float(r[i])!r}, where float64 rounds the chain's "
                        "products to 0"
                    ))
                b[lost] = -1.0  # so a faulted row runs on without 0/0
            c = qr * prev
            # the positive root via the negative one and the root product, so
            # that a tiny root survives cancellation
            root = np.sqrt(b * b + four_a * c)
            prev = -c / (a * ((b - root) / two_a))
            m[:, l] = prev
            below += prev
        top = r - below
        for i in np.flatnonzero(top < -MASS_TOL * r).tolist():
            faults.setdefault(
                i, f"top class mass {top[i]:.3e} went negative at density {float(r[i])!r}"
            )
        if faults:
            raise NumericalError(faults[min(faults)])
        m[:, -1] = np.maximum(top, 0.0)
        masses[free] = m
    return masses


def banded_equilibrium(tensor: InteractionTensor, rho: float, empty: int = 0) -> CellMassVector:
    """Steady state of total mass rho, solved cell by cell from the band.

    Acceleration only raises a speed and braking only lowers one, so at a
    fixed point equation j involves cells 1..j alone:

        -(1-P) f_j^2 + b_j f_j + c_j = 0,
        b_j = (1-2P) rho - 2(1-P) C_j + rho W_jj,  c_j = rho sum_{i<j} W_ji f_i,

    with C_j the mass below cell j.  Cells 1..N-1 are solved in turn and
    the top cell closes the mass balance, in O(N b): a forward sweep on the
    tensor's sweep plan (see `matrices._plan_sweep`), which a builder's
    tensor shares with every density on its grid and with the steady-state
    solve.  The plan sums the P-free weights, and P joins the row scale,
    rho P, so no plan is made here.
    With c_j > 0 the positive root is taken (via the other root and the
    root product when b_j < 0, so that a tiny root survives cancellation);
    with c_j = 0 the root max(b_j/(1-P), 0), which never starts a state
    with empty low cells when they can hold mass.  That is the branch a
    march from a state occupying every cell ends on.  Braking into cell k
    goes at a rate proportional to f_k, so cells 1..`empty` (0 <= empty < N)
    stay empty, and the chain starts at cell empty + 1.  At P = 1 the
    equations are linear and, from c_1 = 0 on, leave every cell but the
    top one empty.  Raises NumericalError if the top cell's closing mass
    falls below the -1e-12 negativity floor.
    """
    _check_density(rho)
    n, b = tensor.n_cells, tensor.bandwidth
    if not 0 <= empty < n:
        raise ConfigurationError(f"empty prefix {empty!r} outside [0, {n - 1}]")
    plan, factor = tensor._sweep
    a = 1.0 - tensor.p
    two_a, four_a = 2.0 * a, 4.0 * a
    lin = (1.0 - 2.0 * tensor.p) * rho
    scale = rho * factor
    self_weights = tensor.band[:, b].tolist()
    f = np.zeros(b + n)  # cell j at f[b + j], after b zeros for the band window
    windows = _windows(f, b)
    mul, sqrt = operator.mul, math.sqrt
    below = 0.0
    for s, e, rows, weights in plan:
        if e <= empty:
            continue
        # the block's own cells are still 0 in f, and every cell below a
        # block that starts in the empty prefix
        outside = np.vecdot(rows, windows[s:e]).tolist() if s > empty else [0.0] * (e - s)
        xs: list[float] = []
        inside = 0.0  # the sum of xs
        for j, out_j, (w_j, rest_j), self_j in zip(
            range(s, n - 1), outside, weights, self_weights[s:e]
        ):
            if j < empty:
                x = 0.0
            else:
                if rest_j:
                    out_j += sum(map(mul, rest_j, xs))
                c = scale * (out_j + w_j * inside)
                bj = lin - two_a * below + rho * self_j
                if c > 0.0:  # so P < 1: at P = 1 every c_j is 0
                    root = sqrt(bj * bj + four_a * c)
                    # for b_j < 0 via the negative root and the root product
                    x = (-c / (a * ((bj - root) / two_a)) if bj < 0.0
                         else (bj + root) / two_a)
                else:
                    # roots 0 and b_j/(1-P); at P = 1 the equation is linear
                    x = max(bj / a, 0.0) if a > 0.0 else 0.0
            xs.append(x)
            inside += x
            below += x
        f[b + s:b + s + len(xs)] = xs
    top = rho - below
    if top < NEGATIVITY_TOL:
        raise NumericalError(f"top cell mass {top:.3e} went negative")
    if math.isnan(top):  # the roots overflowed: every x is >= 0, so below is NaN
        raise ConfigurationError(f"state has non-finite cell masses at density {rho!r}")
    f[-1] = max(top, 0.0)
    return CellMassVector._trusted(f[b:], tensor.grid)


def equilibrium_on_grid(
    eq: QuantizedEquilibrium, cells_per_jump: int, grid: VelocityGrid
) -> CellMassVector:
    """Place class l in grid cell (l-1)*cells_per_jump + 1, zero elsewhere."""
    r = int(cells_per_jump)
    if r != cells_per_jump or r < 1:
        raise ConfigurationError("cells_per_jump must be a positive integer")
    n = r * eq.n_jumps + 1
    if grid.n_cells != n:
        raise ConfigurationError(
            f"grid has {grid.n_cells} cells; the {eq.n_jumps + 1}-class "
            f"equilibrium at ratio {r} needs {n}"
        )
    f = np.zeros(n)
    f[np.arange(eq.n_jumps + 1) * r] = eq.masses
    return CellMassVector(f, grid)


def closed_form_on_grid(
    params: ModelParams,
    law: ProbabilityLaw,
    rho: float,
    ratio: Fraction,
    grid: VelocityGrid,
) -> Optional[CellMassVector]:
    """The closed-form equilibrium at density rho on a grid of exact
    cells-per-jump ratio `ratio`, or None where it has no place there: the
    spread kernel has no closed form, and on a non-integer-ratio grid the
    class masses fall between cells.  A start must fill cell 1 to end on it."""
    if params.kernel is not Kernel.DELTA or ratio.denominator != 1:
        return None
    p = evaluate_probability(law, rho, params)
    eq = closed_form_equilibrium(rho, p, params.n_jumps)
    return equilibrium_on_grid(eq, int(ratio), grid)


def reference_equilibrium(
    params: ModelParams, law: ProbabilityLaw, rho: float, ratio: Fraction,
    tensor: InteractionTensor, f0: np.ndarray,
) -> CellMassVector:
    """The steady state the start f0 ends on at density rho, unmarched: the
    empty state for an empty road, the closed form where one exists for a
    start that fills cell 1, else the band chain above f0's empty cells."""
    occupied = np.flatnonzero(np.asarray(f0) > 0.0)
    if occupied.size == 0:
        return CellMassVector(np.zeros(tensor.n_cells), tensor.grid)
    empty = int(occupied[0])
    closed = None if empty else closed_form_on_grid(params, law, rho, ratio, tensor.grid)
    return banded_equilibrium(tensor, rho, empty) if closed is None else closed


@dataclass(frozen=True)
class SupportCluster:
    """A contiguous run of cells whose masses exceed the threshold."""

    first_cell: int  # 1-based
    last_cell: int
    mass: float
    center: float
    nearest_level: float
    offset: float


@dataclass(frozen=True)
class SupportReport:
    passed: bool
    clusters: tuple[SupportCluster, ...]
    stray_mass: float
    tol_mass: float
    tol_loc: float


def verify_quantized_support(
    f: CellMassVector,
    delta_v: float,
    tol_mass: float,
    tol_loc: float,
) -> SupportReport:
    """Check that the state is concentrated near multiples of delta_v.

    Cells with mass above tol_mass are grouped into contiguous clusters;
    each cluster's mass-weighted center must lie within tol_loc of a
    multiple of delta_v, and the total mass of all sub-threshold cells
    must not exceed tol_mass.  Diagnostic only: never raises on failure.
    """
    masses = f.masses
    centers = f.grid.centers
    if delta_v <= 0 or tol_mass < 0 or tol_loc < 0:
        raise ConfigurationError("delta_v positive and tolerances non-negative")

    above = masses > tol_mass
    clusters = []
    i = 0
    n = masses.size
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        block = slice(i, j + 1)
        mass = float(masses[block].sum())
        center = float((masses[block] * centers[block]).sum() / mass)
        level = round(center / delta_v) * delta_v
        clusters.append(
            SupportCluster(
                first_cell=i + 1,
                last_cell=j + 1,
                mass=mass,
                center=center,
                nearest_level=level,
                offset=abs(center - level),
            )
        )
        i = j + 1
    stray = float(masses[~above].sum())
    passed = stray <= tol_mass and all(c.offset <= tol_loc for c in clusters)
    return SupportReport(
        passed=passed,
        clusters=tuple(clusters),
        stray_mass=stray,
        tol_mass=tol_mass,
        tol_loc=tol_loc,
    )
