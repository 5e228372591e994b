"""Closed-form equilibria of the jump-kernel model and support diagnostics.

For the kernel that jumps a full speed step, the long-time state is known
in closed form: all mass rides at top speed when the passing probability
p is at least one half; otherwise the masses of the occupied speed
classes obey a chain of quadratics solved class by class from the bottom.
These functions evaluate that closed form (the analytic oracle the ODE
solver is tested against), lay it onto a velocity grid, build the shifted
unstable branch, and check whether an arbitrary grid state is supported
on a quantized speed ladder.  The same chain, solved cell by cell from an
interaction tensor's acceleration band, gives the grid steady state of
either kernel without a time march (`banded_equilibrium`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dynamics import NEGATIVITY_TOL, CellMassVector, NumericalError
from .matrices import InteractionTensor, VelocityGrid
from .params import ConfigurationError

__all__ = [
    "QuantizedEquilibrium",
    "SupportCluster",
    "SupportReport",
    "banded_equilibrium",
    "closed_form_equilibrium",
    "equilibrium_on_grid",
    "unstable_equilibrium",
    "verify_quantized_support",
]

MASS_TOL = 1e-12


@dataclass(frozen=True)
class QuantizedEquilibrium:
    """Masses of the speed classes l = 1..T+1 at speeds (l-1)*v_max/T.

    discriminants holds, for the p < 1/2 branch, the discriminants of
    the quadratics solved for classes 2..T (the top class closes the
    mass balance instead and has no quadratic of its own).
    """

    masses: np.ndarray
    rho: float
    p: float
    discriminants: tuple[float, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).copy()
        if m.ndim != 1 or m.size < 2:
            raise ConfigurationError("need at least two speed classes")
        scale = max(self.rho, 1.0)
        if m.min() < -MASS_TOL * scale:
            raise NumericalError(f"negative class mass {m.min():.3e}")
        m[m < 0.0] = 0.0
        if abs(m.sum() - self.rho) > MASS_TOL * scale:
            raise NumericalError(
                f"class masses sum to {m.sum()!r}, expected {self.rho!r}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def n_jumps(self) -> int:
        return self.masses.size - 1

    def speeds(self, v_max: float = 1.0) -> np.ndarray:
        return np.arange(self.masses.size) * (v_max / self.n_jumps)


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
    balance exactly.
    """
    if not (0.0 < rho):
        raise ConfigurationError(f"density must be positive, got {rho}")
    if not (0.0 <= p <= 1.0):
        raise ConfigurationError(f"probability {p} outside [0, 1]")
    if n_jumps < 1:
        raise ConfigurationError("need at least one speed jump")
    n_classes = n_jumps + 1
    if p >= 0.5:
        masses = np.zeros(n_classes)
        masses[-1] = rho
        return QuantizedEquilibrium(masses=masses, rho=rho, p=p)

    a = 1.0 - p
    masses = np.zeros(n_classes)
    masses[0] = rho * (1.0 - 2.0 * p) / a
    below = masses[0]
    discs = []
    for l in range(1, n_classes - 1):
        b = (1.0 - 2.0 * p) * rho - 2.0 * a * below
        if b >= 0.0:
            raise NumericalError(
                f"class {l + 1}: linear coefficient {b:.3e} lost its sign; "
                "probability too close to the branch point for float arithmetic"
            )
        c = p * rho * masses[l - 1]
        disc = b * b + 4.0 * a * c
        discs.append(disc)
        if c == 0.0:
            masses[l] = 0.0
        else:
            root_negative = (b - math.sqrt(disc)) / (2.0 * a)
            masses[l] = -c / (a * root_negative)
        below += masses[l]
    top = rho - below
    if top < -MASS_TOL * rho:
        raise NumericalError(f"top class mass {top:.3e} went negative")
    masses[-1] = max(top, 0.0)
    return QuantizedEquilibrium(
        masses=masses, rho=rho, p=p, discriminants=tuple(discs)
    )


def banded_equilibrium(tensor: InteractionTensor, rho: float) -> CellMassVector:
    """Steady state of total mass rho, solved cell by cell from the band.

    Acceleration only raises a speed and braking only lowers one, so at a
    fixed point equation j involves cells 1..j alone:

        -(1-P) f_j^2 + b_j f_j + c_j = 0,
        b_j = (1-2P) rho - 2(1-P) C_j + rho W_jj,  c_j = rho sum_{i<j} W_ji f_i,

    with C_j the mass below cell j.  Cells 1..N-1 are solved in turn and
    the top cell closes the mass balance, in O(N b) from `tensor.band`.
    With c_j > 0 the positive root is taken (via the other root and the
    root product when b_j < 0, so that a tiny root survives cancellation);
    with c_j = 0 the root max(b_j/(1-P), 0), which never starts a state
    with empty low cells when they can hold mass.  That is the branch a
    march from a state occupying every cell ends on.  At P = 1 the
    equations are linear and, from c_1 = 0 on, leave every cell but the
    top one empty.  Raises NumericalError if the top cell's closing mass
    falls below the -1e-12 negativity floor.
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise ConfigurationError(f"density must be finite and positive, got {rho!r}")
    n, b = tensor.n_cells, tensor.bandwidth
    a = 1.0 - tensor.p
    lin = (1.0 - 2.0 * tensor.p) * rho
    lower = tensor.band[:, :b]
    diag = tensor.band[:, b].tolist()
    f = np.zeros(b + n)  # cell j at f[b + j], after b zeros for the band window
    below = 0.0
    for j in range(n - 1):
        c = rho * float(lower[j] @ f[j:j + b])
        bj = lin - 2.0 * a * below + rho * diag[j]
        if c > 0.0:  # so P < 1: at P = 1 every c_j is 0
            root = math.sqrt(bj * bj + 4.0 * a * c)
            if bj < 0.0:
                x = -c / (a * ((bj - root) / (2.0 * a)))
            else:
                x = (bj + root) / (2.0 * a)
        else:
            # roots 0 and b_j/(1-P); at P = 1 the equation is linear
            x = max(bj / a, 0.0) if a > 0.0 else 0.0
        f[b + j] = x
        below += x
    top = rho - below
    if top < NEGATIVITY_TOL:
        raise NumericalError(f"top cell mass {top:.3e} went negative")
    f[-1] = max(top, 0.0)
    return CellMassVector(f[b:], tensor.grid)


def equilibrium_on_grid(
    eq: QuantizedEquilibrium,
    cells_per_jump: int,
    grid: Optional[VelocityGrid] = None,
    v_max: float = 1.0,
) -> CellMassVector:
    """Place class l in grid cell (l-1)*cells_per_jump + 1, zero elsewhere."""
    r = int(cells_per_jump)
    if r != cells_per_jump or r < 1:
        raise ConfigurationError("cells_per_jump must be a positive integer")
    n = r * eq.n_jumps + 1
    if grid is None:
        grid = VelocityGrid(n_cells=n, v_max=v_max)
    elif grid.n_cells != n:
        raise ConfigurationError(
            f"grid has {grid.n_cells} cells; the {eq.n_jumps + 1}-class "
            f"equilibrium at ratio {r} needs {n}"
        )
    f = np.zeros(n)
    f[np.arange(eq.n_jumps + 1) * r] = eq.masses
    return CellMassVector(f, grid)


def unstable_equilibrium(
    rho: float,
    p: float,
    n_jumps: int,
    cells_per_jump: int,
    shift: int,
    v_max: float = 1.0,
) -> CellMassVector:
    """Stable class profile displaced upward by `shift` cells.

    Classes 1..T move to cells (l-1)*r + 1 + shift; the top class stays
    pinned at the last cell (its speed saturates).  On this displaced
    ladder the dynamics reduce to the same class system, so the state is
    an exact fixed point, but any mass seeded below the ladder pulls the
    system away from it.  shift must satisfy 1 <= shift < r: a full-step
    displacement would land back on the quantized ladder.
    """
    r = int(cells_per_jump)
    if r != cells_per_jump or r < 1:
        raise ConfigurationError("cells_per_jump must be a positive integer")
    s = int(shift)
    if s != shift or not (1 <= s < r):
        raise ConfigurationError(
            f"shift must be an integer in [1, {r - 1}], got {shift!r}"
        )
    eq = closed_form_equilibrium(rho, p, n_jumps)
    n = r * n_jumps + 1
    f = np.zeros(n)
    f[np.arange(n_jumps) * r + s] = eq.masses[:-1]
    f[n - 1] += eq.masses[-1]
    return CellMassVector(f, VelocityGrid(n_cells=n, v_max=v_max))


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

    @property
    def centers(self) -> tuple[float, ...]:
        return tuple(c.center for c in self.clusters)


def verify_quantized_support(
    f: Union[CellMassVector, np.ndarray],
    delta_v: float,
    tol_mass: float,
    tol_loc: float,
    grid: Optional[VelocityGrid] = None,
) -> SupportReport:
    """Check that the state is concentrated near multiples of delta_v.

    Cells with mass above tol_mass are grouped into contiguous clusters;
    each cluster's mass-weighted center must lie within tol_loc of a
    multiple of delta_v, and the total mass of all sub-threshold cells
    must not exceed tol_mass.  Diagnostic only: never raises on failure.
    """
    if isinstance(f, CellMassVector):
        masses = f.masses
        centers = f.grid.centers
    else:
        if grid is None:
            raise ConfigurationError("bare arrays need an explicit grid")
        masses = np.asarray(f, dtype=float)
        centers = grid.centers
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
