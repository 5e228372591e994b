"""Macroscopic outputs: moments, fundamental diagrams, transition detection.

Everything here reduces kinetic states to road-level quantities: density,
flux, and mean speed.  No diagram runs the ODE: jump-kernel diagrams are
evaluated straight from the closed-form equilibrium, and spread-kernel
diagrams from the same chain of quadratics solved cell by cell on the
grid, with samples whose residual stays above the tolerance flagged
rather than dropped.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .dynamics import CellMassVector, IntegratorControls, collision_rhs, integrate
from .equilibrium import (
    QuantizedEquilibrium,
    banded_equilibrium,
    closed_form_equilibrium,
)
from .matrices import VelocityGrid, build_grid, build_tensor
from .params import (
    ConfigurationError,
    Kernel,
    ModelParams,
    PowerLaw,
    ProbabilityLaw,
    evaluate_probability,
)

__all__ = [
    "Moments",
    "DiagramSample",
    "FundamentalDiagram",
    "TransitionBracket",
    "CapacityDropReport",
    "moments",
    "expected_speed",
    "initial_acceleration",
    "fundamental_diagram",
    "flux_infinite_r",
    "detect_capacity_drop",
    "compare_diagrams",
    "deceleration_time",
]

logger = logging.getLogger(__name__)


class Moments(NamedTuple):
    rho: float
    flux: float
    mean_speed: float


def moments(f: CellMassVector) -> Moments:
    """Density, flux, and mean speed of a grid state.

    Flux weights each cell mass by its center speed (the edge cells sit a
    quarter-width inside the domain).  An empty road reports mean speed 0
    rather than NaN so CSV consumers never see missing values.
    """
    rho = float(f.masses.sum())
    flux = float(f.masses @ f.grid.centers)
    mean = flux / rho if rho > 0.0 else 0.0
    return Moments(rho=rho, flux=flux, mean_speed=mean)


def expected_speed(
    kernel: Kernel,
    v_star,
    v_field,
    p: float,
    delta_v: float,
    v_max: float,
):
    """Mean post-interaction speed of a candidate against one field vehicle.

    With probability 1-p the candidate falls in behind the field vehicle
    (speed min(v_star, v_field)); with probability p it accelerates.  The
    jump kernel lands the full step, capped at v_max; the spread kernel
    lands uniformly over the reachable interval, so its mean gain is half
    the (possibly capped) step.  Accepts scalars or broadcastable arrays.
    """
    v_star = np.asarray(v_star, dtype=float)
    v_field = np.asarray(v_field, dtype=float)
    if np.any(v_star < 0) or np.any(v_star > v_max) or np.any(v_field < 0) or np.any(
        v_field > v_max
    ):
        raise ConfigurationError("speeds must lie in [0, v_max]")
    follow = np.minimum(v_star, v_field)
    if kernel is Kernel.DELTA:
        accel = np.minimum(v_star + delta_v, v_max)
    else:
        accel = v_star + 0.5 * np.minimum(delta_v, v_max - v_star)
    out = (1.0 - p) * follow + p * accel
    return float(out) if out.ndim == 0 else out


def initial_acceleration(
    kernel: Kernel, rho: float, p: float, eta: float, delta_v: float
) -> float:
    """Mean acceleration at the first instant of a start-from-rest run.

    Every interaction either keeps the candidate at rest or moves it up
    by delta_v (jump kernel) or half that on average (spread kernel), so
    the macroscopic speed initially grows at eta*rho*p*delta_v resp. half
    of it, up to a grid-width correction.
    """
    base = eta * rho * p * delta_v
    return base if kernel is Kernel.DELTA else 0.5 * base


class DiagramSample(NamedTuple):
    rho: float
    flux: float
    mean_speed: float
    converged: bool = True


@dataclass(frozen=True)
class FundamentalDiagram:
    """Flux-vs-density curve with full provenance of how it was computed."""

    samples: tuple[DiagramSample, ...]
    kernel: Kernel
    n_jumps: int
    ratio: float  # cells per speed jump; math.inf for the limiting curve
    eta: float
    gamma: Optional[float] = None

    def __post_init__(self):
        for s in self.samples:
            scale = max(abs(s.flux), s.rho, 1.0)
            if abs(s.flux - s.rho * s.mean_speed) > 1e-12 * scale:
                raise ConfigurationError(
                    f"sample at rho={s.rho}: flux {s.flux} != rho*u"
                )

    @property
    def rhos(self) -> np.ndarray:
        return np.array([s.rho for s in self.samples])

    @property
    def fluxes(self) -> np.ndarray:
        return np.array([s.flux for s in self.samples])

    @property
    def all_converged(self) -> bool:
        return all(s.converged for s in self.samples)


def _delta_flux(eq: QuantizedEquilibrium, grid: VelocityGrid, ratio: int) -> float:
    idx = np.arange(eq.n_jumps + 1) * ratio
    return float(eq.masses @ grid.centers[idx])


def fundamental_diagram(
    params: ModelParams,
    law: ProbabilityLaw,
    ratio: Union[int, float],
    rho_samples: Sequence[float],
    residual_tol: float = 1e-10,
) -> FundamentalDiagram:
    """Equilibrium flux at each requested density.

    Jump kernel: the closed-form equilibrium is evaluated directly, with
    ratio=math.inf giving the infinitely-refined limit where class l sits
    exactly at speed (l-1)*delta_v.  Spread kernel: each density's steady
    state is solved cell by cell from the tensor's band
    (`banded_equilibrium`), the state a march from a uniform start ends
    on; a sample whose collision residual (max-norm) exceeds residual_tol
    is kept with converged=False.
    """
    rhos = [float(r) for r in rho_samples]
    if not rhos:
        raise ConfigurationError("need at least one density sample")
    if any(r <= 0 or r > params.rho_max for r in rhos):
        raise ConfigurationError("density samples must lie in (0, rho_max]")
    gamma = law.gamma if isinstance(law, PowerLaw) else None
    t = params.n_jumps

    if params.kernel is Kernel.DELTA and math.isinf(ratio):
        samples = []
        for rho in rhos:
            p = evaluate_probability(law, rho, params)
            eq = closed_form_equilibrium(rho, p, t)
            flux = flux_infinite_r(eq, params.v_max)
            samples.append(DiagramSample(rho, flux, flux / rho))
        return FundamentalDiagram(
            samples=tuple(samples),
            kernel=params.kernel,
            n_jumps=t,
            ratio=math.inf,
            eta=params.eta,
            gamma=gamma,
        )

    grid, ratio_obj = build_grid(params, ratio)
    if params.kernel is Kernel.DELTA:
        if not ratio_obj.is_integer:
            raise ConfigurationError(
                "diagram sampling on a non-integer ratio grid is not defined: "
                "the closed-form masses sit between cells"
            )
        r = int(ratio_obj.r)
        samples = []
        for rho in rhos:
            p = evaluate_probability(law, rho, params)
            eq = closed_form_equilibrium(rho, p, t)
            flux = _delta_flux(eq, grid, r)
            samples.append(DiagramSample(rho, flux, flux / rho))
    else:
        if not ratio_obj.is_integer:
            raise ConfigurationError("spread-kernel grids require integer ratios")
        samples = []
        for rho in rhos:
            p = evaluate_probability(law, rho, params)
            tensor = build_tensor(params.kernel, grid, ratio_obj, p)
            f_inf = banded_equilibrium(tensor, rho)
            residual = float(np.abs(collision_rhs(f_inf, tensor, params.eta)).max())
            if residual > residual_tol:
                logger.warning("no steady state at rho=%g: residual %.3e", rho, residual)
            m = moments(f_inf)
            samples.append(
                DiagramSample(rho, m.flux, m.mean_speed, residual <= residual_tol)
            )
    return FundamentalDiagram(
        samples=tuple(samples),
        kernel=params.kernel,
        n_jumps=t,
        ratio=float(ratio_obj.r),
        eta=params.eta,
        gamma=gamma,
    )


def flux_infinite_r(eq: QuantizedEquilibrium, v_max: float = 1.0) -> float:
    """Equilibrium flux in the infinitely-refined-grid limit.

    Class l then sits exactly at speed (l-1)*delta_v: the quarter-width
    offsets of the edge cells vanish.  Bounds the finite-ratio flux to
    within rho*delta_v/(4*ratio).
    """
    return float(eq.masses @ eq.speeds(v_max))


@dataclass(frozen=True)
class TransitionBracket:
    """Open density interval over which the diagram changes branch."""

    rho_lo: float
    rho_hi: float
    flux_change: float  # flux(hi end) - flux(lo end); negative at a drop
    slope_jump: float   # change of local slope across the bracket


@dataclass(frozen=True)
class CapacityDropReport:
    rho_at_max_flux: float
    drop_magnitude: float
    bracket: tuple[float, float]
    transitions: tuple[TransitionBracket, ...]
    warnings: tuple[str, ...] = ()


def detect_capacity_drop(
    diagram: FundamentalDiagram, kink_threshold: float = 0.2
) -> CapacityDropReport:
    """Locate the flux maximum and branch-change intervals of a diagram.

    A transition is an interval where the slope of the sampled flux curve
    changes by more than kink_threshold times the curve's slope scale;
    contiguous flagged intervals are merged.  The reported capacity drop
    is the flux decrease across the transition with the steepest descent,
    measured between its two nearest samples.  Sampling coarser than
    ~1/300 around that point is answered with a warning and a bracket
    widened by one sample on each side.
    """
    rho = diagram.rhos
    flux = diagram.fluxes
    if rho.size < 3:
        raise ConfigurationError("need at least three samples to detect anything")
    if np.any(np.diff(rho) <= 0):
        raise ConfigurationError("diagram samples must be sorted by density")

    slopes = np.diff(flux) / np.diff(rho)
    scale = float(np.percentile(np.abs(slopes), 90)) or 1.0
    kink = np.abs(np.diff(slopes)) / scale  # kink[i]: slope change at sample i+1
    flagged = np.nonzero(kink > kink_threshold)[0] + 1  # sample indices

    groups: list[list[int]] = []
    for i in flagged:
        if groups and i - groups[-1][-1] == 1:
            groups[-1].append(i)
        else:
            groups.append([i])

    transitions = []
    for g in groups:
        lo, hi = g[0] - 1, g[-1] + 1
        transitions.append(
            TransitionBracket(
                rho_lo=float(rho[lo]),
                rho_hi=float(rho[hi]),
                flux_change=float(flux[hi] - flux[lo]),
                slope_jump=float(slopes[min(hi, slopes.size - 1)] - slopes[lo]),
            )
        )

    i_max = int(np.argmax(flux))
    warnings: list[str] = []
    if np.any(slopes < 0):
        # The branch change has a near-vertical descent; the two nearest
        # samples straddling it carry the steepest downward slope, which
        # makes them the one-sided limit estimates of the drop.
        k = int(np.argmin(slopes))
        drop = float(flux[k] - flux[k + 1])
        bracket = (float(rho[k]), float(rho[k + 1]))
        width = bracket[1] - bracket[0]
        if width > 1.0 / 300.0:
            bracket = (
                float(rho[max(k - 1, 0)]),
                float(rho[min(k + 2, rho.size - 1)]),
            )
            warnings.append(
                f"transition sampled with spacing {width:.4g} (> 1/300); "
                "bracket widened by one sample on each side"
            )
    else:
        drop = 0.0
        bracket = (
            float(rho[max(i_max - 1, 0)]),
            float(rho[min(i_max + 1, rho.size - 1)]),
        )
        warnings.append("flux never falls; bracket spans the flux maximum")

    return CapacityDropReport(
        rho_at_max_flux=float(rho[i_max]),
        drop_magnitude=float(drop),
        bracket=bracket,
        transitions=tuple(transitions),
        warnings=tuple(warnings),
    )


def compare_diagrams(d_a: FundamentalDiagram, d_b: FundamentalDiagram) -> float:
    """Sup-distance between two diagrams over their shared density samples."""
    if len(d_a.samples) != len(d_b.samples):
        raise ConfigurationError(
            f"diagrams have {len(d_a.samples)} vs {len(d_b.samples)} samples"
        )
    if not np.allclose(d_a.rhos, d_b.rhos, rtol=0.0, atol=1e-12):
        raise ConfigurationError("diagrams sample different densities")
    return float(np.abs(d_a.fluxes - d_b.fluxes).max())


def deceleration_time(
    params: ModelParams,
    law: ProbabilityLaw,
    ratio: int,
    rho: float,
    factor: float = 1.1,
    t_max: float = 200.0,
    seed: float = 0.01,
) -> float:
    """Time for a free-flowing start to brake down to factor*terminal speed.

    Mass rho - seed starts in the top cell and mass seed in the bottom one;
    the run relaxes toward the congested equilibrium, whose mean speed comes
    from the closed form.  The seed is required: with every vehicle at top
    speed no interaction changes any speed, so that state never decays.
    Returns the first crossing of factor times the terminal mean speed,
    interpolated linearly between stored states.  Jump kernel only.
    """
    if params.kernel is not Kernel.DELTA:
        raise ConfigurationError("deceleration timing uses the jump-kernel oracle")
    if factor <= 1.0:
        raise ConfigurationError("factor must exceed 1")
    if not 0.0 < seed < rho:
        raise ConfigurationError("seed must lie strictly between 0 and rho")
    grid, ratio_obj = build_grid(params, ratio)
    if not ratio_obj.is_integer:
        raise ConfigurationError("deceleration timing needs an integer ratio")
    p = evaluate_probability(law, rho, params)
    eq = closed_form_equilibrium(rho, p, params.n_jumps)
    u_inf = _delta_flux(eq, grid, int(ratio_obj.r)) / rho
    target = factor * u_inf

    f0 = np.zeros(grid.n_cells)
    f0[-1] = rho - seed
    f0[0] = seed
    u0 = float(f0 @ grid.centers) / rho
    if u0 <= target:
        raise ConfigurationError(
            f"start speed {u0:.6g} already below target {target:.6g}"
        )
    traj = integrate(
        f0, build_tensor(Kernel.DELTA, grid, ratio_obj, p), params.eta, t_max,
        IntegratorControls(store_factor=1.05),
    )
    speeds = traj.states @ grid.centers / rho
    below = np.nonzero(speeds <= target)[0]
    if below.size == 0:
        raise ConfigurationError(
            f"mean speed never reached {target:.6g} within t_max={t_max}"
        )
    i = below[0]
    if i == 0:
        return float(traj.times[0])
    t0, t1 = traj.times[i - 1], traj.times[i]
    u_prev, u_next = speeds[i - 1], speeds[i]
    return float(t0 + (t1 - t0) * (u_prev - target) / (u_prev - u_next))
