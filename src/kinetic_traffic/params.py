"""Model parameters and the braking-probability law.

Two ingredients are fixed here: the physical scales of the model (maximum
speed, maximum density, interaction rate, speed-jump size) and the law
giving the probability P(rho) that an interacting vehicle accelerates
rather than brakes.  P must be non-increasing in the density; everything
downstream branches on whether P is above or below 1/2.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Kernel",
    "ModelParams",
    "ProbabilityLaw",
    "PowerLaw",
    "CustomLaw",
    "ConfigurationError",
    "evaluate_probability",
    "critical_density",
]


class ConfigurationError(ValueError):
    """Inconsistent or out-of-domain parameters (maps to CLI exit code 2)."""


class Kernel(Enum):
    """Which acceleration rule the interaction kernel uses.

    DELTA: an accelerating vehicle jumps by exactly delta_v (capped at v_max).
    CHI:   an accelerating vehicle lands uniformly on [v, min(v + delta_v, v_max)].
    """

    DELTA = "delta"
    CHI = "chi"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by both kernels.

    delta_v must divide v_max evenly: T = v_max / delta_v is the number of
    speed jumps needed to go from rest to full speed, and the quantized
    equilibria have exactly T + 1 speed classes.
    """

    v_max: float = 1.0
    rho_max: float = 1.0
    delta_v: float = 1.0
    eta: float = 1.0
    kernel: Kernel = Kernel.DELTA

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.v_max, self.rho_max)):
            raise ConfigurationError("v_max and rho_max must be finite and positive")
        _check_eta(self.eta)
        if not 0 < self.delta_v <= self.v_max:
            raise ConfigurationError(
                f"delta_v must lie in (0, v_max]; got {self.delta_v}"
            )
        t = self.v_max / self.delta_v
        if abs(t - round(t)) > 1e-9 * max(1.0, t):
            raise ConfigurationError(
                f"v_max/delta_v = {t!r} is not an integer; "
                "the speed jump must divide the speed range evenly"
            )

    @property
    def n_jumps(self) -> int:
        """T = v_max / delta_v, the number of speed classes minus one."""
        return round(self.v_max / self.delta_v)


def _check_eta(eta: float):
    """The interaction-rate rule, for ModelParams and every caller that
    takes eta directly."""
    if not (math.isfinite(eta) and eta > 0):
        raise ConfigurationError(f"interaction rate eta must be finite and positive; got {eta!r}")


class ProbabilityLaw:
    """Base class for P(rho) laws.  Subclasses implement _evaluate."""

    def _evaluate(self, rho: np.ndarray, rho_max: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLaw(ProbabilityLaw):
    """P(rho) = 1 - (rho/rho_max)**gamma with gamma in (0, 1].

    gamma = 1 gives the linear law used in most experiments; smaller gamma
    pushes the P = 1/2 crossing toward lower densities.
    """

    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ConfigurationError(f"gamma must lie in (0, 1]; got {self.gamma}")

    def _evaluate(self, rho, rho_max):
        return 1.0 - (rho / rho_max) ** self.gamma


@dataclass(frozen=True)
class CustomLaw(ProbabilityLaw):
    """Piecewise-linear P(rho) through tabulated (rho, P) points.

    The table must cover [0, rho_max] runs with strictly increasing rho and
    non-increasing P values in [0, 1]; intermediate densities interpolate
    linearly.
    """

    points: tuple = ()

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = tuple((float(r), float(p)) for r, p in points)
        if len(pts) < 2:
            raise ConfigurationError("custom law needs at least two (rho, P) points")
        rhos = [r for r, _ in pts]
        ps = [p for _, p in pts]
        if not all(math.isfinite(r) for r in rhos):
            raise ConfigurationError("custom law: rho values must be finite")
        if any(b <= a for a, b in zip(rhos, rhos[1:])):
            raise ConfigurationError("custom law: rho values must be strictly increasing")
        if any(b > a + 1e-15 for a, b in zip(ps, ps[1:])):
            raise ConfigurationError("custom law: P values must be non-increasing")
        if any(not 0 <= p <= 1 for p in ps):
            raise ConfigurationError("custom law: P values must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    def _evaluate(self, rho, rho_max):
        rhos = np.array([r for r, _ in self.points])
        ps = np.array([p for _, p in self.points])
        if rhos[0] > 0 or rhos[-1] < rho_max:
            raise ConfigurationError(
                f"custom law table covers [{rhos[0]}, {rhos[-1]}], "
                f"needs [0, {rho_max}]"
            )
        return np.interp(rho, rhos, ps)


def evaluate_probability(law: ProbabilityLaw, rho, params: ModelParams):
    """Acceleration probability P(rho) under the given law.

    Accepts a scalar or array density; densities outside [0, rho_max] are a
    domain error rather than being clamped, and so is NaN, which no
    comparison holds for.  A scalar is evaluated in Python floats, and an
    array entry by entry as a scalar, so a density gets the same bits alone
    as inside an array.
    """
    if not isinstance(rho, numbers.Real) and np.ndim(rho):
        arr = np.asarray(rho, dtype=float)
        return np.array([evaluate_probability(law, x, params) for x in arr.ravel().tolist()],
                        dtype=float).reshape(arr.shape)
    x = float(rho)
    if not 0.0 <= x <= params.rho_max * (1 + 1e-12):  # NaN too
        raise ConfigurationError(f"density {rho!r} outside [0, {params.rho_max}]")
    return float(min(max(law._evaluate(x, params.rho_max), 0.0), 1.0))


def critical_density(law: ProbabilityLaw, params: ModelParams):
    """Density at which P crosses 1/2, or None if it never does.

    PowerLaw has the closed form rho_max * (1/2)**(1/gamma).  Custom laws
    are solved by bisection on the interpolant, converging to the boundary
    between {P >= 1/2} and {P < 1/2}.
    """
    if isinstance(law, PowerLaw):
        return params.rho_max * 0.5 ** (1.0 / law.gamma)
    lo, hi = 0.0, params.rho_max
    p_lo = evaluate_probability(law, lo, params)
    p_hi = evaluate_probability(law, hi, params)
    if p_lo < 0.5 or p_hi > 0.5:
        return None
    # Bisection onto the leftmost crossing; P is non-increasing, so keep the
    # interval where P(lo) >= 1/2 > is still ahead.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if evaluate_probability(law, mid, params) >= 0.5:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * params.rho_max:
            break
    return 0.5 * (lo + hi)
