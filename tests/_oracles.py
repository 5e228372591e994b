"""Independent oracles the test suite checks the package against.

Every routine here re-derives a quantity from first principles by a route
different from the implementation: exact rational interval geometry for the
jump-kernel weights, adaptive quadrature of the defining kernel for the
spread weights, 60-digit arithmetic with the naive root formula for the
equilibrium recursion, the dense (N, N, N) tensor and an einsum over it for
the collision right-hand side, and an eigenvalue computation for decay
rates.  Agreement is then evidence, not circularity.  One routine is a
reference rather than an oracle: the original pairwise spread builder,
which the banded builder must match bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad


def cell_edges(n: int, j: int) -> tuple[Fraction, Fraction]:
    """Edges of cell j in units of dv (grid spans [0, n-1] in those units)."""
    lo = max(Fraction(2 * j - 3, 2), Fraction(0))
    hi = min(Fraction(2 * j - 1, 2), Fraction(n - 1))
    return lo, hi


def delta_accel_exact(n: int, r: Fraction) -> dict[tuple[int, int], Fraction]:
    """Jump-kernel acceleration weights from pure interval geometry.

    A candidate speed x in cell h lands at x + r if that stays on the grid
    and saturates at the top otherwise.  The weight (j, h) is the length of
    the part of cell h whose image overlaps cell j, divided by the width of
    cell h.  All arithmetic exact: rationals never round, so any builder
    discrepancy shows up verbatim.
    """
    m = Fraction(n - 1)
    out: dict[tuple[int, int], Fraction] = {}
    for h in range(1, n + 1):
        lo, hi = cell_edges(n, h)
        width = hi - lo
        b = min(hi, m - r)
        if b > lo:  # unsaturated stretch [lo, b] maps to [lo+r, b+r]
            for j in range(1, n + 1):
                jl, jh = cell_edges(n, j)
                ov = min(b + r, jh) - max(lo + r, jl)
                if ov > 0:
                    out[(j, h)] = out.get((j, h), Fraction(0)) + ov / width
        a = max(lo, m - r)
        if hi > a:  # saturated stretch pins to the top cell
            out[(n, h)] = out.get((n, h), Fraction(0)) + (hi - a) / width
    return out


def chi_accel_quad(n: int, r: int) -> np.ndarray:
    """Spread-kernel acceleration weights by adaptive quadrature.

    A candidate at speed x lands uniformly on [x, min(x + r, n-1)] (units of
    dv); weight (j, h) integrates the overlap fraction with cell j over cell
    h.  Integrand breakpoints are passed to quad explicitly so the piecewise
    smooth parts are each resolved to near machine accuracy.
    """
    m = n - 1
    sat = m - r
    out = np.zeros((n, n))
    for h in range(1, n + 1):
        lo_h = max(h - 1.5, 0.0)
        hi_h = min(h - 0.5, float(m))
        width = hi_h - lo_h
        for j in range(1, n + 1):
            lo_j = max(j - 1.5, 0.0)
            hi_j = min(j - 0.5, float(m))

            def overlap_fraction(x: float, lo_j=lo_j, hi_j=hi_j, j=j) -> float:
                top = min(x + r, m)
                span = top - x
                if span <= 0:  # candidate already at the top speed
                    return 1.0 if j == n else 0.0
                return max(0.0, min(top, hi_j) - max(x, lo_j)) / span

            pts = sorted(
                {lo_h, hi_h}
                | {q for q in (lo_j - r, hi_j - r, lo_j, hi_j, sat) if lo_h < q < hi_h}
            )
            total = 0.0
            for a, b in zip(pts, pts[1:]):
                val, _ = quad(overlap_fraction, a, b, limit=200)
                total += val
            out[j - 1, h - 1] = total / width
    return out


def chi_accel_pairwise(n: int, r: int, p: float) -> np.ndarray:
    """Spread-kernel acceleration weights, one (candidate, output) pair at a time.

    The package's original O(N^2) builder, kept as the reference for the
    banded one: the same exact trapezoid and logarithm integrals, evaluated
    for every pair j >= h with no assumption about which weights repeat or
    vanish, so the band builder must reproduce it bit for bit.
    """
    m = n - 1
    sat = m - r

    def edges(j: int) -> tuple[float, float]:
        return (max(j - 1.5, 0.0), min(j - 0.5, float(m)))

    accel = np.zeros((n, n))
    for h in range(1, n + 1):
        lo_h, hi_h = edges(h)
        width_h = hi_h - lo_h
        for j in range(h, n + 1):
            lo_j, hi_j = edges(j)
            total = 0.0
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
                total += part
            if total:
                accel[j - 1, h - 1] = p * total / width_h
    return accel


def equilibrium_mp(rho: float, p: float, n_jumps: int, dps: int = 60) -> list[float]:
    """Class masses by the recursion at 60 significant digits.

    Uses the naive positive-root formula, which is fine at this precision;
    the package uses the cancellation-safe form in float64, so matching
    results cross-validate both the algebra and the root selection.
    """
    with mpmath.workdps(dps):
        rho_mp, p_mp = mpmath.mpf(rho), mpmath.mpf(p)
        if p_mp >= mpmath.mpf(1) / 2:
            return [0.0] * n_jumps + [float(rho_mp)]
        masses = [rho_mp * (1 - 2 * p_mp) / (1 - p_mp)]
        for _ in range(2, n_jumps + 1):
            partial = mpmath.fsum(masses)
            a = 1 - p_mp
            b = (1 - 2 * p_mp) * rho_mp - 2 * (1 - p_mp) * partial
            c = p_mp * rho_mp * masses[-1]
            masses.append((b + mpmath.sqrt(b * b + 4 * a * c)) / (2 * a))
        masses.append(rho_mp - mpmath.fsum(masses))
        return [float(x) for x in masses]


def dense_tensor(tensor) -> np.ndarray:
    """Full (N, N, N) interaction array indexed [j, h, k], all 0-based.

    Matrix j is assembled from its definition: braking and keep-speed put
    1 - p on entry (j, j), on row j right of it and on column j below it;
    acceleration puts accel[j, h] on every entry of row h.
    """
    n = tensor.n_cells
    one_minus_p = 1.0 - tensor.p
    a = np.zeros((n, n, n))
    for j in range(n):
        a[j, j, j:] = one_minus_p
        a[j, j:, j] = one_minus_p
        a[j] += tensor.accel[j][:, None]
    return a


def dense_rhs(f: np.ndarray, tensor, eta: float) -> np.ndarray:
    """Collision right-hand side straight from the dense matrices."""
    a = dense_tensor(tensor)
    f = np.asarray(f, float)
    return eta * (np.einsum("jhk,h,k->j", a, f, f) - f * f.sum())


def dense_jacobian(f: np.ndarray, tensor, eta: float) -> np.ndarray:
    """Jacobian of the dense right-hand side, by direct differentiation."""
    a = dense_tensor(tensor)
    f = np.asarray(f, float)
    n = f.size
    jac = np.einsum("jhk,k->jh", a, f) + np.einsum("jhk,h->jk", a, f)
    jac -= f.sum() * np.eye(n)
    jac -= f[:, None]
    return eta * jac


def slowest_decay_rate(tensor, eta: float, f_inf: np.ndarray) -> float:
    """Smallest nonzero |Re lambda| of the Jacobian at an equilibrium.

    The mass-conservation mode contributes an exact zero eigenvalue, which
    is dropped.  For a hyperbolic stable equilibrium this is the asymptotic
    exponential decay rate of ||f(t) - f_inf||.
    """
    ev = np.linalg.eigvals(dense_jacobian(np.asarray(f_inf, float), tensor, eta))
    rates = [abs(e.real) for e in ev if abs(e.real) > 1e-8]
    return min(rates)
