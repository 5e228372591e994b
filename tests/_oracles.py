"""Independent oracles the test suite checks the package against.

Every routine here re-derives a quantity from first principles by a route
different from the implementation: exact rational interval geometry for the
jump-kernel weights, adaptive quadrature of the defining kernel for the
spread weights, 50- and 60-digit arithmetic with the naive root formula for
the equilibrium recursions, the dense (N, N, N) tensor and an einsum over
it for the collision right-hand side, and an eigenvalue computation for
decay rates.  Agreement is then evidence, not circularity.  The shifted
(unstable) jump-kernel equilibrium is laid out from the closed form class
by class, a route apart from the band chain that gives it in the package.
Five routines are references rather than oracles, earlier implementations
of the package: the original cell-by-cell jump-kernel builder, the
original pairwise spread builder, the scalar closed-form chain that took
one density at a time and the scalar RK4 loop that marched one state at a
time, which the package must match bit for bit, and the
steady-state search that stepped LSODA through scipy's solve_ivp with a
Jacobian summed from a diagonal and two triangles, which the package's
implicit march must match within a tolerance.  `_make_rhs`, the one-state
right-hand side those two references evaluate with the dense or the band
product, is the package's former RHS factory.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad, solve_ivp

from kinetic_traffic import ConfigurationError, closed_form_equilibrium
from kinetic_traffic.dynamics import (
    DRIFT_TOL,
    MAX_STEPS,
    CellMassVector,
    IntegratorControls,
    NumericalError,
    SteadyStateTimeout,
    Trajectory,
)
from kinetic_traffic.matrices import InteractionTensor, VelocityGrid
from kinetic_traffic.params import _check_eta


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


def delta_band_reference(n: int, rf: Fraction, p: float) -> np.ndarray:
    """Jump-kernel acceleration band, one exact rational weight at a time.

    The package's original generic-ratio builder, kept as the reference for
    the vectorised one: every weight, interior rows included, accumulated
    as a Fraction in a dict keyed by (output cell, candidate cell), then
    scaled by p into an (n, b + 1) band whose width b is the widest jump
    that carries weight.  The builder must reproduce the band bit for bit,
    shape included.
    """
    half = Fraction(1, 2)
    cp = math.ceil(rf + half)   # cell index containing speed dv/4 + delta_v's cell top
    cm = math.ceil(rf - half)
    cr = math.ceil(rf)
    tie_hi = cr == cp           # r exactly half past an integer (or integer r: False)
    tie_lo = cr == cm           # integer r, or r within (k-1/2, k]

    w: dict[tuple[int, int], Fraction] = {}

    def add(j: int, h: int, weight: Fraction):
        if weight != 0:
            w[(j, h)] = w.get((j, h), Fraction(0)) + weight

    # First output cell receiving accelerated mass: the bottom half-cell's
    # image [delta_v, delta_v + dv/2] meets cells cm(+1) depending on ties.
    if cp <= n - 1:
        add(cp, 1, 2 * min(half, cp - half - rf))
        if tie_lo:
            add(cp, 2, cm - rf)
    for j in range(cp + 1, n):  # interior output cells past the first image cell
        lead = Fraction(1 + rf - cr)
        if tie_hi and j == cp + 1:
            lead *= 2
        add(j, j - cr, lead)
        add(j, j - cr + 1, Fraction(cr - rf))
    # Top cell: everything whose image pokes past v_max - dv/2.
    if tie_hi:
        add(n, n - cp, rf - cm)
        add(n, n - cm, cp - half - rf)
    if tie_lo:
        add(n, n - cm, half)
    add(n, n - cm, rf - cm + half)
    for h in range(n - cp + 2, n + 1):
        add(n, h, Fraction(1))

    for (j, h), weight in w.items():
        if not 1 <= h <= j <= n:
            raise ConfigurationError(
                f"acceleration weight out of range: output {j}, candidate {h}"
            )
        if weight < 0:
            raise ConfigurationError(f"negative acceleration weight at ({j}, {h})")
    b = max(j - h for j, h in w)
    band = np.zeros((n, b + 1))
    for (j, h), weight in w.items():
        band[j - 1, b - (j - h)] += p * float(weight)
    return band


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


def closed_form_reference(rho: float, p: float, n_jumps: int) -> list[float]:
    """Class masses by the package's former scalar closed-form chain.

    Python floats, one class at a time, the positive root taken via the
    negative one and the root product, the top class closing the balance
    and clipped at 0 within the -1e-12 floor.  The one-pass chain over a
    stack of densities must give every density these bits.
    """
    if p >= 0.5:
        return [0.0] * n_jumps + [rho]
    a = 1.0 - p
    masses = [rho * (1.0 - 2.0 * p) / a]
    below = masses[0]
    for _ in range(1, n_jumps):
        b = (1.0 - 2.0 * p) * rho - 2.0 * a * below
        assert b < 0.0
        c = p * rho * masses[-1]
        root = math.sqrt(b * b + 4.0 * a * c)
        masses.append(-c / (a * ((b - root) / (2.0 * a))))
        below += masses[-1]
    top = rho - below
    assert top >= -1e-12 * rho
    return masses + [max(top, 0.0)]


def banded_equilibrium_mp(tensor, rho: float, dps: int = 50) -> np.ndarray:
    """Grid steady state by the cell-by-cell chain at 50 significant digits.

    Reads the weights from the dense `accel` matrix rather than the band,
    and takes the positive root by the naive formula (max(b/a, 0) when the
    inflow is zero).  Needs P < 1.
    """
    w = tensor.accel
    n = tensor.n_cells
    with mpmath.workdps(dps):
        rho_mp, p_mp = mpmath.mpf(rho), mpmath.mpf(tensor.p)
        a = 1 - p_mp
        masses = []
        for j in range(n - 1):
            b = ((1 - 2 * p_mp) * rho_mp - 2 * a * mpmath.fsum(masses)
                 + rho_mp * mpmath.mpf(w[j, j]))
            c = rho_mp * mpmath.fsum(mpmath.mpf(w[j, i]) * masses[i] for i in range(j))
            if c > 0:
                masses.append((b + mpmath.sqrt(b * b + 4 * a * c)) / (2 * a))
            else:
                masses.append(max(b / a, mpmath.mpf(0)))
        masses.append(rho_mp - mpmath.fsum(masses))
        return np.array([float(x) for x in masses])


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


def triangle_jacobian(tensor, eta: float):
    """Jacobian closure summed from a diagonal, two triangles and total * W.

    The package's original form of the steady-state Jacobian, which
    `solve_ivp_steady_state` hands to LSODA.
    """
    p = tensor.p
    w = tensor.accel
    one_minus_2p = 1.0 - 2.0 * p
    n = tensor.n_cells

    def jac(f: np.ndarray) -> np.ndarray:
        total = f.sum()
        csum = np.cumsum(f)
        below = csum - f
        above = total - csum
        diag = np.diag(-below - 2.0 * p * f + one_minus_2p * above)
        col = np.broadcast_to(f[:, None], (n, n))
        cross = np.triu(one_minus_2p * col, 1) - np.tril(col, -1)
        return eta * (diag + cross + (w @ f)[:, None] + total * w)

    return jac


def _clamp_negativity(f: np.ndarray, context: str) -> None:
    """The original search's clamp of a chunk's end state: components above
    -1e-12 set to 0, deeper ones refused."""
    low = f.min(initial=0.0)
    if low < -1e-12:
        raise NumericalError(
            f"{context}: component {low:.3e} below tolerance -1e-12; "
            "this indicates an integration bug, not a model property"
        )
    f[f < 0.0] = 0.0


def solve_ivp_steady_state(
    f0,
    tensor,
    eta: float,
    residual_tol: float = 1e-10,
    t_max: float = 1e9,
    rel_change_tol=None,
) -> CellMassVector:
    """The original steady-state search: one solve_ivp(LSODA) call per chunk.

    Chunks ending at 10/(eta*rho) and then five times further each, the
    triangle-sum Jacobian, a clamp of components above -1e-12 and a mass
    re-projection after every chunk; the start is checked as a
    `CellMassVector` is, as in `find_steady_state`.  An independent march
    to the same stopping rule, so `find_steady_state` must end within a
    tolerance of it, not on its bits; it still dips below the negativity
    floor on the spread kernel at T=2, r=20, rho=0.49.
    """
    if residual_tol <= 0:
        raise ConfigurationError("residual_tol must be positive")
    if rel_change_tol is None:
        rel_change_tol = residual_tol
    f = CellMassVector(getattr(f0, "masses", f0), tensor.grid).masses
    rho0 = f.sum()
    w = tensor.accel
    rhs = _make_rhs(tensor, eta, lambda y: w @ y)
    jac = triangle_jacobian(tensor, eta)
    residual = float(np.abs(rhs(f)).max())
    if residual <= residual_tol:
        return CellMassVector(f, tensor.grid)
    if rho0 <= 0:
        return CellMassVector(f, tensor.grid)

    scale = eta * rho0
    t = 0.0
    t_hi = min(10.0 / scale, t_max)
    atol = 1e-15 * max(rho0, 1e-3)
    while True:
        sol = solve_ivp(
            lambda _t, y: rhs(y),
            (t, t_hi),
            f,
            method="LSODA",
            jac=lambda _t, y: jac(y),
            rtol=1e-11,
            atol=atol,
            t_eval=[t_hi],
        )
        if not sol.success:
            raise NumericalError(f"steady-state stepping failed: {sol.message}")
        prev = f
        f = sol.y[:, -1].copy()
        _clamp_negativity(f, f"steady-state chunk ending at t={t_hi:.3g}")
        total = f.sum()
        if abs(total - rho0) > 1e-8 * max(rho0, 1.0):
            raise NumericalError(
                f"mass drifted by {total - rho0:.3e} within one chunk; aborting"
            )
        if total > 0:
            f *= rho0 / total
        residual = float(np.abs(rhs(f)).max())
        change_rate = float(np.abs(f - prev).max()) / (rho0 * (t_hi - t))
        if residual <= residual_tol and change_rate <= rel_change_tol:
            return CellMassVector(f, tensor.grid)
        if t_hi >= t_max:
            raise SteadyStateTimeout(
                f"no steady state within t_max={t_max:.3g}: "
                f"residual {residual:.3e}, state change rate {change_rate:.3e}",
                state=CellMassVector(f, tensor.grid),
                residual=residual,
            )
        t = t_hi
        t_hi = min(t_hi * 5.0, t_max)


def _accel_operator(tensor: InteractionTensor):
    """The map f -> accel @ f, computed from the band in O(N * b).

    Row j of the band meets the window f[j - b .. j] of a zero-padded
    copy of f.  The padded buffer is reused from call to call, so each
    caller makes its own operator.  The band product `rk4_reference`
    marched with, from the tensor method the package once had.
    """
    band, b = tensor.band, tensor.bandwidth
    padded = np.zeros(tensor.n_cells + b)
    windows = sliding_window_view(padded, b + 1)

    def apply(f: np.ndarray) -> np.ndarray:
        padded[b:] = f
        return np.vecdot(band, windows)

    return apply


def rk4_reference(
    f0: Union[CellMassVector, np.ndarray],
    tensor: InteractionTensor,
    eta: float,
    t_end: float,
    controls: Optional[IntegratorControls] = None,
) -> Trajectory:
    """The original scalar RK4 loop of `integrate`, kept verbatim but for
    its negativity rules, which follow `integrate`'s: the start is checked
    as a `CellMassVector` is, and a step that leaves a component below 0
    raises instead of being clamped.

    One state, one fixed step, one Python iteration per step; the batched
    march must reproduce its times and states bit for bit, row by row.
    """
    if t_end <= 0:
        raise ConfigurationError("t_end must be positive")
    _check_eta(eta)
    controls = controls or IntegratorControls()
    f = CellMassVector(getattr(f0, "masses", f0), tensor.grid).masses
    rho0 = f.sum()
    rhs = _make_rhs(tensor, eta, _accel_operator(tensor))

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
    t = 0.0
    for k in range(1, n_steps + 1):
        k1 = rhs(f)
        k2 = rhs(f + 0.5 * h * k1)
        k3 = rhs(f + 0.5 * h * k2)
        k4 = rhs(f + h * k3)
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        low = f.min(initial=0.0)
        if low < 0.0:
            raise NumericalError(
                f"step {k} (t={k * h:.6g}): component {low:.3e} below 0; "
                "this indicates an integration bug, not a model property"
            )
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
