"""Velocity grids and interaction tensors against from-scratch oracles.

The jump-kernel builder is checked entrywise against exact rational interval
geometry and bit for bit against its original cell-by-cell form, the
spread-kernel builder against adaptive quadrature of its defining kernel
plus closed-form spot values, and both against the column-stochasticity
contract and their refusals.
"""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_traffic import (
    ConfigurationError,
    GridRatio,
    InteractionTensor,
    Kernel,
    ModelParams,
    PowerLaw,
    VelocityGrid,
    build_chi_tensor,
    build_delta_tensor_generic,
    build_delta_tensor_integer,
    build_grid,
    build_tensor,
    collision_rhs,
    find_steady_state,
    fundamental_diagram,
    matrices,
    verify_stochasticity,
)

from _oracles import (
    chi_accel_pairwise,
    chi_accel_quad,
    delta_accel_exact,
    delta_band_reference,
    dense_rhs,
    dense_tensor,
)

# integer ladders plus non-integer ratios, including half-integer ties
INTEGER_CASES = [(t, Fraction(r)) for t in (1, 3, 5) for r in (1, 2, 4, 20)]
GENERIC_CASES = [
    (3, Fraction(14, 3)),
    (2, Fraction(7, 2)),
    (4, Fraction(7, 2)),
    (3, Fraction(8, 3)),
    (5, Fraction(9, 5)),
    (2, Fraction(3, 2)),
    (4, Fraction(5, 2)),
    (3, Fraction(4, 3)),
    (3, Fraction(5, 3)),
    (4, Fraction(9, 4)),
    (5, Fraction(7, 5)),
    (7, Fraction(10, 7)),
    (8, Fraction(13, 8)),
]
P_VALUES = (0.0, 0.3, 0.85, 1.0)
# the benchmark's jump-kernel grids: N=401 (r=100, 400/3), N=1001, N=25
BENCHMARK_CASES = [(4, Fraction(100)), (3, Fraction(400, 3)), (3, Fraction(1000, 3)), (3, Fraction(8))]


def make_grid(t_jumps: int, r: Fraction) -> VelocityGrid:
    n = r * t_jumps + 1
    assert n.denominator == 1
    return VelocityGrid(n_cells=int(n), v_max=1.0)


class TestVelocityGrid:
    def test_coarse_ladder(self):
        params = ModelParams(delta_v=1.0 / 3.0)
        grid, ratio = build_grid(params, 1)
        assert grid.n_cells == 4
        assert grid.dv == pytest.approx(1.0 / 3.0)
        assert grid.centers == pytest.approx([1 / 12, 1 / 3, 2 / 3, 11 / 12])
        assert ratio.is_integer and ratio.r == 1

    def test_refined_ladder(self):
        grid, _ = build_grid(ModelParams(delta_v=1.0 / 3.0), 4)
        assert grid.n_cells == 13
        assert grid.dv == pytest.approx(1.0 / 12.0)

    def test_smallest_grid_is_two_half_cells(self):
        grid, _ = build_grid(ModelParams(delta_v=1.0), 1)
        assert grid.n_cells == 2
        assert grid.widths == pytest.approx([0.5, 0.5])
        assert grid.centers == pytest.approx([0.25, 0.75])

    def test_boundary_cells_are_half_width(self):
        grid = VelocityGrid(n_cells=16, v_max=1.0)
        assert grid.widths[0] == pytest.approx(grid.dv / 2)
        assert grid.widths[-1] == pytest.approx(grid.dv / 2)
        assert grid.widths.sum() == pytest.approx(1.0)
        assert grid.centers[0] == pytest.approx(grid.dv / 4)
        assert grid.centers[-1] == pytest.approx(1.0 - grid.dv / 4)

    def test_fractional_cell_count_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(ModelParams(delta_v=1.0 / 3.0), Fraction(7, 2))
        with pytest.raises(ConfigurationError):
            build_grid(ModelParams(delta_v=0.2), 1.01)

    def test_non_positive_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(ModelParams(delta_v=0.5), 0)

    @pytest.mark.parametrize("n_cells", [3.5, 5.0, 1, 0, "5"])
    def test_cell_count_must_be_a_whole_number_of_at_least_two(self, n_cells):
        with pytest.raises(ConfigurationError, match="whole number of at least 2 cells"):
            VelocityGrid(n_cells=n_cells, v_max=1.0)

    @pytest.mark.parametrize("v_max", [math.nan, math.inf, 0.0, -1.0])
    def test_top_speed_must_be_finite_and_positive(self, v_max):
        with pytest.raises(ConfigurationError, match="v_max must be positive and finite"):
            VelocityGrid(n_cells=5, v_max=v_max)

    def test_numpy_cell_count_is_accepted(self):
        assert VelocityGrid(n_cells=np.int64(5), v_max=1.0).centers.shape == (5,)


class TestGridRatio:
    def test_half_offsets(self):
        tie = GridRatio(Fraction(7, 2))
        assert tie.r == 3.5 and not tie.is_integer
        four = GridRatio(Fraction(4))
        assert four.r == 4.0 and four.is_integer

    def test_constructor_normalises_numbers(self):
        assert GridRatio(2.0).is_integer
        assert GridRatio(2.5).fraction == Fraction(5, 2)
        assert GridRatio(3).fraction == Fraction(3)
        assert GridRatio(3.5).fraction == Fraction(7, 2)
        assert GridRatio(Fraction(14, 3)).fraction == Fraction(14, 3)
        grid = make_grid(3, Fraction(2))
        assert build_tensor(Kernel.DELTA, grid, GridRatio(2.0), 0.4).bandwidth == 2
        for bad in ("2", None, float("nan"), float("inf"), 1j):
            with pytest.raises(ConfigurationError):
                GridRatio(bad)


class TestJumpTensorAgainstGeometry:
    """Builder entries must equal the exact rational interval weights."""

    @pytest.mark.parametrize("t_jumps,r", INTEGER_CASES + GENERIC_CASES)
    def test_acceleration_weights_exact(self, t_jumps, r):
        grid = make_grid(t_jumps, r)
        n = grid.n_cells
        oracle = delta_accel_exact(n, r)
        want = np.zeros((n, n))
        for (j, h), w in oracle.items():
            want[j - 1, h - 1] = float(w)
        for p in P_VALUES:
            tensor = build_delta_tensor_generic(grid, GridRatio(r), p)
            assert np.abs(tensor.accel - p * want).max() <= 1e-15
            if p > 0:
                got_support = set(zip(*np.nonzero(tensor.accel)))
                assert got_support == {(j - 1, h - 1) for j, h in oracle}

    @pytest.mark.parametrize("t_jumps,r", INTEGER_CASES)
    def test_generic_builder_reduces_to_integer_builder(self, t_jumps, r):
        # at whole r the original cell-by-cell builder and the integer
        # builder both give the two-slice jump: P at offset r, top row full
        grid = make_grid(t_jumps, r)
        n, k = grid.n_cells, int(r)
        for p in P_VALUES:
            two_slice = np.zeros((n, k + 1))
            two_slice[k:n - 1, 0] = p
            two_slice[n - 1, :] = p
            fix = build_delta_tensor_integer(grid, GridRatio(r), p)
            assert np.array_equal(delta_band_reference(n, r, p), two_slice)
            assert np.array_equal(fix.band, two_slice)

    @pytest.mark.parametrize("t_jumps,r", INTEGER_CASES + GENERIC_CASES + BENCHMARK_CASES)
    def test_band_matches_the_cell_by_cell_reference(self, t_jumps, r):
        grid = make_grid(t_jumps, r)
        ratio = GridRatio(r)
        for p in P_VALUES:
            want = delta_band_reference(grid.n_cells, r, p)
            got = [build_delta_tensor_generic(grid, ratio, p),
                   build_tensor(Kernel.DELTA, grid, ratio, p)]
            if r.denominator == 1:
                got.append(build_delta_tensor_integer(grid, ratio, p))
            for tensor in got:
                assert tensor.band.shape == want.shape
                assert np.array_equal(tensor.band, want)

    def test_known_matrix_rows(self):
        # N=4, r=1, P=0.4: second matrix's acceleration row is P everywhere
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), 0.4)
        dense = dense_tensor(tensor)
        a2 = dense[1]
        assert a2[0] == pytest.approx([0.4, 0.4, 0.4, 0.4], abs=1e-15)
        a1 = dense[0]
        expect = np.zeros((4, 4))
        expect[0, :] = 0.6
        expect[:, 0] = 0.6
        assert a1 == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("t_jumps,r", [(3, 2), (5, 4), (3, 4)])
    def test_sparsity_pattern_of_interior_matrices(self, t_jumps, r):
        grid = make_grid(t_jumps, Fraction(r))
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(r)), 0.3)
        n = grid.n_cells
        dense = dense_tensor(tensor)
        for j in range(r + 1, n):  # interior: acceleration row present, j < N
            a = dense[j - 1]
            allowed = np.zeros((n, n), dtype=bool)
            allowed[j - 1, j - 1 :] = True  # braking into own row tail
            allowed[j - 1 :, j - 1] = True  # braking into own column tail
            allowed[j - 1 - r, :] = True  # quantized acceleration source row
            assert not np.any(a[~allowed])
            # neighbours of the acceleration row stay empty
            assert not np.any(a[j - r, : j - 1])
            if j >= r + 2:
                assert not np.any(a[j - 2 - r, :])

    def test_mass_lands_somewhere(self):
        # each column of the stacked tensor is a probability distribution
        grid = make_grid(3, Fraction(14, 3))
        tensor = build_delta_tensor_generic(grid, GridRatio(Fraction(14, 3)), 0.85)
        dense = dense_tensor(tensor)
        assert dense.min() >= 0.0
        assert np.abs(dense.sum(axis=0) - 1.0).max() <= 1e-12


class TestSpreadTensorAgainstQuadrature:
    @pytest.mark.parametrize("t_jumps,r", [(1, 1), (3, 1), (3, 2), (5, 2), (3, 4), (1, 20)])
    def test_acceleration_weights_match_quadrature(self, t_jumps, r):
        grid = make_grid(t_jumps, Fraction(r))
        tensor = build_chi_tensor(grid, GridRatio(Fraction(r)), 0.7)
        ref = 0.7 * chi_accel_quad(grid.n_cells, r)
        assert np.abs(tensor.accel - ref).max() <= 1e-12

    @pytest.mark.parametrize(
        "t_jumps,r",
        [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2),
         (3, 7), (6, 5), (2, 20), (4, 100), (1, 30), (1, 64)],
    )
    def test_band_builder_matches_pairwise_builder(self, t_jumps, r):
        # N = 2 .. 401, including grids with no translation-invariant column
        # and fully saturated ones (T=1), whose weights are mostly logarithms
        grid = make_grid(t_jumps, Fraction(r))
        tensor = build_chi_tensor(grid, GridRatio(Fraction(r)), 0.7)
        assert tensor.bandwidth == r
        assert np.array_equal(tensor.accel, chi_accel_pairwise(grid.n_cells, r, 0.7))

    @pytest.mark.parametrize("r", [1, 2, 20])
    def test_closed_form_spot_values(self, r):
        p = 0.6
        n = 3 * r + 1
        grid = VelocityGrid(n_cells=n, v_max=1.0)
        a = build_chi_tensor(grid, GridRatio(Fraction(r)), p).accel
        assert a[0, 0] == pytest.approx(p / (4 * r), rel=1e-12)
        assert a[r, 0] == pytest.approx(3 * p / (4 * r), rel=1e-12)
        assert a[n - 1, n - 1] == pytest.approx(p, rel=1e-12)
        # top-row coefficient of the last saturating source cell
        log_w = p * (1 / (8 * r) + 0.5 * math.log(2 * r / (2 * r - 1)))
        assert a[n - 1, n - 1 - r] == pytest.approx(log_w, rel=1e-12)
        if r >= 2:
            # one cell below the top the log weight is ratio-independent
            assert a[n - 1, n - 2] == pytest.approx(p * 0.5 * math.log(3.0), rel=1e-12)

    def test_two_cell_grid_saturates_immediately(self):
        grid = VelocityGrid(n_cells=2, v_max=1.0)
        a = build_chi_tensor(grid, GridRatio(Fraction(1)), 0.5).accel
        assert a[0, 0] == pytest.approx(0.5 * (1.0 - math.log(2.0)), rel=1e-12)

    def test_pure_braking_collapses_to_jump_kernel(self):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        chi = build_chi_tensor(grid, GridRatio(Fraction(2)), 0.0)
        delta = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.0)
        assert np.array_equal(dense_tensor(chi), dense_tensor(delta))

    @pytest.mark.parametrize("r", [2, 10, 50])
    def test_first_matrix_approaches_jump_kernel(self, r):
        # only the self-weight p/(4r) separates the two bottom matrices
        p = 0.85
        grid = VelocityGrid(n_cells=2 * r + 1, v_max=1.0)
        chi = build_chi_tensor(grid, GridRatio(Fraction(r)), p)
        delta = build_delta_tensor_integer(grid, GridRatio(Fraction(r)), p)
        gap = np.abs(dense_tensor(chi)[0] - dense_tensor(delta)[0]).max()
        assert gap == pytest.approx(p / (4 * r), rel=1e-12)


class TestBand:
    @pytest.mark.parametrize("t_jumps,r", INTEGER_CASES + GENERIC_CASES)
    def test_bandwidth_and_band_product(self, t_jumps, r):
        grid = make_grid(t_jumps, r)
        for kernel in (Kernel.DELTA, Kernel.CHI) if r.denominator == 1 else (Kernel.DELTA,):
            tensor = build_tensor(kernel, grid, GridRatio(r), 0.85)
            assert tensor.bandwidth <= math.ceil(r)
            f = np.random.default_rng(1).uniform(0.0, 0.2, grid.n_cells)
            # relative to eta * rho^2, the size of the gain and loss terms
            got = collision_rhs(f, tensor, 2.0)
            assert np.abs(got - dense_rhs(f, tensor, 2.0)).max() <= 1e-15 * 2.0 * f.sum() ** 2

    def test_dispatch_picks_the_builder(self):
        grid = make_grid(3, Fraction(14, 3))
        ratio = GridRatio(Fraction(14, 3))
        generic = build_tensor(Kernel.DELTA, grid, ratio, 0.4)
        assert np.array_equal(generic.accel, build_delta_tensor_generic(grid, ratio, 0.4).accel)
        with pytest.raises(ConfigurationError):
            build_tensor(Kernel.CHI, grid, ratio, 0.4)
        grid = make_grid(3, Fraction(2))
        ratio = GridRatio(Fraction(2))
        assert build_tensor(Kernel.CHI, grid, ratio, 0.4).kernel is Kernel.CHI
        jump = build_tensor(Kernel.DELTA, grid, ratio, 0.4)
        assert np.array_equal(jump.band, build_delta_tensor_integer(grid, ratio, 0.4).band)

    def test_weight_below_the_first_cell_rejected(self):
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        band = np.zeros((4, 2))
        band[0, 0] = 0.5  # row 1 has no cell below it
        with pytest.raises(ConfigurationError):
            InteractionTensor(kernel=Kernel.DELTA, p=0.5, grid=grid, band=band)
        with pytest.raises(ConfigurationError):
            InteractionTensor(kernel=Kernel.DELTA, p=0.5, grid=grid, band=np.zeros((3, 2)))

    def test_probability_outside_the_unit_interval_rejected(self):
        # a band whose columns sum to 1.5 would pass the column-sum check
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        band = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), 0.5).band * 3.0
        with pytest.raises(ConfigurationError, match="outside"):
            InteractionTensor(kernel=Kernel.DELTA, p=1.5, grid=grid, band=band)

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_negative_or_non_finite_weight_rejected(self, bad):
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        band = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), 0.4).band.copy()
        band[2, 1] = bad
        with pytest.raises(ConfigurationError, match="negative or non-finite"):
            InteractionTensor(kernel=Kernel.DELTA, p=0.4, grid=grid, band=band)

    def test_caller_band_stays_writable(self):
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        band = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), 0.4).band.copy()
        tensor = InteractionTensor(kernel=Kernel.DELTA, p=0.4, grid=grid, band=band)
        assert band.flags.writeable
        assert not tensor.band.flags.writeable
        band[2, 0] = 0.0  # the tensor keeps its own copy
        assert tensor.band[2, 0] == 0.4


class TestLandingCache:
    """Each (kernel, N, r) lands its candidates once; P only scales the shares."""

    CASES = [(kernel, t, Fraction(r)) for kernel in (Kernel.CHI, Kernel.DELTA)
             for t, r in ((3, 1), (2, 20))] + [
        (Kernel.DELTA, 3, Fraction(14, 3)), (Kernel.DELTA, 3, Fraction(400, 3)),
    ]

    @pytest.mark.parametrize("kernel,t_jumps,r", CASES)
    def test_warm_builds_equal_cold_builds(self, kernel, t_jumps, r):
        grid, ratio = make_grid(t_jumps, r), GridRatio(r)
        cold = []
        for p in P_VALUES:
            matrices._landing.cache_clear()
            cold.append(build_tensor(kernel, grid, ratio, p).band)
        for _ in range(2):  # every build after the first hits the cache
            for p, band in zip(P_VALUES, cold):
                warm = build_tensor(kernel, grid, ratio, p).band
                assert warm.shape == band.shape
                assert warm.tobytes() == band.tobytes()
        assert matrices._landing.cache_info().hits == 2 * len(P_VALUES)

    def test_cached_arrays_refuse_writes(self):
        tensor = build_chi_tensor(make_grid(2, Fraction(20)), GridRatio(20), 0.3)
        band, plan = matrices._landing(Kernel.CHI, 41, Fraction(20))
        for cached in [tensor.band, band] + [rows for _, _, rows, _ in plan]:
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 0

    def test_one_plan_per_grid(self, monkeypatch):
        # the P-free plan is made when the grid enters the cache: a whole
        # diagram plans once, and a march at a new density plans nothing
        plans = []

        def planner(band):
            plans.append(band.shape)
            return plan_sweep(band)

        plan_sweep = matrices._plan_sweep
        monkeypatch.setattr(matrices, "_plan_sweep", planner)
        matrices._landing.cache_clear()
        params = ModelParams(delta_v=0.5, kernel=Kernel.CHI)
        diagram = fundamental_diagram(params, PowerLaw(1.0), 20, [0.01 + 0.02 * k for k in range(50)])
        assert len(diagram.samples) == 50
        assert plans == [(41, 21)]
        grid, ratio = build_grid(params, 20)
        tensor = build_chi_tensor(grid, ratio, 0.37)  # rho = 0.63, not in the sweep
        find_steady_state(np.full(41, 0.63 / 41), tensor, 1.0, t_max=1e7)
        assert plans == [(41, 21)]
        assert matrices._landing.cache_info().misses == 1

    def test_cache_stays_bounded(self):
        bound = matrices._landing.cache_info().maxsize
        for n in range(3, bound + 8):
            build_tensor(Kernel.CHI, VelocityGrid(n_cells=n, v_max=1.0), GridRatio(1), 0.5)
        assert matrices._landing.cache_info().currsize == bound


class TestBuilderRefusals:
    """Each builder names what it refuses; the message is checked exactly."""

    @staticmethod
    def refuses(builder, grid, r, p, message):
        with pytest.raises(ConfigurationError) as caught:
            builder(grid, GridRatio(r), p)
        assert str(caught.value) == message

    def test_integer_builder_refuses_a_fractional_ratio(self):
        self.refuses(build_delta_tensor_integer, make_grid(2, Fraction(5, 2)), Fraction(5, 2),
                     0.3, "integer-ratio builder called with fractional r")

    def test_generic_builder_refuses_a_jump_under_one_cell(self):
        self.refuses(build_delta_tensor_generic, VelocityGrid(n_cells=7, v_max=1.0),
                     Fraction(1, 2), 0.3,
                     "generic-ratio builder requires r >= 1 (jump at least one cell wide)")

    @pytest.mark.parametrize("builder,message", [
        (build_delta_tensor_integer, "jump spans 7 cells but the grid has only 7"),
        (build_delta_tensor_generic, "jump spans 7 cells but the grid has only 7"),
        (build_chi_tensor, "jump of 7 cells incompatible with 7-cell grid"),
    ])
    def test_jump_wider_than_the_grid(self, builder, message):
        self.refuses(builder, VelocityGrid(n_cells=7, v_max=1.0), Fraction(7), 0.3, message)

    def test_generic_builder_refuses_a_denominator_no_grid_has(self):
        # r*T = N - 1 needs q | T, so q <= N - 1 on every grid; past it the
        # cell edges would outgrow int64 and float64's exact integers
        self.refuses(build_delta_tensor_generic, VelocityGrid(n_cells=10, v_max=1.0),
                     Fraction(10**20 + 1, 10**20), 0.3,
                     "grid ratio 100000000000000000001/100000000000000000000 fits no "
                     "10-cell grid: its denominator exceeds 9")
        self.refuses(build_delta_tensor_generic, VelocityGrid(n_cells=3, v_max=1.0),
                     Fraction(4, 3), 0.3,
                     "grid ratio 4/3 fits no 3-cell grid: its denominator exceeds 2")

    def test_spread_builder_refuses_a_fractional_ratio(self):
        self.refuses(build_chi_tensor, make_grid(2, Fraction(5, 2)), Fraction(5, 2), 0.3,
                     "spread-kernel tensor requires integer r")

    @pytest.mark.parametrize("builder", [
        build_delta_tensor_integer, build_delta_tensor_generic, build_chi_tensor,
    ])
    @pytest.mark.parametrize("p,shown", [(1.5, "1.5"), (math.nan, "nan")])
    def test_probability_outside_the_unit_interval(self, builder, p, shown):
        self.refuses(builder, make_grid(3, Fraction(2)), Fraction(2), p,
                     f"probability P={shown} outside [0, 1]")


class TestStochasticity:
    @pytest.mark.parametrize("t_jumps,r", GENERIC_CASES)
    def test_generic_ratios_close_the_balance(self, t_jumps, r):
        grid = make_grid(t_jumps, r)
        tensor = build_delta_tensor_generic(grid, GridRatio(r), 0.85)
        report = verify_stochasticity(tensor)
        assert report.passed and report.max_deviation <= 1e-12

    def test_injected_fault_is_located(self):
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        band = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), 0.4).band.copy()
        band[2, 1] += 1e-6  # output cell 3, candidate cell 3
        tensor = InteractionTensor(kernel=Kernel.DELTA, p=0.4, grid=grid, band=band)
        report = verify_stochasticity(tensor)
        assert not report.passed
        assert report.worst_cell == 3
        assert report.max_deviation == pytest.approx(1e-6, rel=1e-6)

    def test_band_check_allocates_no_square_array(self):
        # the dense check peaked at 130 MB here; N x N floats alone are 323 kB
        grid = make_grid(4, Fraction(50))
        tensor = build_chi_tensor(grid, GridRatio(Fraction(50)), 0.7)
        tracemalloc.start()
        try:
            report = verify_stochasticity(tensor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1_000_000

    def test_spread_build_allocates_no_square_array(self):
        # one dense N x N float64 array is 8.0 MB here; the band is 0.8 MB
        grid = make_grid(10, Fraction(100))
        matrices._landing.cache_clear()  # a cached landing would pass trivially
        tracemalloc.start()
        try:
            tensor = build_chi_tensor(grid, GridRatio(Fraction(100)), 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tensor.n_cells == 1001
        assert peak < tensor.n_cells ** 2 * 8

    @settings(max_examples=40, deadline=None)
    @given(
        t_jumps=st.integers(1, 4),
        r=st.integers(1, 5),
        p=st.floats(0.0, 1.0),
    )
    def test_random_lattice_properties(self, t_jumps, r, p):
        grid = VelocityGrid(n_cells=r * t_jumps + 1, v_max=1.0)
        for builder in (build_delta_tensor_integer, build_chi_tensor):
            tensor = builder(grid, GridRatio(Fraction(r)), p)
            assert tensor.band.min() >= 0.0
            assert verify_stochasticity(tensor).max_deviation <= 1e-12

