"""GEMM tiling and scheduling onto the TU fleet."""

import dataclasses

import pytest

from repro.arch.tensor_unit import Dataflow
from repro.config.presets import eyeriss, eyeriss_context
from repro.dse.space import DesignPoint
from repro.arch.component import ModelContext
from repro.errors import MappingError
from repro.perf.mapping import ArchView, map_gemm
from repro.perf.ops import Gemm
from repro.perf.optimizations import OptimizationConfig
from repro.tech.node import node


@pytest.fixture(scope="module")
def ctx():
    return ModelContext(tech=node(28), freq_ghz=0.7)


@pytest.fixture(scope="module")
def brawny(ctx) -> ArchView:
    return ArchView.of(DesignPoint(64, 2, 2, 4).build(), ctx)


@pytest.fixture(scope="module")
def wimpy(ctx) -> ArchView:
    return ArchView.of(DesignPoint(8, 4, 4, 8).build(), ctx)


@pytest.fixture(scope="module")
def eyeriss_arch() -> ArchView:
    """Eyeriss's 14x12 array: the one non-square tensor unit."""
    return ArchView.of(eyeriss(), eyeriss_context())


OPT = OptimizationConfig.all_on()


def test_archview_extraction(brawny):
    assert brawny.tu_rows == 64
    assert brawny.tus == 16
    assert brawny.cores == 8
    assert brawny.macs_per_cycle == 65536


def test_archview_requires_tensor_units(ctx):
    from repro.arch.chip import Chip, ChipConfig
    from repro.arch.core import CoreConfig
    from repro.arch.reduction_tree import ReductionTreeConfig

    rt_chip = Chip(
        ChipConfig(
            core=CoreConfig(
                tu=None, rt=ReductionTreeConfig(inputs=64),
                reduction_trees=1,
            )
        )
    )
    with pytest.raises(MappingError):
        ArchView.of(rt_chip, ctx)


def test_tile_counts(brawny):
    mapping = map_gemm(Gemm(m=1024, k=576, n=256), brawny, OPT)
    assert mapping.k_tiles == 9
    assert mapping.tiles == 9 * 4


def test_useful_macs_preserved(brawny):
    gemm = Gemm(m=512, k=512, n=512)
    assert map_gemm(gemm, brawny, OPT).useful_macs == gemm.macs


def test_more_tus_run_faster_on_large_gemms(brawny, wimpy, ctx):
    gemm = Gemm(m=8192, k=2048, n=2048)
    fast = map_gemm(gemm, brawny, OPT).compute_cycles
    slow = map_gemm(gemm, wimpy, OPT).compute_cycles
    # brawny has 8x the MACs; expect a large (if not perfect) speedup.
    assert slow / fast > 4.0


def test_wimpy_wins_utilization_on_small_m(brawny, wimpy):
    gemm = Gemm(m=49, k=512, n=2048)
    b = map_gemm(gemm, brawny, OPT)
    w = map_gemm(gemm, wimpy, OPT)
    util_b = gemm.macs / (b.compute_cycles * brawny.macs_per_cycle)
    util_w = gemm.macs / (w.compute_cycles * wimpy.macs_per_cycle)
    assert util_w > util_b


def test_double_buffering_hides_weight_loads(brawny):
    gemm = Gemm(m=256, k=1024, n=1024)
    on = map_gemm(gemm, brawny, OptimizationConfig.all_on())
    off = map_gemm(gemm, brawny, OptimizationConfig.all_off())
    assert on.compute_cycles < off.compute_cycles


def test_k_chains_accumulate_locally(brawny):
    # Plenty of N tiles: no K splitting, so no merge work.
    gemm = Gemm(m=4096, k=4096, n=4096)
    mapping = map_gemm(gemm, brawny, OPT)
    assert mapping.merge_vector_ops == 0


def test_k_split_when_tiles_scarce(brawny):
    # One N tile, deep K, tiny M: K chains must split across TUs.
    gemm = Gemm(m=32, k=8192, n=64)
    mapping = map_gemm(gemm, brawny, OPT)
    assert mapping.merge_vector_ops > 0


def test_weight_replication_traffic_on_data_parallel(brawny):
    # Few weight tiles + deep M: cores replicate weights over the NoC.
    gemm = Gemm(m=100_000, k=64, n=64)
    mapping = map_gemm(gemm, brawny, OPT)
    assert mapping.noc_bytes >= gemm.k * gemm.n


def test_single_core_has_no_noc_traffic(ctx):
    single = ArchView.of(DesignPoint(64, 4, 1, 1).build(), ctx)
    mapping = map_gemm(Gemm(m=1024, k=1024, n=1024), single, OPT)
    assert mapping.noc_bytes == 0


def test_mem_traffic_covers_operands(brawny):
    gemm = Gemm(m=256, k=256, n=256)
    mapping = map_gemm(gemm, brawny, OPT)
    assert mapping.mem_read_bytes >= gemm.m * gemm.k
    assert mapping.mem_write_bytes >= gemm.m * gemm.n


@pytest.mark.parametrize("base", ["brawny", "eyeriss_arch"])
def test_weight_stationary_compute_respects_peak(base, request):
    arch = dataclasses.replace(
        request.getfixturevalue(base), dataflow=Dataflow.WEIGHT_STATIONARY
    )
    gemm = Gemm(m=1000, k=1000, n=1000)
    mapping = map_gemm(gemm, arch, OPT)
    assert (
        mapping.compute_cycles * arch.macs_per_cycle
        >= mapping.useful_macs
    )


def test_occupied_cycles_at_least_useful(brawny):
    gemm = Gemm(m=128, k=128, n=128)
    mapping = map_gemm(gemm, brawny, OPT)
    assert mapping.occupied_mac_cycles >= gemm.macs


class TestOutputStationary:
    @pytest.fixture()
    def os_arch(self, brawny):
        import dataclasses

        from repro.arch.tensor_unit import Dataflow

        return dataclasses.replace(
            brawny, dataflow=Dataflow.OUTPUT_STATIONARY
        )

    def test_never_merges_partial_sums(self, os_arch):
        mapping = map_gemm(Gemm(m=32, k=8192, n=64), os_arch, OPT)
        assert mapping.merge_vector_ops == 0
        assert mapping.k_tiles == 1

    def test_restreams_operands(self, brawny, os_arch):
        gemm = Gemm(m=4096, k=512, n=4096)
        os_map = map_gemm(gemm, os_arch, OPT)
        ws_map = map_gemm(gemm, brawny, OPT)
        # OS re-reads the weight panel once per M tile.
        assert os_map.mem_read_bytes > ws_map.mem_read_bytes

    def test_useful_macs_preserved(self, os_arch):
        gemm = Gemm(m=300, k=300, n=300)
        assert map_gemm(gemm, os_arch, OPT).useful_macs == gemm.macs

    @pytest.mark.parametrize("base", ["brawny", "eyeriss_arch"])
    def test_compute_respects_peak(self, base, request):
        os_arch = dataclasses.replace(
            request.getfixturevalue(base),
            dataflow=Dataflow.OUTPUT_STATIONARY,
        )
        gemm = Gemm(m=1000, k=1000, n=1000)
        mapping = map_gemm(gemm, os_arch, OPT)
        assert (
            mapping.compute_cycles * os_arch.macs_per_cycle
            >= mapping.useful_macs
        )


class TestByteCountRounding:
    """Fractional core shares must round traffic *up*, never truncate.

    ``int()`` on the ``cross_fraction`` products systematically
    undercounted NoC/memory bytes (a byte partially crossing the NoC
    still occupies a flit), skewing bound attribution wimpy-ward.  These
    pins lock in the corrected ceil'd counts for a small-M GEMM whose
    cross fraction is fractional (31/32 on the wimpy chip).
    """

    GEMM = Gemm(m=7, k=100, n=100)

    def test_weight_stationary_pinned_counts(self, wimpy):
        mapping = map_gemm(self.GEMM, wimpy, OPT)
        assert mapping.noc_bytes == 25092
        assert mapping.mem_read_bytes == 38000
        assert mapping.mem_write_bytes == 25900

    def test_output_stationary_pinned_counts(self, wimpy):
        import dataclasses

        from repro.arch.tensor_unit import Dataflow

        os_arch = dataclasses.replace(
            wimpy, dataflow=Dataflow.OUTPUT_STATIONARY
        )
        mapping = map_gemm(self.GEMM, os_arch, OPT)
        # broadcast = ceil(m*k * 31/32) = ceil(678.125): rounds up, the
        # old truncation reported 678.
        assert mapping.noc_bytes == 679
        assert mapping.mem_read_bytes == 12800
        assert mapping.mem_write_bytes == 700

    def test_byte_counts_are_integral(self, wimpy):
        mapping = map_gemm(self.GEMM, wimpy, OPT)
        for value in (
            mapping.noc_bytes,
            mapping.mem_read_bytes,
            mapping.mem_write_bytes,
        ):
            assert isinstance(value, int)
