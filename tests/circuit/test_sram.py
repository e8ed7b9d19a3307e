"""SRAM array model and its internal organization optimizer."""

import pytest

from repro.circuit.sram import (
    MAX_BANKS,
    SUBARRAY_ROW_CHOICES,
    SramArray,
    SramRequirements,
    optimize_sram,
)
from repro.errors import ConfigurationError, OptimizationError
from repro.tech.node import node


@pytest.fixture(scope="module")
def tech():
    return node(28)


def _array(**kwargs) -> SramArray:
    defaults = dict(capacity_bytes=1 << 20, block_bytes=64)
    defaults.update(kwargs)
    return SramArray(**defaults)


class TestGeometry:
    def test_wide_blocks_split_across_subarrays(self):
        wide = _array(block_bytes=1024)
        assert wide.subarray_cols <= 512
        assert wide.activated_subarrays == 1024 * 8 // wide.subarray_cols

    def test_port_count(self):
        assert _array(read_ports=2, write_ports=1).total_ports == 3

    def test_invalid_organizations_rejected(self):
        with pytest.raises(ConfigurationError):
            _array(banks=0)
        with pytest.raises(ConfigurationError):
            _array(read_ports=0)
        with pytest.raises(ConfigurationError):
            _array(subarray_rows=4)
        with pytest.raises(ConfigurationError):
            SramArray(capacity_bytes=64, block_bytes=64, banks=4)


class TestArea:
    def test_area_roughly_linear_in_capacity(self, tech):
        one = _array(capacity_bytes=1 << 20).area_mm2(tech)
        four = _array(capacity_bytes=4 << 20).area_mm2(tech)
        assert 3.0 < four / one < 5.0

    def test_extra_ports_cost_area(self, tech):
        single = _array().area_mm2(tech)
        dual = _array(read_ports=2, write_ports=2).area_mm2(tech)
        assert dual > 1.3 * single

    def test_large_arrays_pay_global_routing(self, tech):
        # mm^2 per bit grows with capacity (H-tree/redundancy overhead).
        density_small = _array(capacity_bytes=1 << 20).area_mm2(tech) / (
            1 << 20
        )
        density_large = _array(capacity_bytes=32 << 20).area_mm2(tech) / (
            32 << 20
        )
        assert density_large > density_small

    def test_28nm_density_plausible(self, tech):
        # A 24 MB single-port array: 0.2 - 0.8 mm^2 per Mbit at 28 nm.
        array = _array(capacity_bytes=24 << 20, block_bytes=256, banks=2)
        per_mbit = array.area_mm2(tech) / (24 * 8)
        assert 0.2 < per_mbit < 0.8


class TestEnergy:
    def test_write_costs_more_than_read(self, tech):
        array = _array()
        assert array.write_energy_pj(tech) > array.read_energy_pj(tech)

    def test_energy_grows_with_block_size(self, tech):
        small = _array(block_bytes=32).read_energy_pj(tech)
        large = _array(block_bytes=256).read_energy_pj(tech)
        assert large > 4.0 * small

    def test_energy_per_bit_plausible(self, tech):
        array = _array(capacity_bytes=24 << 20, block_bytes=256, banks=2)
        per_bit = array.read_energy_pj(tech) / (256 * 8)
        assert 0.2 < per_bit < 5.0  # pJ/bit for a many-MB array

    def test_leakage_scales_with_capacity(self, tech):
        one = _array(capacity_bytes=1 << 20).leakage_w(tech)
        eight = _array(capacity_bytes=8 << 20).leakage_w(tech)
        assert eight > 4.0 * one


class TestTiming:
    def test_latency_grows_with_subarray_rows(self, tech):
        fast = _array(subarray_rows=64).access_latency_ns(tech)
        slow = _array(subarray_rows=512).access_latency_ns(tech)
        assert slow > fast

    def test_bank_cycle_exceeds_latency(self, tech):
        array = _array()
        assert array.random_cycle_ns(tech) > array.access_latency_ns(tech)

    def test_small_buffer_is_fast(self, tech):
        tiny = SramArray(
            capacity_bytes=4096, block_bytes=16, subarray_rows=64
        )
        assert tiny.access_latency_ns(tech) < 1.0


class TestBandwidth:
    def test_read_bandwidth_formula(self):
        array = _array(banks=4, read_ports=2, block_bytes=64)
        assert array.read_bandwidth_gbps(1.0) == pytest.approx(
            4 * 2 * 64 * 1.0
        )

    def test_write_ports_zero_share_read_port(self):
        array = SramArray(
            capacity_bytes=1 << 20,
            block_bytes=64,
            banks=2,
            read_ports=1,
            write_ports=0,
        )
        assert array.write_bandwidth_gbps(1.0) > 0


class TestOptimizer:
    def test_meets_bandwidth_targets(self, tech):
        req = SramRequirements(
            capacity_bytes=8 << 20,
            block_bytes=128,
            freq_ghz=0.7,
            target_latency_ns=6.0,
            target_read_bandwidth_gbps=500.0,
            target_write_bandwidth_gbps=200.0,
        )
        org = optimize_sram(req, tech)
        assert org.read_bandwidth_gbps(0.7) >= 500.0
        assert org.write_bandwidth_gbps(0.7) >= 200.0
        assert org.access_latency_ns(tech) <= 6.0

    def test_prefers_minimum_area(self, tech):
        relaxed = SramRequirements(
            capacity_bytes=1 << 20,
            block_bytes=64,
            freq_ghz=0.7,
            target_latency_ns=20.0,
        )
        org = optimize_sram(relaxed, tech)
        # A relaxed target should not buy extra ports.
        assert org.read_ports == 1
        assert org.write_ports == 1

    def test_higher_bandwidth_never_shrinks_the_array(self, tech):
        base = SramRequirements(
            capacity_bytes=4 << 20,
            block_bytes=64,
            freq_ghz=0.7,
            target_latency_ns=10.0,
            target_read_bandwidth_gbps=100.0,
        )
        demanding = SramRequirements(
            capacity_bytes=4 << 20,
            block_bytes=64,
            freq_ghz=0.7,
            target_latency_ns=10.0,
            target_read_bandwidth_gbps=2_000.0,
        )
        assert optimize_sram(demanding, tech).area_mm2(tech) >= (
            optimize_sram(base, tech).area_mm2(tech)
        )

    def test_unreachable_latency_raises(self, tech):
        impossible = SramRequirements(
            capacity_bytes=64 << 20,
            block_bytes=256,
            freq_ghz=0.7,
            target_latency_ns=0.01,
        )
        with pytest.raises(OptimizationError):
            optimize_sram(impossible, tech)

    def test_tpu_v2_vmem_ports_are_discovered(self):
        # Sec. II-C: NeuroMeter automatically finds that TPU-v2's VMem
        # needs two read ports and one write port per bank at the given
        # throughput.  Reproduce the search outcome.
        t16 = node(16)
        req = SramRequirements(
            capacity_bytes=8 << 20,
            block_bytes=128,
            freq_ghz=0.7,
            target_latency_ns=4 / 0.7,
            target_read_bandwidth_gbps=2 * 128 * 0.7 * 4,
            target_write_bandwidth_gbps=128 * 0.7 * 4,
        )
        org = optimize_sram(req, t16)
        assert org.read_bandwidth_gbps(0.7) >= 2 * 128 * 0.7 * 4
        assert org.write_ports >= 1


def _reference_search(req: SramRequirements, tech):
    """The optimizer as a per-candidate loop over scalar SramArrays.

    Banks outer, then read ports, write ports and subarray rows; the
    first candidate with the smallest (area, read energy) wins.
    """
    best = None
    banks = 1
    while banks <= MAX_BANKS:
        if req.capacity_bytes >= banks * req.block_bytes:
            for read_ports in (1, 2, 4):
                for write_ports in (1, 2):
                    for rows in SUBARRAY_ROW_CHOICES:
                        org = SramArray(
                            req.capacity_bytes,
                            req.block_bytes,
                            banks,
                            read_ports,
                            write_ports,
                            rows,
                        )
                        if (
                            org.access_latency_ns(tech)
                            > req.latency_bound_ns
                            or org.read_bandwidth_gbps(req.freq_ghz)
                            < req.target_read_bandwidth_gbps
                            or org.write_bandwidth_gbps(req.freq_ghz)
                            < req.target_write_bandwidth_gbps
                        ):
                            continue
                        key = (org.area_mm2(tech), org.read_energy_pj(tech))
                        if best is None or key < best[0]:
                            best = (key, org)
        banks *= 2
    return None if best is None else best[1]


@pytest.mark.parametrize(
    "capacity_bytes, block_bytes, freq_ghz, cycles, read_x, write_x",
    [
        (1 << 20, 64, 0.7, 1, 0.0, 0.0),
        (3 << 20, 256, 0.7, 2, 2.0, 1.0),
        (108 * 1024, 8, 0.2, 2, 27 * 0.2, 27 * 0.2),
        (8 << 20, 128, 0.7, 4, 8.0, 4.0),
        (32 << 20, 64, 3.0, 1, 0.0, 0.0),
    ],
)
def test_lattice_search_matches_the_candidate_loop(
    tech, capacity_bytes, block_bytes, freq_ghz, cycles, read_x, write_x
):
    req = SramRequirements(
        capacity_bytes=capacity_bytes,
        block_bytes=block_bytes,
        freq_ghz=freq_ghz,
        target_latency_ns=cycles / freq_ghz,
        target_read_bandwidth_gbps=read_x * block_bytes * freq_ghz,
        target_write_bandwidth_gbps=write_x * block_bytes * freq_ghz,
    )
    expected = _reference_search(req, tech)
    if expected is None:
        with pytest.raises(OptimizationError):
            optimize_sram(req, tech)
    else:
        assert optimize_sram(req, tech) == expected


class TestRequirements:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            SramRequirements(capacity_bytes=0, block_bytes=8, freq_ghz=1.0)
        with pytest.raises(ConfigurationError):
            SramRequirements(
                capacity_bytes=64, block_bytes=0, freq_ghz=1.0
            )
        with pytest.raises(ConfigurationError):
            SramRequirements(
                capacity_bytes=64, block_bytes=8, freq_ghz=0.0
            )

    def test_default_latency_is_one_cycle(self):
        req = SramRequirements(
            capacity_bytes=1024, block_bytes=8, freq_ghz=2.0
        )
        assert req.latency_bound_ns == pytest.approx(0.5)
