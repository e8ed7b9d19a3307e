"""Network-on-Chip: routers and links connecting the cores.

Per Sec. II-A NeuroMeter supports 2D-mesh, ring, bus, and H-tree NoCs.  The
flit width is sized from the configured bisection bandwidth (the Table I
datacenter study fixes 256 GB/s), link length comes from the core pitch,
and routers are modeled as input-buffered wormhole routers (buffers +
crossbar + allocator), the McPAT router decomposition.  The closed forms
take the topology as a fixed choice and broadcast over the node counts
and the core pitch, so the batch kernels evaluate them over whole grids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.dff import dff_active_energy_pj, dff_area_mm2, dff_leakage_w
from repro.circuit.gates import (
    logic_area_mm2,
    logic_delay_ns,
    logic_energy_pj,
    logic_leakage_w,
)
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.wire import (
    WireType,
    repeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
)
from repro.tech.node import TechNode
from repro.units import dynamic_power_w, um_to_mm

#: Flits buffered per router input port.
BUFFER_DEPTH = 8

#: Crossbar gate count per port-pair per flit bit.
CROSSBAR_GATES_PER_BIT = 3

#: Allocation/arbitration logic per router.
ALLOCATOR_GATES = 4_000

MIN_FLIT_BITS = 64


class NocTopology(enum.Enum):
    """Supported NoC topologies."""

    MESH_2D = "mesh"
    RING = "ring"
    BUS = "bus"
    HTREE = "htree"


# -- closed forms (node counts and pitch broadcast) --------------------------


def bisection_links(topology: NocTopology, nodes_x, nodes_y):
    """Links crossing the canonical bisection cut."""
    if topology is NocTopology.MESH_2D:
        return np.minimum(nodes_x, nodes_y)
    if topology is NocTopology.RING:
        return 2
    return 1  # bus and H-tree: one shared medium crosses the cut


def link_count(topology: NocTopology, nodes_x, nodes_y):
    """Unidirectional-link pairs in a network of more than one node."""
    if topology is NocTopology.MESH_2D:
        return nodes_x * (nodes_y - 1) + nodes_y * (nodes_x - 1)
    if topology is NocTopology.RING:
        return nodes_x * nodes_y
    if topology is NocTopology.HTREE:
        return 2 * (nodes_x * nodes_y) - 2
    return 1  # bus: one shared medium


def router_ports(topology: NocTopology) -> int:
    if topology is NocTopology.MESH_2D:
        return 5
    if topology in (NocTopology.RING, NocTopology.HTREE):
        return 3
    return 2  # bus interface: injection + tap


def flit_bits(
    topology: NocTopology, nodes_x, nodes_y, bisection_gbps, freq_ghz
):
    """Flit width needed to reach the bisection bandwidth."""
    needed = bisection_gbps * 8.0 / (
        bisection_links(topology, nodes_x, nodes_y) * freq_ghz
    )
    return np.maximum(MIN_FLIT_BITS, np.ceil(needed))


def average_hops(topology: NocTopology, nodes_x, nodes_y):
    """Mean router hops of uniform-random traffic (more than one node)."""
    if topology is NocTopology.MESH_2D:
        return (nodes_x + nodes_y) / 3.0
    nodes = nodes_x * nodes_y
    if topology is NocTopology.RING:
        return nodes / 4.0
    if topology is NocTopology.HTREE:
        log2 = np.log2 if isinstance(nodes, np.ndarray) else math.log2
        return 2.0 * log2(np.maximum(nodes, 2))
    return 1.0  # bus: single shared hop


def link_length_mm(topology: NocTopology, nodes_x, nodes_y, node_pitch_mm):
    """Length of one link (bus spans the chip edge-to-edge)."""
    if topology is NocTopology.BUS:
        return node_pitch_mm * np.maximum(nodes_x, nodes_y)
    return node_pitch_mm


def node_pitch_mm(core_area_mm2):
    """Core pitch the links span: the side of a square core."""
    return np.sqrt(np.maximum(core_area_mm2, 1e-6))


def router_energy_per_flit_pj(tech: TechNode, ports: int, flit):
    """Energy for one flit to traverse one router."""
    crossbar_gates = ports * ports * flit * CROSSBAR_GATES_PER_BIT
    # Buffer write + read, one crossbar input, the allocator.
    return (
        2.0 * dff_active_energy_pj(tech, flit)
        + logic_energy_pj(tech, crossbar_gates, 0.25) / ports
        + logic_energy_pj(tech, ALLOCATOR_GATES, 0.3)
    )


def link_energy_per_flit_pj(tech: TechNode, flit, length_mm):
    """Energy for one flit to traverse one link."""
    wire = wire_params(tech, WireType.GLOBAL)
    return flit * wire_energy_pj_per_bit(tech, wire, length_mm)


def energy_per_byte_pj(
    ctx: ModelContext,
    topology: NocTopology,
    nodes_x,
    nodes_y,
    bisection_gbps,
    node_pitch_mm,
):
    """Average energy to move one byte between two random cores.

    Mean hop count times the per-flit router + link energies, normalized
    per bit; for networks of more than one node.
    """
    flit = flit_bits(topology, nodes_x, nodes_y, bisection_gbps, ctx.freq_ghz)
    length_mm = link_length_mm(topology, nodes_x, nodes_y, node_pitch_mm)
    per_flit = average_hops(topology, nodes_x, nodes_y) * (
        router_energy_per_flit_pj(ctx.tech, router_ports(topology), flit)
        + link_energy_per_flit_pj(ctx.tech, flit, length_mm)
    )
    return per_flit * 8.0 / flit


def noc_terms(
    ctx: ModelContext,
    topology: NocTopology,
    nodes_x,
    nodes_y,
    bisection_gbps,
    node_pitch_mm,
) -> tuple[Terms, Terms]:
    """Routers and links of a network of more than one node."""
    tech = ctx.tech
    activity = calibration.TDP_ACTIVITY["interconnect"]
    overhead = calibration.CLOCK_NETWORK_OVERHEAD
    nodes = nodes_x * nodes_y
    ports = router_ports(topology)
    flit = flit_bits(topology, nodes_x, nodes_y, bisection_gbps, ctx.freq_ghz)

    buffer_bits = ports * BUFFER_DEPTH * flit
    crossbar_gates = ports * ports * flit * CROSSBAR_GATES_PER_BIT
    router_area = (
        dff_area_mm2(tech, buffer_bits)
        + logic_area_mm2(tech, crossbar_gates)
        + logic_area_mm2(tech, ALLOCATOR_GATES)
    )
    router_energy = router_energy_per_flit_pj(tech, ports, flit) * ports * 0.5
    routers = Terms(
        name="noc routers",
        area_mm2=nodes * router_area,
        dynamic_w=nodes
        * dynamic_power_w(router_energy * overhead, ctx.freq_ghz)
        * activity,
        leakage_w=nodes
        * (
            dff_leakage_w(tech, buffer_bits)
            + logic_leakage_w(tech, crossbar_gates)
            + logic_leakage_w(tech, ALLOCATOR_GATES)
        ),
        cycle_time_ns=logic_delay_ns(tech),
    )

    wire = wire_params(tech, WireType.GLOBAL)
    pairs = link_count(topology, nodes_x, nodes_y)
    length_mm = link_length_mm(topology, nodes_x, nodes_y, node_pitch_mm)
    # Each link pair carries flit bits in both directions.
    links = Terms(
        name="noc links",
        area_mm2=um_to_mm(pairs * 2 * flit * wire.pitch_um) * length_mm,
        dynamic_w=pairs
        * dynamic_power_w(
            link_energy_per_flit_pj(tech, flit, length_mm) * overhead,
            ctx.freq_ghz,
        )
        * activity,
        leakage_w=0.0,
        cycle_time_ns=repeated_wire_delay_ns(tech, wire, length_mm)
        if topology is NocTopology.BUS
        else 0.0,
    )
    return routers, links


@dataclass(frozen=True)
class NocConfig:
    """NoC configuration.

    Attributes:
        topology: Network topology.
        nodes_x: Horizontal node count (``T_x`` in the paper).
        nodes_y: Vertical node count (``T_y``).
        bisection_gbps: Required bisection bandwidth per direction (GB/s).
    """

    topology: NocTopology
    nodes_x: int
    nodes_y: int
    bisection_gbps: float

    def __post_init__(self) -> None:
        if self.nodes_x < 1 or self.nodes_y < 1:
            raise ConfigurationError("NoC needs at least one node")
        if self.bisection_gbps <= 0:
            raise ConfigurationError("bisection bandwidth must be positive")

    @property
    def nodes(self) -> int:
        return self.nodes_x * self.nodes_y

    @property
    def bisection_links(self) -> int:
        """Links crossing the canonical bisection cut."""
        return int(bisection_links(self.topology, self.nodes_x, self.nodes_y))

    @property
    def link_count(self) -> int:
        """Unidirectional-link pairs in the network."""
        if self.nodes == 1:
            return 0
        return int(link_count(self.topology, self.nodes_x, self.nodes_y))

    def flit_bits(self, freq_ghz: float) -> int:
        """Flit width needed to reach the bisection bandwidth."""
        return int(
            flit_bits(
                self.topology,
                self.nodes_x,
                self.nodes_y,
                self.bisection_gbps,
                freq_ghz,
            )
        )

    def average_hops(self) -> float:
        """Mean router hops of uniform-random traffic."""
        if self.nodes == 1:
            return 0.0
        return float(average_hops(self.topology, self.nodes_x, self.nodes_y))


class NetworkOnChip:
    """Analytical model of the NoC at a given core pitch."""

    def __init__(self, config: NocConfig, node_pitch_mm: float):
        if node_pitch_mm <= 0:
            raise ConfigurationError("node pitch must be positive")
        self.config = config
        self.node_pitch_mm = node_pitch_mm

    def link_length_mm(self) -> float:
        """Length of one link (bus spans the chip edge-to-edge)."""
        cfg = self.config
        return float(
            link_length_mm(
                cfg.topology, cfg.nodes_x, cfg.nodes_y, self.node_pitch_mm
            )
        )

    def link_latency_ns(self, ctx: ModelContext) -> float:
        """Propagation delay of one (repeated) link."""
        wire = wire_params(ctx.tech, WireType.GLOBAL)
        return repeated_wire_delay_ns(ctx.tech, wire, self.link_length_mm())

    # -- traffic (used by the performance simulator) -------------------------

    def energy_per_byte_pj(self, ctx: ModelContext) -> float:
        """Average NoC energy to move one byte between two random cores."""
        cfg = self.config
        if cfg.nodes == 1:
            return 0.0
        return float(
            energy_per_byte_pj(
                ctx,
                cfg.topology,
                cfg.nodes_x,
                cfg.nodes_y,
                cfg.bisection_gbps,
                self.node_pitch_mm,
            )
        )

    # -- rollup ------------------------------------------------------------

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Routers + links rollup at TDP interconnect activity."""
        cfg = self.config
        if cfg.nodes == 1:
            return Estimate(
                name="network-on-chip",
                area_mm2=0.0,
                dynamic_w=0.0,
                leakage_w=0.0,
            )
        parts = noc_terms(
            ctx,
            cfg.topology,
            cfg.nodes_x,
            cfg.nodes_y,
            cfg.bisection_gbps,
            self.node_pitch_mm,
        )
        return Estimate.compose(
            "network-on-chip", [part.estimate() for part in parts]
        )
