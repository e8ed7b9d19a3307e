"""Hierarchical wire models: per-layer R/C, repeaters, and wire energy.

NeuroMeter abstracts every interconnect (inner-TU links, the central data
bus, NoC links) into RC wire segments on one of three metal-stack layers.
This module supplies the per-millimetre electrical parameters and the two
standard results the architecture layer needs:

* the delay of an optimally repeated wire (used for cycle-time checks and
  for deciding how many pipeline stages a long bus needs), and
* the switching energy per bit per millimetre (wire capacitance plus the
  repeaters that drive it).

Both broadcast over arrays of wire lengths, so the batch kernels call the
same functions as the scalar models; a scalar length returns a plain
``float``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, TechnologyError
from repro.tech.node import TechNode
from repro.units import OHM_FF_TO_NS, fj_to_pj, nm_to_um, ps_to_ns


class WireType(enum.Enum):
    """Metal-stack layer a wire is routed on."""

    LOCAL = "local"
    INTERMEDIATE = "intermediate"
    GLOBAL = "global"


@dataclass(frozen=True)
class WireParams:
    """Per-millimetre electrical parameters of one wire layer."""

    wire_type: WireType
    r_ohm_per_mm: float
    c_ff_per_mm: float
    pitch_um: float

    @property
    def rc_ns_per_mm2(self) -> float:
        """Distributed RC product in ns/mm^2 (ohm * fF = 1e-15 s -> 1e-6 ns)."""
        return self.r_ohm_per_mm * self.c_ff_per_mm * OHM_FF_TO_NS


# Resistance grows as wires shrink with the node; capacitance per length is
# nearly node-independent.  Values bracket published 65 nm-7 nm data.
_RESISTANCE_TABLE = {
    # feature_nm: (local, intermediate, global) ohm/mm
    65: (1500.0, 600.0, 150.0),
    45: (2500.0, 1000.0, 250.0),
    28: (4500.0, 2000.0, 450.0),
    16: (9000.0, 4000.0, 900.0),
    7: (25000.0, 10000.0, 2000.0),
}

_CAPACITANCE_FF_PER_MM = {
    WireType.LOCAL: 180.0,
    WireType.INTERMEDIATE: 200.0,
    WireType.GLOBAL: 240.0,
}

# Wire pitch relative to the feature size (local wires at tight pitch,
# global wires much coarser).
_PITCH_FACTOR = {
    WireType.LOCAL: 2.5,
    WireType.INTERMEDIATE: 4.0,
    WireType.GLOBAL: 12.0,
}

#: Repeater energy overhead on top of the bare wire capacitance.
_REPEATER_ENERGY_FACTOR = 1.3


def wire_params(tech: TechNode, wire_type: WireType) -> WireParams:
    """Electrical parameters of ``wire_type`` at technology node ``tech``.

    Resistance is log-log interpolated between tabulated nodes the same way
    :func:`repro.tech.node.node` interpolates device parameters.
    """
    return _wire_params(tech.feature_nm, wire_type)


#: ``(feature_nm, wire_type)`` pairs memoized, least recently used
#: dropped first; a daemon sees a new node with every cold context.  The
#: memo is typed, so each caller gets the number types its own
#: ``feature_nm`` gives.
MAX_WIRE_PARAMS = 64


@functools.lru_cache(maxsize=MAX_WIRE_PARAMS, typed=True)
def _wire_params(feature_nm: float, wire_type: WireType) -> WireParams:
    resistances = _resistance_at(feature_nm)
    index = {
        WireType.LOCAL: 0,
        WireType.INTERMEDIATE: 1,
        WireType.GLOBAL: 2,
    }[wire_type]
    return WireParams(
        wire_type=wire_type,
        r_ohm_per_mm=resistances[index],
        c_ff_per_mm=_CAPACITANCE_FF_PER_MM[wire_type],
        pitch_um=nm_to_um(_PITCH_FACTOR[wire_type] * feature_nm),
    )


def _resistance_at(feature_nm: float) -> tuple[float, float, float]:
    if feature_nm in _RESISTANCE_TABLE:
        return _RESISTANCE_TABLE[int(feature_nm)]
    nodes = sorted(_RESISTANCE_TABLE)
    if not nodes[0] <= feature_nm <= nodes[-1]:
        raise TechnologyError(
            f"no wire parameters for {feature_nm} nm (supported range "
            f"[{nodes[0]}, {nodes[-1]}] nm)"
        )
    lo = max(n for n in nodes if n < feature_nm)
    hi = min(n for n in nodes if n > feature_nm)
    frac = (math.log(feature_nm) - math.log(lo)) / (math.log(hi) - math.log(lo))

    def mix(a: float, b: float) -> float:
        return math.exp(math.log(a) * (1 - frac) + math.log(b) * frac)

    a, b = _RESISTANCE_TABLE[lo], _RESISTANCE_TABLE[hi]
    return (mix(a[0], b[0]), mix(a[1], b[1]), mix(a[2], b[2]))


def unrepeated_wire_delay_ns(
    tech: TechNode, wire: WireParams, length_mm: float
) -> float:
    """Elmore delay of a bare (distributed RC) wire of ``length_mm``.

    The distributed-RC Elmore delay is ``0.5 * R * C``; appropriate for the
    short intra-unit wires that never warrant repeaters.
    """
    _check_length(length_mm)
    return 0.5 * wire.rc_ns_per_mm2 * length_mm**2


def repeated_wire_delay_ns(
    tech: TechNode, wire: WireParams, length_mm: float
) -> float:
    """Delay of an optimally repeated wire of ``length_mm``.

    With repeaters of delay ``t_buf`` inserted every ``L_opt =
    sqrt(2 t_buf / rc)``, total delay grows linearly with length at
    ``sqrt(2 t_buf rc)`` per mm.  Wires shorter than one optimal segment
    fall back to the bare Elmore delay, whichever is smaller.
    """
    t_buf_ns = ps_to_ns(2.0 * tech.fo4_ps)
    rc = wire.rc_ns_per_mm2
    optimal_segment_mm = math.sqrt(2.0 * t_buf_ns / rc)
    linear = math.sqrt(2.0 * t_buf_ns * rc) * length_mm
    short = np.minimum(
        unrepeated_wire_delay_ns(tech, wire, length_mm)
        + np.where(length_mm > 0, t_buf_ns, 0.0),
        linear + t_buf_ns,
    )
    delay = np.where(length_mm <= optimal_segment_mm, short, linear)
    return float(delay) if delay.ndim == 0 else delay


def wire_energy_pj_per_bit(
    tech: TechNode, wire: WireParams, length_mm: float
) -> float:
    """Switching energy to move one bit over ``length_mm`` of wire.

    Charges the full wire capacitance plus a repeater overhead at Vdd^2;
    activity factors are applied by the caller.
    """
    _check_length(length_mm)
    energy_fj = (
        _REPEATER_ENERGY_FACTOR * wire.c_ff_per_mm * length_mm * tech.vdd_v**2
    )
    return fj_to_pj(energy_fj)


def _check_length(length_mm) -> None:
    shortest = np.min(length_mm)
    if shortest < 0:
        raise ConfigurationError(
            f"wire length must be non-negative, got {shortest}"
        )


def wire_pipeline_stages(
    tech: TechNode, wire: WireParams, length_mm: float, cycle_time_ns: float
) -> int:
    """Pipeline registers needed for a wire to meet the clock period.

    NeuroMeter pipelines long buses (e.g. the CDB) when their repeated-wire
    delay exceeds the cycle time; the result is at least 1 (every bus has a
    launch register).  An ``int`` for one length, a float array for many.
    """
    if cycle_time_ns <= 0:
        raise ConfigurationError(
            f"cycle time must be positive, got {cycle_time_ns}"
        )
    delay = repeated_wire_delay_ns(tech, wire, length_mm)
    stages = np.maximum(1, np.ceil(delay / cycle_time_ns))
    return int(stages) if np.ndim(stages) == 0 else stages
