"""RC networks and the Elmore delay engine.

The paper computes component-level timing with the Elmore delay model
(Elmore, 1948): for an RC tree driven at its root, the delay to a node *k*
is ``sum_i R_i * C_i(downstream)`` over every resistor *i* on the path from
the root to *k*, where ``C_i(downstream)`` is the total capacitance in the
subtree fed through resistor *i*.

Interconnect segments are abstracted into the standard pi-RC model
(Fig. 2(d) of the paper): a distributed wire of total resistance ``R`` and
capacitance ``C`` becomes ``C/2 -- R -- C/2``.

Units: resistance in ohm, capacitance in fF, delay in ns
(``ohm * fF = 1e-6 ns``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.units import OHM_FF_TO_NS


@dataclass
class RCTree:
    """One node of an RC tree.

    Attributes:
        name: Label used when reporting the critical path.
        resistance_ohm: Resistance between this node and its parent (for the
            root this is the driver's output resistance).
        capacitance_ff: Lumped capacitance at this node.
        children: Downstream subtrees.
    """

    name: str
    resistance_ohm: float
    capacitance_ff: float
    children: list["RCTree"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.resistance_ohm < 0:
            raise ConfigurationError(
                f"negative resistance at node {self.name!r}"
            )
        if self.capacitance_ff < 0:
            raise ConfigurationError(
                f"negative capacitance at node {self.name!r}"
            )

    def add(self, child: "RCTree") -> "RCTree":
        """Attach ``child`` and return it (for fluent tree construction)."""
        self.children.append(child)
        return child

    def subtree_capacitance_ff(self) -> float:
        """Total capacitance of this node and everything downstream."""
        return self.capacitance_ff + sum(
            child.subtree_capacitance_ff() for child in self.children
        )

    def nodes(self) -> Iterator["RCTree"]:
        """Yield every node in the tree, depth first, root first."""
        yield self
        for child in self.children:
            yield from child.nodes()


def elmore_delay_ns(root: RCTree, sink: Optional[str] = None) -> float:
    """Elmore delay from the driver at ``root`` to ``sink``.

    Args:
        root: The driven RC tree.  The root's own resistance models the
            driver's output resistance.
        sink: Name of the target node.  ``None`` returns the worst-case
            delay over all leaves (the critical sink).

    Raises:
        KeyError: ``sink`` names no node in the tree.
    """
    delays = elmore_delays_ns(root)
    if sink is None:
        return max(delays.values())
    if sink not in delays:
        raise KeyError(f"no node named {sink!r} in RC tree {root.name!r}")
    return delays[sink]


def elmore_delays_ns(root: RCTree) -> dict[str, float]:
    """Elmore delay from the root driver to every node, keyed by node name."""
    delays: dict[str, float] = {}

    def walk(tree: RCTree, upstream_ns: float) -> None:
        here = upstream_ns + (
            tree.resistance_ohm * tree.subtree_capacitance_ff() * OHM_FF_TO_NS
        )
        delays[tree.name] = here
        for child in tree.children:
            walk(child, here)

    walk(root, 0.0)
    return delays


def pi_segment(
    name: str, resistance_ohm: float, capacitance_ff: float
) -> RCTree:
    """A distributed wire segment abstracted into the pi-RC model.

    Half the wire capacitance lands before the lumped resistance and half
    after, which reproduces the distributed wire's ``0.5 * R * C`` Elmore
    delay when driven directly.
    """
    near = RCTree(f"{name}.near", 0.0, capacitance_ff / 2.0)
    far = RCTree(f"{name}.far", resistance_ohm, capacitance_ff / 2.0)
    near.add(far)
    return near


def rc_ladder(
    name: str,
    segments: int,
    total_resistance_ohm: float,
    total_capacitance_ff: float,
    load_ff: float = 0.0,
) -> RCTree:
    """A uniform RC ladder of ``segments`` stages plus an optional end load.

    Models a wire discretized into equal segments; as ``segments`` grows the
    ladder converges to the distributed-wire Elmore delay
    ``R * C / 2 + R * C_load``.
    """
    if segments < 1:
        raise ConfigurationError(
            f"ladder needs at least one segment, got {segments}"
        )
    r_seg = total_resistance_ohm / segments
    c_seg = total_capacitance_ff / segments
    root = RCTree(f"{name}.0", 0.0, c_seg / 2.0)
    tail = root
    for index in range(1, segments + 1):
        cap = c_seg if index < segments else c_seg / 2.0 + load_ff
        tail = tail.add(RCTree(f"{name}.{index}", r_seg, cap))
    return root


def ladder_delay_ns(
    total_resistance_ohm: float,
    total_capacitance_ff: float,
    load_ff: float = 0.0,
    driver_ohm: float = 0.0,
) -> float:
    """Closed-form Elmore delay of a distributed wire with driver and load.

    ``t = R_drv * (C_wire + C_load) + R_wire * (C_wire / 2 + C_load)`` — the
    limit of :func:`rc_ladder` with infinitely many segments.  Used by the
    array and interconnect models; plain arithmetic, so it broadcasts over
    arrays of wire parameters.
    """
    delay_ohm_ff = driver_ohm * (total_capacitance_ff + load_ff) + (
        total_resistance_ohm * (total_capacitance_ff / 2.0 + load_ff)
    )
    return delay_ohm_ff * OHM_FF_TO_NS


def chain(name: str, stages: Iterable[tuple[float, float]]) -> RCTree:
    """Build a linear RC chain from ``(resistance_ohm, capacitance_ff)`` pairs."""
    stage_list = list(stages)
    if not stage_list:
        raise ConfigurationError("an RC chain needs at least one stage")
    root = RCTree(f"{name}.0", *stage_list[0])
    tail = root
    for index, (res, cap) in enumerate(stage_list[1:], start=1):
        tail = tail.add(RCTree(f"{name}.{index}", res, cap))
    return root
