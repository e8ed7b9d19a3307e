"""Computational-graph IR: layers, edges, shape inference, and liveness.

The graph is a DAG of named layers over per-sample feature maps.  Shape
inference runs at construction, and a liveness walk computes the peak
transient activation footprint (the ``#Data`` column of Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.perf.ops import OpCost, Operator, Shape


@dataclass(frozen=True)
class LayerNode:
    """One layer in the graph.

    Attributes:
        name: Unique layer name.
        op: The operator.
        inputs: Names of producer layers (empty for the input layer).
        input_shape / output_shape: Inferred per-sample shapes.
    """

    name: str
    op: Optional[Operator]
    inputs: tuple[str, ...]
    input_shape: Shape
    output_shape: Shape

    def cost(self) -> OpCost:
        """Per-sample cost of this layer (zero for the graph input)."""
        if self.op is None:
            return OpCost()
        return self.op.cost(self.input_shape)


class Graph:
    """A DAG of layers in topological (construction) order."""

    def __init__(self, name: str, input_shape: Shape):
        if any(dim < 1 for dim in input_shape):
            raise ConfigurationError(f"bad input shape {input_shape}")
        self.name = name
        self._nodes: dict[str, LayerNode] = {}
        self._order: list[str] = []
        root = LayerNode(
            name="input",
            op=None,
            inputs=(),
            input_shape=input_shape,
            output_shape=input_shape,
        )
        self._nodes["input"] = root
        self._order.append("input")
        #: ``GraphSpec.of``'s memo, per ``OptimizationConfig``.
        self._specs: dict = {}

    # -- construction ------------------------------------------------------

    def add(
        self,
        name: str,
        op: Operator,
        inputs: Optional[Iterable[str]] = None,
    ) -> LayerNode:
        """Append a layer; defaults to consuming the previous layer.

        Raises:
            ConfigurationError: duplicate name or unknown input.
        """
        if name in self._nodes:
            raise ConfigurationError(f"duplicate layer name {name!r}")
        input_names = tuple(inputs) if inputs is not None else (
            self._order[-1],
        )
        if not input_names:
            raise ConfigurationError(f"layer {name!r} needs an input")
        for producer in input_names:
            if producer not in self._nodes:
                raise ConfigurationError(
                    f"layer {name!r} consumes unknown layer {producer!r}"
                )
        input_shape = self._nodes[input_names[0]].output_shape
        node = LayerNode(
            name=name,
            op=op,
            inputs=input_names,
            input_shape=input_shape,
            output_shape=op.output_shape(input_shape),
        )
        self._nodes[name] = node
        self._order.append(name)
        self._specs.clear()
        return node

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order) - 1  # input node excluded

    def __iter__(self) -> Iterator[LayerNode]:
        """Iterate compute layers in topological order (input excluded)."""
        for name in self._order[1:]:
            yield self._nodes[name]

    def node(self, name: str) -> LayerNode:
        if name not in self._nodes:
            raise KeyError(f"no layer named {name!r} in graph {self.name!r}")
        return self._nodes[name]

    @property
    def output(self) -> LayerNode:
        """The last layer added."""
        return self._nodes[self._order[-1]]

    # -- aggregate statistics (Table II) ----------------------------------------

    def total_macs(self) -> int:
        """MACs per sample over all layers (TU + vector paths).

        Vector-path multiply-adds (depthwise convolutions) count as MACs
        too; pure data movement and pooling do not.
        """
        total = 0
        for layer in self:
            cost = layer.cost()
            total += cost.macs
            if _is_mac_vector_op(layer):
                total += cost.vector_ops
        return total

    def total_params_bytes(self, include_classifier: bool = True) -> int:
        """Weight bytes per model (int8-quantized convention of Table II)."""
        total = 0
        for layer in self:
            if not include_classifier and _is_classifier(layer):
                continue
            total += layer.cost().params_bytes
        return total

    def peak_activation_bytes(self) -> int:
        """Peak transient activation footprint per sample.

        Liveness over the topological schedule: a layer's output stays
        resident until its last consumer has run.
        """
        last_use: dict[str, int] = {}
        for index, name in enumerate(self._order):
            last_use.setdefault(name, index)
            for producer in self._nodes[name].inputs:
                last_use[producer] = index

        def size(name: str) -> int:
            h, w, c = self._nodes[name].output_shape
            return h * w * c

        peak = 0
        live: dict[str, int] = {}
        for index, name in enumerate(self._order):
            live[name] = size(name)
            current = sum(live.values())
            peak = max(peak, current)
            dead = [n for n in live if last_use[n] <= index]
            for n in dead:
                if n != name:
                    del live[n]
        return peak


def _is_mac_vector_op(layer: LayerNode) -> bool:
    from repro.perf.ops import DepthwiseConv2d

    return isinstance(layer.op, DepthwiseConv2d)


def _is_classifier(layer: LayerNode) -> bool:
    from repro.perf.ops import MatMul

    return isinstance(layer.op, MatMul)
