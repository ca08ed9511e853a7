"""Functional (untimed) simulation of a CDFG.

Evaluates a pipelined kernel iteration by iteration at the word level,
resolving loop-carried operands from previous iterations (or their declared
initial values). This is the golden reference the cycle-accurate pipeline
simulator and the RTL self-checks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import SimulationError
from ..ir.graph import CDFG
from ..ir.semantics import eval_node, mask
from ..ir.types import OpKind

__all__ = ["SimEnvironment", "FunctionalSimulator"]


@dataclass
class SimEnvironment:
    """External state for black-box operations.

    ``memories`` maps a memory name to its backing list; a LOAD/STORE node
    selects its memory by ``node.name`` first, then ``node.rclass``.
    Addresses wrap modulo the memory length (benchmark kernels index within
    bounds; wrapping keeps property tests total).
    """

    memories: dict[str, list[int]] = field(default_factory=dict)

    def _memory_for(self, node) -> list[int]:
        for key in (node.name, node.rclass):
            if key and key in self.memories:
                return self.memories[key]
        raise SimulationError(
            f"no memory bound for node {node.nid} "
            f"(name={node.name!r}, rclass={node.rclass!r})"
        )

    def load(self, node, address: int) -> int:
        mem = self._memory_for(node)
        return mask(mem[address % len(mem)], node.width)

    def store(self, node, address: int, value: int) -> int:
        mem = self._memory_for(node)
        mem[address % len(mem)] = mask(value, node.width)
        return mask(value, node.width)


class FunctionalSimulator:
    """Iteration-by-iteration evaluator with loop-carried history."""

    def __init__(self, graph: CDFG, env: SimEnvironment | None = None) -> None:
        self.graph = graph
        self.env = env or SimEnvironment()
        self._order = graph.topological_order()
        self._history: list[dict[int, int]] = []

    def reset(self) -> None:
        """Forget all iteration history."""
        self._history.clear()

    def _initial_value(self, nid: int) -> int:
        node = self.graph.node(nid)
        return mask(int(node.attrs.get("initial", 0)), node.width)

    def _operand_value(self, values: dict[int, int], source: int,
                       distance: int) -> int:
        if distance == 0:
            return values[source]
        k = len(self._history) - distance
        if k < 0:
            return self._initial_value(source)
        return self._history[k][source]

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Run one loop iteration; returns output-name -> value."""
        graph = self.graph
        values: dict[int, int] = {}
        for nid in self._order:
            node = graph.node(nid)
            if node.kind is OpKind.INPUT:
                if node.name not in inputs:
                    raise SimulationError(f"missing input {node.name!r}")
                values[nid] = mask(int(inputs[node.name]), node.width)
                continue
            args = [
                self._operand_value(values, op.source, op.distance)
                for op in node.operands
            ]
            widths = [graph.node(op.source).width for op in node.operands]
            if node.kind is OpKind.LOAD:
                values[nid] = self.env.load(node, args[0])
            elif node.kind is OpKind.STORE:
                values[nid] = self.env.store(node, args[0], args[1])
            else:
                values[nid] = eval_node(node, args, widths)
        self._history.append(values)
        outputs = {}
        for out in graph.outputs:
            outputs[out.name or f"out{out.nid}"] = values[out.nid]
        return outputs

    def run(self, input_stream: Iterable[Mapping[str, int]]
            ) -> list[dict[str, int]]:
        """Run one iteration per element of ``input_stream``."""
        return [self.step(inputs) for inputs in input_stream]

    def values_at(self, iteration: int) -> dict[int, int]:
        """All node values computed during ``iteration`` (for debugging)."""
        return dict(self._history[iteration])
