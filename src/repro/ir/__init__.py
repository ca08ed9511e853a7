"""Word-level CDFG intermediate representation.

Public surface: operation kinds (:class:`OpKind`, :class:`OpClass`), the
graph container (:class:`CDFG`), the construction DSL (:class:`DFGBuilder`),
validation, transforms, the kernel-language frontend and DOT export.
"""

from .builder import DFGBuilder, Value
from .dot import to_dot
from .frontend import compile_kernel
from .graph import CDFG, Use
from .node import Node, Operand
from .semantics import eval_node, mask, to_signed
from .serialize import dumps, graph_from_dict, graph_to_dict, load_graph, loads, save_graph
from .transforms import (
    balance_reduction_trees,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    rebuild,
)
from .types import (
    COMMUTATIVE_KINDS,
    COMPARISON_KINDS,
    OpClass,
    OpKind,
    arity_of,
    op_class_of,
)
from .validate import validate

__all__ = [
    "CDFG",
    "COMMUTATIVE_KINDS",
    "COMPARISON_KINDS",
    "DFGBuilder",
    "Node",
    "OpClass",
    "OpKind",
    "Operand",
    "Use",
    "Value",
    "arity_of",
    "balance_reduction_trees",
    "compile_kernel",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "dumps",
    "eval_node",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
    "loads",
    "save_graph",
    "fold_constants",
    "mask",
    "op_class_of",
    "rebuild",
    "to_dot",
    "to_signed",
    "validate",
]
