"""Figure 2 — word-level cut enumeration on the RS decoder kernel.

Reproduces the paper's enumeration walkthrough at 2-bit width with K=4,
including the two behaviours the figure highlights: the comparison
``B >= 0`` collapsing to a sign-bit dependence, and the loop-carried cycle
through nodes D and E being handled by treating registered values as cone
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cuts.cut import CutSet
from ..cuts.enumerate import CutEnumerator, EnumerationStats
from ..ir.builder import DFGBuilder
from ..ir.graph import CDFG

__all__ = ["build_figure2_kernel", "run_figure2", "format_figure2",
           "Figure2Result"]


def build_figure2_kernel(width: int = 2) -> CDFG:
    """The Figure 2 DFG: A = shift, B = xor, C = sign test, D/E = loop."""
    b = DFGBuilder("rs_decoder", width=width)
    s = b.input("s", width)
    t = b.input("t", width)
    a = s >> 1
    a.node.name = "A"
    x = t ^ a
    x.node.name = "B"
    c = x.sge(0)
    c.node.name = "C"
    d = b.recurrence("D", width=width, initial=0)
    e = b.mux(c, d ^ t, d)
    e.node.name = "E"
    e.feed(d)
    b.output(e, "out")
    return b.build()


@dataclass
class Figure2Result:
    """Cut sets plus enumeration statistics."""

    kernel: CDFG
    cuts: dict[int, CutSet]
    stats: EnumerationStats
    k: int


def run_figure2(k: int = 4, width: int = 2) -> Figure2Result:
    """Enumerate cuts for the Figure 2 kernel."""
    kernel = build_figure2_kernel(width)
    enumerator = CutEnumerator(kernel, k)
    cuts = enumerator.run()
    return Figure2Result(kernel=kernel, cuts=cuts,
                         stats=enumerator.stats, k=k)


def format_figure2(result: Figure2Result) -> str:
    """Print each node's cut set like the figure's annotations."""
    graph = result.kernel
    lines = [
        f"Figure 2: cut enumeration for the Reed-Solomon decoder "
        f"(width 2, K={result.k})",
        "",
    ]
    for nid in graph.topological_order():
        node = graph.node(nid)
        if node.is_boundary:
            continue
        cs = result.cuts[nid]
        lines.append(f"{node.label} ({node.kind.value}):")
        for cut in cs.selectable:
            entries = ", ".join(
                graph.node(u).label + (f"[d{d}]" if d else "")
                for u, d in cut.entries
            )
            lines.append(
                f"  {cut.kind:>6} cut {{{entries}}} "
                f"max-support={cut.max_support}"
            )
    lines.append("")
    lines.append(
        f"{result.stats.total_selectable} selectable cuts from "
        f"{result.stats.candidates_generated} merge candidates in "
        f"{result.stats.worklist_visits} worklist visits"
    )
    sign = None
    for node in graph:
        if node.kind.value == "sge":
            sign = result.cuts[node.nid]
    if sign is not None and any(c.max_support == 1 for c in sign.selectable):
        lines.append("sign-test refinement: C's output depends on a single "
                     "bit (the MSB of B), as the paper observes")
    return "\n".join(lines)
