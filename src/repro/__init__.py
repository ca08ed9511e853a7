"""repro — mapping-aware modulo scheduling for FPGA-targeted HLS.

Reproduction of Zhao, Tan, Dai, Zhang, "Area-Efficient Pipelining for
FPGA-Targeted High-Level Synthesis" (DAC 2015).

The top-level package re-exports the most commonly used entry points; see
the subpackages for the full API:

* :mod:`repro.ir` — word-level CDFG IR, builder DSL, kernel-language frontend
* :mod:`repro.bitdeps` — bit-level dependence tracking (Sec. 3.1 DEP functions)
* :mod:`repro.cuts` — word-level cut enumeration (Algorithm 1)
* :mod:`repro.tech` — device, delay and area characterization
* :mod:`repro.milp` — MILP modeling layer and solver backends
* :mod:`repro.scheduling` — ASAP/ALAP / modulo scheduling substrate
* :mod:`repro.core` — the paper's MILP formulation (MILP-map / MILP-base)
* :mod:`repro.mapping` — post-scheduling per-stage technology mapper
* :mod:`repro.hls` — the commercial-HLS-tool proxy baseline flow
* :mod:`repro.hw` — hardware cost model (LUT/FF/CP reporting)
* :mod:`repro.rtl` — Verilog emission
* :mod:`repro.sim` — functional and cycle-accurate simulation
* :mod:`repro.designs` — the nine paper benchmarks + synthetic generators
* :mod:`repro.experiments` — Table 1 / Table 2 / Figure 1 / Figure 2 harnesses
* :mod:`repro.analysis` — static-analysis engine (``python -m repro lint``)
"""

__version__ = "1.0.0"

from .ir import CDFG, DFGBuilder, OpKind, compile_kernel  # noqa: F401


def lint(artifact, device=None, **linter_kwargs):
    """Lint a CDFG or a Schedule with the static-analysis engine.

    Convenience dispatcher over :func:`repro.analysis.lint_graph` /
    :func:`repro.analysis.lint_schedule`; returns a
    :class:`~repro.analysis.DiagnosticReport`.
    """
    from .analysis import lint_graph, lint_schedule
    from .scheduling.schedule import Schedule

    if isinstance(artifact, Schedule):
        if device is None:
            raise TypeError("linting a Schedule requires a device")
        return lint_schedule(artifact, device, **linter_kwargs)
    return lint_graph(artifact, device=device, **linter_kwargs)


__all__ = ["CDFG", "DFGBuilder", "OpKind", "compile_kernel", "lint",
           "__version__"]
