"""End-to-end, layer-attributed benchmark over ``run_flow`` and the job
server; see ``benchmarks/e2e/README.md``."""
