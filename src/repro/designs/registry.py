"""Benchmark registry — the nine designs of Table 1.

Each :class:`BenchmarkSpec` bundles everything an experiment needs: the DFG
builder, the domain/description strings the paper's table prints, a
simulation-environment factory for designs with black-box memories, and a
deterministic input-stream generator for replay checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import ExperimentError
from ..ir.graph import CDFG
from ..sim.functional import SimEnvironment
from .aes import build_aes_round, make_aes_env
from .clz import build_clz
from .cordic import build_cordic
from .dr import build_dr, make_dr_env
from .gfmul import build_gfmul
from .gsm import build_gsm
from .mt import MT_TABLE_SIZE, build_mt, make_mt_env
from .rs import RS_CODEWORD, build_rs, make_rs_env
from .xorr import build_xorr

__all__ = ["BenchmarkSpec", "BENCHMARKS", "get_benchmark", "kernel_names",
           "application_names"]


def _no_env(seed: int = 0) -> SimEnvironment:
    return SimEnvironment()


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table 1 row's workload definition."""

    name: str
    domain: str
    description: str
    kind: str  # "kernel" | "application"
    build: Callable[[], CDFG]
    make_env: Callable[[int], SimEnvironment] = _no_env
    stream: Callable[[random.Random, int], list[Mapping[str, int]]] = None
    notes: str = ""

    def input_stream(self, seed: int, n: int) -> list[Mapping[str, int]]:
        """Deterministic per-iteration input maps."""
        return self.stream(random.Random(seed), n)


def _uniform_stream(names_widths: list[tuple[str, int]]):
    def gen(rng: random.Random, n: int):
        return [
            {name: rng.randrange(1 << width) for name, width in names_widths}
            for _ in range(n)
        ]
    return gen


def _indexed_stream(extra: list[tuple[str, int]], idx_name: str, modulo: int):
    def gen(rng: random.Random, n: int):
        out = []
        for k in range(n):
            row = {name: rng.randrange(1 << width) for name, width in extra}
            row[idx_name] = k % modulo
            out.append(row)
        return out
    return gen


BENCHMARKS: dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> None:
    BENCHMARKS[spec.name] = spec


_register(BenchmarkSpec(
    name="CLZ", domain="Kernel", kind="kernel",
    description="Count the number of leading zeros in a 64-bit value",
    build=build_clz,
    stream=_uniform_stream([("x", 64)]),
))
_register(BenchmarkSpec(
    name="XORR", domain="Kernel", kind="kernel",
    description="XOR reduction for an array of elements",
    build=build_xorr,
    stream=_uniform_stream([(f"x{i}", 16) for i in range(128)]),
))
_register(BenchmarkSpec(
    name="GFMUL", domain="Kernel", kind="kernel",
    description="Efficient Galois field multiplication",
    build=build_gfmul,
    stream=_uniform_stream([("a", 8), ("b", 8)]),
))
_register(BenchmarkSpec(
    name="CORDIC", domain="Scientific Computing", kind="application",
    description="Coordinate Rotation Digital Computer",
    build=build_cordic,
    stream=_uniform_stream([("x", 16), ("y", 16), ("z", 16)]),
))
_register(BenchmarkSpec(
    name="MT", domain="Scientific Computing", kind="application",
    description="Mersenne Twister pseudorandom number generation",
    build=build_mt,
    make_env=make_mt_env,
    stream=_indexed_stream([], "idx", MT_TABLE_SIZE - 14),
))
_register(BenchmarkSpec(
    name="AES", domain="Cryptography", kind="application",
    description="Advanced Encryption Standard",
    build=build_aes_round,
    make_env=make_aes_env,
    stream=_uniform_stream([("col", 32), ("key", 32)]),
))
_register(BenchmarkSpec(
    name="RS", domain="Communication", kind="application",
    description="Reed-Solomon decoder",
    build=build_rs,
    make_env=make_rs_env,
    stream=_indexed_stream([], "idx", len(RS_CODEWORD)),
))
_register(BenchmarkSpec(
    name="DR", domain="Machine Learning", kind="application",
    description="Digit recognition using k-nearest neighbours algorithm",
    build=build_dr,
    make_env=make_dr_env,
    stream=_indexed_stream([("query", 32)], "idx", 64),
))
_register(BenchmarkSpec(
    name="GSM", domain="Communication", kind="application",
    description="Global system for mobile communications",
    build=build_gsm,
    stream=_uniform_stream([("sri", 18)]),
))


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark by its Table 1 name (case-insensitive)."""
    key = name.upper()
    if key not in BENCHMARKS:
        raise ExperimentError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS)}"
        )
    return BENCHMARKS[key]


def kernel_names() -> list[str]:
    """The Sec. 4.1 kernel set."""
    return [n for n, s in BENCHMARKS.items() if s.kind == "kernel"]


def application_names() -> list[str]:
    """The Sec. 4.2 application set."""
    return [n for n, s in BENCHMARKS.items() if s.kind == "application"]
