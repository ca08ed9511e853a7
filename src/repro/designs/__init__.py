"""The nine Table 1 benchmarks, paper-scale full-size variants, and
synthetic DFG generation."""

from .aes import AES_SBOX, build_aes_round, make_aes_env, reference_aes_round
from .clz import build_clz, reference_clz
from .cordic import build_cordic, cordic_atan_table, reference_cordic
from .dr import DR_TRAINING, build_dr, make_dr_env, reference_dr_step
from .fullsize import FULLSIZE
from .gfmul import build_gfmul, reference_gfmul
from .gsm import build_gsm, reference_gsm_step
from .mt import MT_TABLE_SIZE, build_mt, make_mt_env, reference_mt
from .registry import (
    BENCHMARKS,
    BenchmarkSpec,
    application_names,
    get_benchmark,
    kernel_names,
)
from .rs import RS_CODEWORD, build_rs, make_rs_env, reference_rs_step
from .synthetic import random_dfg
from .xorr import build_xorr, reference_xorr

__all__ = [
    "AES_SBOX",
    "BENCHMARKS",
    "BenchmarkSpec",
    "DR_TRAINING",
    "FULLSIZE",
    "MT_TABLE_SIZE",
    "RS_CODEWORD",
    "application_names",
    "build_aes_round",
    "build_clz",
    "build_cordic",
    "build_dr",
    "build_gfmul",
    "build_gsm",
    "build_mt",
    "build_rs",
    "build_xorr",
    "cordic_atan_table",
    "get_benchmark",
    "kernel_names",
    "make_aes_env",
    "make_dr_env",
    "make_mt_env",
    "make_rs_env",
    "random_dfg",
    "reference_aes_round",
    "reference_clz",
    "reference_cordic",
    "reference_dr_step",
    "reference_gfmul",
    "reference_gsm_step",
    "reference_mt",
    "reference_rs_step",
    "reference_xorr",
]
