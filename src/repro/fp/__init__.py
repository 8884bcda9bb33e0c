"""Bit-exact IEEE-754 binary16 arithmetic substrate.

This package models the FP16 datapaths the PacQ paper builds on:

* :mod:`repro.fp.fp16` — format codec (fields, encode/decode, RNE).
* :mod:`repro.fp.mul` — the baseline FP16 multiplier of Fig. 5(a).
* :mod:`repro.fp.add` — the FP16 adder used by DP-4 adder trees.
* :mod:`repro.fp.vec` — vectorized array counterparts of the scalar
  kernels (whole-ndarray bit-exact codec, mul/add, tree reductions and
  parallel FP-INT lanes); the scalar modules remain the oracle.
"""

from repro.fp import vec
from repro.fp.add import fp16_add, fp16_add_float, fp16_sum, fp16_tree_sum
from repro.fp.fp16 import (
    Fp16,
    combine,
    from_float,
    from_int_exact,
    is_finite,
    is_inf,
    is_nan,
    is_normalized,
    is_subnormal,
    is_zero,
    significand,
    split,
    to_float,
)
from repro.fp.mul import MulTrace, fp16_mul, fp16_mul_float, fp16_mul_trace

__all__ = [
    "Fp16",
    "MulTrace",
    "vec",
    "combine",
    "fp16_add",
    "fp16_add_float",
    "fp16_mul",
    "fp16_mul_float",
    "fp16_mul_trace",
    "fp16_sum",
    "fp16_tree_sum",
    "from_float",
    "from_int_exact",
    "is_finite",
    "is_inf",
    "is_nan",
    "is_normalized",
    "is_subnormal",
    "is_zero",
    "significand",
    "split",
    "to_float",
]
