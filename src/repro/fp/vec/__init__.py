"""Vectorized bit-exact FP16 kernel layer.

Array counterparts of the scalar bit-level models in :mod:`repro.fp`
and :mod:`repro.multiplier.parallel`, operating on whole ndarrays of
raw ``uint16`` bit patterns with numpy integer ops.  Each kernel is
bit-for-bit identical to its scalar oracle (exhaustively and
adversarially tested in ``tests/test_fp_vec.py``).  It is the middle
link of the engine's oracle chain: ``tests/test_engine.py`` checks the
``batched`` backend's product table against
:func:`~repro.fp.vec.parallel.parallel_products` for every FP16 input,
and the scalar modules check this layer.

* :mod:`repro.fp.vec.codec` — ``split``/``combine``/``to_float``/
  ``from_float`` and predicates over bit arrays.
* :mod:`repro.fp.vec.mul` — the generic FP16 multiplier datapath.
* :mod:`repro.fp.vec.add` — the FP16 adder plus ``fp16_sum`` /
  pairwise ``fp16_tree_sum`` reductions along an axis.
* :mod:`repro.fp.vec.parallel` — the parallel FP-INT multiplier over
  whole activation/code blocks (fast path + generic fallback).
"""

from repro.fp.vec.add import fp16_add, fp16_sum, fp16_tree_sum
from repro.fp.vec.codec import (
    as_bits,
    bit_length,
    combine,
    from_float,
    is_finite,
    is_inf,
    is_nan,
    is_normalized,
    is_subnormal,
    is_zero,
    round_to_nearest_even,
    split,
    to_float,
)
from repro.fp.vec.mul import fp16_mul
from repro.fp.vec.parallel import parallel_products, reference_products, transformed_bits

__all__ = [
    "as_bits",
    "bit_length",
    "combine",
    "fp16_add",
    "fp16_mul",
    "fp16_sum",
    "fp16_tree_sum",
    "from_float",
    "is_finite",
    "is_inf",
    "is_nan",
    "is_normalized",
    "is_subnormal",
    "is_zero",
    "parallel_products",
    "reference_products",
    "round_to_nearest_even",
    "split",
    "to_float",
    "transformed_bits",
]
