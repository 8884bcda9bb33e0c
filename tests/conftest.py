"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.fp import fp16


@st.composite
def fp16_bits(draw, allow_nan: bool = True, allow_inf: bool = True):
    """Strategy over raw FP16 bit patterns."""
    bits = draw(st.integers(min_value=0, max_value=0xFFFF))
    if not allow_nan and fp16.is_nan(bits):
        bits = fp16.combine(0, 0x10, bits & 0x3FF)
    if not allow_inf and fp16.is_inf(bits):
        bits = fp16.combine(fp16.split(bits)[0], 0x1E, 0x3FF)
    return bits


@st.composite
def finite_fp16_bits(draw):
    """Strategy over finite FP16 bit patterns."""
    sign = draw(st.integers(0, 1))
    exponent = draw(st.integers(0, 30))
    mantissa = draw(st.integers(0, 1023))
    return fp16.combine(sign, exponent, mantissa)


@st.composite
def normal_fp16_bits(draw):
    """Strategy over normalized FP16 bit patterns."""
    sign = draw(st.integers(0, 1))
    exponent = draw(st.integers(1, 30))
    mantissa = draw(st.integers(0, 1023))
    return fp16.combine(sign, exponent, mantissa)


def np_fp16(bits: int) -> np.float16:
    """View raw bits as a numpy float16 scalar."""
    return np.uint16(bits).view(np.float16)


def np_bits(value) -> int:
    """Raw bits of a numpy float16 scalar."""
    return int(np.float16(value).view(np.uint16))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0xBEEF)
