"""The step loop's BLAS dispatch rule: ``ndarray.dot`` == ``@`` == ``np.dot``.

reprolint NUM004 sends every BLAS call of the step loop through
``ndarray.dot``, which skips the ufunc and array-function layers of
``@``, ``np.matmul`` and ``np.dot`` (and the wrapper of
``np.linalg.norm``, itself ``sqrt(x.dot(x))``). The swap is only safe
because each form reaches the same cblas kernel. This test pins that
on every shape and memory layout the step uses, byte for byte, on
random operands seeded with NaN (two payloads), infinities, signed
zeros, subnormals and overflowing magnitudes.

Where two NaNs can meet in one reduction, IEEE 754 does not say which
payload survives (DESIGN.md §11), so those results are compared for NaN
in the same places; every other result is compared byte for byte.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

_QUIET_NAN = struct.unpack("<d", bytes.fromhex("000000000000f87f"))[0]
_PAYLOAD_NAN = struct.unpack("<d", bytes.fromhex("010000000000f8ff"))[0]
_EDGES = np.array(
    [_QUIET_NAN, _PAYLOAD_NAN, 0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2e-308, 1e308, -1e308]
)
_DRAWS = 2000


def _operand(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Log-uniform magnitudes with random signs; some entries are edges."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    mask = rng.random(shape) < rng.choice([0.0, 0.05, 0.3])
    x[mask] = rng.choice(_EDGES, size=int(mask.sum()))
    return x


def _same(got, want, *operands: np.ndarray) -> bool:
    """Equal bytes, or NaN in the same places when NaNs could meet."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.tobytes() == want.tobytes():
        return True
    # More than one NaN source (a NaN input, an infinity that can make
    # inf * 0 or inf - inf) may feed one output.
    sources = sum(int(np.count_nonzero(~np.isfinite(op))) for op in operands)
    if sources < 2:
        return False
    nan = np.isnan(want)
    return bool(
        np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()
    )


@pytest.mark.parametrize("n", [3, 4, 15])
def test_vector_dot_and_norm(n):
    """Contiguous 3-, 4- and 15-vectors: dot products and norms."""
    rng = np.random.default_rng(n)
    for _ in range(_DRAWS):
        a, b = _operand(rng, (n,)), _operand(rng, (n,))
        with np.errstate(all="ignore"):
            got = a.dot(b)
            assert _same(got, a @ b, a, b)
            assert _same(got, np.dot(a, b), a, b)
            assert _same(got, np.matmul(a, b), a, b)
            assert _same(math.sqrt(float(a.dot(a))), np.linalg.norm(a), a)


def test_strided_lever_arm_column():
    """The airframe's strided (4, 2)[:, k] column against the thrusts."""
    rng = np.random.default_rng(1)
    for _ in range(_DRAWS):
        positions, thrusts = _operand(rng, (4, 2)), _operand(rng, (4,))
        for k in (0, 1):
            column = positions[:, k]
            with np.errstate(all="ignore"):
                got = column.dot(thrusts)
                assert _same(got, np.dot(column, thrusts), column, thrusts)
                assert _same(got, column @ thrusts, column, thrusts)


@pytest.mark.parametrize(
    ("rows", "cols", "transpose"),
    [(3, 3, False), (3, 3, True), (4, 3, False), (15, 15, False)],
    ids=["R.v", "R.T.v", "mixer", "P.h"],
)
def test_gemv_into_buffer(rows, cols, transpose):
    """``R·v``, ``R.T·v``, the mixer's ``(4, 3)·(3,)`` and ``P·h`` with ``out=``."""
    rng = np.random.default_rng(rows * 100 + cols + transpose)
    got = np.zeros(cols if transpose else rows)
    want = np.zeros_like(got)
    for _ in range(_DRAWS):
        matrix = _operand(rng, (rows, cols))
        if transpose:
            matrix = matrix.T
        vector = _operand(rng, (matrix.shape[1],))
        with np.errstate(all="ignore"):
            matrix.dot(vector, out=got)
            np.matmul(matrix, vector, out=want)
            assert _same(got, want, matrix, vector)
            assert _same(got, matrix @ vector, matrix, vector)
            assert _same(got, np.dot(matrix, vector), matrix, vector)


@pytest.mark.parametrize(
    ("n", "layout"),
    [(3, "A.B"), (15, "A.B"), (15, "A.B.T")],
    ids=["3x3", "F.P", "P.F.T"],
)
def test_gemm_into_buffer(n, layout):
    """``3×3·3×3``, ``F·P`` and ``P·F.T`` with ``out=``."""
    rng = np.random.default_rng(n * 10 + len(layout))
    got = np.zeros((n, n))
    want = np.zeros((n, n))
    for _ in range(_DRAWS // 4 if n == 15 else _DRAWS):
        a, b = _operand(rng, (n, n)), _operand(rng, (n, n))
        if layout == "A.B.T":
            b = b.T
        with np.errstate(all="ignore"):
            a.dot(b, out=got)
            np.matmul(a, b, out=want)
            assert _same(got, want, a, b)
            assert _same(got, a @ b, a, b)
            assert _same(got, np.dot(a, b), a, b)
