"""Bit-packed 0/1 matrices and their binary PBM images.

A BinaryMatrix stores one bit per entry, rows MSB-first and padded to
whole bytes, which is exactly the P4 raster, so write_pbm writes the rows
as stored and read_pbm maps a file straight back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_PBM_HEADER = re.compile(rb"P4(?:\s|#[^\n]*\n)+(\d+)(?:\s|#[^\n]*\n)+(\d+)\s")  # a comment runs to its newline


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense 0/1 matrix, bit-packed row-major (MSB-first within each byte)."""

    order: int
    packed: np.ndarray
    degree: int | None = None

    @classmethod
    def from_dense(cls, dense, degree: int | None = None) -> "BinaryMatrix":
        arr = np.asarray(dense)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        return cls(arr.shape[0], np.packbits(arr.astype(bool), axis=1), degree)

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self.packed, axis=1, count=self.order)

    def entry(self, i: int, j: int) -> int:
        return (self.packed[i, j >> 3] >> (7 - (j & 7))) & 1

    def row_sums(self) -> np.ndarray:
        sums = np.empty(self.order, dtype=np.int64)
        step = max(1, (1 << 22) // max(1, self.packed.shape[1]))
        for r0 in range(0, self.order, step):
            block = self.packed[r0:r0 + step]
            sums[r0:r0 + step] = np.unpackbits(block, axis=1, count=self.order).sum(axis=1)
        return sums

    def filled_count(self) -> int:
        return int(self.row_sums().sum())

    def is_symmetric(self) -> bool:
        if self.order > 10000:
            raise ValueError("symmetry check not supported at this order")
        dense = self.to_dense()
        return bool((dense == dense.T).all())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.order == other.order
            and self.packed.shape == other.packed.shape
            and bool((self.packed == other.packed).all())
        )


def write_pbm(m: BinaryMatrix, path) -> None:
    """Write the matrix as a binary PBM image, 1 = filled (black).

    The packed row layout (MSB-first, byte-padded rows) is exactly the P4
    raster format, so rows are written as stored, from the array's own
    buffer rather than a bytes copy (203 MB at degree 8).
    """
    with open(path, "wb") as fh:
        fh.write(f"P4\n{m.order} {m.order}\n".encode())
        fh.write(np.ascontiguousarray(m.packed).data)


def read_pbm(path) -> BinaryMatrix:
    """Read back a square binary PBM (P4), such as write_pbm writes.

    The magic, width and height are separated by whitespace and ``#``
    comments, and one whitespace byte ends the header.  An empty,
    truncated or malformed file raises ValueError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P4"):
        raise ValueError(f"not a binary PBM: magic {data[:2]!r}" if data else "not a binary PBM: empty file")
    if (header := _PBM_HEADER.match(data)) is None:
        raise ValueError("truncated or malformed PBM header")
    width, height = int(header[1]), int(header[2])
    if width != height:
        raise ValueError(f"expected a square image, got {width}x{height}")
    raster, row_bytes = np.frombuffer(data, dtype=np.uint8, offset=header.end()), (width + 7) // 8
    if raster.size != height * row_bytes:
        raise ValueError(f"expected {height * row_bytes} raster bytes, got {raster.size}")
    return BinaryMatrix(width, raster.reshape(height, row_bytes))
