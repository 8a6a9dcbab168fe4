"""Alphabets, words, and centered-block index arithmetic.

Coordinates are plain Python integers; windows are dense one-byte-per-cell
arrays, which caps practical window length near 2**31 cells.  Undefined
cells hold the STAR sentinel, which is distinct from every symbol index.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

STAR = 255
MAX_WINDOW_CELLS = 2**31
_NOT_SYMBOL = 254

_FORBIDDEN_SYMBOLS = set("*# \t\r\n")


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct printable ASCII symbols; symbols[0] is the zero symbol."""

    symbols: str

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise InvalidParameterError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidParameterError("alphabet symbols must be distinct")
        for ch in self.symbols:
            if ord(ch) >= 128 or not ch.isprintable() or ch in _FORBIDDEN_SYMBOLS:
                raise InvalidParameterError(f"bad alphabet symbol {ch!r}")
        if len(self.symbols) >= STAR:
            raise InvalidParameterError("alphabet too large for the cell encoding")
        # byte -> cell and cell -> byte; _NOT_SYMBOL marks the rest (it is
        # neither a cell index, as the alphabet is below STAR, nor ASCII)
        encode = np.full(256, _NOT_SYMBOL, dtype=np.uint8)
        decode = np.full(256, _NOT_SYMBOL, dtype=np.uint8)
        for i, ch in enumerate(self.symbols):
            encode[ord(ch)] = i
            decode[i] = ord(ch)
        encode[ord("*")] = STAR
        decode[STAR] = ord("*")
        object.__setattr__(self, "_encode", encode)
        object.__setattr__(self, "_decode", decode)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, ch: str) -> int:
        i = self.symbols.find(ch)
        if i < 0:
            raise InvalidParameterError(f"symbol {ch!r} not in alphabet {self.symbols!r}")
        return i

    def cells_of_text(self, text: str | bytes) -> np.ndarray:
        """Translate a text or ASCII bytes into a uint8 array of symbol indices; '*' becomes STAR."""
        if isinstance(text, str):
            try:
                text = text.encode("ascii")
            except UnicodeEncodeError as exc:
                raise InvalidParameterError(f"non-ASCII character in text: {exc}") from None
        cells, bad = _translate(self._encode, np.frombuffer(text, dtype=np.uint8))
        if bad is not None:
            raise InvalidParameterError(
                f"symbol {chr(text[bad])!r} not in alphabet {self.symbols!r}")
        return cells

    def text_of_cells(self, cells: np.ndarray) -> str:
        arr = np.ascontiguousarray(cells, dtype=np.uint8)
        chars, bad = _translate(self._decode, arr)
        if bad is not None:
            raise InvalidParameterError(f"cell value {int(arr[bad])} outside alphabet")
        return chars.tobytes().decode("ascii")


def _translate(table: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, int | None]:
    """table[codes] for a 256-entry uint8 table and uint8 codes, a chunk at a time
    (row_chunks), as np.take first copies its indices to intp; and the index of the
    first code that maps to _NOT_SYMBOL (the output then ends at its chunk), or None."""
    out = np.empty(codes.size, dtype=np.uint8)
    for part in row_chunks(codes.size):  # mode="clip": every uint8 code is in range
        bad = np.take(table, codes[part], out=out[part], mode="clip") == _NOT_SYMBOL
        if bad.any():
            return out, part.start + int(bad.argmax())
    return out, None


def check_cell_count(n: int) -> None:
    """Reject a window of more than MAX_WINDOW_CELLS cells; call it before allocating."""
    if n > MAX_WINDOW_CELLS:
        raise InvalidParameterError(f"window of {n} cells exceeds the {MAX_WINDOW_CELLS}-cell limit")


class PartialWindow:
    """An integer-indexed window of symbol indices or STAR.

    Coordinate c lives at cells[c - offset].  Instances are immutable;
    operations that change cells return fresh windows.
    """

    __slots__ = ("offset", "cells")

    def __init__(self, offset: int, cells):
        arr = np.ascontiguousarray(cells, dtype=np.uint8)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidParameterError("window needs at least one cell")
        check_cell_count(arr.size)
        arr.setflags(write=False)
        object.__setattr__(self, "offset", int(offset))
        object.__setattr__(self, "cells", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PartialWindow is immutable")

    def __len__(self) -> int:
        return int(self.cells.size)

    @property
    def end(self) -> int:
        """Inclusive right endpoint."""
        return self.offset + len(self) - 1

    def interval(self) -> tuple[int, int]:
        return (self.offset, self.end)

    def __getitem__(self, coord: int) -> int:
        if not (self.offset <= coord <= self.end):
            raise InvalidParameterError(f"coordinate {coord} outside window {self.interval()}")
        return int(self.cells[coord - self.offset])

    def sub(self, lo: int, hi: int) -> "PartialWindow":
        """Restriction to the inclusive coordinate interval [lo, hi]."""
        if lo > hi or lo < self.offset or hi > self.end:
            raise InvalidParameterError(f"[{lo},{hi}] not inside window {self.interval()}")
        return PartialWindow(lo, self.cells[lo - self.offset : hi - self.offset + 1])

    def is_fully_defined(self) -> bool:
        return int(self.cells.max()) != STAR  # STAR is the largest cell value

    def star_count(self) -> int:
        return int((self.cells == STAR).sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialWindow)
            and self.offset == other.offset
            and len(self) == len(other)
            and bool((self.cells == other.cells).all())
        )

    def __repr__(self) -> str:
        return f"PartialWindow(offset={self.offset}, length={len(self)})"


def _check_block_length(m: int) -> int:
    if not isinstance(m, int) or m < 1 or m % 2 == 0:
        raise InvalidParameterError(f"block length must be an odd positive integer, got {m}")
    return m


def block_interval(i: int, m: int) -> tuple[int, int]:
    """Inclusive integer interval of the level block with index i and length m."""
    _check_block_length(m)
    h = (m - 1) // 2
    return (i * m - h, i * m + h)


def block_of(coord: int, m: int) -> int:
    """Index of the length-m block containing the coordinate."""
    _check_block_length(m)
    return (coord + (m - 1) // 2) // m


def hull_of_blocks(lo: int, hi: int, m: int) -> tuple[int, int]:
    """Smallest union of length-m blocks covering [lo, hi], as an interval."""
    if lo > hi:
        raise InvalidParameterError(f"empty interval [{lo},{hi}]")
    return (block_interval(block_of(lo, m), m)[0], block_interval(block_of(hi, m), m)[1])


def on_block_grid(start: int, length: int, m: int) -> bool:
    """Whether [start, start + length - 1] is a union of centred length-m blocks."""
    return (start + (m - 1) // 2) % m == 0 and length % m == 0


# The level passes (star-filling and the admissibility check) walk a window
# in batches of at most this many cells (split_level_pass), so no temporary
# of a pass grows with the window or with a block.
_BATCH_CELLS = 1 << 22
# Threads a level pass runs on (numpy releases the GIL in the pass kernels);
# they share the _BATCH_CELLS budget.
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, 8)
# Rows at most this wide are reduced column by column, and counted with
# einsum into uint8 (exact, as such a row holds at most this many trues):
# numpy's reduction along a short row costs several times more per cell.
_NARROW_ROW = 32


def _row_batches(lo: int, hi: int, r: int, width: int, budget: int) -> Iterator[tuple[int, int]]:
    """Row ranges [s0, s1) over blocks lo..hi-1 of r rows each, each row
    costing ``width`` cells, of at most ``budget`` cells (and at least one
    row) each: whole blocks while a block fits, else consecutive rows of
    one block, so no batch holds rows of two blocks unless it holds both whole.
    """
    step = max(1, budget // width)
    if r <= step:
        step -= step % r
        for s in range(lo * r, hi * r, step):
            yield s, min(s + step, hi * r)
        return
    for b in range(lo * r, hi * r, r):
        for s in range(0, r, step):
            yield b + s, b + min(s + step, r)


def split_level_pass(fn: Callable[[range, Iterator[tuple[int, int]]], object], n_blocks: int,
                     r: int, width: int) -> list:
    """fn(span, batches) on each of at most _WORKERS contiguous ranges
    ``span`` of whole blocks, out of n_blocks blocks of r rows of
    ``width`` cells; the results come back in window order.

    ``batches`` yields the row ranges [s0, s1) of the range (rows counted
    from the window's first block), each of at most _BATCH_CELLS / ranges
    cells, and whole blocks while a block fits (_row_batches).  A pass
    that fits in one batch, or has one block, is one range, run inline:
    only a pass of several ranges starts threads, one per range, for the
    length of the call.  fn must fill no lazy cache and call no function
    that a tracer may rebind.  An exception of fn is raised from the
    earliest range that raised.
    """
    n = 1 if n_blocks * r * width <= _BATCH_CELLS else min(_WORKERS, n_blocks)
    bounds = [n_blocks * i // n for i in range(n + 1)]

    def run(i):
        lo, hi = bounds[i], bounds[i + 1]
        return fn(range(lo, hi), _row_batches(lo, hi, r, width, _BATCH_CELLS // n))

    if n == 1:
        return [run(0)]
    # imported here: concurrent.futures loads logging, about 6 ms and
    # 0.7 MB that a command whose passes all run inline need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n) as pool:
        return list(pool.map(run, range(n)))


def fold_rows(ufunc, rows: np.ndarray) -> np.ndarray:
    """A binary ufunc reduced along each row of a 2-D array."""
    if rows.shape[1] > _NARROW_ROW:
        return ufunc.reduce(rows, axis=1)
    out = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        ufunc(out, rows[:, j], out=out)
    return out


def count_rows(mask: np.ndarray) -> np.ndarray:
    """The number of true entries in each row of a 2-D bool array (as
    uint8 when the rows are narrow)."""
    if mask.shape[1] > _NARROW_ROW:
        return np.count_nonzero(mask, axis=1)
    return np.einsum("ij->i", mask.view(np.uint8))


def row_chunks(n_rows: int) -> list[slice]:
    """Row ranges of _BATCH_CELLS / 64 rows (2^16 rows: 512 KB of uint64),
    so that a temporary of a word or two per row stays in cache."""
    step = max(1, _BATCH_CELLS >> 6)
    return [slice(s, s + step) for s in range(0, n_rows, step)]


def row_codes(rows: np.ndarray, bits: int) -> np.ndarray:
    """Each row of a uint8 array packed into one uint64, ``bits`` bits a
    cell, first cell highest.

    A cell of 2^bits or more spills into the digit before it; the caller
    decides whether such rows can occur.
    """
    out = np.zeros(rows.shape[0], dtype=np.uint64)
    shift = np.uint64(bits)
    for part in row_chunks(rows.shape[0]):
        code = out[part]
        for j in range(rows.shape[1]):
            code <<= shift
            code |= rows[part, j]
    return out


def rows_of_codes(codes: np.ndarray, bits: int, out: np.ndarray) -> np.ndarray:
    """The rows that row_codes packed into ``codes``, written a chunk at a
    time into the uint8 array ``out`` (one row per code); returns out."""
    mask, width = np.uint64((1 << bits) - 1), out.shape[1]
    for part in row_chunks(codes.size):  # a column at a time, so temporaries stay small
        for j in range(width):
            out[part, j] = codes[part] >> np.uint64(bits * (width - 1 - j)) & mask
    return out


def rows_equal(rows: np.ndarray, word: np.ndarray) -> np.ndarray:
    """Whether each row of a C-contiguous uint8 array equals the word.

    Rows of 8 or more bytes are compared as 8-byte words: the words at
    byte offsets 0, 8, ... of each row, and one more at offset w - 8 for
    the tail bytes (it may overlap the last full word).  Each is read
    through an unaligned strided uint64 view of the row buffer, so no row
    is copied.  Narrower rows are compared as whole void scalars.
    """
    n, w = rows.shape
    if w == 1:
        return rows[:, 0] == word[0]
    if w < 8 or n == 0:
        whole = np.dtype((np.void, w))
        return rows.view(whole)[:, 0] == word.view(whole)[0]

    def at(a, offset, count):
        """count 8-byte words of each row of a, from the byte offset on."""
        return np.ndarray((a.shape[0], count), np.uint64, a, offset, (w, 8))

    one = word.reshape(1, w)
    return ((at(rows, 0, w // 8) == at(one, 0, w // 8)).all(axis=1)
            & (at(rows, w - 8, 1) == at(one, w - 8, 1))[:, 0])
