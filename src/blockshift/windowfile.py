"""The BLOCKSHIFT/1 window file: a versioned text header, one ASCII
character per cell ('*' for undefined), and a trailing checksum.

The payload is chunked into 65536-character lines for inspectability.
The checksum is sha256 of the payload bytes truncated to 64 bits
("sha256-64"), written as 16 hex digits; it is verified on load.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChecksumError, InconsistencyError, InvalidParameterError, VersionError
from .schedule import PROFILES
from .words import Alphabet, PartialWindow, on_block_grid

FORMAT_TAG = "BLOCKSHIFT/1"
LINE_CELLS = 1 << 16

_HEADER_KEYS = ("alphabet", "profile", "depth", "m-list", "sparse", "u",
                "fill", "seed", "offset", "length")


def checksum64(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class WindowFile:
    window: PartialWindow
    alphabet: Alphabet
    profile: str
    depth: int
    m_list: tuple[int, ...]
    sparse: str
    u: str
    fill: str
    seed: int

    def _chunks(self) -> Iterator[bytes]:
        """The file's bytes: the header, then each payload line and its
        newline, then the checksum line.

        The cells are checked first: a cell outside the alphabet raises
        InvalidParameterError before the header is yielded.  Only one
        line of the payload is held at a time.
        """
        cells = self.window.cells
        lines = [cells[i:i + LINE_CELLS] for i in range(0, cells.size, LINE_CELLS)]
        if int(cells.max()) >= self.alphabet.size:  # a STAR, or a cell outside the alphabet
            for line in lines:
                self.alphabet.text_of_cells(line)
        yield "\n".join([
            FORMAT_TAG,
            f"alphabet: {self.alphabet.symbols}",
            f"profile: {self.profile}",
            f"depth: {self.depth}",
            "m-list: " + ",".join(str(m) for m in self.m_list),
            f"sparse: {self.sparse}",
            f"u: {self.u}",
            f"fill: {self.fill}",
            f"seed: {self.seed}",
            f"offset: {self.window.offset}",
            f"length: {len(self.window)}",
            "cells:\n",
        ]).encode("ascii")
        digest = hashlib.sha256()
        for line in lines:
            text = self.alphabet.text_of_cells(line).encode("ascii")
            digest.update(text)
            yield text
            yield b"\n"
        yield f"checksum: {digest.hexdigest()[:16]}\n".encode("ascii")

    def render(self) -> str:
        return b"".join(self._chunks()).decode("ascii")


def save_window(path, window: PartialWindow, *, alphabet: Alphabet, profile: str,
                depth: int, m_list, sparse: str, u: str, fill: str,
                seed: int = 0) -> WindowFile:
    """Write a window file a payload line at a time through one file
    handle; a cell outside the alphabet raises before the path is opened."""
    wf = WindowFile(window, alphabet, profile, int(depth),
                    tuple(int(m) for m in m_list), sparse, u, fill, int(seed))
    chunks = wf._chunks()
    header = next(chunks)
    with Path(path).open("wb") as out:
        out.write(header)
        out.writelines(chunks)
    return wf


def _header_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InconsistencyError(f"header {key!r}: {text!r} is not an integer") from None


def load_window(path) -> WindowFile:
    data = Path(path).read_bytes()
    if not data.isascii():
        pos = int(np.argmax(np.frombuffer(data, dtype=np.uint8) >= 0x80))
        raise InconsistencyError(f"non-ASCII byte {data[pos]:#04x} at offset {pos}")
    lines = data.splitlines()  # universal newlines: "\r\n" and a lone "\r" end a line too
    if not data or data.endswith((b"\n", b"\r")):
        lines.append(b"")
    del data  # the lines copy the file, and the payload copies them: hold two copies at most
    tag = lines[0].decode("ascii")
    if tag != FORMAT_TAG:
        raise VersionError(f"unsupported format tag {tag!r} (expected {FORMAT_TAG})")
    fields: dict[str, str] = {}
    i = 1
    while i < len(lines):
        line = lines[i].decode("ascii")
        if line == "cells:":
            break
        if ": " not in line:
            raise InconsistencyError(f"malformed header line {line!r}")
        key, value = line.split(": ", 1)
        if key not in _HEADER_KEYS:
            raise InconsistencyError(f"unknown header key {key!r}")
        if key in fields:
            raise InconsistencyError(f"duplicate header key {key!r}")
        fields[key] = value
        i += 1
    else:
        raise InconsistencyError("missing 'cells:' section")
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise InconsistencyError(f"missing header keys: {', '.join(missing)}")

    j = next((j for j in range(i + 1, len(lines)) if lines[j].startswith(b"checksum: ")), None)
    if j is None:
        raise InconsistencyError("missing checksum line")
    if any(lines[j + 1:]):
        raise InconsistencyError("content after the checksum line")
    checksum = lines[j][len(b"checksum: "):].decode("ascii")
    payload = b"".join(lines[i + 1:j])
    del lines

    length = _header_int("length", fields["length"])
    if len(payload) != length:
        raise InconsistencyError(
            f"declared length {length} != payload cell count {len(payload)}"
        )
    if length < 1:
        raise InconsistencyError("empty payload: a window needs at least one cell")
    digest = checksum64(payload)
    if checksum != digest:
        raise ChecksumError(f"checksum mismatch: header {checksum}, payload {digest}")
    try:
        alphabet = Alphabet(fields["alphabet"])
    except InvalidParameterError as exc:
        raise InconsistencyError(f"header 'alphabet': {exc}") from None
    if fields["profile"] not in PROFILES:
        raise InconsistencyError(f"header 'profile': unknown profile {fields['profile']!r}")
    try:
        cells = alphabet.cells_of_text(payload)
    except InvalidParameterError as exc:
        raise InconsistencyError(f"payload {exc}") from None
    window = PartialWindow(_header_int("offset", fields["offset"]), cells)
    m_list = tuple(_header_int("m-list", v) for v in fields["m-list"].split(","))
    depth = _header_int("depth", fields["depth"])
    if len(m_list) != depth + 1:
        raise InconsistencyError("m-list length does not match depth")
    bad = [m for m in m_list if m < 1 or m % 2 == 0]
    if bad:
        raise InconsistencyError(f"header 'm-list': {bad[0]} is not an odd positive integer")
    if not on_block_grid(window.offset, length, m_list[-1]):
        raise InconsistencyError(
            f"window {window.interval()} is not a union of level-{depth} blocks"
        )
    return WindowFile(window, alphabet, fields["profile"], depth, m_list,
                      fields["sparse"], fields["u"], fields["fill"],
                      _header_int("seed", fields["seed"]))
