import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockshift import (
    STAR,
    ChecksumError,
    InconsistencyError,
    InvalidParameterError,
    PartialWindow,
    VersionError,
    WindowFormatError,
    load_window,
    save_window,
)
from blockshift.realization import realize
from blockshift.windowfile import LINE_CELLS, checksum64
from tests.oracles import load_window_by_text


def _save(tmp_path, x, sched, name="w.bsw", depth=1):
    path = tmp_path / name
    save_window(path, x, alphabet=sched.alphabet, profile=sched.profile,
                depth=depth, m_list=[sched.m(k) for k in range(depth + 1)],
                sparse=sched.sparse.describe(), u="mu-indicator",
                fill="pillar-first-ltr,cycle-lex-restart@0", seed=0)
    return path


def test_roundtrip_depth1(tmp_path, sched2, mu_target, binary):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    wf = load_window(path)
    assert wf.window == x
    assert binary.text_of_cells(wf.window.cells) == "000000101100101"
    assert wf.m_list == (1, 15)
    assert wf.sparse == "squares"
    # byte-exact: re-render reproduces the file
    assert wf.render().encode() == path.read_bytes()


def test_roundtrip_depth2_byte_exact(tmp_path, x2, sched2):
    path = _save(tmp_path, x2, sched2, depth=2)
    raw = path.read_bytes()
    wf = load_window(path)
    assert wf.window == x2
    assert wf.render().encode() == raw
    # long payloads are chunked
    lines = raw.decode().split("\n")
    payload_lines = lines[lines.index("cells:") + 1: -2]
    assert all(len(l) <= LINE_CELLS for l in payload_lines)
    assert len(payload_lines) == (len(x2) + LINE_CELLS - 1) // LINE_CELLS


def test_stars_roundtrip(tmp_path, binary, sched2, mu_target, squares):
    from blockshift import init_partial

    x = init_partial(mu_target, squares, (-7, 7), binary)
    path = _save(tmp_path, x, sched2)
    wf = load_window(path)
    assert wf.window == x
    assert "*" in binary.text_of_cells(wf.window.cells)


def test_version_error(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    text = path.read_text().replace("BLOCKSHIFT/1", "BLOCKSHIFT/2", 1)
    path.write_text(text)
    with pytest.raises(VersionError):
        load_window(path)


def test_checksum_error(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = path.read_text().split("\n")
    idx = next(i for i, l in enumerate(lines) if l.startswith("cells:")) + 1
    lines[idx] = ("1" if lines[idx][0] == "0" else "0") + lines[idx][1:]
    path.write_text("\n".join(lines))
    with pytest.raises(ChecksumError):
        load_window(path)


def test_length_mismatch(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    text = path.read_text().replace("length: 15", "length: 16")
    path.write_text(text)
    with pytest.raises(InconsistencyError):
        load_window(path)


def test_alphabet_payload_mismatch(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = path.read_text().split("\n")
    idx = next(i for i, l in enumerate(lines) if l.startswith("cells:")) + 1
    payload = "2" + lines[idx][1:]
    lines[idx] = payload
    # keep the checksum consistent so the alphabet check is what fires
    for i, l in enumerate(lines):
        if l.startswith("checksum: "):
            lines[i] = "checksum: " + checksum64(payload.encode())
    path.write_text("\n".join(lines))
    with pytest.raises(InconsistencyError):
        load_window(path)


def test_missing_header_key(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = [l for l in path.read_text().split("\n") if not l.startswith("seed:")]
    path.write_text("\n".join(lines))
    with pytest.raises(InconsistencyError):
        load_window(path)


@pytest.mark.parametrize("key,value,message", [
    ("length", "abc", "header 'length': 'abc' is not an integer"),
    ("offset", "-7.5", "header 'offset': '-7.5' is not an integer"),
    ("depth", "one", "header 'depth': 'one' is not an integer"),
    ("seed", "", "header 'seed': '' is not an integer"),
    ("m-list", "1,a", "header 'm-list': 'a' is not an integer"),
    ("alphabet", "0", "header 'alphabet': alphabet needs at least 2 symbols"),
    ("m-list", "1,14", "header 'm-list': 14 is not an odd positive integer"),
    ("m-list", "0,15", "header 'm-list': 0 is not an odd positive integer"),
    ("m-list", "-1,15", "header 'm-list': -1 is not an odd positive integer"),
    ("offset", "0", r"window \(0, 14\) is not a union of level-1 blocks"),
])
def test_bad_header_value(tmp_path, sched2, mu_target, key, value, message):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = [f"{key}: {value}" if l.startswith(f"{key}: ") else l
             for l in path.read_text().split("\n")]
    path.write_text("\n".join(lines))
    with pytest.raises(InconsistencyError, match=message):
        load_window(path)


def test_window_off_the_block_grid(tmp_path, binary):
    path = tmp_path / "w.bsw"
    save_window(path, PartialWindow(-7, binary.cells_of_text("*" * 16)), alphabet=binary,
                profile="faithful", depth=1, m_list=(1, 15), sparse="squares", u="mu-indicator",
                fill="pillar-first-ltr,cycle-lex-restart@0")
    with pytest.raises(InconsistencyError,
                       match=r"window \(-7, 8\) is not a union of level-1 blocks"):
        load_window(path)


@pytest.mark.parametrize("fill", [0, STAR])
def test_cell_outside_the_alphabet_leaves_the_path_alone(tmp_path, binary, fill):
    """A cell outside the alphabet in the third payload line raises the
    translation error before a byte reaches the path, in a fully defined
    window and in one holding stars."""
    cells = np.full(3 * LINE_CELLS, fill, dtype=np.uint8)
    cells[-5] = 7
    path = tmp_path / "w.bsw"
    path.write_bytes(b"kept")
    with pytest.raises(InvalidParameterError, match="^cell value 7 outside alphabet$"):
        save_window(path, PartialWindow(0, cells), alphabet=binary, profile="fast", depth=1,
                    m_list=(1, 3), sparse="squares", u="mu-indicator",
                    fill="pillar-first-ltr,cycle-seeded@0")
    assert path.read_bytes() == b"kept"


def test_save_holds_a_few_lines_at_a_time(tmp_path, binary):
    """The save translates, hashes and writes one payload line at a time:
    its traced peak stays within a few lines' worth (np.take's intp copy
    of a line's cells is eight bytes a cell) of a 4 M-cell window."""
    cells = np.tile(np.array([0, 1, 1, STAR, 0], dtype=np.uint8), 800_000)
    x = PartialWindow(-2_000_002, cells)
    tracemalloc.start()
    try:
        wf = save_window(tmp_path / "w.bsw", x, alphabet=binary, profile="fast", depth=1,
                         m_list=(1, 5), sparse="squares", u="mu-indicator",
                         fill="pillar-first-ltr,cycle-seeded@0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * LINE_CELLS < len(x) // 3
    assert load_window(tmp_path / "w.bsw").window == x
    assert wf.render().encode() == (tmp_path / "w.bsw").read_bytes()


def test_load_holds_few_payload_copies(tmp_path, binary):
    """The load keeps the file as bytes from disk to cells: its traced
    peak on a 4 M-cell window stays below 2.5 bytes a cell."""
    cells = np.tile(np.array([0, 1, 1, STAR, 0], dtype=np.uint8), 800_000)
    x = PartialWindow(-2_000_002, cells)
    path = tmp_path / "w.bsw"
    save_window(path, x, alphabet=binary, profile="fast", depth=1, m_list=(1, 5),
                sparse="squares", u="mu-indicator", fill="pillar-first-ltr,cycle-seeded@0")
    tracemalloc.start()
    try:
        wf = load_window(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wf.window == x
    assert peak < 2.5 * len(x)


def _edit_lines(text, fn):
    return "\n".join(fn(text.split("\n")))


def _with_payload(lines, payload):
    """The lines with the payload line replaced and the checksum made to match."""
    cells = lines.index("cells:") + 1
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return lines[:cells] + [payload, f"checksum: {digest}", ""]


# Each edit maps the text of the depth-1 window file (alphabet 01, cells
# 000000101100101, checksum b21d787d93035dfe) to the text of the input.
@pytest.mark.parametrize("edit,error,message", [
    (lambda t: t.replace("BLOCKSHIFT/1", "BLOCKSHIFT/2"), VersionError,
     "unsupported format tag 'BLOCKSHIFT/2' (expected BLOCKSHIFT/1)"),
    (lambda t: "", VersionError, "unsupported format tag '' (expected BLOCKSHIFT/1)"),
    (lambda t: t.replace("u: mu-indicator", "u: mu-indicat\u00e9r"), InconsistencyError,
     "non-ASCII byte 0xc3 at offset 95"),
    (lambda t: t.replace("depth: 1", "depth 1"), InconsistencyError,
     "malformed header line 'depth 1'"),
    (lambda t: t.replace("seed: 0", "colour: red"), InconsistencyError,
     "unknown header key 'colour'"),
    (lambda t: t.replace("seed: 0", "seed: 0\nseed: 1"), InconsistencyError,
     "duplicate header key 'seed'"),
    (lambda t: t.replace("seed: 0\n", ""), InconsistencyError, "missing header keys: seed"),
    (lambda t: t.split("\ncells:")[0], InconsistencyError, "missing 'cells:' section"),
    (lambda t: t.split("cells:")[0], InconsistencyError, "malformed header line ''"),
    (lambda t: _edit_lines(t, lambda ls: ls[:-2] + [""]), InconsistencyError,
     "missing checksum line"),
    (lambda t: t + "0\n", InconsistencyError, "content after the checksum line"),
    (lambda t: t.replace("length: 15", "length: 16"), InconsistencyError,
     "declared length 16 != payload cell count 15"),
    (lambda t: _edit_lines(t.replace("length: 15", "length: 0"),
                           lambda ls: _with_payload(ls, "")), InconsistencyError,
     "empty payload: a window needs at least one cell"),
    (lambda t: t.replace("000000101100101", "100000101100101"), ChecksumError,
     "checksum mismatch: header b21d787d93035dfe, payload "
     + hashlib.sha256(b"100000101100101").hexdigest()[:16]),
    (lambda t: _edit_lines(t, lambda ls: _with_payload(ls, "000000201100101")),
     InconsistencyError, "payload symbol '2' not in alphabet '01'"),
    (lambda t: t.replace("profile: faithful", "profile: bogus"), InconsistencyError,
     "header 'profile': unknown profile 'bogus'"),
    (lambda t: t.replace("depth: 1", "depth: 2"), InconsistencyError,
     "m-list length does not match depth"),
], ids=["tag", "empty-file", "non-ascii", "malformed", "unknown-key", "duplicate-key",
        "missing-keys", "no-cells", "no-cells-newline", "no-checksum", "after-checksum",
        "length", "empty", "checksum", "symbol", "profile", "depth"])
def test_load_error_messages(tmp_path, sched2, mu_target, edit, error, message):
    path = _save(tmp_path, realize(mu_target, sched2, 1), sched2)
    path.write_bytes(edit(path.read_text()).encode("utf-8"))
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        load_window(path)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_crlf_and_cr_files_load_as_the_lf_file(tmp_path, x2, sched2, newline):
    path = _save(tmp_path, x2, sched2, depth=2)
    other = tmp_path / "other.bsw"
    other.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert load_window(other) == load_window(path)


@pytest.fixture(scope="module")
def d1_path(tmp_path_factory, sched2, mu_target):
    return _save(tmp_path_factory.mktemp("d1"), realize(mu_target, sched2, 1), sched2)


EDITS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete", "0xff", "cr", "lf"]),
                           st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=4)


def _outcome(load, path):
    """The loaded file, or the class and message of the format error raised."""
    try:
        return load(path)
    except WindowFormatError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(edits=EDITS)
def test_mutated_file_raises_only_format_errors(d1_path, edits):
    """A mutant raises a format error, the same class and message as the
    text loader of tests/oracles.py, or loads equal to it."""
    data = bytearray(d1_path.read_bytes())
    for op, pos, byte in edits:
        if op in ("insert", "cr", "lf"):
            data.insert(pos % (len(data) + 1), {"cr": 13, "lf": 10}.get(op, byte))
        elif data and op == "delete":
            del data[pos % len(data)]
        elif data and op == "flip":
            data[pos % len(data)] ^= 1 << (byte % 8)
        elif data:
            data[pos % len(data)] = 0xFF
    mutant = d1_path.with_name("mutant.bsw")
    mutant.write_bytes(bytes(data))
    assert _outcome(load_window, mutant) == _outcome(load_window_by_text, mutant)
