import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from blockshift import (
    Alphabet,
    InvalidParameterError,
    PartialWindow,
    block_interval,
    block_of,
)
from blockshift import words
from blockshift.words import count_rows, on_block_grid, rows_equal
from tests.oracles import occurrences

odd_lengths = st.integers(min_value=0, max_value=40).map(lambda t: 2 * t + 1)
indices = st.integers(min_value=-1000, max_value=1000)


def test_block_interval_examples():
    assert block_interval(0, 15) == (-7, 7)
    assert block_interval(1, 15) == (8, 22)
    assert block_interval(-2, 3) == (-7, -5)


@pytest.mark.parametrize("m", [0, -3, 2, 8])
def test_block_interval_rejects_bad_length(m):
    with pytest.raises(InvalidParameterError):
        block_interval(0, m)


@given(indices, odd_lengths)
def test_blocks_are_adjacent_disjoint_and_centered(i, m):
    lo, hi = block_interval(i, m)
    assert hi - lo + 1 == m
    assert (lo + hi) // 2 == i * m
    nlo, nhi = block_interval(i + 1, m)
    assert nlo == hi + 1
    assert nhi > nlo - 1


@given(st.integers(min_value=-10**6, max_value=10**6), odd_lengths)
def test_block_of_inverts_block_interval(c, m):
    i = block_of(c, m)
    lo, hi = block_interval(i, m)
    assert lo <= c <= hi


@pytest.mark.parametrize("m,mult", [(3, 5), (5, 3), (3, 15), (15, 3), (5, 9)])
def test_block_nesting(m, mult):
    # every block of odd-multiple length is an exact union of finer blocks
    m_big = m * mult
    for i in range(-3, 4):
        lo, hi = block_interval(i, m_big)
        fine = [block_interval(j, m) for j in range(block_of(lo, m), block_of(hi, m) + 1)]
        assert fine[0][0] == lo and fine[-1][1] == hi
        for (a, b), (c, d) in zip(fine, fine[1:]):
            assert c == b + 1


@given(odd_lengths, indices, st.integers(min_value=1, max_value=200))
def test_on_block_grid_matches_block_index(m, start, length):
    end = start + length - 1
    expected = block_interval(block_of(start, m), m)[0] == start and (
        block_interval(block_of(end, m), m)[1] == end)
    assert on_block_grid(start, length, m) == expected


def test_occurrences_examples(binary):
    t = PartialWindow(0, binary.cells_of_text("0101"))
    assert occurrences(binary.cells_of_text("01"), t) == [0, 2]
    t2 = PartialWindow(0, binary.cells_of_text("*0"))
    assert occurrences(binary.cells_of_text("0"), t2) == [1]
    t3 = PartialWindow(5, binary.cells_of_text("0*0"))
    assert occurrences(binary.cells_of_text("00"), t3) == []


@given(st.text(alphabet="01*", min_size=1, max_size=60),
       st.text(alphabet="01", min_size=1, max_size=4),
       st.integers(min_value=-30, max_value=30))
def test_occurrences_matches_naive(text, pattern, offset):
    ab = Alphabet("01")
    win = PartialWindow(offset, ab.cells_of_text(text))
    expected = [
        offset + i
        for i in range(len(text) - len(pattern) + 1)
        if text[i:i + len(pattern)] == pattern
    ]
    assert occurrences(ab.cells_of_text(pattern), win) == expected


def test_alphabet_validation():
    with pytest.raises(InvalidParameterError):
        Alphabet("0")
    with pytest.raises(InvalidParameterError):
        Alphabet("00")
    with pytest.raises(InvalidParameterError):
        Alphabet("0*")
    ab = Alphabet("0+-")
    assert ab.symbols[0] == "0" and ab.size == 3


def test_window_basics(binary):
    w = PartialWindow(-1, binary.cells_of_text("0*1"))
    assert w[-1] == 0 and w[1] == 1
    assert not w.is_fully_defined() and w.star_count() == 1
    assert binary.text_of_cells(w.cells) == "0*1"
    with pytest.raises(InvalidParameterError):
        w[2]
    sub = w.sub(0, 1)
    assert binary.text_of_cells(sub.cells) == "*1" and sub.offset == 0


def _read_only_at(a, shift):
    """A read-only copy of a whose data pointer is ``shift`` bytes past an aligned one."""
    buf = np.empty(a.size + 8, dtype=np.uint8)
    assert buf.ctypes.data % 8 == 0
    out = buf[shift:shift + a.size].reshape(a.shape)
    out[...] = a
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("w", [*range(1, 41), 2115])
def test_row_kernels_match_a_per_row_reference(w):
    """rows_equal against a per-row tobytes() compare and count_rows against
    np.count_nonzero, on rows that differ from the word in exactly one
    byte at every position, at odd and aligned data pointers, read-only."""
    rng = np.random.default_rng(w)
    word = rng.integers(0, 256, w, dtype=np.uint8)
    rows = np.repeat(word[None, :], 2 * w + 8, axis=0)
    rows[np.arange(w), np.arange(w)] ^= 1
    rows[w:2 * w, :] = rng.integers(0, 3, (w, w), dtype=np.uint8)
    rows[2 * w:] = rng.integers(0, 256, (8, w), dtype=np.uint8)
    rows[-1] = word
    mask = rng.random(rows.shape) < 0.5
    mask[0], mask[1] = True, False
    for shift in (0, 1, 3):
        r, wd = _read_only_at(rows, shift), _read_only_at(word, (shift + 5) % 8)
        want = np.array([row.tobytes() == wd.tobytes() for row in r])
        assert want[:w].sum() == 0 and want[-1]
        assert rows_equal(r, wd).tolist() == want.tolist()
        m = _read_only_at(mask.view(np.uint8), shift).view(bool)
        assert count_rows(m).tolist() == np.count_nonzero(m, axis=1).tolist()
    assert rows_equal(np.zeros((0, w), np.uint8), word).shape == (0,)


# The default batch, and one that makes row_chunks cut every 4 entries, so
# that the first bad entry can lie in a later chunk than the first (as in
# each test's example).
CHUNKINGS = (words._BATCH_CELLS, 256)


@given(st.sampled_from(["01", "0+-", "abcXYZ"]), st.text(alphabet="01+-abcXYZ*2 é", max_size=30))
@example("01", "0*10+")
def test_cells_of_text_names_the_first_character_outside_the_alphabet(symbols, text):
    ab = Alphabet(symbols)
    bad = [ch for ch in text if ch not in symbols + "*"]
    for batch in CHUNKINGS:
        with mock.patch.object(words, "_BATCH_CELLS", batch):
            if any(ord(ch) >= 128 for ch in text):
                with pytest.raises(InvalidParameterError, match="^non-ASCII character in text: "):
                    ab.cells_of_text(text)
            elif bad:
                with pytest.raises(InvalidParameterError, match=re.escape(
                        f"symbol {bad[0]!r} not in alphabet {symbols!r}")):
                    ab.cells_of_text(text)
            else:
                got = ab.cells_of_text(text)
                assert got.dtype == np.uint8
                assert got.tolist() == [255 if ch == "*" else symbols.index(ch) for ch in text]


@given(st.lists(st.integers(0, 255), max_size=30))
@example([0, 1, 2, 255, 1, 9])
def test_text_of_cells_names_the_first_cell_outside_the_alphabet(values):
    ab = Alphabet("0+-")
    cells = np.array(values, dtype=np.uint8)
    bad = [v for v in values if 3 <= v < 255]
    for batch in CHUNKINGS:
        with mock.patch.object(words, "_BATCH_CELLS", batch):
            if bad:
                with pytest.raises(InvalidParameterError,
                                   match=f"^cell value {bad[0]} outside alphabet$"):
                    ab.text_of_cells(cells)
            else:
                assert ab.text_of_cells(cells) == "".join("*" if v == 255 else "0+-"[v]
                                                          for v in values)
