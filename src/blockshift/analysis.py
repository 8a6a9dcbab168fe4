"""Analyzers: distinct-subword profiles, the entropy bound chain,
minimality witnesses, and the positive-density converse bound.

Everything here is exact.  Subword counting packs the next n_max cells
of every start position, a few bits a cell, into uint64 key words built
from the cells in place (no padded copy of the window) and sorts them
once; the longest common prefixes of adjacent sorted keys, read off the
XORs of their words, give the count for every length at once (no
hashing).  Aligned blocks are counted by one sort of their row codes
(words.row_codes), or, for rows past 64 bits, by one lexsort of each
row's 8-byte words.  Reported counts are window lower bounds on the
language size, since a finite window can undercount straddling words.

Minimality witnesses make no pass of their own over the window: they
certify aligned pillar copies, read off the admissibility report, and
read pillar coverage off the profile, as build_schedule checks each w_k.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError
# re-exported: the package, the CLI and correlation read window_admissibility_report here
from .schedule import Schedule, WindowAdmissibilityReport, window_admissibility_report
from .words import STAR, PartialWindow, on_block_grid, row_chunks, row_codes


# --- subword complexity -------------------------------------------------


@dataclass(frozen=True)
class ComplexityReport:
    window_length: int
    counts: dict[int, int]
    aligned: dict[int, int]
    source: str = "window lower bound on |L_n|"


def complexity_profile(x: PartialWindow, n_max: int,
                       aligned_lengths=()) -> ComplexityReport:
    """Exact distinct-subword counts for every length up to n_max.

    One lexicographic sort serves every length.  A start position's next
    n_max digits are its cells and, past the last cell, copies of an end
    mark, the digit ``base`` (one above every cell value); they are
    packed, ``base.bit_length()`` bits a digit, into uint64 key words
    built from the cells in place (no padded copy of the window).
    After the sort, the number of distinct n-prefixes is one more than
    the number of adjacent keys whose first n digits differ, and the
    highest set bit of their XOR tells the first digit that differs.  So
    one in-place sort of the XORs and one ``searchsorted`` against the
    digit boundaries give that number for every n of a key word (the
    histogram of longest common prefixes).  The XORs overwrite the
    keys, so the peak holds the cells, the keys and little more.  The
    distinct n-prefixes are the distinct length-n words plus the n - 1
    prefixes that hold the end mark.

    Counts over all positions are window lower bounds on the language
    size (straddling words can be undercounted); for each requested
    block length the grid-aligned distinct count is reported separately,
    from one sort of the block rows' codes, or for rows past 64 bits one
    lexsort of their 8-byte words.
    """
    top = int(x.cells.max())  # read once: the star test and every digit width
    if top == STAR:  # STAR is the largest cell value
        raise InvalidParameterError("window contains '*' cells")
    if n_max < 1 or n_max > len(x):
        raise InvalidParameterError(f"n_max {n_max} outside [1,{len(x)}]")
    base = top + 1
    bits = base.bit_length()
    per_word = 63 // bits
    starts = range(0, n_max, per_word)
    keys = [_packed(x.cells, lo, min(per_word, n_max - lo), bits, base) for lo in starts]
    if len(keys) == 1:
        keys[0].sort()
    else:
        order = np.lexsort(keys[::-1])
        for j, key in enumerate(keys):
            keys[j] = key[order]
        del key, order

    counts: dict[int, int] = {}
    told = None  # told[i]: the sorted keys i and i + 1 differ in an earlier word
    for lo in starts:
        width = min(per_word, n_max - lo)
        xor = _xor_with_next(keys.pop(0))  # popped, so each word is freed once counted
        if told is not None:
            xor[told] = _ALL_ONES  # above every digit boundary
        told = xor != 0 if lo + width < n_max else None
        xor.sort()
        # the first j digits of the word differ iff the XOR reaches the
        # lowest bit of digit j
        bounds = np.array([1 << bits * (width - j) for j in range(1, width + 1)],
                          dtype=np.uint64)
        apart = xor.size - np.searchsorted(xor, bounds)
        for n, pairs in enumerate(apart.tolist(), start=lo + 1):
            counts[n] = 1 + pairs - (n - 1)
        del xor
    aligned = {int(m): _distinct_rows(_aligned_rows(x, int(m)), top.bit_length())
               for m in aligned_lengths}
    return ComplexityReport(len(x), counts, aligned)


_ALL_ONES = np.uint64(2**64 - 1)
# In-place passes over a key go forward a cache-sized chunk at a time
# (words.row_chunks): each chunk reads entries ahead of it before they
# change, so no pass needs a second key-sized array.


def _packed(cells: np.ndarray, lo: int, width: int, bits: int, base: int) -> np.ndarray:
    """key[i] = digits lo + i, ..., lo + i + width - 1, ``bits`` bits
    each, the first digit highest, for i < cells.size; digit q is
    cells[q], or the end mark ``base`` past the last cell.

    The key starts as the digits from lo on, widened to uint64, and is
    built in place by doubling: a key of h digits becomes one of 2h by
    joining each key to the one h places on, and one of h + 1 by joining
    each key to the digit h places on, so ``width`` digits take about
    2·log2(width) passes, not width - 1.  A key that starts past the
    last cell holds end marks only."""
    size = cells.size
    key = np.empty(size, dtype=np.uint64)
    key[:size - lo] = cells[lo:]
    key[size - lo:] = base
    have = 1
    for bit in bin(width)[3:]:
        _join(key, key[have:], bits * have, sum(base << bits * j for j in range(have)))
        have *= 2
        if bit == "1":
            _join(key, cells[lo + have:], bits, base)
            have += 1
    return key


def _join(key: np.ndarray, tail: np.ndarray, shift: int, mark: int) -> None:
    """key[i] = key[i] << shift | tail[i] for every i, in place, where
    tail[i] is ``mark`` past the end of tail (tail may be key itself, a
    few places on)."""
    for part in row_chunks(key.size):
        head, more = key[part], tail[part]
        if more.size < head.size:  # the end marks, in the last chunk or so
            more = np.concatenate([more, np.full(head.size - more.size, mark, more.dtype)])
        np.bitwise_or(np.left_shift(head, shift), more, out=head)


def _xor_with_next(key: np.ndarray) -> np.ndarray:
    """key[i] ^= key[i + 1] for every i but the last, in place, as key[:-1]."""
    head, after = key[:-1], key[1:]
    for part in row_chunks(head.size):
        head[part] ^= after[part]
    return head


def _aligned_rows(x: PartialWindow, m: int) -> np.ndarray:
    if not on_block_grid(x.offset, len(x), m):
        raise InvalidParameterError(f"window {x.interval()} not aligned to {m}-blocks")
    return x.cells.reshape(len(x) // m, m)


def _distinct_rows(rows: np.ndarray, bits: int) -> int:
    """The number of distinct rows of a C-contiguous uint8 array of one
    or more rows, whose cells are below 2**bits.

    A row of at most 64 bits is one words.row_codes code, so one sort of
    the codes puts equal rows next to each other.  A wider row (over 8
    cells, as bits <= 8) is read as 8-byte words, as in
    ``words.rows_equal`` (byte offsets 0, 8, ... and m - 8 for the tail,
    through unaligned strided uint64 views, so no row is copied), and
    one lexsort of the words does that."""
    n, m = rows.shape
    if m * bits <= 64:
        codes = row_codes(rows, bits)
        codes.sort()
        return 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))
    offsets = list(range(0, m - 7, 8)) + ([m - 8] if m % 8 else [])
    words = [np.ndarray((n,), np.uint64, rows, o, (m,)) for o in offsets]
    order = np.lexsort(words)
    differs = np.zeros(n - 1, dtype=bool)
    for word in words:
        word = word[order]
        differs |= word[1:] != word[:-1]
    return 1 + int(np.count_nonzero(differs))


def aligned_block_census(x: PartialWindow, m: int) -> Counter:
    """Multiset of the aligned length-m blocks of a block-aligned window."""
    return Counter(row.tobytes() for row in _aligned_rows(x, m))


# --- entropy chain ------------------------------------------------------


def corrected_constant(schedule: Schedule) -> float:
    """C = max(1, (4/3) b_1) with b_1 = ln|A_1|/m_1."""
    b1 = schedule.level(1).card.log_upper / schedule.m(1)
    return max(1.0, (4.0 / 3.0) * b1)


def entropy_bound_series(schedule: Schedule, k_max: int) -> list[tuple[int, float]]:
    """bound_k = (ln m_k)/m_k + 2 C (3/4)^k, frozen at the built depth.

    Beyond the built depth the first term keeps the depth-D value, a
    valid majorant because m grows at least threefold per level and
    ln(x)/x decreases from there.
    """
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    C = corrected_constant(schedule)
    D = schedule.depth
    out = []
    for k in range(1, k_max + 1):
        m = schedule.m(min(k, D))
        out.append((k, math.log(m) / m + 2.0 * C * (3.0 / 4.0) ** k))
    return out


def decay_report(schedule: Schedule) -> dict:
    """b_k = ln|A_k|/m_k against the corrected constant and the naive one."""
    C = corrected_constant(schedule)
    paper_C = math.log(schedule.alphabet.size)
    rows = []
    for k in range(1, schedule.depth + 1):
        b_k = schedule.level(k).card.log_upper / schedule.m(k)
        rows.append(
            {
                "k": k,
                "b_k": b_k,
                "corrected_bound": C * (3.0 / 4.0) ** k,
                "corrected_holds": b_k <= C * (3.0 / 4.0) ** k,
                "naive_bound": paper_C * (3.0 / 4.0) ** k,
                "naive_holds": b_k <= paper_C * (3.0 / 4.0) ** k,
            }
        )
    return {"C_corrected": C, "C_naive": paper_C, "levels": rows}


# --- minimality witnesses ------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    checks: tuple[tuple[str, str, str], ...]  # (name, status, detail)

    @property
    def ok(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)


def minimality_witnesses(report: WindowAdmissibilityReport,
                         schedule: Schedule) -> MinimalityReport:
    """Syndeticity evidence on a fully defined window, for each level k
    below the report's depth, from its admissibility report alone.

    (a) pillar-containment: every aligned level-(k+1) block holds an
        aligned copy of w_k (its level-(k+1) pillar share is >= 1);
    (b) gap-bound: implied by (a), since aligned copies of w_k in
        adjacent level-(k+1) blocks sit at most 2*m_{k+1} - m_k apart;
    (c) pillar-coverage: w_{k+1} holds every word of A_k, a schedule
        property: build_schedule refuses a pillar that fails it, so a
        built schedule reads "ok" (faithful) or "waived" (fast).

    An aligned copy is an occurrence, so each "ok" also holds for
    occurrences anywhere in the window.
    """
    if not report.fully_defined:
        raise InvalidParameterError("window contains '*' cells")
    checks = []
    for c in report.checks:
        k = c.level - 1
        if c.min_pillar_share >= 1:
            checks.append((f"pillar-containment k={k}", "ok",
                           f"{c.blocks} blocks hold an aligned w_{k}"))
            checks.append((f"gap-bound k={k}", "ok",
                           f"aligned gap <= {2 * schedule.m(k + 1) - schedule.m(k)}"))
        else:
            checks.append((f"pillar-containment k={k}", "fail",
                           f"a level-{k + 1} block holds no aligned w_{k}"))
            checks.append((f"gap-bound k={k}", "fail", "not implied: containment fails"))
    coverage = "ok" if schedule.faithful else "waived"
    for c in report.checks:
        k = c.level - 1
        checks.append((f"pillar-coverage k={k}", coverage,
                       f"every-word check of w_{k + 1} at build time"))
    return MinimalityReport(tuple(checks))


# --- converse bound -------------------------------------------------------


def positive_density_bound(alpha, alphabet_size: int) -> float:
    """Entropy forced by realizing all targets along a density-alpha set."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InvalidParameterError("alpha must lie in (0, 1]")
    if alphabet_size < 2:
        raise InvalidParameterError("alphabet size must be >= 2")
    return float(alpha) * math.log(alphabet_size) / 2.0


def realization_forced_count(window_len: int, s_count: int,
                             alphabet_size: int = 2) -> int:
    """Minorant on distinct length-L words: free choice on S-cells."""
    if s_count < 0 or s_count > window_len:
        raise InvalidParameterError("s_count must lie in [0, window_len]")
    if alphabet_size < 2:
        raise InvalidParameterError("alphabet size must be >= 2")
    return alphabet_size**s_count
