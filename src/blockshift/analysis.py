"""Analyzers: distinct-subword profiles, the entropy bound chain,
minimality witnesses, and the positive-density converse bound.

Everything here is exact.  Subword counting packs the n_max cells of
every start that has them all, one bit a binary cell, into uint32 or
uint64 key words built from the cells in place (no padded copy of the
window, no end mark) and sorts them once; the longest common prefixes of
adjacent sorted keys, read off the XORs of their words, give the count
for every length at once (no hashing), and each of the last n_max - 1
starts adds the words longer than its longest previous factor.  Aligned
blocks are counted by one sort of their row codes (words.row_codes), or,
for rows past 64 bits, by one lexsort of each row's 8-byte words.  Reported counts are window lower bounds on the
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

    One lexicographic sort serves every length.  Each of the N - n_max +
    1 starts with n_max cells in the window has a full key: those cells,
    ``max(1, top.bit_length())`` bits a digit, in one uint32 word if they
    fit, else in uint64 words of ``63 // bits`` digits.  The distinct
    n-prefixes of the sorted full keys number one more than the adjacent
    pairs whose first n digits differ, which the highest set bit of their
    XOR tells; so one in-place sort of the XORs and one ``searchsorted``
    against the digit boundaries count every n of a key word.  The XORs
    overwrite the keys, so the peak holds the cells, the keys and little
    more.  Each of the last n_max - 1 starts adds the words longer than
    its longest previous factor (_first_words), so no end mark pads a key.

    Counts are window lower bounds on the language size (straddling words
    can be undercounted); aligned counts come from _distinct_rows.
    """
    top = int(x.cells.max())  # read once: the star test and every digit width
    if top == STAR:  # STAR is the largest cell value
        raise InvalidParameterError("window contains '*' cells")
    if n_max < 1 or n_max > len(x):
        raise InvalidParameterError(f"n_max {n_max} outside [1,{len(x)}]")
    bits = max(1, top.bit_length())
    one_word = n_max * bits <= 32
    per_word = n_max if one_word else 63 // bits
    starts = range(0, n_max, per_word)
    widths = [min(per_word, n_max - lo) for lo in starts]
    full = len(x) - n_max + 1  # the starts with a full key
    # Packing by doubling joins each start's key to a later start's, so
    # every start is packed, in one array: a size past memory fails here.
    keys = np.empty((len(widths), len(x)), dtype=np.uint32 if one_word else np.uint64)
    for key, lo, width in zip(keys, starts, widths):
        _packed(key, x.cells[lo:], width, bits)
    head = keys[:, :full]
    if len(widths) == 1:
        head[0].sort()
    else:
        order = np.lexsort(head[::-1])
        for key in head:
            key[:] = key[order]
        del order
    news = _first_words(keys, full, widths, bits, x.cells[full:])

    counts: dict[int, int] = {}
    told = None  # told[i]: the sorted keys i and i + 1 differ in an earlier word
    for key, lo, width in zip(head, starts, widths):
        xor = _xor_with_next(key)
        if told is not None:
            xor[told] = _ALL_ONES  # above every digit boundary
        told = xor != 0 if lo + width < n_max else None
        xor.sort()
        # the first j digits of the word differ iff the XOR reaches the
        # lowest bit of digit j
        bounds = np.array([1 << bits * (width - j) for j in range(1, width + 1)],
                          dtype=keys.dtype)
        apart = xor.size - np.searchsorted(xor, bounds)
        for n, pairs in enumerate(apart.tolist(), start=lo + 1):
            counts[n] = 1 + pairs + news[n]
    del keys, head, key, xor  # before the aligned rows' codes
    aligned = {int(m): _distinct_rows(_aligned_rows(x, int(m)), top.bit_length())
               for m in aligned_lengths}
    return ComplexityReport(len(x), counts, aligned)


_ALL_ONES = np.uint64(2**64 - 1)
# In-place passes over a key go forward a cache-sized chunk at a time
# (words.row_chunks): each chunk reads entries ahead of it before they
# change, so no pass needs a second key-sized array.


def _packed(key: np.ndarray, digits: np.ndarray, width: int, bits: int) -> None:
    """key[i] = digits i, ..., i + width - 1, ``bits`` bits each, the
    first highest, 0 past the last digit; built in place by doubling: a
    key of h digits becomes one of 2h by joining the key h places on,
    and one of h + 1 by joining the digit h places on."""
    key[:digits.size] = digits
    key[digits.size:] = 0
    have = 1
    for bit in bin(width)[3:]:
        _join(key, key[have:], bits * have)
        have *= 2
        if bit == "1":
            _join(key, digits[have:], bits)
            have += 1


def _join(key: np.ndarray, tail: np.ndarray, shift: int) -> None:
    """key[i] = key[i] << shift | tail[i] for every i, in place, where
    tail[i] is 0 past the end of tail (tail may be key itself, a few
    places on)."""
    head = key[:tail.size]
    for part in row_chunks(head.size):
        np.bitwise_or(np.left_shift(head[part], shift), tail[part], out=head[part])
    key[tail.size:] <<= shift


def _xor_with_next(key: np.ndarray) -> np.ndarray:
    """key[i] ^= key[i + 1] for every i but the last, in place, as key[:-1]."""
    head, after = key[:-1], key[1:]
    for part in row_chunks(head.size):
        head[part] ^= after[part]
    return head


def _first_words(keys: np.ndarray, full: int, widths: list[int], bits: int,
                 tail: np.ndarray) -> list[int]:
    """news[n]: how many starts i >= full (cells ``tail``, keys
    keys[:, full:]) have an n-word seen at no earlier start: N - i >= n >
    LPF_i, the longest prefix of cells[i:] that starts earlier.  That is
    the longer match with a full key (the common prefix with a sorted
    neighbour of key i, searched a key word at a time) or with an earlier
    start of the tail (a run of equal cells along a diagonal)."""
    ends = np.arange(tail.size, 0, -1)  # N - i
    lpf = ends.copy()  # unless a full key is found to differ
    for t, i in enumerate(range(full, full + tail.size)):
        lo, hi, same = 0, full, 0
        for key, width in zip(keys, widths):  # the full keys that agree with key i so far
            row = key[lo:hi]
            a, b = np.searchsorted(row, key[i]), np.searchsorted(row, key[i], "right")
            if a == b:  # of the neighbours in the row, the least XOR agrees longest
                diff = int((row[max(a - 1, 0):a + 1] ^ key[i]).min())
                lpf[t] = min(ends[t], same + width - 1 - (diff.bit_length() - 1) // bits)
                break
            lo, hi, same = lo + a, lo + b, same + width
    for d in range(1, tail.size):
        eq = tail[d:] == tail[:-d]  # eq[j]: tail cells j and j + d are equal
        stop = np.minimum.accumulate(np.where(eq, eq.size, np.arange(eq.size))[::-1])
        np.maximum(lpf[d:], stop[::-1] - np.arange(eq.size), out=lpf[d:])
    return np.cumsum(np.bincount(lpf + 1, minlength=tail.size + 2)
                     - np.bincount(ends + 1, minlength=tail.size + 2)).tolist()


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
