"""Analyzers: distinct-subword profiles, the entropy bound chain,
minimality witnesses, and the positive-density converse bound.

Everything here is exact.  Subword counting sorts one fixed-width
integer key per start position once and reads the count for every
length from the sorted order (no hashing); reported counts are window
lower bounds on the language size, since a finite window can undercount
straddling words.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError
from .schedule import LevelCheck, Schedule, _check_level
from .words import PartialWindow, occurrences


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

    One lexicographic sort serves every length.  The cells are padded
    with n_max - 1 copies of an end mark, the digit ``base`` (one above
    every cell value), and each start position's next n_max digits are
    packed in base ``base + 1`` into fixed-width int64 key words.  In the
    sorted order every set of equal n-prefixes is one run, so the runs
    of n-prefixes count the distinct length-n words plus the n - 1
    prefixes that hold the end mark.

    Counts over all positions are window lower bounds on the language
    size (straddling words can be undercounted); for each requested
    block length the grid-aligned distinct count is reported separately.
    """
    if not x.is_fully_defined():
        raise InvalidParameterError("window contains '*' cells")
    if n_max < 1 or n_max > len(x):
        raise InvalidParameterError(f"n_max {n_max} outside [1,{len(x)}]")
    size = len(x)
    base = int(x.cells.max()) + 1
    digit = base + 1
    # cells are at most 254 (255 is the star), so the end mark fits uint8
    padded = np.concatenate([x.cells, np.full(n_max - 1, base, dtype=np.uint8)])
    width = 1
    while width < n_max and digit ** (width + 1) < 2**62:
        width += 1
    keys = []
    for lo in range(0, n_max, width):
        key = padded[lo:lo + size].astype(np.int64)
        for t in range(lo + 1, min(lo + width, n_max)):
            key *= digit
            key += padded[t:t + size]
        keys.append(key)
    if len(keys) == 1:
        keys[0].sort()
    else:
        order = np.lexsort(keys[::-1])
        for j, key in enumerate(keys):
            keys[j] = key[order]
        del key, order

    counts: dict[int, int] = {}
    # differs[i]: the sorted keys i and i + 1 differ in a word already counted
    differs = np.zeros(size - 1, dtype=bool)
    for lo in range(0, n_max, width):
        key = keys.pop(0)  # popped, so each word is freed once counted
        earlier = differs
        differs = earlier | (key[1:] != key[:-1])
        # one entry per distinct prefix through this word, in sorted order;
        # first marks the entries whose earlier words differ from the
        # previous entry's, which stays true as prefixes shorten
        keep = np.concatenate(([True], differs))
        prefix = key[keep]
        first = np.concatenate(([True], earlier))[keep]
        del key
        for n in range(min(lo + width, n_max), lo, -1):
            counts[n] = prefix.size - (n - 1)
            if n > lo + 1:
                prefix //= digit
                keep = first.copy()
                keep[1:] |= prefix[1:] != prefix[:-1]
                prefix = prefix[keep]
                first = first[keep]
    counts = dict(sorted(counts.items()))
    aligned = {
        int(m): len(aligned_block_census(x, int(m))) for m in aligned_lengths
    }
    return ComplexityReport(len(x), counts, aligned)


def aligned_block_census(x: PartialWindow, m: int) -> Counter:
    """Multiset of the aligned length-m blocks of a block-aligned window."""
    h = (m - 1) // 2
    if (x.start + h) % m != 0 or len(x) % m != 0:
        raise InvalidParameterError(f"window {x.interval()} not aligned to {m}-blocks")
    rows = x.cells.reshape(len(x) // m, m)
    return Counter(row.tobytes() for row in rows)


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


# --- window admissibility ----------------------------------------------


@dataclass(frozen=True)
class WindowAdmissibilityReport:
    checks: tuple[LevelCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        parts = []
        for c in self.checks:
            parts.append(
                f"level {c.level}: {c.defined_blocks}/{c.blocks} defined, "
                f"share>={c.min_pillar_share}/{c.required_share}, "
                f"membership={c.membership}, every-word={c.every_word}"
                + (f" [{c.detail}]" if c.detail else "")
            )
        return "; ".join(parts)


def window_admissibility_report(x: PartialWindow, schedule: Schedule,
                                depth: int) -> WindowAdmissibilityReport:
    """Per-level admissibility of every fully defined block of the window.

    Faithful profile checks block structure, symbols, pillar share,
    sub-block membership, and every-word coverage; fast profile checks
    structure, symbols and pillar share only.
    """
    if not 1 <= depth <= schedule.depth:
        raise InvalidParameterError(f"depth {depth} outside built depth")
    return WindowAdmissibilityReport(tuple(
        _check_level(x, schedule, level, schedule.faithful) for level in range(1, depth + 1)
    ))


# --- minimality witnesses ------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    checks: tuple[tuple[str, str, str], ...]  # (name, status, detail)

    @property
    def ok(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    def rows(self):
        return list(self.checks)


def minimality_witnesses(x: PartialWindow, schedule: Schedule,
                         depth: int) -> MinimalityReport:
    """Syndeticity evidence on a fully defined window.

    (a) every aligned level-(k+1) block contains w_k as a subword;
    (b) consecutive w_k occurrences sit at most 2*m_{k+1} apart;
    (c) w_{k+1} covers every admissible level-k word (checked where the
        level is enumerable; waived in the fast profile).
    """
    if not x.is_fully_defined():
        raise InvalidParameterError("window contains '*' cells")
    m_top = schedule.m(depth)
    if (x.start + (m_top - 1) // 2) % m_top != 0 or len(x) % m_top != 0:
        raise InvalidParameterError(f"window not aligned to level-{depth} blocks")
    checks = []
    for k in range(depth):
        m_next = schedule.m(k + 1)
        m_k = schedule.m(k)
        occ = occurrences(schedule.pillar(k), x)
        name_a = f"pillar-containment k={k}"
        if not occ:
            checks.append((name_a, "fail", f"w_{k} never occurs"))
            checks.append((f"gap-bound k={k}", "fail", "no occurrences"))
            continue
        starts = np.asarray(occ, dtype=np.int64) - x.offset
        n_blocks = len(x) // m_next
        lows = np.arange(n_blocks, dtype=np.int64) * m_next
        idx = np.searchsorted(starts, lows, side="left")
        bad = -1
        for i in range(n_blocks):
            j = idx[i]
            if j >= starts.size or starts[j] > lows[i] + m_next - m_k:
                bad = i
                break
        if bad >= 0:
            checks.append((name_a, "fail", f"aligned block {bad} misses w_{k}"))
        else:
            checks.append((name_a, "ok", f"{n_blocks} blocks scanned"))
        gaps = np.diff(starts)
        max_gap = int(gaps.max()) if gaps.size else 0
        bound = 2 * m_next
        status = "ok" if max_gap <= bound else "fail"
        checks.append((f"gap-bound k={k}", status,
                       f"max gap {max_gap} vs bound {bound}"))

    for k in range(depth):
        name_c = f"pillar-coverage k={k}"
        if not schedule.faithful:
            checks.append((name_c, "waived", "fast profile"))
            continue
        if not schedule.words_available(k):
            checks.append((name_c, "unverifiable", f"A_{k} not enumerable"))
            continue
        m_k = schedule.m(k)
        pillar_win = PartialWindow.from_word(schedule.pillar(k + 1),
                                             offset=-(m_k - 1) // 2)
        census = aligned_block_census(pillar_win, m_k)
        missing = schedule.word_set(k) - set(census)
        if missing:
            checks.append((name_c, "fail", f"{len(missing)} words missing from w_{k + 1}"))
        else:
            checks.append((name_c, "ok", f"all {len(schedule.word_set(k))} words aligned in w_{k + 1}"))
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
