"""Slow reference implementations that fast paths of the package are
checked against; nothing under src/ imports them."""

import numpy as np

from blockshift import InvalidParameterError, PartialWindow, aligned_block_census


def occurrences(pattern, text):
    """All coordinates where the fully defined pattern occurs; STAR never matches."""
    needle = pattern.cells
    hay = text.cells.tobytes()
    out = []
    pos = hay.find(needle)
    while pos != -1:
        out.append(text.offset + pos)
        pos = hay.find(needle, pos + 1)
    return out


def max_window_by_scan(spec, window_len, rng, stop_at=None):
    """SparseSetSpec.max_window_count by a two-pointer scan over every
    element of S in rng; with stop_at it stops once the count reaches it."""
    lo, hi = int(rng[0]), int(rng[1])
    pos = [s for _, s in spec.elements_in((lo, hi))]
    best, witness = 0, (lo, lo + window_len - 1)
    i = 0
    for j in range(len(pos)):
        while pos[j] - pos[i] >= window_len:
            i += 1
        if j - i + 1 > best:
            best = j - i + 1
            left = min(pos[i], hi - window_len + 1)
            witness = (left, left + window_len - 1)
            if stop_at is not None and best >= stop_at:
                return best, witness
    return best, witness


def minimality_by_occurrences(x, schedule, depth):
    """The minimality rows from every occurrence of each pillar in the window.

    (a) every aligned level-(k+1) block contains w_k as a subword;
    (b) consecutive w_k occurrences sit at most 2*m_{k+1} apart;
    (c) w_{k+1} covers every admissible level-k word (checked where the
        level is enumerable; waived in the fast profile).
    Returns (name, status, detail) rows in the order of minimality_witnesses.
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
    return checks
