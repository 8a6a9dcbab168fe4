"""Slow reference implementations that fast paths of the package are
checked against; nothing under src/ imports them."""

import hashlib
import math
from pathlib import Path

import numpy as np

from blockshift import (STAR, Alphabet, Card, ChecksumError, ConstructionInvariantError,
                        DensityViolation, InconsistencyError, InfeasibleDepth,
                        InvalidParameterError, PartialWindow, SparseSetSpec, VersionError,
                        aligned_block_census, block_interval, block_of)
from blockshift import schedule as _schedule
from blockshift.schedule import DEFAULT_WINDOW_HINT, PROFILES, LevelCheck, next_card
from blockshift.sparse import _int_field
from blockshift.windowfile import _HEADER_KEYS, FORMAT_TAG, WindowFile, _header_int
from blockshift.words import hull_of_blocks, on_block_grid


def occurrences(pattern, text):
    """All coordinates where the fully defined pattern (a uint8 array or
    bytes) occurs in the window; STAR never matches."""
    needle = bytes(pattern)
    hay = text.cells.tobytes()
    out = []
    pos = hay.find(needle)
    while pos != -1:
        out.append(text.offset + pos)
        pos = hay.find(needle, pos + 1)
    return out


def sparse_file_by_strip(path):
    """SparseSetSpec.from_file with every line stripped first and then read
    as a comment, a blank or a value."""
    values, horizon = [], None
    for lineno, raw in enumerate(Path(path).read_text(errors="replace").splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("horizon:"):
                horizon = _int_field(f"{path}:{lineno}", body.split(":", 1)[1])
            continue
        if line:
            values.append(_int_field(f"{path}:{lineno}", line))
    return SparseSetSpec.explicit(values, horizon=horizon)


def load_window_by_text(path):
    """load_window on the decoded text: the whole file read as one str
    (universal newlines), split into lines, the payload joined into a
    second str and encoded for the checksum and for the cells."""
    def checksum64(payload):
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:  # read_text decodes the whole file in one call
        raise InconsistencyError(
            f"non-ASCII byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from None
    lines = text.split("\n")
    if not lines or lines[0] != FORMAT_TAG:
        raise VersionError(
            f"unsupported format tag {lines[0]!r} (expected {FORMAT_TAG})"
        )
    fields: dict[str, str] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
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

    payload_lines = []
    checksum = None
    for j in range(i + 1, len(lines)):
        line = lines[j]
        if line.startswith("checksum: "):
            checksum = line.split(": ", 1)[1]
            trailing = [t for t in lines[j + 1:] if t]
            if trailing:
                raise InconsistencyError("content after the checksum line")
            break
        payload_lines.append(line)
    if checksum is None:
        raise InconsistencyError("missing checksum line")
    payload = "".join(payload_lines)

    length = _header_int("length", fields["length"])
    if len(payload) != length:
        raise InconsistencyError(
            f"declared length {length} != payload cell count {len(payload)}"
        )
    if length < 1:
        raise InconsistencyError("empty payload: a window needs at least one cell")
    if checksum != checksum64(payload):
        raise ChecksumError(
            f"checksum mismatch: header {checksum}, payload {checksum64(payload)}"
        )
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


def rows_outside(word, allowed):
    """The sub-blocks of a word, cut to the width of the rows of the
    matrix ``allowed``, that are not rows of it, as a set of bytes."""
    rows = word.reshape(-1, allowed.shape[1])
    return {row.tobytes() for row in rows} - {row.tobytes() for row in allowed}


def admissible_words_by_recursion(prev, r, every_word):
    """Schedule.words by a recursive walk over index tuples: the words of
    r slots over the list ``prev`` of bytes (row 0 the pillar) with at
    least r/3 pillars and, with every_word, every word used, as bytes in
    lexicographic order."""
    a, q = len(prev), r // 3
    buf = [0] * r
    used = [0] * a

    def rec(pos, pillars, missing_nonzero):
        if pos == r:
            yield b"".join(prev[c] for c in buf)
            return
        remaining = r - pos
        for c in range(a):
            n_pillars = pillars + (c == 0)
            n_missing = missing_nonzero - (1 if c != 0 and used[c] == 0 else 0)
            need = max(0, q - n_pillars) + (n_missing if every_word else 0)
            if remaining - 1 < need:
                continue
            buf[pos] = c
            used[c] += 1
            yield from rec(pos + 1, n_pillars, n_missing)
            used[c] -= 1

    return list(rec(0, 0, a - 1))


def admissible_rows_by_columns(prev, r, every_word):
    """The words of r slots over the rows of the matrix ``prev`` (a word
    set in lexicographic order, row 0 its pillar) with at least r/3
    copies of row 0 and, with every_word, every row used, as the rows of
    a uint8 matrix in lexicographic order: schedule._admissible_codes
    for any word set below, not only the alphabet.

    Index tuples grow one slot (one column) at a time, breadth first; a
    prefix is kept only while its remaining slots can still hold the
    pillar copies and unused rows it lacks.  The rows are gathered from
    the index columns at the end.
    """
    a = prev.shape[0]
    owed = np.array([r // 3], dtype=np.int32)  # pillar copies still due
    unused = np.array([a - 1], dtype=np.int32) if every_word else 0  # rows > 0 not yet used
    used = np.zeros((1, a), dtype=bool)
    cols = []
    for pos in range(r):
        spare = r - pos - 1
        fits = np.empty((owed.size, a), dtype=bool)
        fits[:, 0] = np.maximum(owed - 1, 0) + unused <= spare
        need = owed + unused
        if every_word:
            fits[:, 1:] = need[:, None] - ~used[:, 1:] <= spare
        else:
            fits[:, 1:] = (need <= spare)[:, None]
        parent, label = np.divmod(np.flatnonzero(fits), a)
        label = label.astype(np.min_scalar_type(a - 1))
        for j, col in enumerate(cols):  # in place, so each old column is freed at once
            cols[j] = col[parent]
        cols.append(label)
        owed = np.maximum(owed[parent] - (label == 0), 0)
        if every_word:
            used = used[parent]
            at = (np.arange(label.size), label)
            unused = unused[parent] - (~used[at] & (label != 0))
            used[at] = True
    out = np.empty((cols[0].size, r, prev.shape[1]), dtype=np.uint8)
    for j, col in enumerate(cols):
        out[:, j] = prev[col]
    return out.reshape(-1, r * prev.shape[1])


def exact_next_count_by_sum(r, a):
    """schedule.exact_next_count without every_word, as a sum over the
    pillar count z >= r/3 with each power of a - 1 formed on its own."""
    return sum(math.comb(r, z) * (a - 1) ** (r - z) for z in range(r // 3, r + 1))


def every_word_count_by_surjections(r, a):
    """schedule.exact_next_count with every_word, as a sum over the pillar
    count z >= r/3 of the ways to fill the other r - z slots with words
    1..a-1, each used at least once (a surjection count)."""
    def surjections(t, b):
        if b == 0:
            return 1 if t == 0 else 0
        return sum((-1) ** j * math.comb(b, j) * (b - j) ** t for j in range(b + 1))

    return sum(math.comb(r, z) * surjections(r - z, a - 1) for z in range(r // 3, r + 1))


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
    if (x.offset + (m_top - 1) // 2) % m_top != 0 or len(x) % m_top != 0:
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
        m_k = schedule.m(k)
        pillar_win = PartialWindow(-(m_k - 1) // 2, schedule.pillar(k + 1))
        census = aligned_block_census(pillar_win, m_k)
        wordset = {row.tobytes() for row in schedule.words(k)}
        missing = wordset - set(census)
        if missing:
            checks.append((name_c, "fail", f"{len(missing)} words missing from w_{k + 1}"))
        else:
            checks.append((name_c, "ok", f"all {len(wordset)} words aligned in w_{k + 1}"))
    return checks


def word_ids_by_void_search(rows, words):
    """schedule._word_flags's lookup by binary search on whole rows: each row's
    index among the rows of the sorted word matrix, compared as void
    scalars, and whether the row is there at all."""
    whole = np.dtype((np.void, words.shape[1]))
    keys = np.ascontiguousarray(words).view(whole)[:, 0]
    probe = np.ascontiguousarray(rows).view(whole)[:, 0]
    ids = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
    return ids, keys[ids] == probe


def check_level_dense(x, schedule, level):
    """schedule._check_level by whole-window masks: one bool array per
    test over every cell, per-row reductions over every sub-block, and
    sets of bytes for the faithful word tests."""
    a = schedule.alphabet.size
    m = schedule.m(level)
    m_prev = schedule.m(level - 1)
    r = m // m_prev
    q = r // 3
    if not on_block_grid(x.offset, len(x), m):
        raise InvalidParameterError(f"window not aligned to level-{level} blocks")
    faithful = schedule.faithful
    n_blocks = len(x) // m
    blocks = x.cells.reshape(n_blocks, m)
    starred = blocks == STAR
    star_any = starred.any(axis=1)
    star_all = starred.all(axis=1)
    if bool((star_any & ~star_all).any()):
        i = int(np.nonzero(star_any & ~star_all)[0][0])
        return LevelCheck(level, n_blocks, 0, q, None, "fail", "fail",
                          f"block {i} partially defined")
    defined = ~star_any
    n_def = int(defined.sum())

    sub = x.cells.reshape(n_blocks * r, m_prev)
    pillar = schedule.pillar(level - 1)
    counts = (sub == pillar).all(axis=1).reshape(n_blocks, r).sum(axis=1)
    min_share = int(counts[defined].min()) if n_def else None

    membership = every_word = "ok" if faithful else "waived"
    if n_def and level == 1:
        if int(x.cells.max()) >= a and (
                np.count_nonzero(x.cells >= a) > (n_blocks - n_def) * m):
            membership = "fail"
        if faithful:
            defined_blocks = blocks[defined]
            covered = sum(bool((defined_blocks == c).any(axis=1).all()) for c in range(a))
            every_word = "ok" if covered == a else "fail"
    elif n_def and faithful:
        wordset = {row.tobytes() for row in schedule.words(level - 1)}
        keys = [row.tobytes() for row in sub[np.repeat(defined, r)]]
        membership = "ok" if wordset.issuperset(keys) else "fail"
        if not all(wordset <= set(keys[i:i + r]) for i in range(0, len(keys), r)):
            every_word = "fail"

    return LevelCheck(level, n_blocks, n_def, q, min_share, membership, every_word)


def fill_level_by_blocks(x, level, schedule, cycle_start=0):
    """realization.fill_level by a Python loop over the blocks that meet S,
    with whole-window masks for the alphabet and defined-cell checks."""
    if not 1 <= level <= schedule.depth:
        raise InvalidParameterError(f"level {level} outside built depth {schedule.depth}")
    m_new = schedule.m(level)
    m_old = schedule.m(level - 1)
    r = m_new // m_old
    q = r // 3
    # S is walked before any check of the window, as fill_level does
    meeting = sorted({block_of(s, m_new) for _, s in schedule.sparse.elements_in(x.interval())})
    if not on_block_grid(x.offset, len(x), m_new):
        raise ConstructionInvariantError(
            f"window {x.interval()} is not a union of level-{level} blocks"
        )
    out = x.cells.copy()
    off = x.offset
    if bool(((out != STAR) & (out >= schedule.alphabet.size)).any()):
        raise ConstructionInvariantError("window holds cell values outside the alphabet")

    # the fill source as a whole matrix, row 0 the pillar
    fill_src = (schedule.words(level - 1) if schedule.faithful
                else schedule.pool_matrix(level - 1))
    n_src = fill_src.shape[0]
    pillar = schedule.pillar(level - 1)

    defined_total = int((out != STAR).sum())
    defined_in_meeting = 0
    for i in meeting:
        lo, hi = block_interval(i, m_new)
        seg = out[lo - off: hi + 1 - off].reshape(r, m_old)
        row_star = seg == STAR
        full_star = row_star.all(axis=1)
        any_star = row_star.any(axis=1)
        mixed = any_star & ~full_star
        if mixed.any():
            t = int(np.nonzero(mixed)[0][0])
            raise ConstructionInvariantError(
                f"level-{level} block {i}: sub-block {t} is partially defined"
            )
        defined_rows = r - int(any_star.sum())
        defined_in_meeting += defined_rows * m_old
        if defined_rows >= q:
            raise DensityViolation(
                level - 1, (lo, hi), defined_rows, q,
                message=(
                    f"level-{level} block {i} already holds {defined_rows} defined "
                    f"sub-blocks, sparsity promised < {q}"
                ),
            )
        star_rows = np.nonzero(full_star)[0]
        seg[star_rows[:q]] = pillar
        rest = star_rows[q:]
        if schedule.faithful and rest.size < n_src:
            raise ConstructionInvariantError(
                f"level-{level} block {i}: {rest.size} free sub-blocks cannot "
                f"use all {n_src} words"
            )
        if rest.size:
            idx = (cycle_start + np.arange(rest.size)) % n_src
            seg[rest] = fill_src[idx]

    if defined_total != defined_in_meeting:
        meeting_set = set(meeting)
        coords = np.nonzero(x.cells != STAR)[0]
        bad = next(
            (int(c) + off for c in coords
             if block_of(int(c) + off, m_new) not in meeting_set),
            x.offset,
        )
        raise ConstructionInvariantError(
            f"defined cell at {bad} lies in a level-{level} block disjoint from S"
        )
    return PartialWindow(x.offset, out)


def _union(a, b):
    return b if a is None else (min(a[0], b[0]), max(a[1], b[1]))


def _search_level_in_range(sparse, k, m_k, size_floor, hint, prev_range):
    """The level search with the sparsity gate taken only over the hull of
    the candidate's blocks meeting ``hint``, joined with [1, c] and
    ``prev_range``; the caps are read from the schedule module at call time."""
    scan_cap, value_cap = _schedule.DEFAULT_SCAN_CAP, _schedule.DEFAULT_VALUE_CAP
    step = 3 * m_k
    float_bound = 12.0 * math.log(2.0) * (4.0 / 3.0) ** (k + 1)
    j = size_floor + 1
    while step * j <= float_bound:
        j += 1
    if j % 2 == 0:
        j += 1
    scanned = 0
    last = None
    while scanned < scan_cap and step * j <= value_cap:
        cand = step * j
        scanned += 1
        left_count = sparse.count_in((1, cand))
        if left_count >= j:
            last = ((1, cand), left_count, j)
            j = left_count + 1 + (left_count % 2)
            continue
        rng = _union(_union(prev_range, hull_of_blocks(hint[0], hint[1], cand)), (1, cand))
        count, witness = sparse.max_window_count(cand, rng, stop_at=j)
        if count < j:
            return cand
        last = (witness, count, j)
        j = max(j + 2, count + 1 + (count % 2))
    if last is None:
        raise InfeasibleDepth(
            f"no candidate for m_{k + 1} within the caps: the smallest is {step * j}, "
            f"value cap {value_cap}, scan cap {scan_cap}"
        )
    if sparse.zero_density:
        cap = f"scan cap {scan_cap}" if scanned >= scan_cap else f"value cap {value_cap}"
        raise InfeasibleDepth(
            f"no candidate for m_{k + 1} passes the sparsity gate within the {cap} "
            f"({scanned} tried); the next is {step * j}"
        )
    raise DensityViolation(k, *last)


def plan_by_fixed_point(sparse, depth, a, faithful, *, hint=DEFAULT_WINDOW_HINT):
    """schedule._plan_levels with the sparsity gate over a finite verified
    range: the hull of the depth-level blocks meeting
    ``hint``, joined with [1, m_depth].  That range depends on m_depth, so
    the search is repeated, each pass gated over the previous pass's
    range as well, until a pass keeps the m-list and every level passes
    over the final range (at most 8 passes)."""
    prev_range = prev_plan = None
    for _ in range(8):
        plan = [(1, Card.exact_count(a))]
        for k in range(depth):
            m_k, card_k = plan[k]
            if faithful and card_k.exact is None:
                raise InfeasibleDepth(
                    f"faithful profile needs exact |A_{k}| to bound m_{k + 1}; "
                    f"have {card_k.describe()}"
                )
            m_next = _search_level_in_range(sparse, k, m_k, card_k.exact if faithful else 0,
                                            hint, prev_range)
            plan.append((m_next, next_card(m_next // m_k, card_k, faithful)))
        m_list = [m for m, _ in plan]
        verified = _union(hull_of_blocks(hint[0], hint[1], m_list[-1]), (1, m_list[-1]))
        ok = all(sparse.max_window_count(m_list[k + 1], verified,
                                         stop_at=m_list[k + 1] // (3 * m_list[k]))[0]
                 < m_list[k + 1] // (3 * m_list[k]) for k in range(depth))
        if ok and (prev_range is None or m_list == prev_plan):
            return plan
        prev_plan, prev_range = m_list, verified
    raise ConstructionInvariantError("schedule search did not stabilize in 8 passes")
