"""Level parameters of the block-concatenation construction.

Each level k has a block length m_k (odd, with m_{k+1} an odd multiple of
3*m_k), an admissible word set A_k (enumerated, counted exactly, or
bounded in log), and a distinguished pillar word w_k whose forced
one-third share drives both minimality and the entropy bound.

Two profiles are supported.  ``faithful`` enforces every constraint,
including m_{k+1} > 3*m_k*|A_k| and the every-word fill, which makes
depth 3 physically impossible (|A_2| is astronomical).  ``fast`` waives
those two constraints, keeping sparsity and the one-third pillar share,
so deeper or wider demos stay desk-sized at the price of the minimality
guarantee.  Every schedule is stamped with its profile, and
``Schedule.faithful`` is the one bit the rest of the package reads.

Only A_0 and A_1 are enumerable (every A_2 is over DEFAULT_ENUM_CAP), and
an enumerated A_k has one form: the sorted read-only vector of its uint64
row codes, ``Schedule.codes(k)``, which the faithful check searches and
the faithful fill and pillars decode (``Schedule.words``).  build_schedule
checks every pillar, but no fill reads w_depth: it is not kept, and only
describe_rows, which digests it, rebuilds it.

The admissibility rule (_check_level) and its window report live here.
build_schedule refuses a pillar that fails the rule, so the pillar
coverage of a built schedule holds and is not stored.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    ConstructionInvariantError,
    DensityViolation,
    InfeasibleDepth,
    InvalidParameterError,
)
from .sparse import SparseSetSpec
from .words import (STAR, Alphabet, PartialWindow, block_interval, check_cell_count,
                    count_rows, fold_rows, hull_of_blocks, on_block_grid, row_chunks,
                    row_codes, rows_equal, rows_of_codes, split_level_pass)

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_EXACT_R_CAP = 2048
DEFAULT_SCAN_CAP = 1000
DEFAULT_VALUE_CAP = 1 << 40
DEFAULT_WINDOW_HINT = (0, 1000)
# exact counts longer than this (Python's default str limit) print as a digit count
MAX_SHOWN_DIGITS = 4300
POOL_SIZE = 16
PROFILES = ("faithful", "fast")

_M64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer; sole source of fast-profile randomness."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def mix64(*parts: int) -> int:
    h = 0x8000000000000001
    for p in parts:
        h = splitmix64(h ^ (p & _M64))
    return h


@dataclass(frozen=True)
class Card:
    """Cardinality of a word set: exact arbitrary-precision count or log bounds."""

    exact: int | None = None
    log_lower: float = 0.0
    log_upper: float = 0.0

    @classmethod
    def exact_count(cls, n: int) -> "Card":
        # math.log of an int past 2**1024 is log(mantissa) + e·log(2): three
        # roundings and a rounded log(2) put it up to about 1.3 ulp off, so
        # one nextafter does not bracket ln n; 4 ulp each way does
        ln = math.log(n)
        slack = 4 * math.ulp(ln)
        return cls(exact=n, log_lower=ln - slack, log_upper=ln + slack)

    @classmethod
    def bounds(cls, lower: float, upper: float) -> "Card":
        # downward/upward rounding keeps the bracket conservative
        return cls(
            exact=None,
            log_lower=math.nextafter(lower, -math.inf),
            log_upper=math.nextafter(upper, math.inf),
        )

    def describe(self) -> str:
        if self.exact is None:
            return f"log[{self.log_lower:.4f},{self.log_upper:.4f}]"
        if self.exact < 10**MAX_SHOWN_DIGITS:
            return f"exact:{self.exact}"
        # the float log10 of a count of D digits is off by about D·2**-52,
        # so only a value within 1e-6 of an integer needs an exact check
        log = math.log10(self.exact)
        digits = int(log) + 1
        if min(log % 1, -log % 1) < 1e-6:
            digits += (self.exact >= 10**digits) - (self.exact < 10 ** (digits - 1))
        return f"exact:{digits}-digit,ln={self.log_upper:.4f}"


@dataclass(frozen=True)
class LevelParams:
    k: int
    m: int
    pillar: np.ndarray | None  # read-only (m,) uint8; None at the top level
    card: Card


class Schedule:
    """Immutable-after-build container for the level parameters."""

    def __init__(self, alphabet: Alphabet, sparse: SparseSetSpec, profile: str, seed: int = 0):
        if profile not in PROFILES:
            raise InvalidParameterError(f"unknown profile {profile!r}")
        self.alphabet = alphabet
        self.sparse = sparse
        self.profile = profile
        self.seed = seed
        self.verified_range: tuple[int, int] | None = None
        self.levels: list[LevelParams] = []
        a0 = np.arange(alphabet.size, dtype=np.uint64)  # A_0: one code a symbol
        a0.setflags(write=False)
        self._codes_cache: dict[int, np.ndarray] = {0: a0}
        self._pool_cache: dict[int, np.ndarray] = {}

    @property
    def faithful(self) -> bool:
        """Whether the every-word fill and the |A_k| size gate apply."""
        return self.profile == "faithful"

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, k: int) -> LevelParams:
        if not 0 <= k <= self.depth:
            raise InvalidParameterError(f"level {k} outside built depth {self.depth}")
        return self.levels[k]

    def m(self, k: int) -> int:
        return self.level(k).m

    def pillar(self, k: int) -> np.ndarray:
        """w_k, read-only; the top pillar, which no fill reads, is rebuilt."""
        held = self.level(k).pillar
        return _build_pillar(self, k, self.m(k)) if held is None else held

    def ratio(self, k: int) -> int:
        """r = m_k / m_{k-1}, the block count of a level-k word."""
        return self.m(k) // self.m(k - 1)

    def codes(self, k: int) -> np.ndarray:
        """A_k, k in {0, 1}, as the sorted read-only vector of its uint64 row
        codes (words.row_codes, (a - 1).bit_length() bits a cell)."""
        if k not in self._codes_cache:
            card = self.level(k).card
            if k > 1 or card.exact is None or card.exact > DEFAULT_ENUM_CAP:
                raise InfeasibleDepth(
                    f"|A_{k}| = {card.describe()} is not enumerable under cap {DEFAULT_ENUM_CAP}"
                )
            out = _admissible_codes(self.alphabet.size, self.ratio(k), self.faithful)
            if out.size != card.exact:
                raise ConstructionInvariantError(
                    f"enumeration of A_{k} produced {out.size} words, count says {card.exact}"
                )
            out.setflags(write=False)
            self._codes_cache[k] = out
        return self._codes_cache[k]

    def words(self, k: int, ids=slice(None), out=None) -> np.ndarray:
        """Words ``ids`` of A_k (k <= 1, in order), decoded from codes(k) into ``out``."""
        return self._decoder(k)(ids, out)

    def _decoder(self, k: int) -> Callable[..., np.ndarray]:
        """rows(ids, out=None): words ``ids`` of A_k decoded from codes(k).  It
        holds what it reads, so it fills no cache and may run on any thread."""
        codes, bits, m = self.codes(k), (self.alphabet.size - 1).bit_length(), self.m(k)

        def rows(ids, out=None):
            picked = codes[ids]
            out = np.empty((picked.size, m), dtype=np.uint8) if out is None else out
            return rows_of_codes(picked, bits, out)

        return rows

    def pool_matrix(self, k: int) -> np.ndarray:
        """Fast-profile fill pool: row 0 is w_k, the rest seeded samples.

        Above level 0 a sample is r/3 copies of w_{k-1} (row 0 of the pool
        one level down) and then seeded rows of that pool, taken in one gather.
        """
        if k not in self._pool_cache:
            pool = np.empty((POOL_SIZE, self.m(k)), dtype=np.uint8)
            pool[0] = self.pillar(k)
            if k == 0:
                src = self.words(0)
                picks = [[mix64(self.seed, 0xA1FA, 0, i) % self.alphabet.size]
                         for i in range(1, POOL_SIZE)]
            else:
                src = self.pool_matrix(k - 1)
                r, q = self.ratio(k), self.ratio(k) // 3
                picks = [[0] * q + [mix64(self.seed, 0xA1FA, k, i, j) % POOL_SIZE
                                    for j in range(q, r)]
                         for i in range(1, POOL_SIZE)]
            pool[1:] = src[picks].reshape(POOL_SIZE - 1, -1)
            pool.setflags(write=False)
            self._pool_cache[k] = pool
        return self._pool_cache[k]

    def fill_size(self, k: int) -> int:
        """How many rows the level-k fill source (fill_source) holds."""
        return self.codes(k).size if self.faithful else POOL_SIZE

    def fill_source(self, k: int) -> Callable[[np.ndarray], np.ndarray]:
        """The cycle source for the non-pillar fill at level k + 1, whose
        row 0 is w_k, as a function from row ids to rows: A_k decoded from
        codes(k) (faithful) or the seeded pool (fast).  It holds what it
        reads, so it fills no cache and may run on any thread."""
        return self._decoder(k) if self.faithful else self.pool_matrix(k).__getitem__

    def fill_convention(self, cycle_start: int) -> str:
        """The ``fill`` header of a window realized from this schedule."""
        tail = "cycle-lex-restart" if self.faithful else "pool-splitmix64"
        return f"pillar-first-ltr,{tail}@{cycle_start}"

    def describe_rows(self) -> list[tuple]:
        """(k, m_k, |A_k|, w_k) a level: w_k as text up to 32 cells, else
        its length and the first 64 bits of its sha256 (the top pillar is
        rebuilt to take it)."""
        rows = []
        for lv in self.levels:
            pillar = self.pillar(lv.k)
            digest = (self.alphabet.text_of_cells(pillar) if lv.m <= 32
                      else f"len={lv.m},sha256-64={hashlib.sha256(pillar).hexdigest()[:16]}")
            rows.append((lv.k, lv.m, lv.card.describe(), digest))
        return rows


# --- counting --------------------------------------------------------


def exact_next_count(r: int, a: int, every_word: bool) -> int:
    """|A_{k+1}| from r slots over a words with >= r/3 pillar copies and,
    with every_word, every word used.

    total(b) counts the words whose e <= r - r/3 non-pillar slots each hold
    one of b words: the sum of C(r, e) b^e, taken by Horner's rule, so no
    power of b is formed on its own.  The count is total(a - 1); with
    every_word, inclusion-exclusion over the j non-pillar words left out.
    """
    if r % 3 != 0:
        raise InvalidParameterError("slot count must be divisible by 3")
    row = [math.comb(r, e) for e in range(r - r // 3, -1, -1)]

    def total(b: int) -> int:
        acc = 0
        for c in row:
            acc = acc * b + c
        return acc

    if not every_word:
        return total(a - 1)
    return sum((-1) ** j * math.comb(a - 1, j) * total(a - 1 - j) for j in range(a))


def _log_comb(r: int, q: int) -> float:
    return math.lgamma(r + 1) - math.lgamma(q + 1) - math.lgamma(r - q + 1)


def next_card(r: int, prev: Card, every_word: bool) -> Card:
    """Cardinality of the next level: exact when feasible, else log bounds.

    Upper bound is the choose/power bound relaxed through 2^r; the lower
    bound places exactly r/3 pillars and one fixed arrangement of the
    mandatory words, leaving the remaining slots free.
    """
    q = r // 3
    if prev.exact is not None and r <= DEFAULT_EXACT_R_CAP:
        return Card.exact_count(exact_next_count(r, prev.exact, every_word))
    upper = r * math.log(2.0) + (2 * r / 3.0) * prev.log_upper
    if prev.exact is not None:
        a = prev.exact
        free = r - q - (a - 1) if every_word else r - q
        lower = _log_comb(r, q) + max(0, free) * (math.log(a - 1) if a > 1 else 0.0)
    else:
        # ln(a-1) >= ln(a) - ln 2 for a >= 2
        ln_am1 = max(0.0, prev.log_lower - math.log(2.0))
        lower = _log_comb(r, q) + (r - q) * ln_am1
    return Card.bounds(lower, upper)


# --- enumeration ------------------------------------------------------


def _admissible_codes(a: int, r: int, every_word: bool) -> np.ndarray:
    """The sorted row codes (words.row_codes) of A_1: the words of r of
    the a symbols with at least r/3 zeros (w_0) and, with every_word,
    every symbol.  A word of more than 64 bits has no code.

    Prefixes grow one symbol at a time, breadth first, as codes, so in
    order.  A prefix is kept only while its remaining slots can still
    hold the zeros and unused symbols it lacks; every kept prefix then
    completes, so no step holds more prefixes than there are words.
    """
    bits = (a - 1).bit_length()
    if r * bits > 64:
        raise ConstructionInvariantError(f"words of A_1 are {r * bits} bits, over the 64 of a code")
    owed = np.array([r // 3], dtype=np.int8)  # zeros still due
    unused = np.array([a - 1], dtype=np.int16) if every_word else 0  # symbols > 0 not yet used
    used = np.zeros((1, a), dtype=bool)
    acc = np.zeros(1, dtype=np.uint64)
    for pos in range(r):
        spare = r - pos - 1
        fits = np.empty((owed.size, a), dtype=bool)
        fits[:, 0] = np.maximum(owed - 1, 0) + unused <= spare
        need = owed + unused
        if every_word:
            fits[:, 1:] = need[:, None] - ~used[:, 1:] <= spare
        else:
            fits[:, 1:] = (need <= spare)[:, None]
        parent = np.flatnonzero(fits)
        label = np.remainder(parent, a, out=np.empty(parent.size, np.uint8), casting="unsafe")
        parent //= a
        acc = acc[parent]
        acc <<= np.uint64(bits)
        acc |= label
        owed = np.maximum(owed[parent] - (label == 0), 0)
        if every_word:
            used, unused = used[parent], unused[parent]
            for c in range(1, a):
                unused -= (label == c) & ~used[:, c]
                used[:, c] |= label == c
    return acc


# --- admissibility ----------------------------------------------------


@dataclass(frozen=True)
class LevelCheck:
    level: int
    blocks: int
    defined_blocks: int
    required_share: int
    min_pillar_share: int | None
    membership: str      # ok | fail | waived
    every_word: str      # ok | fail | waived
    detail: str = ""

    @property
    def ok(self) -> bool:
        return not _failure(self)


def _failure(c: LevelCheck) -> str:
    """Why a level check fails, or "" when it passes."""
    if c.detail:
        return c.detail
    if c.membership == "fail":
        return f"a sub-block is not in A_{c.level - 1}"
    if c.defined_blocks and c.min_pillar_share < c.required_share:
        return (f"pillar share {c.min_pillar_share} < {c.required_share} "
                f"copies of w_{c.level - 1}")
    if c.every_word == "fail":
        return f"level-{c.level - 1} words never used"
    return ""


@dataclass(frozen=True)
class WindowAdmissibilityReport:
    checks: tuple[LevelCheck, ...]  # levels 1, 2, ... in order

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def fully_defined(self) -> bool:
        return all(c.defined_blocks == c.blocks for c in self.checks)

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


def _word_flags(subs: np.ndarray, r: int, codes: np.ndarray, bits: int,
                alien_at: int | None, seen: np.ndarray) -> bool:
    """Whether every row of ``subs`` is a word of the sorted code table
    ``codes`` (row_codes of A_{k-1}, bits a cell).  The rows are the
    sub-block rows of whole blocks (r to a block), or fewer than r rows
    of one block.  Each hit sets seen[block * |A_{k-1}| + id], so a block
    uses every word when its stretch of ``seen`` is all true.

    Rows are looked up a chunk at a time (words.row_chunks) by binary
    search on their codes.  With ``alien_at``, a row holding a cell of
    alien_at or more is not a word (such a cell may pack like a word).
    Nothing but ``seen`` grows with the rows.
    """
    n_words = codes.size
    member = True
    for part in row_chunks(subs.shape[0]):
        probe = row_codes(subs[part], bits)
        ids = np.minimum(np.searchsorted(codes, probe), n_words - 1)
        hit = codes[ids] == probe
        if alien_at is not None:
            hit &= fold_rows(np.maximum, subs[part]) < alien_at
        member = member and bool(hit.all())
        ids += np.arange(part.start, part.start + ids.size) // r * n_words
        seen[ids[hit]] = True
    return member


def _check_level(x: PartialWindow, schedule: Schedule, level: int) -> LevelCheck:
    """The admissibility rule of A_level on every fully defined aligned
    block of a block-aligned window.

    Both profiles check that every cell is a symbol and that at least
    one-third of each block's sub-blocks equal w_{level-1}.  The faithful
    profile also checks that every sub-block lies in A_{level-1} and that
    every block uses every word of A_{level-1}; the fast profile waives
    both.  Past level 1, sub-blocks are looked up (_word_flags) in
    Schedule.codes of A_{level-1}.  A cell of 2^bits or more would alias
    another row, so when a defined block holds a cell outside the
    alphabet, the rows holding one are not words.

    The window is read in row batches of sub-blocks: whole blocks, or
    consecutive rows of a block longer than the budget, whose pillar
    count and seen words carry from batch to batch.  So no
    temporary grows with the window or with a block.  Block star masks
    are built only when a range of blocks (words.split_level_pass) holds
    a STAR, from each block's max and min (STAR is the largest cell
    value), and each sub-block row is matched against the pillar as one
    unit.  Each range gives the LevelCheck of its own blocks, whose two
    statuses read "ok" ("waived" when fast) or "fail", and the checks fold
    in window order: the earliest partially defined block wins; else the
    counts add, the least share is that of the ranges that have one, and
    "fail" dominates.
    """
    a = schedule.alphabet.size
    m = schedule.m(level)
    m_prev = schedule.m(level - 1)
    r = m // m_prev
    q = r // 3
    if not on_block_grid(x.offset, len(x), m):
        raise InvalidParameterError(f"window not aligned to level-{level} blocks")
    n_blocks = len(x) // m
    pillar = schedule.pillar(level - 1)
    faithful = schedule.faithful
    listed = faithful and level > 1
    bits = (a - 1).bit_length()
    codes = schedule.codes(level - 1) if listed else None
    n_words = codes.size if listed else a  # |A_{level-1}|: the symbols at level 1
    status = "ok" if faithful else "waived"

    def tally(span, batches) -> LevelCheck:
        """The check of one range of blocks."""
        top = int(x.cells[span.start * m:span.stop * m].max())
        starred = top == STAR
        n_def = 0
        min_share = None
        member = every = True
        # of the rows that earlier batches read of a block split over batches
        count, skipped = 0, False
        for s0, s1 in batches:
            per = min(r, s1 - s0)
            blocks = x.cells[s0 * m_prev:s1 * m_prev].reshape(-1, per * m_prev)
            alien = top >= a
            if starred:
                block_top = fold_rows(np.maximum, blocks)
                undefined = block_top == STAR
                partial = undefined & (fold_rows(np.minimum, blocks) != STAR)
                if s0 % r:  # earlier rows of this block were all defined or all undefined
                    partial |= undefined != skipped
                if partial.any():
                    i = s0 // r + int(partial.argmax())
                    return LevelCheck(level, n_blocks, 0, q, None, "fail", "fail",
                                      f"block {i} partially defined")
                skipped = bool(undefined[-1])
                if undefined.all():
                    continue
                if undefined.any():
                    blocks, block_top = blocks[~undefined], block_top[~undefined]
                alien = bool((block_top >= a).any())
            counts = count_rows(rows_equal(blocks.reshape(-1, m_prev), pillar).reshape(-1, per))
            if level == 1:
                member = member and not alien
            if faithful:
                # every block must use every word, not just the union
                if s0 % r == 0:
                    seen = np.zeros(blocks.shape[0] * n_words, dtype=bool)
                if listed:
                    is_word = _word_flags(blocks.reshape(-1, m_prev), r, codes, bits,
                                          a if alien else None, seen)
                    member = member and is_word
                else:
                    for c in range(a):
                        seen[c::a] |= count_rows(blocks == c) > 0
            if per < r:  # rows of one block, read over several batches
                count += int(counts[0])
                if s1 % r:
                    continue
                counts, count = np.array([count]), 0
            n_def += counts.size
            low = int(counts.min())
            min_share = low if min_share is None else min(min_share, low)
            if faithful:
                every = every and bool(seen.all())
        return LevelCheck(level, n_blocks, n_def, q, min_share,
                          status if member else "fail", status if every else "fail")

    def merge(c: LevelCheck, d: LevelCheck) -> LevelCheck:
        """The check of c's range followed by d's."""
        if c.detail or d.detail:
            return c if c.detail else d
        shares = [s for s in (c.min_pillar_share, d.min_pillar_share) if s is not None]
        return LevelCheck(level, n_blocks, c.defined_blocks + d.defined_blocks, q,
                          min(shares, default=None),
                          status if c.membership == d.membership == status else "fail",
                          status if c.every_word == d.every_word == status else "fail")

    return reduce(merge, split_level_pass(tally, n_blocks, r, m_prev))


def window_admissibility_report(x: PartialWindow, schedule: Schedule,
                                depth: int) -> WindowAdmissibilityReport:
    """_check_level at levels 1..depth on the window's defined blocks:
    every cell a symbol, at least one-third of the sub-blocks of each
    block equal to the pillar one level down, and (faithful profile) every
    sub-block a word of the level below, each such word in each block."""
    if not 1 <= depth <= schedule.depth:
        raise InvalidParameterError(f"depth {depth} outside built depth")
    return WindowAdmissibilityReport(tuple(
        _check_level(x, schedule, level) for level in range(1, depth + 1)
    ))


def _one_block(word: np.ndarray) -> PartialWindow:
    """A word as the centred block of its level."""
    return PartialWindow(block_interval(0, len(word))[0], word)


def _word_cells(word) -> np.ndarray:
    """A word given as bytes or as a 1-D sequence of ints, as uint8 cells."""
    if isinstance(word, (bytes, bytearray, memoryview)):
        cells = np.frombuffer(word, dtype=np.uint8)
    else:
        cells = np.asarray(word)
        if cells.size and (cells.ndim != 1 or cells.dtype.kind not in "iu"
                           or int(cells.min()) < 0 or int(cells.max()) > 255):
            raise InvalidParameterError(
                f"a word is bytes or a 1-D sequence of cell values 0..255, not {type(word).__name__}"
            )
        cells = cells.astype(np.uint8, copy=False)
    if cells.size == 0:
        raise InvalidParameterError("empty word")
    if int(cells.max()) == STAR:
        raise InvalidParameterError("words may not contain the STAR sentinel")
    return cells


def is_admissible_block(word, level: int, schedule: Schedule) -> WindowAdmissibilityReport:
    """The window_admissibility_report of one word, given as bytes or a
    uint8 array, as the one-block window of its level."""
    if not 1 <= level <= schedule.depth:
        raise InvalidParameterError(f"level {level} outside built depth")
    word = _word_cells(word)
    m = schedule.m(level)
    if len(word) != m:
        raise InvalidParameterError(f"word length {len(word)} != m_{level} = {m}")
    return window_admissibility_report(_one_block(word), schedule, level)


# --- construction -----------------------------------------------------


def _search_level(sparse: SparseSetSpec, k: int, m_k: int, size_floor: int) -> int:
    """Smallest odd multiple of 3*m_k above 3*m_k*size_floor passing the
    sparsity gate over N (the faithful size gate takes size_floor = |A_k|).

    A candidate c = 3*m_k*j has sparsity threshold exactly j, so a count
    n >= j in any length-c window disqualifies every candidate with
    threshold <= n (a longer window holds at least as many elements);
    the scan jumps straight past those.  The window [1, c] is tried first
    by one count.  This keeps the scan short both when the set is sparse
    (counts grow like the set, reaching the passing candidate in a few
    jumps) and when it is dense (counts grow linearly, reaching the value
    cap geometrically).  At most DEFAULT_SCAN_CAP candidates are tried,
    none above DEFAULT_VALUE_CAP.
    """
    step = 3 * m_k
    float_bound = 12.0 * math.log(2.0) * (4.0 / 3.0) ** (k + 1)
    j = size_floor + 1
    while step * j <= float_bound:
        j += 1
    if j % 2 == 0:
        j += 1
    scanned = 0
    last = None
    while scanned < DEFAULT_SCAN_CAP and step * j <= DEFAULT_VALUE_CAP:
        cand = step * j
        scanned += 1
        left_count = sparse.count_in((1, cand))
        if left_count >= j:
            last = ((1, cand), left_count, j)
            j = left_count + 1 + (left_count % 2)  # next odd index past the kill
            continue
        ok, count, threshold, witness = sparse.sparsity_report(cand, m_k)
        if ok:
            return cand
        last = (witness, count, threshold)
        j = max(j + 2, count + 1 + (count % 2))
    if last is None:
        raise InfeasibleDepth(
            f"no candidate for m_{k + 1} within the caps: the smallest is {step * j}, "
            f"value cap {DEFAULT_VALUE_CAP}, scan cap {DEFAULT_SCAN_CAP}"
        )
    if sparse.zero_density:
        # a larger candidate passes; the caps, not the set, ended the search
        cap = (f"scan cap {DEFAULT_SCAN_CAP}" if scanned >= DEFAULT_SCAN_CAP
               else f"value cap {DEFAULT_VALUE_CAP}")
        raise InfeasibleDepth(
            f"no candidate for m_{k + 1} passes the sparsity gate within the {cap} "
            f"({scanned} tried); the next is {step * j}"
        )
    raise DensityViolation(k, *last)


def _plan_levels(sparse: SparseSetSpec, depth: int, a: int,
                 faithful: bool) -> list[tuple[int, Card]]:
    """(m_k, |A_k|) for k = 0..depth over a alphabet symbols, each m_{k+1}
    searched once by _search_level."""
    plan = [(1, Card.exact_count(a))]
    for k in range(depth):
        m_k, card_k = plan[k]
        if faithful and card_k.exact is None:
            raise InfeasibleDepth(
                f"faithful profile needs exact |A_{k}| to bound m_{k + 1}; "
                f"have {card_k.describe()}"
            )
        size_floor = card_k.exact if faithful else 0
        m_next = _search_level(sparse, k, m_k, size_floor)
        plan.append((m_next, next_card(m_next // m_k, card_k, faithful)))
    return plan


def build_schedule(alphabet: Alphabet, sparse: SparseSetSpec, depth: int,
                   profile: str = "faithful", *, seed: int = 0) -> Schedule:
    """Compute (m_k, |A_k|, w_k) up to the requested depth.

    Every m_{k+1} is the smallest odd multiple of 3*m_k that clears the
    size bound and keeps |S ∩ I| < m_{k+1}/(3*m_k) for every length-
    m_{k+1} window I in N (a list with a horizon: inside [1, horizon]),
    so each level is searched once.  The recorded verified range is the
    hull of the depth-level blocks meeting DEFAULT_WINDOW_HINT, joined
    with [1, m_depth]: the range the default window covers.
    """
    sched = Schedule(alphabet, sparse, profile, seed=seed)
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    plan = _plan_levels(sparse, depth, alphabet.size, sched.faithful)

    for k, (m_k, card_k) in enumerate(plan):
        # w_0 is the zero symbol; no fill reads the top pillar, so it is not kept
        pillar = _build_pillar(sched, k, m_k) if k else np.frombuffer(bytes(1), dtype=np.uint8)
        sched.levels.append(LevelParams(k, m_k, pillar if k < depth else None, card_k))
        if k and not (check := _check_level(_one_block(pillar), sched, k)).ok:
            raise ConstructionInvariantError(f"pillar w_{k} not admissible: {_failure(check)}")
    m_depth = plan[depth][0]
    lo, hi = hull_of_blocks(*DEFAULT_WINDOW_HINT, m_depth)
    sched.verified_range = (min(lo, 1), max(hi, m_depth))
    return sched


def _build_pillar(sched: Schedule, k: int, m_k: int) -> np.ndarray:
    """w_k written by row slices from the fill source one level down,
    whose row 0 is w_{k-1}: faithful, r - |A_{k-1}| + 1 copies of w_{k-1}
    and then the other words of A_{k-1} in order (decoded from codes);
    fast, r/3 copies of w_{k-1} and then the pool rows in turn."""
    r = m_k // sched.m(k - 1)
    q = r // 3
    try:
        n_src = sched.fill_size(k - 1)
        check_cell_count(m_k)
    except (InfeasibleDepth, InvalidParameterError) as exc:
        raise InfeasibleDepth(f"cannot build w_{k}: {exc}") from exc
    copies = r - n_src + 1 if sched.faithful else q
    if copies < q:
        raise ConstructionInvariantError(
            f"pillar construction needs r - |A_{k-1}| + 1 >= r/3 at level {k}"
        )
    pillar = np.empty(m_k, dtype=np.uint8)
    rows = pillar.reshape(r, -1)
    rows[:copies] = sched.pillar(k - 1)
    if sched.faithful:
        sched.words(k - 1, slice(1, None), out=rows[copies:])
    else:  # row by row: a cycled copy of the pool would be a pillar-sized temporary
        for i, row in enumerate(sched.pool_matrix(k - 1)):
            rows[q + i::POOL_SIZE] = row
    pillar.setflags(write=False)
    return pillar
