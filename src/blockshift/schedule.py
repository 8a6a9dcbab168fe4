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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConstructionInvariantError,
    DensityViolation,
    InfeasibleDepth,
    InvalidParameterError,
)
from .sparse import SparseSetSpec
from .words import (STAR, Alphabet, PartialWindow, Word, block_batches, check_cell_count,
                    count_rows, fold_rows, hull_of_blocks, on_block_grid, rows_equal)

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
        ln = math.log(n)
        return cls(exact=n, log_lower=ln, log_upper=ln)

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
        digits = int(math.log10(self.exact)) + 1
        digits += (self.exact >= 10**digits) - (self.exact < 10 ** (digits - 1))
        return f"exact:{digits}-digit,ln={self.log_upper:.4f}"


@dataclass(frozen=True)
class LevelParams:
    k: int
    m: int
    pillar: Word
    card: Card
    pillar_check: LevelCheck | None = None  # w_k as one level-k block; None at k = 0


@dataclass(frozen=True)
class AdmissibilityResult:
    status: str  # "ok" | "fail" | "undetermined"
    reason: str
    pillar_count: int | None = None

    def __bool__(self) -> bool:
        return self.status == "ok"


class Schedule:
    """Immutable-after-build container for the level parameters."""

    def __init__(self, alphabet: Alphabet, sparse: SparseSetSpec, profile: str,
                 seed: int = 0, enum_cap: int = DEFAULT_ENUM_CAP):
        if profile not in PROFILES:
            raise InvalidParameterError(f"unknown profile {profile!r}")
        self.alphabet = alphabet
        self.sparse = sparse
        self.profile = profile
        self.seed = seed
        self.enum_cap = enum_cap
        self.verified_range: tuple[int, int] | None = None
        self.levels: list[LevelParams] = []
        self._words_cache: dict[int, list[bytes]] = {}
        self._set_cache: dict[int, frozenset] = {}
        self._matrix_cache: dict[int, np.ndarray] = {}
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

    def pillar(self, k: int) -> Word:
        return self.level(k).pillar

    def ratio(self, k: int) -> int:
        """r = m_k / m_{k-1}, the block count of a level-k word."""
        return self.m(k) // self.m(k - 1)

    def words_available(self, k: int) -> bool:
        card = self.level(k).card
        return card.exact is not None and card.exact <= self.enum_cap

    def words(self, k: int) -> list[bytes]:
        """The enumerated admissible word set of level k, in lexicographic order."""
        if k in self._words_cache:
            return self._words_cache[k]
        if k == 0:
            out = [bytes([i]) for i in range(self.alphabet.size)]
        else:
            if not self.words_available(k):
                raise InfeasibleDepth(
                    f"|A_{k}| = {self.level(k).card.describe()} is not enumerable "
                    f"under cap {self.enum_cap}"
                )
            prev = self.words(k - 1)
            r = self.ratio(k)
            out = [
                b"".join(prev[c] for c in tup)
                for tup in _admissible_tuples(r, len(prev), r // 3, every_word=self.faithful)
            ]
            if len(out) != self.level(k).card.exact:
                raise ConstructionInvariantError(
                    f"enumeration of A_{k} produced {len(out)} words, "
                    f"count says {self.level(k).card.exact}"
                )
        self._words_cache[k] = out
        return out

    def word_set(self, k: int) -> frozenset:
        if k not in self._set_cache:
            self._set_cache[k] = frozenset(self.words(k))
        return self._set_cache[k]

    def word_matrix(self, k: int) -> np.ndarray:
        if k not in self._matrix_cache:
            words = self.words(k)
            flat = np.frombuffer(b"".join(words), dtype=np.uint8)
            mat = flat.reshape(len(words), self.m(k)).copy()
            mat.setflags(write=False)
            self._matrix_cache[k] = mat
        return self._matrix_cache[k]

    def pool_matrix(self, k: int) -> np.ndarray:
        """Fast-profile fill pool: row 0 is w_k, the rest seeded samples."""
        if k not in self._pool_cache:
            m_k = self.m(k)
            pool = np.empty((POOL_SIZE, m_k), dtype=np.uint8)
            pool[0] = np.frombuffer(self.pillar(k).cells, dtype=np.uint8)
            if k == 0:
                a = self.alphabet.size
                for i in range(1, POOL_SIZE):
                    pool[i, 0] = mix64(self.seed, 0xA1FA, 0, i) % a
            else:
                prev = self.pool_matrix(k - 1)
                r, q = self.ratio(k), self.ratio(k) // 3
                prev_pillar = np.frombuffer(self.pillar(k - 1).cells, dtype=np.uint8)
                m_prev = self.m(k - 1)
                for i in range(1, POOL_SIZE):
                    rows = pool[i].reshape(r, m_prev)
                    rows[:q] = prev_pillar
                    for j in range(q, r):
                        rows[j] = prev[mix64(self.seed, 0xA1FA, k, i, j) % POOL_SIZE]
            pool.setflags(write=False)
            self._pool_cache[k] = pool
        return self._pool_cache[k]

    def fill_matrix(self, k: int) -> np.ndarray:
        """Cycle source for the non-pillar fill at level k."""
        return self.word_matrix(k) if self.faithful else self.pool_matrix(k)

    def fill_convention(self, cycle_start: int) -> str:
        """The ``fill`` header of a window realized from this schedule."""
        tail = "cycle-lex-restart" if self.faithful else "pool-splitmix64"
        return f"pillar-first-ltr,{tail}@{cycle_start}"

    def describe_rows(self) -> list[tuple]:
        return [(lv.k, lv.m, lv.card.describe(), _digest_word(lv.pillar, self.alphabet))
                for lv in self.levels]


def _digest_word(word: Word, alphabet: Alphabet) -> str:
    if len(word) <= 32:
        return word.text(alphabet)
    import hashlib

    h = hashlib.sha256(word.cells).hexdigest()[:16]
    return f"len={len(word)},sha256-64={h}"


# --- counting --------------------------------------------------------


def surjection_count(t: int, b: int) -> int:
    """Sequences of length t over b labels that use every label."""
    if b == 0:
        return 1 if t == 0 else 0
    return sum((-1) ** j * math.comb(b, j) * (b - j) ** t for j in range(b + 1))


def exact_next_count(r: int, a: int, every_word: bool) -> int:
    """|A_{k+1}| from r slots over a words with >= r/3 pillar copies."""
    if r % 3 != 0:
        raise InvalidParameterError("slot count must be divisible by 3")
    q = r // 3
    if every_word:
        return sum(
            math.comb(r, z) * surjection_count(r - z, a - 1) for z in range(q, r + 1)
        )
    return sum(math.comb(r, z) * (a - 1) ** (r - z) for z in range(q, r + 1))


def _log_comb(r: int, q: int) -> float:
    return math.lgamma(r + 1) - math.lgamma(q + 1) - math.lgamma(r - q + 1)


def next_card(r: int, prev: Card, every_word: bool, exact_r_cap: int = DEFAULT_EXACT_R_CAP) -> Card:
    """Cardinality of the next level: exact when feasible, else log bounds.

    Upper bound is the choose/power bound relaxed through 2^r; the lower
    bound places exactly r/3 pillars and one fixed arrangement of the
    mandatory words, leaving the remaining slots free.
    """
    q = r // 3
    if prev.exact is not None and r <= exact_r_cap:
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


def _admissible_tuples(r: int, a: int, q: int, every_word: bool):
    """Lexicographic index tuples: >= q copies of index 0, every index used."""
    buf = [0] * r
    used = [0] * a

    def rec(pos, pillars, missing_nonzero):
        if pos == r:
            yield tuple(buf)
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

    yield from rec(0, 0, a - 1)


def enumerate_level_words(level: int, schedule: Schedule, cap: int | None = None):
    """Iterator over the admissible words of a level, lexicographically."""
    if not 0 <= level <= schedule.depth:
        raise InvalidParameterError(f"level {level} outside built depth")
    cap = schedule.enum_cap if cap is None else cap
    card = schedule.level(level).card
    if card.exact is None:
        raise InfeasibleDepth(f"|A_{level}| only bounded: {card.describe()}")
    if card.exact > cap:
        raise InfeasibleDepth(f"|A_{level}| = {card.exact} exceeds cap {cap}")
    if level == 0:
        for i in range(schedule.alphabet.size):
            yield Word(bytes([i]))
        return
    for cells in schedule.words(level):
        yield Word(cells)


# --- admissibility ----------------------------------------------------


@dataclass(frozen=True)
class LevelCheck:
    level: int
    blocks: int
    defined_blocks: int
    required_share: int
    min_pillar_share: int | None
    pillar_total: int
    membership: str      # ok | fail | waived | unverifiable
    every_word: str      # ok | fail | waived | unverifiable
    covered_words: int | None
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


def _row_codes(rows: np.ndarray, base: int):
    """Exact integer codes of fixed-width rows, or None when they overflow."""
    width = rows.shape[1]
    if base ** width >= 2**62:
        return None
    powers = (base ** np.arange(width - 1, -1, -1, dtype=np.int64))
    return rows.astype(np.int64) @ powers


def _check_level(x: PartialWindow, schedule: Schedule, level: int,
                 faithful: bool) -> LevelCheck:
    """The admissibility rule of A_level on every fully defined aligned
    block of a block-aligned window.

    Both rules check that every cell is a symbol and that at least
    one-third of each block's sub-blocks equal w_{level-1}.  The faithful
    rule also checks that every sub-block lies in A_{level-1} and that
    every block uses every word of A_{level-1}; both are "unverifiable"
    when A_{level-1} is not enumerable.  The fast rule waives them.

    The window is read in block-aligned batches of sub-block rows
    (words.block_batches), so no temporary grows with the window.  Block
    star masks are built only when the window holds a STAR, from each
    block's max and min (STAR is the largest cell value), and each
    sub-block row is matched against the pillar as one unit.
    """
    a = schedule.alphabet.size
    m = schedule.m(level)
    m_prev = schedule.m(level - 1)
    r = m // m_prev
    q = r // 3
    if not on_block_grid(x.start, len(x), m):
        raise InvalidParameterError(f"window not aligned to level-{level} blocks")
    n_blocks = len(x) // m
    top = int(x.cells.max())
    starred = top == STAR
    pillar = np.frombuffer(schedule.pillar(level - 1).cells, dtype=np.uint8)
    listed = faithful and level > 1 and schedule.words_available(level - 1)

    n_def = pillar_total = 0
    min_share = None
    stray = top >= a and not starred  # a defined level-1 cell outside the alphabet
    present = np.ones(a, dtype=bool)  # faithful level 1: symbols in every block
    keys: set[bytes] = set()          # faithful, when row codes overflow int64
    ref = None                        # faithful: sorted codes of A_{level-1}
    seen, member, every = [], True, True
    for b0, b1 in block_batches(n_blocks, m):
        chunk = x.cells[b0 * m:b1 * m]
        blocks = chunk.reshape(-1, m)
        counts = count_rows(rows_equal(chunk.reshape(-1, m_prev), pillar).reshape(-1, r))
        if starred:
            block_top = fold_rows(np.maximum, blocks)
            undefined = block_top == STAR
            partial = undefined & (fold_rows(np.minimum, blocks) != STAR)
            if partial.any():
                i = b0 + int(partial.argmax())
                return LevelCheck(level, n_blocks, 0, q, None, 0, "fail", "fail", None,
                                  f"block {i} partially defined")
            if undefined.all():
                continue
            if undefined.any():
                defined = ~undefined
                blocks, counts, block_top = blocks[defined], counts[defined], block_top[defined]
            if level == 1:
                stray = stray or bool((block_top >= a).any())
        n_def += counts.size
        pillar_total += int(counts.sum())
        low = int(counts.min())
        min_share = low if min_share is None else min(min_share, low)
        if faithful and level == 1:
            for c in range(a):
                present[c] &= bool(fold_rows(np.logical_or, blocks == c).all())
        elif listed:
            sub_def = blocks.reshape(-1, m_prev)
            codes = _row_codes(sub_def, a)
            if codes is None:
                keys.update(sub_def[i].tobytes() for i in range(sub_def.shape[0]))
            else:
                if ref is None:
                    ref = np.sort(_row_codes(schedule.word_matrix(level - 1), a))
                member = member and bool(np.isin(codes, ref).all())
                seen.append(np.unique(codes))
                # every block must use every word, not just the union
                every = every and all(
                    np.unique(row).size >= ref.size and bool(np.isin(ref, row).all())
                    for row in codes.reshape(-1, r))

    membership = every_word = "ok" if faithful else "waived"
    covered = None
    if n_def and level == 1:
        if stray:
            membership = "fail"
        if faithful:
            covered = int(present.sum())
            every_word = "ok" if covered == a else "fail"
    elif n_def and listed and ref is None:
        wordset = schedule.word_set(level - 1)
        membership = "ok" if keys <= wordset else "fail"
        covered = len(keys & wordset)
        every_word = "ok" if wordset <= keys else "fail"
    elif n_def and listed:
        membership = "ok" if member else "fail"
        covered = int(np.isin(ref, np.concatenate(seen)).sum())
        every_word = "ok" if every else "fail"
    elif n_def and faithful:
        membership = every_word = "unverifiable"

    return LevelCheck(level, n_blocks, n_def, q, min_share, pillar_total,
                      membership, every_word, covered)


def _one_block(word: Word) -> PartialWindow:
    """A word as the centred block of its level."""
    return PartialWindow.from_word(word, offset=-((len(word) - 1) // 2))


def is_admissible_block(word, level: int, schedule: Schedule,
                        semantics: str | None = None) -> AdmissibilityResult:
    """Check one word against the level's admissibility rule.

    The word is checked as a one-block window at every level from 1 to
    ``level``: every cell a symbol, at least one-third of the sub-blocks
    of each block equal to the pillar one level down, and (faithful
    semantics) every admissible word of the level below present in each
    block.  When that last component needs a level that is not
    enumerated, the result is the three-valued "undetermined".
    """
    sem = schedule.profile if semantics is None else semantics
    if sem not in PROFILES:
        raise InvalidParameterError(f"unknown semantics {sem!r}")
    if not 1 <= level <= schedule.depth:
        raise InvalidParameterError(f"level {level} outside built depth")
    word = word if isinstance(word, Word) else Word(bytes(word))
    m = schedule.m(level)
    if len(word) != m:
        raise InvalidParameterError(f"word length {len(word)} != m_{level} = {m}")
    x = _one_block(word)
    checks = [_check_level(x, schedule, k, sem == "faithful") for k in range(1, level + 1)]
    pillar_count = checks[-1].pillar_total
    for c in checks:
        if not c.ok:
            return AdmissibilityResult("fail", f"level {c.level}: {_failure(c)}", pillar_count)
    for c in checks:
        if c.every_word == "unverifiable":
            return AdmissibilityResult(
                "undetermined", f"level {c.level}: every-word unverifiable", pillar_count
            )
    return AdmissibilityResult("ok", "", pillar_count)


# --- construction -----------------------------------------------------


def _interval_union(a: tuple[int, int] | None, b: tuple[int, int]) -> tuple[int, int]:
    if a is None:
        return b
    return (min(a[0], b[0]), max(a[1], b[1]))


def _search_level(sparse: SparseSetSpec, k: int, m_k: int, size_floor: int,
                  hint: tuple[int, int], prev_range,
                  scan_cap: int, value_cap: int) -> int:
    """Smallest odd multiple of 3*m_k above 3*m_k*size_floor passing the
    sparsity gate (the faithful size gate takes size_floor = |A_k|).

    A candidate c = 3*m_k*j has sparsity threshold exactly j.  The probe
    range always contains [1, c], so a certified count n inside [1, c]
    disqualifies every candidate with threshold <= n (the left-anchored
    window only grows); the scan jumps straight past those.  This keeps
    the scan short both when the set is sparse (counts grow like the
    set, reaching the passing candidate in a few jumps) and when it is
    dense (counts grow linearly, reaching the value cap geometrically).
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
    while scanned < scan_cap and step * j <= value_cap:
        cand = step * j
        scanned += 1
        left_count = sparse.count_in((1, cand))
        if left_count >= j:
            last = ((1, cand), left_count, j)
            j = left_count + 1 + (left_count % 2)  # next odd index past the kill
            continue
        rng = _interval_union(
            _interval_union(prev_range, hull_of_blocks(hint[0], hint[1], cand)),
            (1, cand),
        )
        ok, count, threshold, witness = sparse.sparsity_report(cand, m_k, rng)
        if ok:
            return cand
        last = (witness, count, threshold)
        j = max(j + 2, count + 1 + (count % 2))
    if last is None:
        raise InfeasibleDepth(
            f"no candidate for m_{k + 1} within the caps: the smallest is {step * j}, "
            f"value cap {value_cap}, scan cap {scan_cap}"
        )
    if sparse.zero_density:
        # a larger candidate passes; the caps, not the set, ended the search
        cap = f"scan cap {scan_cap}" if scanned >= scan_cap else f"value cap {value_cap}"
        raise InfeasibleDepth(
            f"no candidate for m_{k + 1} passes the sparsity gate within the {cap} "
            f"({scanned} tried); the next is {step * j}"
        )
    raise DensityViolation(k, *last)


def build_schedule(alphabet: Alphabet, sparse: SparseSetSpec, depth: int,
                   window_hint: tuple[int, int] | None = None,
                   profile: str = "faithful", *, seed: int = 0,
                   enum_cap: int = DEFAULT_ENUM_CAP,
                   exact_r_cap: int = DEFAULT_EXACT_R_CAP,
                   scan_cap: int = DEFAULT_SCAN_CAP,
                   value_cap: int = DEFAULT_VALUE_CAP) -> Schedule:
    """Compute (m_k, |A_k|, w_k) up to the requested depth.

    Every m_{k+1} is the smallest odd multiple of 3*m_k that clears the
    size bound and keeps |S ∩ I| < m_{k+1}/(3*m_k) for each length-
    m_{k+1} window inside the verified range.  The verified range is the
    hull of the depth-level blocks meeting the window hint; since it
    depends on m_depth, the search is iterated to a fixed point, and the
    recorded range is the one every level was re-verified against.
    """
    sched = Schedule(alphabet, sparse, profile, seed=seed, enum_cap=enum_cap)
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    hint = DEFAULT_WINDOW_HINT if window_hint is None else (int(window_hint[0]), int(window_hint[1]))
    if hint[0] > hint[1]:
        raise InvalidParameterError("empty window hint")

    prev_range = None
    prev_plan = None
    for _ in range(8):
        plan: list[tuple[int, Card]] = [(1, Card.exact_count(alphabet.size))]
        for k in range(depth):
            m_k, card_k = plan[k]
            if sched.faithful and card_k.exact is None:
                raise InfeasibleDepth(
                    f"faithful profile needs exact |A_{k}| to bound m_{k + 1}; "
                    f"have {card_k.describe()}"
                )
            size_floor = card_k.exact if sched.faithful else 0
            m_next = _search_level(sparse, k, m_k, size_floor, hint, prev_range,
                                   scan_cap, value_cap)
            plan.append((m_next, next_card(m_next // m_k, card_k, sched.faithful, exact_r_cap)))
        m_depth = plan[depth][0]
        verified = _interval_union(hull_of_blocks(hint[0], hint[1], m_depth),
                                   (1, m_depth))
        ok = all(
            sparse.sparsity_ok(plan[k + 1][0], plan[k][0], verified)
            for k in range(depth)
        )
        if ok and (prev_range is None or [m for m, _ in plan] == prev_plan):
            break
        prev_plan = [m for m, _ in plan]
        prev_range = verified
    else:
        raise ConstructionInvariantError("schedule search did not stabilize in 8 passes")

    sched.levels.append(LevelParams(0, 1, Word(bytes([0])), plan[0][1]))
    for k in range(1, depth + 1):
        m_k, card_k = plan[k]
        pillar = _build_pillar(sched, k, m_k)
        sched.levels.append(LevelParams(k, m_k, pillar, card_k))
        check = _check_level(_one_block(pillar), sched, k, sched.faithful)
        if not check.ok:
            raise ConstructionInvariantError(f"pillar w_{k} not admissible: {_failure(check)}")
        sched.levels[k] = replace(sched.levels[k], pillar_check=check)
        if not sched.faithful:
            _check_fast_pillar(sched, k, pillar)
    sched.verified_range = verified
    return sched


def _check_fast_pillar(sched: Schedule, k: int, pillar: Word) -> None:
    """Every sub-block of a fast pillar is a fill-pool row (row 0 is w_{k-1})."""
    rows = np.frombuffer(pillar.cells, dtype=np.uint8).reshape(-1, sched.m(k - 1))
    allowed = {row.tobytes() for row in sched.pool_matrix(k - 1)}
    stray = {row.tobytes() for row in rows} - allowed
    if stray:
        raise ConstructionInvariantError(
            f"pillar w_{k} holds {len(stray)} sub-blocks outside the fill pool"
        )


def _build_pillar(sched: Schedule, k: int, m_k: int) -> Word:
    m_prev = sched.m(k - 1)
    r = m_k // m_prev
    q = r // 3
    prev_pillar = sched.pillar(k - 1).cells
    try:
        words = sched.words(k - 1) if sched.faithful else None
        check_cell_count(m_k)
    except (InfeasibleDepth, InvalidParameterError) as exc:
        raise InfeasibleDepth(f"cannot build w_{k}: {exc}") from exc
    if sched.faithful:
        a = len(words)
        copies = r - a + 1
        if copies < q:
            raise ConstructionInvariantError(
                f"pillar construction needs r - |A_{k-1}| + 1 >= r/3 at level {k}"
            )
        rest = [w for w in words if w != prev_pillar]
        return Word(prev_pillar * copies + b"".join(rest))
    pool = sched.pool_matrix(k - 1)
    parts = [prev_pillar] * q
    parts.extend(pool[t % POOL_SIZE].tobytes() for t in range(r - q))
    return Word(b"".join(parts))
