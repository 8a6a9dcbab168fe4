import gc
import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blockshift import (
    STAR,
    Alphabet,
    BlockshiftError,
    Card,
    DensityViolation,
    InfeasibleDepth,
    InvalidParameterError,
    SparseSetSpec,
    build_schedule,
    is_admissible_block,
)
from blockshift.cli import main
from blockshift import schedule
from blockshift.schedule import POOL_SIZE, LevelParams, Schedule, exact_next_count
from blockshift.words import row_codes, rows_of_codes
from tests.oracles import (admissible_rows_by_columns, admissible_words_by_recursion,
                           every_word_count_by_surjections, exact_next_count_by_sum,
                           plan_by_fixed_point, rows_outside)


def brute_force_level1_binary():
    """All 2^15 strings with >= 5 zeros and at least one '1', lexicographic."""
    out = []
    for tup in product("01", repeat=15):
        s = "".join(tup)
        if s.count("0") >= 5 and "1" in s:
            out.append(s)
    return out


def test_level_sizes_binary_squares(sched2, binary):
    assert [sched2.m(k) for k in range(3)] == [1, 15, 1387215]
    assert sched2.m(2) == 45 * 30827
    assert sched2.level(0).card.exact == 2
    assert sched2.level(1).card.exact == 30826
    assert sched2.level(2).card.exact is None
    assert binary.text_of_cells(sched2.pillar(0)) == "0"
    assert binary.text_of_cells(sched2.pillar(1)) == "000000000000001"


def test_m2_is_first_admissible_candidate(squares):
    # oracle: scan odd multiples of 45 above 3*15*30826 with a sliding count
    lower = 3 * 15 * 30826
    assert lower == 1387170
    j = lower // 45 + 1
    if j % 2 == 0:
        j += 1
    cand = 45 * j
    assert cand == 1387215
    elems = [n * n for n in range(1, 2000) if n * n <= cand]
    assert len(elems) < cand // 45  # sparsity passes at the first candidate


def test_m1_candidate_scan(binary, squares):
    # oracle: candidates 3, 9 fail the size bound, 15 passes everything
    bound = 12 * math.log(2) * (4 / 3)
    assert 9 < bound < 15
    sched = build_schedule(binary, squares, 1)
    assert sched.m(1) == 15


def test_enumeration_matches_brute_force(sched2, binary):
    oracle = brute_force_level1_binary()
    words = [binary.text_of_cells(w) for w in sched2.words(1)]
    assert len(words) == 30826
    assert words == sorted(words)
    assert words == oracle
    assert words[0] == "000000000000001"


@st.composite
def small_word_sets(draw):
    """(alphabet size, level ratios, every_word) with small, nonempty A_k."""
    every_word = draw(st.booleans())
    a = n = draw(st.integers(2, 4))
    ratios = []
    # one more level only over a few words, so that its count stays cheap
    while not ratios or (n <= 64 and draw(st.booleans())):
        r = draw(st.sampled_from([3, 6, 9, 12]))
        n = exact_next_count(r, n, every_word)
        assume(0 < n <= 20_000)
        ratios.append(r)
    return a, ratios, every_word


def hand_schedule(a, ratios, every_word):
    """Levels of the given ratios over a symbols, set by hand (no search);
    Schedule.codes reads only the ratios, the counts and the profile."""
    sched = Schedule(Alphabet("0123"[:a]), SparseSetSpec.squares(),
                     "faithful" if every_word else "fast")
    m, card = 1, Card.exact_count(a)
    sched.levels.append(LevelParams(0, m, np.zeros(1, dtype=np.uint8), card))
    for k, r in enumerate(ratios, 1):
        m *= r
        card = Card.exact_count(exact_next_count(r, card.exact, every_word))
        sched.levels.append(LevelParams(k, m, np.zeros(m, dtype=np.uint8), card))
    return sched


@settings(max_examples=40, deadline=None)
@given(case=small_word_sets())
def test_words_match_recursive_oracle(case):
    """A_1 from the schedule, and the levels above it (which no real
    schedule can enumerate) from the matrix oracle over the level below."""
    a, ratios, every_word = case
    sched = hand_schedule(a, ratios, every_word)
    got = sched.words(0)
    for k in range(1, sched.depth + 1):
        prev = [row.tobytes() for row in got]
        got = sched.words(1) if k == 1 else admissible_rows_by_columns(got, sched.ratio(k),
                                                                       every_word)
        rows = [row.tobytes() for row in got]
        assert rows == admissible_words_by_recursion(prev, sched.ratio(k), every_word)
        assert all(x < y for x, y in zip(rows, rows[1:]))
    # the admissibility check finds sub-blocks by binary search on these codes
    codes = sched.codes(1)
    assert np.array_equal(codes, row_codes(sched.words(1), (a - 1).bit_length()))
    assert (codes[:-1] < codes[1:]).all()
    assert not codes.flags.writeable
    if sched.depth > 1:
        with pytest.raises(InfeasibleDepth, match=r"^\|A_2\| = exact:"):
            sched.codes(2)


@pytest.mark.parametrize("every_word", [False, True])
@pytest.mark.parametrize("r", [3, 6, 9, 12, 15])
@pytest.mark.parametrize("a", [2, 3, 4])
def test_code_enumeration_matches_matrix_oracle(a, r, every_word):
    """The codes of A_1 against the codes of the oracle's rows, for every
    case under the enumeration cap."""
    count = exact_next_count(r, a, every_word)
    if count > schedule.DEFAULT_ENUM_CAP:
        return
    want = row_codes(admissible_rows_by_columns(np.arange(a, dtype=np.uint8)[:, None], r,
                                                every_word), (a - 1).bit_length())
    got = schedule._admissible_codes(a, r, every_word)
    assert got.dtype == np.uint64 and got.size == count
    assert np.array_equal(got, want)


@given(st.integers(1, 8).flatmap(lambda bits: st.tuples(
    st.just(bits), st.integers(1, 64 // bits), st.integers(0, 300), st.integers(0, 2**32 - 1))))
def test_codes_decode_to_their_rows(case):
    bits, width, n, seed = case
    rows = np.random.default_rng(seed).integers(0, 1 << bits, size=(n, width), dtype=np.uint8)
    out = np.empty_like(rows)
    assert rows_of_codes(row_codes(rows, bits), bits, out) is out
    assert np.array_equal(out, rows)


def test_enumeration_cap(sched2, binary, squares):
    with mock.patch.object(schedule, "DEFAULT_ENUM_CAP", 100), pytest.raises(InfeasibleDepth):
        build_schedule(binary, squares, 1).words(1)
    with pytest.raises(InfeasibleDepth):
        sched2.words(2)
    assert [w.tobytes() for w in sched2.words(0)] == [b"\x00", b"\x01"]


def test_every_enumerated_word_is_admissible(sched2):
    for w in sched2.words(1)[:: 500]:
        assert is_admissible_block(w, 1, sched2).ok


def test_full_equivalence_enumeration_vs_checker(sched2):
    # the checker accepts exactly the enumerated words, over all 2^15 strings
    enumerated = {w.tobytes() for w in sched2.words(1)}
    accepted = set()
    for bits in range(1 << 15):
        cells = bytes((bits >> (14 - t)) & 1 for t in range(15))
        if is_admissible_block(cells, 1, sched2).ok:
            accepted.add(cells)
    assert accepted == enumerated


def test_level_size_bounds(sched2):
    # m_{k+1} is an odd multiple of 3 m_k exceeding both size bounds
    for k in range(sched2.depth):
        m_k, m_next = sched2.m(k), sched2.m(k + 1)
        assert m_next % (3 * m_k) == 0
        assert (m_next // (3 * m_k)) % 2 == 1
        assert m_next > 12 * math.log(2) * (4 / 3) ** (k + 1)
        card = sched2.level(k).card
        if card.exact is not None:
            assert m_next > 3 * m_k * card.exact


def test_admissibility_examples(sched2, binary):
    ok = is_admissible_block(binary.cells_of_text("000000000000001"), 1, sched2)
    assert ok.ok and ok.checks[-1].min_pillar_share == 14
    bad = is_admissible_block(binary.cells_of_text("1" * 15), 1, sched2)
    assert not bad.ok
    fill = is_admissible_block(binary.cells_of_text("000000101100101"), 1, sched2)
    assert fill.ok and fill.checks[-1].min_pillar_share == 10
    missing_one = is_admissible_block(binary.cells_of_text("0" * 15), 1, sched2)
    failed = [c for c in missing_one.checks if not c.ok]
    # only the every-word rule fails: the level-0 word 1 is never used
    assert len(failed) == 1 and failed[0].every_word == "fail"
    assert failed[0].membership == "ok" and failed[0].min_pillar_share >= failed[0].required_share
    with pytest.raises(InvalidParameterError):
        is_admissible_block(binary.cells_of_text("01"), 1, sched2)


def test_level_counts(sched2):
    assert sched2.level(0).card.exact == 2
    assert sched2.level(1).card.exact == 30826
    c2 = sched2.level(2).card
    # paper-style upper bound r ln2 + (2r/3) ln|A_1|
    r = 1387215 // 15
    want_up = r * math.log(2) + (2 * r / 3) * math.log(30826)
    assert c2.exact is None
    assert c2.log_upper == pytest.approx(want_up, rel=1e-12)
    assert c2.log_lower <= c2.log_upper
    # level-1 exact count satisfies the upper bound 2^r |A_0|^(2r/3)
    assert math.log(30826) <= 25 * math.log(2)


def test_surjection_and_closed_form():
    assert exact_next_count(15, 2, True) == 30826
    assert exact_next_count(15, 3, True) == 8489366
    assert exact_next_count(15, 3, False) == 8551019
    assert exact_next_count(15, 2, False) == 30827


def test_every_enumerable_faithful_word_set_packs_into_64_bits():
    """A_1 has one form, a vector of uint64 codes, in both profiles.

    m_1 = 3j with j odd and 3j above the float bound 12·ln 2·4/3, so
    j >= 5, and faithful j > a (the size gate).  Over every alphabet the
    cell encoding allows, only three A_1 sets stay under the enumeration
    cap, each at most 30 bits a row.  No A_2 is enumerable: its count
    grows with r_2, and even the smallest r_2 (faithful 3j with j odd
    above |A_1|, fast 3) gives more words than the cap.
    """
    counts = {True: {(2, 15): 30826, (2, 21): 2014991, (3, 15): 8489366},
              False: {(2, 15): 30827, (2, 21): 2014992, (3, 15): 8551019}}
    for every_word, want in counts.items():
        enumerable = {}
        for a in range(2, 255):
            for j in range(max(5, a + 1) | 1 if every_word else 5, 1000, 2):
                count = exact_next_count(3 * j, a, every_word)
                if count > schedule.DEFAULT_ENUM_CAP:
                    break
                assert 3 * j * (a - 1).bit_length() <= 30, (a, j)
                enumerable[a, 3 * j] = count
        assert enumerable == want
        for count in enumerable.values():
            r2 = 3 * ((count + 1) | 1) if every_word else 3
            card = schedule.next_card(r2, Card.exact_count(count), every_word)
            assert card.log_lower > math.log(schedule.DEFAULT_ENUM_CAP)


@given(st.integers(1, 60).map(lambda t: 3 * t), st.integers(1, 40))
@example(3, 1)
@example(30, 1)
@example(3, 2)
@example(30, 2)
def test_exact_count_matches_sum(r, a):
    """The fast-profile count by Horner's rule against the term-by-term sum."""
    assert exact_next_count(r, a, False) == exact_next_count_by_sum(r, a)


def test_log_bounded_next_card_brackets_the_exact_count():
    """From a previous card known only by its log, the next card's bounds
    hold the exact count (the branch of schedules too deep to count)."""
    for r in range(3, 61, 3):
        for a in range(2, 13):
            card = schedule.next_card(r, Card.bounds(math.log(a), math.log(a)), False)
            assert card.exact is None
            assert card.log_lower <= math.log(exact_next_count(r, a, False)) <= card.log_upper


def test_every_word_count_matches_surjections():
    """The faithful-profile count by inclusion-exclusion over Horner sums
    against the sum over pillar counts of surjection counts."""
    for r in range(3, 151, 3):
        for a in range(1, 41):
            assert exact_next_count(r, a, True) == every_word_count_by_surjections(r, a), (r, a)


def test_canonical_pillar_structure(sched2, binary):
    w1 = sched2.pillar(1)
    assert binary.text_of_cells(w1) == "0" * 14 + "1"  # 14 copies of w_0 then "1"
    w2 = sched2.pillar(2)
    assert len(w2) == 1387215
    words = [row.tobytes() for row in sched2.words(1)]
    r, a = 92481, 30826
    copies = r - a + 1
    assert copies == 61656
    cells = w2.tobytes()
    assert cells[: 15 * copies] == words[0] * copies
    rest = [cells[15 * (copies + t): 15 * (copies + t + 1)] for t in range(a - 1)]
    assert rest == words[1:]
    assert is_admissible_block(w2, 2, sched2).ok


def test_density_violation_for_evens(binary):
    with pytest.raises(DensityViolation) as exc:
        build_schedule(binary, SparseSetSpec.evens(), 1)
    assert exc.value.level == 0
    lo, hi = exc.value.witness
    assert exc.value.count >= exc.value.threshold


def test_unknown_profile_fails_before_search(binary):
    # evens fail the sparsity search, so only an up-front check reaches this
    with pytest.raises(InvalidParameterError, match="unknown profile 'bogus'"):
        build_schedule(binary, SparseSetSpec.evens(), 1, profile="bogus")


def test_infeasible_depth_faithful(binary, squares):
    with pytest.raises(InfeasibleDepth):
        build_schedule(binary, squares, 3)


def test_fast_profile_depth3(binary, squares):
    sched = build_schedule(binary, squares, 3, profile="fast")
    assert sched.profile == "fast"
    assert [sched.m(k) for k in range(3)] == [1, 15, 2115]
    assert sched.m(3) % (3 * 2115) == 0
    assert (sched.m(3) // (3 * 2115)) % 2 == 1
    # sparsity is the binding constraint at level 3
    assert squares.sparsity_report(sched.m(3), 2115)[0]
    # pillar share holds at every level under fast semantics
    for k in (1, 2):
        assert is_admissible_block(sched.pillar(k), k, sched).ok


def test_recurrence_inequality(sched2):
    # ln|A_2|-upper / m_2 <= ln2/m_1 + (2/3) ln|A_1|/m_1, within rounding slack
    lhs = sched2.level(2).card.log_upper / sched2.m(2)
    b1 = math.log(30826) / 15
    rhs = math.log(2) / 15 + (2 / 3) * b1
    assert lhs <= rhs + 1e-12


def test_verified_range_recorded(sched2, fast3):
    # the hull of the level-2 blocks meeting [0, 1000], joined with [1, m_2]
    assert sched2.verified_range == (-693607, 1387215)
    assert fast3.verified_range == (-20135857, 40271715)


def _passes_over_n(sparse, m_list):
    return all(sparse.sparsity_report(m_list[k + 1], m_list[k])[0]
               for k in range(len(m_list) - 1))


def _plan_or_error(plan, *args, **kwargs):
    try:
        return [m for m, _ in plan(*args, **kwargs)], None
    except BlockshiftError as exc:
        return None, exc


@st.composite
def rule_specs(draw):
    kind = draw(st.sampled_from(["squares", "monomial", "power", "nlogn"]))
    if kind == "monomial":
        return SparseSetSpec.monomial(draw(st.integers(1, 6)))
    if kind == "power":
        q = draw(st.integers(1, 6))
        p = draw(st.integers(q + 1, 4 * q))
        return SparseSetSpec.power(Fraction(p, q))
    return SparseSetSpec.parse(kind)


@settings(max_examples=60, deadline=None)
@given(rule_specs(), st.sampled_from([2, 3, 4]), st.booleans(), st.integers(1, 3))
def test_one_pass_plan_against_fixed_point(sparse, a, faithful, depth):
    """Each level gated once over N, against the fixed-point loop that gated
    over the verified range only.  The one-pass m-list passes over N at
    every level, and differs from the loop's only where the loop's fails
    over N somewhere (the jumps of the search skip only candidates that
    fail over N as well)."""
    got, err = _plan_or_error(schedule._plan_levels, sparse, depth, a, faithful)
    want, want_err = _plan_or_error(plan_by_fixed_point, sparse, depth, a, faithful)
    if got is not None:
        assert _passes_over_n(sparse, got)
    if want is not None and got != want:
        assert not _passes_over_n(sparse, want)
    if want is None:
        assert got is None and (type(err), str(err)) == (type(want_err), str(want_err))


def paper_rule(cells, level, sched):
    """Membership in A_level straight from the definition: a concatenation
    of words of A_{level-1}, at least a third of them w_{level-1}, and
    (faithful profile) every word of A_{level-1} among them."""
    if level == 0:
        return cells[0] < sched.alphabet.size
    m = sched.m(level - 1)
    subs = [cells[i:i + m] for i in range(0, len(cells), m)]
    if not all(paper_rule(s, level - 1, sched) for s in subs):
        return False
    if 3 * subs.count(sched.pillar(level - 1).tobytes()) < len(subs):
        return False
    return not sched.faithful or {w.tobytes() for w in sched.words(level - 1)} <= set(subs)


@st.composite
def words_around_rule(draw, sched, level):
    """A level word with a drawn number of w_{level-1} sub-blocks, the
    others shuffled in: symbols other than w_0 at level 1, and above it
    fill-pool rows for half the words and random words for the rest, so
    that words passing every level are as common as words failing one."""
    a = sched.alphabet.size
    r = sched.ratio(level)
    n_other = draw(st.integers(0, r))
    if level == 1:
        other = st.integers(1, a - 1).map(lambda c: bytes([c]))
    elif draw(st.booleans()):
        other = st.sampled_from([row.tobytes() for row in sched.pool_matrix(level - 1)])
    else:
        m = sched.m(level - 1)
        other = st.binary(min_size=m, max_size=m).map(lambda b: bytes(c % a for c in b))
    subs = [sched.pillar(level - 1).tobytes()] * (r - n_other)
    subs += [draw(other) for _ in range(n_other)]
    return b"".join(draw(st.permutations(subs)))


@pytest.fixture(scope="module")
def rule_schedules(sched2, binary, squares):
    return {
        "faithful": sched2,
        "fast": build_schedule(binary, squares, 2, profile="fast"),
    }


@pytest.mark.parametrize("name,level", [("fast", 1), ("fast", 2), ("faithful", 1)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_checker_matches_paper_rule(rule_schedules, name, level, data):
    sched = rule_schedules[name]
    cells = data.draw(words_around_rule(sched, level))
    assert is_admissible_block(cells, level, sched).ok == paper_rule(cells, level, sched)


@pytest.mark.parametrize("word,match", [
    ("0" * 15, "not str"),
    ([256] * 15, "cell values 0..255"),
    ([-1] * 15, "cell values 0..255"),
    (np.zeros((3, 5), dtype=np.uint8), "1-D"),
    (np.zeros(15), "cell values 0..255"),
    (None, "not NoneType"),
    (bytes([0] * 14 + [255]), "STAR"),
    (b"", "empty word"),
    ([], "empty word"),
    (bytes(14), "word length 14 != m_1 = 15"),
], ids=["str", "above-255", "negative", "2-d", "float", "none", "star", "empty-bytes",
        "empty-list", "wrong-length"])
def test_bad_word_is_invalid_parameter(sched2, word, match):
    with pytest.raises(InvalidParameterError, match=match):
        is_admissible_block(word, 1, sched2)


@pytest.mark.parametrize("level", [0, 3])
def test_level_outside_the_built_depth_is_named(sched2, level):
    # the level is checked before the word's length, which m_level would need
    with pytest.raises(InvalidParameterError, match=rf"^level {level} outside built depth$"):
        is_admissible_block(bytes(15), level, sched2)


def test_word_forms_agree(sched2):
    word = sched2.words(1)[123]
    want = is_admissible_block(word, 1, sched2)
    assert want.ok
    for form in (word.tobytes(), bytearray(word.tobytes()), word.tolist(),
                 word.astype(np.int64)):
        assert is_admissible_block(form, 1, sched2) == want


@pytest.fixture(scope="module")
def fast3(ternary, squares):
    return build_schedule(ternary, squares, 3, profile="fast")


def pillar_gather(sched, k):
    """w_k rebuilt from the fill source one level down: copies of its row
    0, then faithful the other words of A_{k-1} in order, fast the pool
    rows in turn."""
    n = sched.fill_size(k - 1)
    r = sched.ratio(k)
    if sched.faithful:
        picks = [0] * (r - n + 1) + list(range(1, n))
    else:
        picks = [0] * (r // 3) + [t % POOL_SIZE for t in range(r - r // 3)]
    return sched.fill_source(k - 1)(picks).reshape(-1)


@pytest.mark.parametrize("name", ["sched2", "fast3"])
def test_fill_row_zero_is_the_pillar(request, name):
    sched = request.getfixturevalue(name)
    for k in range(sched.depth):
        assert np.array_equal(sched.fill_source(k)([0])[0], sched.pillar(k))
    for k in range(1, sched.depth + 1):
        w = sched.pillar(k)
        assert w.dtype == np.uint8 and w.shape == (sched.m(k),) and not w.flags.writeable
        assert np.array_equal(w, pillar_gather(sched, k))


def test_top_pillar_is_rebuilt_not_held(ternary, squares):
    """No fill reads w_3, so the schedule holds less than its m_3 bytes,
    and pillar(3) rebuilds it from w_2 and the pool."""
    gc.collect()
    tracemalloc.start()
    try:
        sched = build_schedule(ternary, squares, 3, profile="fast")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < sched.m(3)
    w = sched.pillar(3)
    assert not w.flags.writeable and np.array_equal(w, pillar_gather(sched, 3))
    assert sched.describe_rows()[3][3] == "len=40271715,sha256-64=ba8d6cb89a3ae233"


def test_fast_pillar_rows_are_pool_rows(fast3):
    for k in range(1, fast3.depth + 1):
        pool = fast3.pool_matrix(k - 1)
        assert not rows_outside(fast3.pillar(k), pool)
        # the oracle sees one stray sub-block
        stray = fast3.pillar(k).copy()
        stray[-1] = STAR
        assert rows_outside(stray, pool) == {stray[-fast3.m(k - 1):].tobytes()}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(-2**70, 2**70), k=st.integers(0, 5), q=st.integers(0, 40))
def test_mix64_on_arrays_matches_ints(seed, k, q):
    """pool_matrix draws its picks from uint64 arrays: each equals mix64 of
    the Python ints, one call a pick."""
    i = np.arange(1, POOL_SIZE, dtype=np.uint64)[:, None]
    j = np.arange(q, q + 30, dtype=np.uint64)
    got = schedule.mix64(seed, 0xA1FA, k, i, j)
    assert got.dtype == np.uint64
    assert got.tolist() == [[schedule.mix64(seed, 0xA1FA, k, a, b) for b in range(q, q + 30)]
                            for a in range(1, POOL_SIZE)]


def test_out_of_alphabet_cell_fails(rule_schedules):
    word = bytes([0] * 14 + [2])
    for name in ("faithful", "fast"):
        assert not is_admissible_block(word, 1, rule_schedules[name]).ok


def test_frozen_output_bytes(tmp_path, capsys):
    path = tmp_path / "d2.bsw"
    assert main(["realize", "--alphabet", "01", "--sparse", "squares", "--depth", "2",
                 "--u", "mu-indicator", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9b84f64b957270266c5627363082b1ee43b4a717a5cd3ffb5ceb9074ba37e0f5")
    capsys.readouterr()
    assert main(["demo-sarnak", "--profile", "faithful", "--depth", "2", "--N", "832"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "64cd01d3d07eaf6cc1094886ff19093b33860905c00018bf360d7b251ee53b8c")

    fast = ["--alphabet", "0+-", "--sparse", "squares", "--depth", "2", "--u", "mu-sign",
            "--profile", "fast"]
    # the central block, and a far window whose blocks partly miss S and stay starred
    for window, digest in (
            ([], "8f8ec5099cb03d032934a1b5a428f9d1c039a415a010057a488458cbcbef3dac"),
            (["--window", "10000000:10020000"],
             "a18c6d40f047b64da93e36df18499e614680cf93f60ba31c960a15126153f810")):
        path = tmp_path / "fast.bsw"
        assert main(["realize", *fast, *window, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    assert main(["demo-sarnak", "--profile", "fast", "--depth", "2"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "dc0ce7f1f6ee356382bf46dd8bcbc37d9c4a79d577f294f4d0c5da345d4f103c")


# The pillars fix the order of A_{k-1} that w_k and the faithful fill read.
@pytest.mark.parametrize("argv,verified,last,digest", [
    (["--alphabet", "01", "--sparse", "squares", "--depth", "2"], "-693607:1387215",
     "2   1387215      log[377510.6338,701365.7027]     len=1387215,sha256-64=8a75e7461c702727",
     "595a2ab722689dfbe9934081e3196d214a45790eb70e267839d78db1fdb5c703"),
    (["--alphabet", "0+-", "--sparse", "squares", "--depth", "3", "--profile", "fast"],
     "-20135857:40271715",
     "3   40271715     log[20163736.6217,20164820.0650] len=40271715,sha256-64=ba8d6cb89a3ae233",
     "dd368aa4ae54eca5976d263a805c5a12d538824c359c144ea7001626ee205189"),
], ids=["faithful-01-d2", "fast-0+--d3"])
def test_schedule_pillar_digests(capsys, argv, verified, last, digest):
    assert main(["schedule", *argv]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == f"verified-range: {verified}"
    assert out.splitlines()[-1] == last
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_card_describe_past_the_str_digit_limit():
    assert Card.exact_count(10**4300 - 1).describe() == "exact:" + "9" * 4300
    assert Card.exact_count(10**4300).describe() == "exact:4301-digit,ln=9901.1159"
    assert Card.exact_count(10**5000 + 1).describe() == "exact:5001-digit,ln=11512.9255"
    assert Card.exact_count(2**30000).describe().startswith("exact:9031-digit,")


def test_exact_count_brackets_ln():
    """math.log of an int past 2**1024 can be more than an ulp off (a few
    of these 300 random counts are); the exact count's log bounds still
    bracket ln n, checked against mpmath at 50 digits."""
    rng = random.Random(0)
    counts = [1, 2, 3, 10**15 + 37, 2**53 + 1, 2**1024 - 1, 2**1024, 2**1024 + 1]
    for _ in range(300):
        bits = rng.randint(10, 200_000)
        counts.append(rng.getrandbits(bits) | 1 << bits - 1)
    with mpmath.workdps(50):
        for n in counts:
            card = Card.exact_count(n)
            assert card.log_lower <= mpmath.log(n) <= card.log_upper, n


@pytest.mark.parametrize("k", [1, 17, 4299, 4300, 4301, 9999, 10000, 65536, 100000])
def test_card_describe_digits_at_powers_of_ten(k):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for n in (10**k - 1, 10**k, 10**k + 1, 3 * 10**k):
            digits = len(str(n))
            text = Card.exact_count(n).describe()
            if n < 10**schedule.MAX_SHOWN_DIGITS:
                assert text == f"exact:{n}"
            else:
                assert text.startswith(f"exact:{digits}-digit,")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
