import bisect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blockshift import IncompleteDataError, InvalidParameterError, SparseSetSpec
from blockshift.sparse import MAX_EXPONENT, _nlogn, kth_root_floor
from tests.oracles import first_index_by_search, max_window_by_scan, sparse_file_by_strip


def oracle_max_window(elems, window_len, lo, hi):
    """Independent anchored-window scan: the maximum is attained by a
    window whose left end is an element (or the right-clamped window)."""
    best = 0
    anchors = [lo, max(lo, hi - window_len + 1)] + [s for s in elems if lo <= s <= hi]
    for a in anchors:
        a = min(a, hi - window_len + 1)
        b = a + window_len - 1
        i = bisect.bisect_left(elems, a)
        j = bisect.bisect_right(elems, b)
        best = max(best, j - i)
    return best


def test_elements_in_examples(squares):
    assert squares.elements_in((1, 15)) == [(1, 1), (2, 4), (3, 9)]
    assert squares.elements_in((-7, 0)) == []


def test_nlogn_elements():
    # direct evaluation: floor(n ln n) for n = 2..6 is 1, 3, 5, 8, 10
    nl = SparseSetSpec.nlogn()
    with mpmath.workdps(40):
        direct = [(n, int(mpmath.floor(mpmath.mpf(n) * mpmath.log(n))))
                  for n in range(2, 7)]
    assert [t for t in direct if 1 <= t[1] <= 10] == [(2, 1), (3, 3), (4, 5), (5, 8), (6, 10)]
    assert nl.elements_in((1, 10)) == [(2, 1), (3, 3), (4, 5), (5, 8), (6, 10)]


def test_power_kind_exact_floors():
    p = SparseSetSpec.power(Fraction(3, 2))
    with mpmath.workdps(60):
        direct = [int(mpmath.floor(mpmath.mpf(n) ** mpmath.mpf("1.5"))) for n in range(1, 200)]
    assert [p.term(n) for n in range(1, 200)] == direct


@given(st.integers(min_value=0, max_value=10**3000),
       st.integers(min_value=1, max_value=MAX_EXPONENT))
def test_kth_root_floor(x, k):
    # x reaches far past the float range, where x ** (1 / k) overflows
    r = kth_root_floor(x, k)
    assert r**k <= x < (r + 1) ** k


@given(st.integers(min_value=1, max_value=MAX_EXPONENT).flatmap(
    lambda k: st.tuples(st.integers(min_value=0, max_value=10 ** (3000 // k)), st.just(k))))
def test_kth_root_floor_near_powers(rk):
    r, k = rk
    for x in (r**k - 1, r**k, r**k + 1):
        if x >= 0:
            q = kth_root_floor(x, k)
            assert q**k <= x < (q + 1) ** k


def test_explicit_semantics():
    s = SparseSetSpec.explicit([5])
    assert s.max_window_count(3, (1, 10))[0] == 1
    assert s.elements_in((1, 10)) == [(1, 5)]
    prefix = SparseSetSpec.explicit([5, 17], horizon=20)
    assert prefix.elements_in((1, 20)) == [(1, 5), (2, 17)]
    with pytest.raises(IncompleteDataError):
        prefix.elements_in((1, 21))
    with pytest.raises(IncompleteDataError):
        prefix.count_in((1, 100))
    with pytest.raises(InvalidParameterError):
        SparseSetSpec.explicit([3, 3])
    with pytest.raises(InvalidParameterError):
        SparseSetSpec.explicit([0, 4])


def test_explicit_file_roundtrip(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# a comment\n5\n17\n# horizon: 40\n25\n")
    s = SparseSetSpec.from_file(path)
    assert s.values == (5, 17, 25) and s.horizon == 40


_PAD = st.text(alphabet=" \t\u00a0\u3000", max_size=2)


@st.composite
def sparse_file_lines(draw):
    """Increasing values, each padded with whitespace, mixed with blank,
    comment and horizon lines and now and then a stray line."""
    values = sorted(draw(st.sets(st.integers(-2, 10**12), max_size=8)))
    lines = [draw(_PAD) + str(v) + draw(_PAD) for v in values]
    others = st.one_of(
        _PAD,
        st.builds("{}#{}".format, _PAD, st.text(alphabet="ab #:0", max_size=6)),
        st.builds("{}#{}{}:{}{}".format, _PAD, _PAD, st.sampled_from(["horizon", "HORIZON"]),
                  _PAD, st.integers(0, 2 * 10**12)),
        st.text(alphabet="0123456789_+-#:xh \t\u0663", max_size=6),
    )
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(others))
    return "\n".join(lines)


def _outcome(parse, path):
    try:
        s = parse(path)
    except InvalidParameterError as exc:
        return str(exc)
    return s.values, s.horizon


@settings(max_examples=150, deadline=None)
@given(text=sparse_file_lines())
@example(text="# squares\n1\n\n  4\n# horizon: 30\n\t9 \n#horizon:40\n16\n")
@example(text="1\n 2 # two\n")
@example(text="# Horizon : 5\n3\n1_000\n")
def test_from_file_matches_strip_first_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "sparse-file.txt"
    path.write_text(text, encoding="utf-8")
    assert _outcome(SparseSetSpec.from_file, path) == _outcome(sparse_file_by_strip, path)


def test_max_window_count_examples(squares):
    count, witness = squares.max_window_count(15, (1, 10**6))
    assert count == 3
    assert witness == (1, 15)
    assert SparseSetSpec.evens().max_window_count(15, (1, 1000))[0] == 8
    with pytest.raises(InvalidParameterError):
        squares.max_window_count(15, (1, 10))


def test_max_window_count_against_oracle(squares):
    elems = [n * n for n in range(1, 1001)]
    for L, rng in [(15, (1, 10**6)), (100, (1, 10**5)), (10**4, (1, 10**6)),
                   (37, (-50, 3000))]:
        got = squares.max_window_count(L, rng)[0]
        want = oracle_max_window(elems, L, rng[0], rng[1])
        assert got == want, (L, rng)


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=40,
             unique=True),
    st.integers(min_value=1, max_value=60),
)
def test_max_window_count_explicit_oracle(values, window_len):
    values = sorted(values)
    spec = SparseSetSpec.explicit(values)
    rng = (1, 500)
    got = spec.max_window_count(window_len, rng)[0]
    # brute force over every window position
    want = max(
        sum(1 for v in values if a <= v <= a + window_len - 1)
        for a in range(rng[0], rng[1] - window_len + 2)
    )
    assert got == want


RULE_SPECS = ["squares", "monomial:1", "monomial:3", "power:3/2", "power:7/4",
              "power:5/4", "power:11/3", "power:101/100", "nlogn", "evens"]


@st.composite
def window_queries(draw):
    lists = st.lists(st.integers(1, 20000), min_size=1, max_size=60, unique=True)
    text = draw(st.one_of(st.sampled_from(RULE_SPECS),
                          lists.map(lambda v: "list:" + ",".join(map(str, sorted(v))))))
    # power:101/100 needs n**101 per term, so its ranges stay small
    big = 1 if text == "power:101/100" else 10
    window_len = draw(st.integers(1, 300 * big))
    lo = draw(st.one_of(st.integers(-50, 0), st.integers(2, 5000 * big)))
    # a short slack clips windows at hi; a long one lets the maximum move right
    slack = draw(st.one_of(st.integers(0, 50), st.integers(0, 2000 * big)))
    stop_at = draw(st.one_of(st.none(), st.integers(1, 80)))
    return text, window_len, (lo, lo + window_len - 1 + slack), stop_at


@settings(max_examples=300, deadline=None)
@given(window_queries())
@example(("monomial:3", 5, (9, 26), None))   # no cube in range
@example(("squares", 3, (5, 8), 1))           # no square in range, with stop_at
@example(("nlogn", 10, (-5, 4), None))        # window clipped at hi
# floored kinds whose densest window holds one more than the first one
@example(("nlogn", 595, (17554, 18180), None))
@example(("power:5/4", 1053, (12777, 15888), 127))
@example(("power:101/100", 22, (3372, 3414), None))
# lists past int64: numpy reads 2**63..2**64 as float64 unless told otherwise
@example(("list:9223372036854775806,9223372036854775809,9223372036854775811,"
          "18446744073709551620", 6, (9223372036854775800, 9223372036854775830), None))
@example((f"list:{10**30},{10**30 + 3},{10**30 + 100}", 4, (10**30 - 9, 10**30 + 200), 2))
def test_max_window_count_matches_scan(query):
    text, window_len, rng, stop_at = query
    spec = SparseSetSpec.parse(text)
    got = spec.max_window_count(window_len, rng, stop_at=stop_at)
    assert got == max_window_by_scan(spec, window_len, rng, stop_at)


# n below 2*10^8 whose n*ln(n) lies within 4e-8 of an integer; at 193751193
# a flat 1e-9 guard floors the float product one below the true value
NEAR_INTEGER_N = [64795933, 53124054, 132488711, 81332127, 119709099, 144228346,
                  145495423, 193751193, 140231643, 185704010, 20527686]


def _nearest_to_integer(start):
    """The n in [start, start + 4096) whose float n*ln(n) is nearest an integer."""
    n = np.arange(start, start + 4096, dtype=np.float64)
    v = n * np.log(n)
    return start + int(np.argmin(np.abs(v - np.rint(v))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(NEAR_INTEGER_N),
                 st.integers(2, 10**12).map(_nearest_to_integer),
                 st.integers(2, 10**6),
                 st.integers(30, 45).flatmap(lambda e: st.integers(10**e, 10 ** (e + 1)))))
@example(193751193)
@example(84215371668480845665669433192490783406)  # 40 digits floor it one low
@example(3 * 10**310 + 1)  # n * ln(n) overflows a float
def test_nlogn_matches_exact_floor(n):
    with mpmath.workdps(2 * len(str(n)) + 60):
        want = int(mpmath.floor(mpmath.mpf(n) * mpmath.log(n)))
    assert _nlogn(n) == want


# the rules whose inverse _first_index_with_term_at_least takes in closed form
INVERSE_SPECS = ["squares", "monomial:1", "monomial:3", "power:3/2", "power:7/4",
                 "power:9/4", "power:11/10", "evens", "nlogn"]


@settings(max_examples=400, deadline=None)
@given(text=st.sampled_from(INVERSE_SPECS),
       x=st.one_of(st.integers(-3, 3), st.integers(4, 10**40)))
@example(text="nlogn", x=2**53 - 1)  # the float root is two short: gallops up
@example(text="nlogn", x=2**53)  # the first x with the Lambert W root
@example(text="nlogn", x=3 * 10**310)  # past the float range
@example(text="power:11/10", x=10**40)
def test_first_index_matches_search(text, x):
    spec = SparseSetSpec.parse(text)
    assert spec._first_index_with_term_at_least(x) == first_index_by_search(spec, x)


@settings(max_examples=400, deadline=None)
@given(text=st.sampled_from(INVERSE_SPECS),
       n=st.one_of(st.integers(0, 40).flatmap(lambda e: st.integers(10**e, 10 ** (e + 1))),
                   st.sampled_from(NEAR_INTEGER_N),
                   st.integers(2, 10**12).map(_nearest_to_integer)),
       shift=st.sampled_from([-1, 0, 1]))
def test_first_index_matches_search_next_to_terms(text, n, shift):
    """x = s_n - 1, s_n, s_n + 1, where the answer moves; for nlogn at
    the n of NEAR_INTEGER_N and _nearest_to_integer, s_n lies in the band
    where _nlogn recomputes n ln n at high precision."""
    spec = SparseSetSpec.parse(text)
    x = spec.term(max(n, spec.first_index)) + shift
    assert spec._first_index_with_term_at_least(x) == first_index_by_search(spec, x)


def every_kind():
    """A sparse set of every kind, explicit lists with and without a horizon."""
    explicit = st.lists(st.integers(1, 3000), min_size=1, max_size=40, unique=True).map(sorted)
    return st.one_of(
        st.sampled_from([SparseSetSpec.squares(), SparseSetSpec.monomial(3),
                         SparseSetSpec.power(Fraction(3, 2)), SparseSetSpec.nlogn(),
                         SparseSetSpec.evens()]),
        explicit.map(SparseSetSpec.explicit),
        st.builds(lambda v, extra: SparseSetSpec.explicit(v, horizon=v[-1] + extra),
                  explicit, st.integers(0, 500)),
    )


def elements_by_term(spec, lo, hi):
    """(n, s_n) with lo <= s_n <= hi, from term() one index at a time."""
    out, n = [], spec.first_index
    while (spec.kind != "explicit" or n <= len(spec.values)) and spec.term(n) <= hi:
        if spec.term(n) >= lo:
            out.append((n, spec.term(n)))
        n += 1
    return out


@settings(max_examples=300, deadline=None)
@given(spec=every_kind(), lo=st.integers(-40, 3200), length=st.integers(-10, 3200))
@example(spec=SparseSetSpec.squares(), lo=-3, length=3)
@example(spec=SparseSetSpec.explicit([5, 17], horizon=20), lo=25, length=-10)
def test_count_in_matches_elements(spec, lo, length):
    """count_in and elements_in agree on every kind, also from lo <= 0 and
    on empty intervals, and elements_in lists what term() gives; past a
    horizon both raise."""
    rng = (lo, lo + length)
    if spec.horizon is not None and rng[1] > spec.horizon and max(lo, 1) <= rng[1]:
        for query in (spec.count_in, spec.elements_in):
            with pytest.raises(IncompleteDataError):
                query(rng)
        return
    got = spec.elements_in(rng)
    assert spec.count_in(rng) == len(got)
    assert got == elements_by_term(spec, *rng)


def test_elements_in_respects_nesting(squares):
    outer = squares.elements_in((1, 2000))
    inner = squares.elements_in((50, 700))
    assert inner == [t for t in outer if 50 <= t[1] <= 700]


def test_max_window_monotone(squares):
    c1 = squares.max_window_count(15, (1, 10**4))[0]
    c2 = squares.max_window_count(40, (1, 10**4))[0]
    c3 = squares.max_window_count(40, (1, 10**6))[0]
    assert c1 <= c2 <= c3


def test_sparsity_examples(squares):
    assert squares.sparsity_report(15, 1)[0] is True
    assert SparseSetSpec.evens().sparsity_report(15, 1)[0] is False
    ok, count, threshold, _ = squares.sparsity_report(1387215, 15)
    assert ok and threshold == 30827
    assert count == 1177  # floor(sqrt(1387215)): leftmost window is densest
    with pytest.raises(InvalidParameterError):
        squares.sparsity_report(16, 1)


def test_sparsity_report_covers_every_element():
    # the burst 2000..2010 lies far past [1, L]; the gate over N must see it
    burst = [3, 50, *range(2000, 2011)]
    spec = SparseSetSpec.explicit(burst)
    assert spec.sparsity_report(15, 1) == (False, 5, 5, (2000, 2014))
    assert spec.sparsity_report(39, 1) == (True, 11, 13, (2000, 2038))
    # a horizon list is gated through its horizon
    prefix = SparseSetSpec.explicit(burst, horizon=5000)
    assert prefix.sparsity_report(39, 1) == spec.sparsity_report(39, 1)
    with pytest.raises(IncompleteDataError):
        SparseSetSpec.explicit([5, 17], horizon=20).sparsity_report(21, 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(RULE_SPECS),
                 st.lists(st.integers(1, 5000), min_size=1, max_size=40, unique=True)
                 .map(lambda v: "list:" + ",".join(map(str, sorted(v))))),
       st.integers(1, 20), st.integers(1, 20))
def test_sparsity_report_over_n(text, m_k, j):
    """The gate over N: a real witness window, a count capped at the
    threshold, and no window of a long scan from 1 (for a list, of every
    window meeting it) holding more."""
    spec = SparseSetSpec.parse(text)
    window_len = 3 * m_k * j
    ok, count, threshold, witness = spec.sparsity_report(window_len, m_k)
    assert threshold == j and count <= j and ok == (count < j)
    assert witness[0] >= 1 and witness[1] - witness[0] + 1 == window_len
    assert spec.count_in(witness) >= count
    if spec.kind == "explicit":
        rng = (1, spec.values[-1] + window_len - 1)
        assert (count, witness) == max_window_by_scan(spec, window_len, rng, j)
    else:
        assert max_window_by_scan(spec, window_len, (1, 20 * window_len + 5000), j)[0] <= count


def _density(spec, window_len, rng):
    return Fraction(spec.max_window_count(window_len, rng)[0], window_len)


def test_density_examples(squares):
    evens = SparseSetSpec.evens()
    assert _density(evens, 1000, (1, 10**5)) == Fraction(1, 2)
    # densest length-10^4 window of squares is [1, 10^4] with 100 elements
    assert _density(squares, 10**4, (1, 10**6)) == Fraction(100, 10**4)
    assert _density(SparseSetSpec.explicit([1]), 10, (1, 100)) == Fraction(1, 10)


@pytest.mark.parametrize("L", [6, 15, 60, 999])
def test_evens_density_floor(L):
    # a length-L window always catches at least L/2 - 1 evens
    d = _density(SparseSetSpec.evens(), L, (1, 10**4))
    assert d >= Fraction(1, 2) - Fraction(1, L)


def test_parse_and_describe():
    assert SparseSetSpec.parse("squares").describe() == "squares"
    assert SparseSetSpec.parse("evens").kind == "evens"
    assert SparseSetSpec.parse("monomial:3").term(2) == 8
    assert SparseSetSpec.parse("power:3/2").gamma == Fraction(3, 2)
    assert SparseSetSpec.parse("list:2,9").values == (2, 9)
    with pytest.raises(InvalidParameterError):
        SparseSetSpec.parse("primes")
    for text in ("squares", "monomial:3", "power:2", "power:3/2"):
        assert SparseSetSpec.parse(text).describe() == text


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3000), st.integers(-50, 10**6), st.integers(0, 5000),
       st.integers(1, 20), st.integers(1, 5))
def test_monomial_and_power_are_one_rule(d, window_len, lo, slack, m_k, j):
    """monomial:D and power:D name the same set and answer every query alike."""
    mono, power = SparseSetSpec.parse(f"monomial:{d}"), SparseSetSpec.parse(f"power:{d}")
    rng = (lo, lo + window_len - 1 + slack)
    for n in (1, 2, j, window_len, lo if lo >= 1 else 1):
        assert mono.term(n) == power.term(n) == n**d
    assert mono.count_in(rng) == power.count_in(rng)
    assert mono.elements_in(rng) == power.elements_in(rng)
    assert mono.max_window_count(window_len, rng) == power.max_window_count(window_len, rng)
    assert mono.sparsity_report(3 * m_k * j, m_k) == power.sparsity_report(3 * m_k * j, m_k)
    assert mono.zero_density and power.zero_density
    assert mono._gaps_never_shrink() and power._gaps_never_shrink()


@settings(max_examples=400, deadline=None)
@given(prefix=st.sampled_from(["", "squares", "evens", "nlogn", "monomial:", "power:",
                               "list:", "primes:", "file"]),
       tail=st.one_of(st.text(max_size=20),
                      st.text(alphabet="0123456789/,:+-_ .", max_size=20)))
def test_parse_gives_spec_or_invalid_parameter(prefix, tail):
    text = prefix + tail
    assume(not text.strip().startswith("file:"))
    try:
        spec = SparseSetSpec.parse(text)
    except InvalidParameterError:
        return
    assert SparseSetSpec.parse(spec.describe()) == spec


def test_exponent_bound():
    assert SparseSetSpec.parse("power:101/100").gamma == Fraction(101, 100)
    assert SparseSetSpec.parse(f"monomial:{MAX_EXPONENT}").gamma == MAX_EXPONENT
    for text in (f"monomial:{MAX_EXPONENT + 1}", f"power:{MAX_EXPONENT + 1}/2",
                 "power:9999999/2"):
        with pytest.raises(InvalidParameterError, match="exceeds the bound"):
            SparseSetSpec.parse(text)
