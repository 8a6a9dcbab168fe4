import hashlib
import math
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockshift import (
    Alphabet,
    InvalidParameterError,
    PartialWindow,
    aligned_block_census,
    complexity_profile,
    corrected_constant,
    decay_report,
    entropy_bound_series,
    minimality_witnesses,
    positive_density_bound,
    realization_forced_count,
    save_window,
    window_admissibility_report,
)
from blockshift.cli import main


def naive_distinct(text, n):
    return len({text[i:i + n] for i in range(len(text) - n + 1)})


def test_complexity_examples(binary):
    rep = complexity_profile(PartialWindow(0, binary.cells_of_text("0101")), 2)
    assert rep.counts == {1: 2, 2: 2}
    w1 = PartialWindow(0, binary.cells_of_text("000000000000001"))
    rep2 = complexity_profile(w1, 2)
    assert rep2.counts[2] == 2  # subwords "00" and "01" only


def test_complexity_rejects_stars(binary):
    with pytest.raises(InvalidParameterError):
        complexity_profile(PartialWindow(0, binary.cells_of_text("0*1")), 1)


SYMBOLS = "0123456789abcdefghij"


@st.composite
def texts_with_nmax(draw):
    """A text over 2, 3, 7 or 20 symbols and an n_max up to its length.

    Half the texts repeat a short pattern with a few point changes, so
    long words recur and the sort keeps equal prefixes past the first
    key word (widths 63, 31, 21 and 12 digits for these alphabets).
    """
    symbols = SYMBOLS[:draw(st.sampled_from([2, 3, 7, 20]))]
    if draw(st.booleans()):
        text = draw(st.text(alphabet=symbols, min_size=1, max_size=120))
    else:
        pattern = draw(st.text(alphabet=symbols, min_size=1, max_size=8))
        length = draw(st.integers(min_value=1, max_value=120))
        cells = list((pattern * length)[:length])
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            cells[draw(st.integers(0, length - 1))] = draw(st.sampled_from(symbols))
        text = "".join(cells)
    return symbols, text, draw(st.integers(min_value=1, max_value=len(text)))


@settings(max_examples=300, deadline=None)
@given(texts_with_nmax())
def test_complexity_matches_naive(case):
    symbols, text, n_max = case
    rep = complexity_profile(PartialWindow(0, Alphabet(symbols).cells_of_text(text)), n_max)
    assert list(rep.counts) == list(range(1, n_max + 1))
    assert rep.counts == {n: naive_distinct(text, n) for n in range(1, n_max + 1)}


@st.composite
def raw_cells_with_nmax(draw):
    """Raw cells in 0..254 and an n_max up to 60.

    The largest cell sets the digit width, from 1 bit (all zeros, 63
    digits a key word) to 8 bits (7 digits a key word), so n_max up to 60
    reaches up to nine key words.  Half the windows repeat a short
    pattern with a few point changes, so adjacent sorted keys agree past
    their first words and pairs told apart early are marked in later ones.
    """
    symbols = draw(st.lists(st.integers(0, 254), min_size=1, max_size=6, unique=True))
    length = draw(st.integers(min_value=1, max_value=160))
    if draw(st.booleans()):
        cells = draw(st.lists(st.sampled_from(symbols), min_size=length, max_size=length))
    else:
        pattern = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=9))
        cells = (pattern * length)[:length]
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            cells[draw(st.integers(0, length - 1))] = draw(st.sampled_from(symbols))
    return bytes(cells), draw(st.integers(min_value=1, max_value=min(60, length)))


@settings(max_examples=300, deadline=None)
@given(raw_cells_with_nmax())
def test_complexity_matches_naive_on_raw_cells(case):
    cells, n_max = case
    rep = complexity_profile(PartialWindow(0, list(cells)), n_max)
    assert rep.counts == {n: naive_distinct(cells, n) for n in range(1, n_max + 1)}


def point_changed(pattern, length, changes, seed):
    """``pattern`` repeated to ``length`` cells, with ``changes`` random cells
    set to a random symbol of the pattern, so long words recur."""
    rng = np.random.default_rng(seed)
    cells = list((pattern * length)[:length])
    for i in rng.integers(0, length, changes):
        cells[i] = pattern[rng.integers(len(pattern))]
    return "".join(cells)


@pytest.mark.parametrize("symbols,text,n_max", [
    # n_max = N: the only full key starts at 0, and every other start is
    # one of the last n_max - 1
    ("01", "0", 1), ("01", "01", 2), ("01", "0110100110010110", 16),
    ("01", "1" * 40 + "0", 41),
    ("01", point_changed("0010111", 80, 3, 0), 80),  # two key words
    ("0123456", point_changed("0123", 30, 2, 1), 30),  # 3 bits a digit: two key words
    # 32 binary digits fill one uint32 key word; 33 take a uint64 one
    *[("01", point_changed("00101110111", 400, 4, seed), n_max)
      for seed in range(3) for n_max in (32, 33)],
    # an all-zero window: top = 0, and a digit takes one bit
    ("01", "0" * 100, 70),
    # the last cells hold words found nowhere earlier
    ("01", "01" * 30 + "11100", 20), ("01", "0" * 64 + "1", 64),
    ("01", "01" * 50 + "1", 70),  # a tail agrees with full keys past their first word
    ("0+-", "0+" * 40 + "--+-", 24),
    ("0123456", point_changed("0123", 60, 2, 2) + "6655", 30),
])
def test_complexity_keys_and_the_starts_without_one(symbols, text, n_max):
    rep = complexity_profile(PartialWindow(0, Alphabet(symbols).cells_of_text(text)), n_max)
    assert rep.counts == {n: naive_distinct(text, n) for n in range(1, n_max + 1)}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([3, 7, 8, 9, 15, 16, 17, 23]), st.integers(1, 40),
       st.integers(-3, 3), st.data())
def test_aligned_count_matches_census(m, blocks, shift, data):
    # copies of one row, each with at most one cell changed, so equal rows
    # recur and unequal ones can differ in any one cell.  The cells lie in
    # 0..254 (8-bit rows: one code a row up to 8 cells, a lexsort of 8-byte
    # words past that) or among 2-4 values of 0..3 (rows of at most 46
    # bits: one code a row at every width here)
    if data.draw(st.booleans()):
        values = range(255)
    else:
        values = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))
    row = data.draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))
    cells = []
    for _ in range(blocks):
        copy = list(row)
        copy[data.draw(st.integers(0, m - 1))] = data.draw(
            st.sampled_from([row[0], min(values), max(values)]))
        cells += copy
    x = PartialWindow(shift * m - (m - 1) // 2, cells)
    rep = complexity_profile(x, 1, aligned_lengths=(m,))
    assert rep.aligned == {m: len(aligned_block_census(x, m))}


def traced_profile(x):
    """complexity_profile(x, 24, aligned_lengths=(15,)) and its traced peak."""
    tracemalloc.start()
    try:
        return complexity_profile(x, 24, aligned_lengths=(15,)), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complexity_holds_the_keys_and_little_more():
    """The key words are built from the cells in place, and the aligned
    blocks are counted by one sort of their row codes: the traced peak
    of a one-key-word profile of a 4 M-cell window stays below 8.5 bytes
    a cell (its uint64 keys, and chunk-sized temporaries)."""
    n = 4_000_005  # 266 667 aligned 15-blocks
    x = PartialWindow(-7, np.random.default_rng(0).integers(0, 3, n, dtype=np.uint8))
    rep, peak = traced_profile(x)
    assert rep.counts[1] == 3 and rep.counts[24] <= n - 23
    assert rep.aligned == {15: len(aligned_block_census(x, 15))}
    assert peak < 8.5 * n


def test_binary_complexity_holds_four_byte_keys_and_little_more():
    """A binary digit takes one bit, so 24 of them fit one uint32 key word:
    the traced peak of the profile of a 4 M-cell binary window stays below
    4.5 bytes a cell (its uint32 keys, and chunk-sized temporaries)."""
    n = 4_000_005
    x = PartialWindow(-7, np.random.default_rng(0).integers(0, 2, n, dtype=np.uint8))
    rep, peak = traced_profile(x)
    assert rep.counts[1] == 2 and rep.counts[24] <= n - 23
    assert rep.aligned == {15: len(aligned_block_census(x, 15))}
    assert peak < 4.5 * n


@settings(max_examples=40)
@given(st.text(alphabet="01", min_size=4, max_size=80))
def test_complexity_growth_bound(text):
    ab = Alphabet("01")
    rep = complexity_profile(PartialWindow(0, ab.cells_of_text(text)), min(6, len(text) - 1))
    for n in range(1, max(rep.counts)):
        assert rep.counts[n + 1] <= 2 * rep.counts[n]
        assert rep.counts[n] <= min(2**n, len(text) - n + 1)


def save_d2(path, x2, sched2):
    save_window(path, x2, alphabet=sched2.alphabet, profile="faithful", depth=2,
                m_list=[sched2.m(k) for k in range(3)], sparse="squares",
                u="mu-indicator", fill="pillar-first-ltr,cycle-lex-restart@0")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9b84f64b957270266c5627363082b1ee43b4a717a5cd3ffb5ceb9074ba37e0f5")


def test_complexity_frozen_output_bytes(tmp_path, capsys, x2, sched2):
    path = tmp_path / "d2.bsw"
    save_d2(path, x2, sched2)
    expected = {  # --nmax 70 takes two key words and 69 starts with no full key
        ("24", "csv"): "9730435b7d087e9fa7bf8aa7f4ae72ebebd7e3fc3a8cbe6c116c39fbd47edb34",
        ("24", "json"): "1b35b7f1a6b81c955aad02219eefd691ad2e1831740b46618036a5743d426cac",
        ("70", "csv"): "72ef0c65db1fae4cbd71a247598f84f664f3d9bff1a46eb210be8e44a6531301",
    }
    for (n_max, fmt), digest in expected.items():
        capsys.readouterr()
        assert main(["complexity", str(path), "--nmax", n_max, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (8 << 30, resource.RLIM_INFINITY))


def test_complexity_past_memory_exits_3_at_once(tmp_path, x2, sched2):
    """--nmax 1387215 on the d2 file needs 22 020 key words a cell (228
    GiB), asked for in one allocation before any is packed, so the CLI
    reports it at once.  The child's address space is capped at 8 GiB, so
    the request fails whatever the system's overcommit policy."""
    path = tmp_path / "d2.bsw"
    save_d2(path, x2, sched2)
    proc = subprocess.run([sys.executable, "-m", "blockshift", "complexity", str(path),
                           "--nmax", "1387215"], capture_output=True, text=True,
                          timeout=10, preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: out of memory: ") and "Traceback" not in proc.stderr


def test_complexity_fallback_path(binary):
    # a binary uint64 key word holds 63 digits, so n_max = 70 takes two key
    # words and the lexsort path
    text = "01" * 40
    rep = complexity_profile(PartialWindow(0, binary.cells_of_text(text)), 70)
    for n in (63, 64, 70):  # the last length of the first key word, two of the second
        assert rep.counts[n] == naive_distinct(text, n)


def test_depth2_complexity_at_block_length(x2, sched2):
    rep = complexity_profile(x2, 15, aligned_lengths=(15,))
    a1 = {row.tobytes() for row in sched2.words(1)}
    census = aligned_block_census(x2, 15)
    assert set(census) <= a1
    # aligned blocks realize exactly A_1; straddling positions add more
    assert rep.aligned[15] == 30826
    assert 30826 <= rep.counts[15] <= 30826 + 14 * 92481
    assert rep.counts[1] == 2


def test_census_counts(x2):
    census = aligned_block_census(x2, 15)
    assert sum(census.values()) == 92481
    w1 = bytes(b"\x00" * 14 + b"\x01")
    assert census[w1] >= 30827


def test_entropy_bound_series_values(sched2):
    series = dict(entropy_bound_series(sched2, 20))
    assert series[1] == pytest.approx(math.log(15) / 15 + 1.5, abs=1e-9)
    assert series[1] == pytest.approx(1.68054, abs=1e-5)
    assert series[2] == pytest.approx(
        math.log(1387215) / 1387215 + 2 * 0.5625, abs=1e-9
    )
    assert series[2] == pytest.approx(1.12501, abs=1e-5)
    assert series[20] == pytest.approx(0.006352, abs=1e-5)
    assert series[20] < 0.01
    for k in range(2, 20):
        assert series[k + 1] < series[k]


def test_corrected_constant_binary(sched2):
    b1 = math.log(30826) / 15
    assert corrected_constant(sched2) == pytest.approx(max(1.0, 4 * b1 / 3), rel=1e-12)
    assert corrected_constant(sched2) == 1.0  # (4/3) * 0.6891 < 1


def test_decay_report(sched2):
    rep = decay_report(sched2)
    assert rep["C_corrected"] == 1.0
    rows = {r["k"]: r for r in rep["levels"]}
    assert rows[1]["corrected_holds"] and rows[2]["corrected_holds"]
    # the naive constant ln|A| = ln 2 fails the k=1 step for binary alphabets
    assert not rows[1]["naive_holds"]


def test_minimality_on_depth2(x2, sched2):
    rep = minimality_witnesses(window_admissibility_report(x2, sched2, 2), sched2)
    assert rep.ok
    names = {name: (status, detail) for name, status, detail in rep.checks}
    assert names["pillar-containment k=0"][0] == "ok"
    assert names["pillar-containment k=1"][0] == "ok"
    assert names["gap-bound k=1"][0] == "ok"
    assert names["pillar-coverage k=1"][0] == "ok"


def test_minimality_fails_on_constant_window(binary, sched2):
    allones = PartialWindow(-7, binary.cells_of_text("1" * 15))
    rep = minimality_witnesses(window_admissibility_report(allones, sched2, 1), sched2)
    assert not rep.ok
    statuses = dict((n, s) for n, s, _ in rep.checks)
    assert statuses["pillar-containment k=0"] == "fail"


def test_w2_coverage_positional(sched2):
    # blocks 61657..92481 of w_2 enumerate A_1 minus its first word, ascending
    w2 = sched2.pillar(2).tobytes()
    words = [row.tobytes() for row in sched2.words(1)]
    copies = 92481 - 30826 + 1
    for t in (0, 1, copies - 1):
        assert w2[15 * t: 15 * (t + 1)] == words[0]
    for t in (0, 1, 30824):
        chunk = w2[15 * (copies + t): 15 * (copies + t + 1)]
        assert chunk == words[t + 1]


def test_positive_density_bound_values():
    assert positive_density_bound("1/2", 2) == pytest.approx(0.17329, abs=1e-5)
    assert positive_density_bound(1, 2) == pytest.approx(math.log(2) / 2, rel=1e-12)
    assert positive_density_bound("1/1000000", 2) < 1e-6  # continuity at zero
    with pytest.raises(InvalidParameterError):
        positive_density_bound(0, 2)
    with pytest.raises(InvalidParameterError):
        positive_density_bound("1/2", 1)


def test_realization_forced_count():
    assert realization_forced_count(15, 7) == 128
    assert realization_forced_count(15, 7) > 2 ** (15 * 0.5 / 2)
    assert realization_forced_count(10, 3, alphabet_size=3) == 27
    with pytest.raises(InvalidParameterError):
        realization_forced_count(5, 9)
