import hashlib
import json
import re
import subprocess
import sys
from unittest import mock

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from blockshift import SparseSetSpec, cli, errors
from blockshift.cli import main
from blockshift.windowfile import checksum64


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_violation_exit(capsys):
    code, out, _ = run(capsys, "density", "--sparse", "evens", "--L", "15",
                       "--range", "1:1000")
    assert code == 3
    assert out.strip() == "max=8 quotient=0.5333 violates 1/(3·1)"


def test_density_pass(capsys):
    code, out, _ = run(capsys, "density", "--sparse", "squares", "--L", "15",
                       "--range", "1:1000000")
    assert code == 0
    assert out.startswith("max=3 quotient=0.2000 satisfies")


def test_schedule_table(capsys):
    code, out, _ = run(capsys, "schedule", "--alphabet", "01", "--sparse", "squares",
                       "--depth", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert any(l.startswith("1   15") and "exact:30826" in l for l in lines)
    assert any(l.startswith("2   1387215") and "log[" in l for l in lines)


def test_schedule_density_violation_exit(capsys):
    code, _, err = run(capsys, "schedule", "--sparse", "evens", "--depth", "1")
    assert code == 3
    assert "density violation" in err


def test_infeasible_depth_exit(capsys):
    code, _, err = run(capsys, "schedule", "--sparse", "squares", "--depth", "3")
    assert code == 3
    assert "faithful" in err


def test_density_power_past_float_range(capsys):
    # s_n = floor(n**1.01) needs n**101, beyond the float range from n = 1129
    code, out, err = run(capsys, "density", "--sparse", "power:101/100", "--L", "100",
                         "--range", "1000:2000")
    with mpmath.workdps(60):
        terms = [int(mpmath.floor(mpmath.mpf(n) ** mpmath.mpf("1.01")))
                 for n in range(1, 2000)]
    best = max(sum(a <= s < a + 100 for s in terms) for a in range(1000, 1902))
    assert (code, err) == (3, "")
    assert out.strip() == f"max={best} quotient={best / 100:.4f} violates 1/(3·1)"


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["density", "--sparse", "evens", "--L", "15", "--range", "bogus"]) == 2


def test_realize_verify_complexity(tmp_path, capsys):
    out_path = tmp_path / "d1.bsw"
    code, _, _ = run(capsys, "realize", "--sparse", "squares", "--depth", "1",
                     "--u", "mu-indicator", "--out", str(out_path))
    assert code == 0
    assert out_path.exists()

    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert "checksum      PASS" in out
    assert "realization   PASS" in out
    assert "admissibility PASS" in out

    code, out, _ = run(capsys, "complexity", str(out_path), "--nmax", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,distinct"
    assert out.splitlines()[1] == "1,2"


def test_verify_checksum_failure(tmp_path, capsys):
    out_path = tmp_path / "d1.bsw"
    run(capsys, "realize", "--sparse", "squares", "--depth", "1",
        "--u", "mu-indicator", "--out", str(out_path))
    text = out_path.read_text()
    lines = text.split("\n")
    idx = next(i for i, l in enumerate(lines) if l == "cells:") + 1
    lines[idx] = ("1" if lines[idx][0] == "0" else "0") + lines[idx][1:]
    out_path.write_text("\n".join(lines))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 1
    assert "checksum mismatch" in out


def test_verify_catches_mutation_with_checksum_fixed(tmp_path, capsys):
    # rewrite one cell AND recompute the checksum: realization must catch it
    from blockshift import load_window, save_window

    out_path = tmp_path / "d1.bsw"
    run(capsys, "realize", "--sparse", "squares", "--depth", "1",
        "--u", "mu-indicator", "--out", str(out_path))
    wf = load_window(out_path)
    cells = wf.window.cells.copy()
    cells[1 - wf.window.offset] ^= 1  # flip x(1), a square cell
    from blockshift import PartialWindow

    save_window(out_path, PartialWindow(wf.window.offset, cells),
                alphabet=wf.alphabet, profile=wf.profile, depth=wf.depth,
                m_list=wf.m_list, sparse=wf.sparse, u=wf.u, fill=wf.fill,
                seed=wf.seed)
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 1
    assert "realization   FAIL" in out


@pytest.mark.parametrize("key,value", [("length", "abc"), ("m-list", "1,a"),
                                       ("alphabet", "0")])
@pytest.mark.parametrize("command", ["verify", "complexity"])
def test_bad_header_value_exits_1(tmp_path, capsys, command, key, value):
    path = tmp_path / "d1.bsw"
    run(capsys, "realize", "--sparse", "squares", "--depth", "1",
        "--u", "mu-indicator", "--out", str(path))
    path.write_text(_with_header(path.read_text().split("\n"), {key: value}))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    if command == "verify":
        assert out.startswith("load      FAIL  header") and key in out
    else:
        assert err.startswith("error: header") and key in err


@pytest.fixture(scope="module")
def d1_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("d1") / "d1.bsw"
    assert main(["realize", "--sparse", "squares", "--depth", "1",
                 "--u", "mu-indicator", "--out", str(path)]) == 0
    return path.read_text().split("\n")


DENSITY = ["density", "--L", "15", "--range", "1:100"]
REALIZE = ["realize", "--sparse", "squares", "--depth", "1"]
# a burst of 11 elements far past [1, m_1]: a gate over every element sets m_1 = 39
BURST = [3, 50, *range(2000, 2011)]
BURST_LIST = "list:" + ",".join(map(str, BURST))
BURST_FILE = "# horizon: 5000\n" + "".join(f"{v}\n" for v in BURST)
BURST_REALIZE = ["realize", "--depth", "1", "--u", "text:0000000000000",
                 "--window", "1990:2020", "--out", "{dir}/x.bsw"]


def _with_header(lines, values):
    """The window file with the given header values replaced."""
    out = []
    for l in lines:
        key = l.partition(": ")[0]
        out.append(f"{key}: {values[key]}" if key in values else l)
    return "\n".join(out)


def _empty_payload(lines):
    """The depth-1 window file with no cells, `length: 0` and the empty checksum."""
    cells = lines.index("cells:")
    return "\n".join(["length: 0" if l.startswith("length: ") else l
                      for l in lines[:cells + 1]] + [f"checksum: {checksum64(b'')}", ""])


# A dict edit runs argv on the depth-1 window file with those header values;
# a callable edit maps that file's lines to the text of the input; a string
# or bytes edit is the content of the input.  "{file}" names the input and
# "{dir}" the directory holding it.  Each expected line is matched as a
# prefix: argparse words its list of choices differently across Python
# versions, and the OS words its error messages.
@pytest.mark.parametrize("edit,argv,code,line", [
    ({"profile": "bogus"}, ["verify", "{file}"], 1,
     "load      FAIL  header 'profile': unknown profile 'bogus'"),
    ({"profile": "bogus"}, ["complexity", "{file}"], 1,
     "error: header 'profile': unknown profile 'bogus'"),
    ({"sparse": "monomial:x"}, ["verify", "{file}"], 1,
     "load      FAIL  sparse-set spec 'monomial:x': 'x' is not an integer"),
    ("", DENSITY + ["--sparse", "monomial:x"], 2,
     "error: sparse-set spec 'monomial:x': 'x' is not an integer"),
    ("", DENSITY + ["--sparse", "power:abc"], 2,
     "error: sparse-set spec 'power:abc': 'abc' is not an integer"),
    ("", DENSITY + ["--sparse", "power:1/0"], 2,
     "error: sparse-set spec 'power:1/0': zero denominator"),
    ("", DENSITY + ["--sparse", "list:1,a"], 2,
     "error: sparse-set spec 'list:1,a': 'a' is not an integer"),
    ("", DENSITY + ["--sparse", "list:"], 2,
     "error: sparse-set spec 'list:': '' is not an integer"),
    ("1\n4\nx\n", DENSITY + ["--sparse", "file:{file}"], 2,
     "error: {file}:3: 'x' is not an integer"),
    ("# horizon: y\n1\n", DENSITY + ["--sparse", "file:{file}"], 2,
     "error: {file}:1: ' y' is not an integer"),
    ("", DENSITY + ["--sparse", "squares", "--mk", "0"], 2,
     "error: --mk must be >= 1, got 0"),
    ("", DENSITY + ["--sparse", "squares", "--mk", "-1"], 2,
     "error: --mk must be >= 1, got -1"),
    ("", ["schedule", "--sparse", "squares", "--depth", "1", "--profile", "bogus"], 2,
     "blockshift schedule: error: argument --profile: invalid choice: 'bogus'"),
    (b"1\n\xff\n", DENSITY + ["--sparse", "file:{file}"], 2,
     "error: {file}:2: '\ufffd' is not an integer"),
    (b"BLOCKSHIFT/1\n\xff\n", ["verify", "{file}"], 1,
     "load      FAIL  non-ASCII byte 0xff at offset 13"),
    (b"BLOCKSHIFT/1\n\xff\n", ["complexity", "{file}"], 1,
     "error: non-ASCII byte 0xff at offset 13"),
    (_empty_payload, ["verify", "{file}"], 1,
     "load      FAIL  empty payload: a window needs at least one cell"),
    (_empty_payload, ["complexity", "{file}"], 1,
     "error: empty payload: a window needs at least one cell"),
    ({"m-list": "1,14"}, ["verify", "{file}"], 1,
     "load      FAIL  header 'm-list': 14 is not an odd positive integer"),
    ({"m-list": "-1,15"}, ["complexity", "{file}"], 1,
     "error: header 'm-list': -1 is not an odd positive integer"),
    ({"offset": "0"}, ["verify", "{file}"], 1,
     "load      FAIL  window (0, 14) is not a union of level-1 blocks"),
    ({"offset": "0"}, ["complexity", "{file}"], 1,
     "error: window (0, 14) is not a union of level-1 blocks"),
    ({"depth": "0", "m-list": "1"}, ["verify", "{file}"], 1,
     "load      FAIL  depth must be >= 1"),
    ({"u": "file:{dir}"}, ["verify", "{file}"], 0,
     "realization   SKIP  target 'file:{dir}' unavailable"),
    (b"1\xff0\n", REALIZE + ["--u", "file:{file}", "--out", "{dir}/x.bsw"], 2,
     "error: symbol '\ufffd' not in alphabet '01'"),
    ("", ["verify", "{dir}"], 2, "error: [Errno 21] Is a directory: '{dir}'"),
    ("", REALIZE + ["--u", "mu-indicator", "--out", "{dir}"], 2,
     "error: [Errno 21] Is a directory: '{dir}'"),
    ("", REALIZE + ["--u", "file:{dir}", "--out", "{file}"], 2,
     "error: [Errno 21] Is a directory: '{dir}'"),
    ("", DENSITY + ["--sparse", "file:{dir}"], 2,
     "error: [Errno 21] Is a directory: '{dir}'"),
    ("", DENSITY + ["--sparse", "power:9999999/2"], 2,
     "error: power exponent 9999999 exceeds the bound 1000"),
    ("", ["schedule", "--alphabet", "01", "--sparse", "nlogn", "--depth", "2"], 3,
     "error: no candidate for m_2 within the caps: the smallest is 342635036076524313, "
     "value cap 1099511627776"),
    ("", ["schedule", "--alphabet", "0+-", "--sparse", "monomial:3", "--depth", "3",
          "--profile", "fast"], 0,
     "3   29295        exact:6356-digit,ln=14634.5472   len=29295,sha256-64="),
    ("", ["schedule", "--alphabet", "0+-", "--sparse", "squares", "--depth", "4",
          "--profile", "fast"], 3,
     "error: no candidate for m_4 passes the sparsity gate within the value cap "
     "1099511627776 (1 tried); the next is 1328120888985"),
    ("", ["schedule", "--alphabet", "0+-", "--sparse", "power:7/4", "--depth", "3",
          "--profile", "fast"], 3,
     "error: cannot build w_3: window of 13183777215 cells exceeds the 2147483648-cell limit"),
    ("", ["schedule", "--alphabet", "01", "--sparse", "power:3/2", "--depth", "2"], 3,
     "error: cannot build w_2: |A_1| = exact:8439258405 is not enumerable"),
    ({"offset": "3", "m-list": "1,5"}, ["verify", "{file}"], 1,
     "admissibility SKIP  m-list differs from the rebuilt schedule"),
    ("", ["density", "--sparse", "squares", "--L", "15", "--range", "-5:40"], 0,
     "max=3 quotient=0.2000 satisfies 1/(3·1)"),
    ("", REALIZE + ["--u", "mu-indicator", "--window", "-5:40", "--out", "{dir}/x.bsw"], 0,
     "wrote {dir}/x.bsw: offset=-7 length=60"),
    ("", REALIZE + ["--u", "mu-indicator", "--cycle-start", "99999999999999999999",
                    "--out", "{dir}/x.bsw"], 0,
     "wrote {dir}/x.bsw: offset=-7 length=15"),
    ("", ["schedule", "--sparse", BURST_LIST, "--depth", "1"], 0,
     "1   39           exact:543240464643"),
    ("", ["schedule", "--sparse", BURST_LIST, "--depth", "1"], 0, "verified-range: -19:1033"),
    ("", BURST_REALIZE + ["--sparse", BURST_LIST], 0, "wrote {dir}/x.bsw: offset=1970 length=78"),
    (BURST_FILE, ["schedule", "--sparse", "file:{file}", "--depth", "1"], 0,
     "verified-range: -19:1033"),
    (BURST_FILE, BURST_REALIZE + ["--sparse", "file:{file}"], 0,
     "wrote {dir}/x.bsw: offset=1970 length=78"),
    ("", ["realize", "--alphabet", "01", "--sparse", "nlogn", "--depth", "1",
          "--u", "mu-indicator", "--window", "1000000000000:1000000000100",
          "--out", "{dir}/x.bsw"], 0,
     "wrote {dir}/x.bsw: offset=999999999962 length=153"),
    # n = 1.5e9: mu from one segment of indices, not a sieve of 1..2n
    ("", ["realize", "--alphabet", "01", "--sparse", "squares", "--depth", "1",
          "--u", "mu-indicator", "--window", "2250000000000000000:2250000000000000100",
          "--out", "{dir}/x.bsw"], 0,
     "wrote {dir}/x.bsw: offset=2249999999999999993 length=120"),
    # n = 2**44: the primes up to sqrt(n) would pass the table bound of mobius_segment
    ("", ["realize", "--alphabet", "01", "--sparse", "squares", "--depth", "1",
          "--u", "mu-indicator", "--window", f"{2**88}:{2**88 + 100}",
          "--out", "{dir}/x.bsw"], 2,
     "error: Mobius segment up to 17592186044416 reaches the index bound 17592186044416, "
     "from which on its prime table would exceed 4194304 entries"),
    # each term is a 999th root of n**1000, taken by Newton steps from the float root
    ("", ["schedule", "--sparse", "power:1000/999", "--depth", "1"], 3,
     "error: no candidate for m_1 passes the sparsity gate within the value cap "
     "1099511627776 (23 tried); the next is 1221048436179"),
    # n = 2**44 - 10: the segment ends at the index bound, below the n = 2**44 row above
    ("", ["realize", "--alphabet", "01", "--sparse", "squares", "--depth", "1",
          "--u", "mu-indicator", "--window", f"{(2**44 - 10)**2}:{(2**44 - 10)**2 + 100}",
          "--out", "{dir}/x.bsw"], 0,
     "wrote {dir}/x.bsw: offset=309485009820993225003892823 length=120"),
    # a target shorter than the window's 2 constraints fails one row; the rest still run
    ({"u": "text:0"}, ["verify", "{file}"], 1,
     "realization   FAIL  target sequence 'text:0' has 1 terms, u(2) requested"),
    ({"u": "text:0"}, ["verify", "{file}"], 1,
     "minimality    PASS  pillar-containment k=0:ok"),
    # N is checked before the depth-3 schedule is built and its window filled
    ("", ["demo-sarnak", "--profile", "fast", "--depth", "3", "--N", "-3"], 2,
     "error: N must be >= 1"),
    ("", REALIZE + ["--u", "foo", "--out", "{dir}/x.bsw"], 2,
     "error: cannot parse target sequence 'foo'"),
])
def test_bad_input_exit_code(tmp_path, capsys, d1_lines, edit, argv, code, line):
    path = tmp_path / "input"
    if isinstance(edit, dict):
        edit = _with_header(d1_lines, {k: v.format(dir=tmp_path) for k, v in edit.items()})
    elif callable(edit):
        edit = edit(d1_lines)
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        path.write_text(edit)
    got, out, err = run(capsys, *(a.format(file=path, dir=tmp_path) for a in argv))
    assert got == code
    assert "Traceback" not in err
    stream = err if "error:" in line else out
    assert any(l.startswith(line.format(file=path, dir=tmp_path))
               for l in stream.splitlines())


def test_verify_fails_a_partially_defined_window(tmp_path, capsys, d1_lines):
    """A star off S, with the checksum fixed, leaves block 0 partially
    defined: admissibility fails on it and minimality is skipped."""
    cells = d1_lines.index("cells:") + 1
    payload = "*" + d1_lines[cells][1:]  # coordinate -7, not a square
    path = tmp_path / "star.bsw"
    path.write_text("\n".join(d1_lines[:cells] + [
        payload, f"checksum: {checksum64(payload.encode())}", ""]))
    code, out, _ = run(capsys, "verify", str(path))
    rows = {l[:14].rstrip(): (l[14:20].rstrip(), l[20:]) for l in out.splitlines()}
    assert code == 1
    assert rows["realization"][0] == "PASS"
    assert rows["admissibility"][0] == "FAIL"
    assert rows["admissibility"][1].endswith(" [block 0 partially defined]")
    assert rows["minimality"] == ("SKIP", "window not fully defined")


# The density-scan calls of the benchmark, plus one range the element scan
# could never finish: rule kinds answer them without listing elements.
@pytest.mark.parametrize("sparse,L,rng,code,line", [
    ("nlogn", "3000", "1:10000000", 0, "max=484 quotient=0.1613 satisfies 1/(3·1)"),
    ("power:3/2", "3000", "1:100000000", 0, "max=208 quotient=0.0693 satisfies 1/(3·1)"),
    ("squares", "4000", "1:10000000000", 0, "max=63 quotient=0.0158 satisfies 1/(3·1)"),
    ("evens", "15", "1:2000000", 3, "max=8 quotient=0.5333 violates 1/(3·1)"),
    ("nlogn", "3000", "1:10000000000", 0, "max=484 quotient=0.1613 satisfies 1/(3·1)"),
])
def test_density_lists_no_elements(monkeypatch, capsys, sparse, L, rng, code, line):
    def refuse(self, interval):
        raise AssertionError(f"elements_in{interval} called")

    monkeypatch.setattr(SparseSetSpec, "elements_in", refuse)
    got = run(capsys, "density", "--sparse", sparse, "--L", L, "--range", rng)
    assert got == (code, line + "\n", "")


# The documented exit status of each library error class, written out here
# so that the test does not read it back from errors.py.
EXIT_CODES = {
    "BlockshiftError": 2, "InvalidParameterError": 2, "IncompleteDataError": 2,
    "WindowRangeError": 2, "EmptyCoreError": 2,
    "WindowFormatError": 1, "VersionError": 1, "ChecksumError": 1,
    "InconsistencyError": 1, "DensityViolation": 3, "InfeasibleDepth": 3,
    "ConstructionInvariantError": 4,
}


def _error_classes(cls=errors.BlockshiftError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_every_error_class_exit_code(monkeypatch, capsys, cls):
    exc = cls(1, (0, 14), 8, 5) if cls is errors.DensityViolation else cls("boom")

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_density", raise_it)
    code, out, err = run(capsys, *DENSITY, "--sparse", "squares")
    assert (code, out, err) == (EXIT_CODES[cls.__name__], "", f"error: {exc}\n")


def test_out_of_memory_exits_3(capsys):
    """A failed allocation is reported like an infeasible depth, not as a
    traceback with the exit status of a verification failure."""
    oom = MemoryError("Unable to allocate 64.8 MiB for an array with shape (8489366,)")
    with mock.patch.object(cli, "build_schedule", side_effect=oom):
        code, out, err = run(capsys, "schedule", "--alphabet", "0+-", "--sparse", "squares",
                             "--depth", "2")
    assert (code, out, err) == (3, "", f"error: out of memory: {oom}\n")


def test_demo_json_deterministic(capsys):
    code, out1, _ = run(capsys, "demo-sarnak", "--depth", "1", "--N", "2",
                        "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "demo-sarnak", "--depth", "1", "--N", "2",
                        "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["report"]["exact_identity"] is True
    assert doc["report"]["averages"][-1] == {
        "N": 2, "numerator": 1, "denominator": 2, "value": 0.5,
    }


def test_demo_csv(capsys):
    code, out, _ = run(capsys, "demo-sarnak", "--depth", "1", "--N", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "N,numerator,denominator,value"
    assert out.splitlines()[-1] == "2,1,2,0.5"


def test_realize_past_the_verified_range(tmp_path, capsys):
    """A window far past the verified range realizes and verifies with no
    second sparsity certificate: the schedule was gated over all of N."""
    path = tmp_path / "far.bsw"
    code, _, _ = run(capsys, "realize", "--alphabet", "01", "--sparse", "squares", "--depth",
                     "2", "--u", "mu-indicator", "--window", "1000000000000:1000000100000",
                     "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "95fd2a96e275112fbbddda55328e73dc4268a7dc7024ef6e015928f9e3396305")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert [l[:20] for l in out.splitlines()] == [
        f"{name:<14}PASS  " for name in
        ("checksum", "m-list", "realization", "admissibility", "minimality")]


def test_realize_mu_at_ten_to_the_ten(tmp_path, capsys):
    """mu(10**10) needs one segment of indices with primes up to 10**5, far
    below the 2**44 index bound (the 2**44 side is a row of
    test_bad_input_exit_code)."""
    path = tmp_path / "mu.bsw"
    code, out, err = run(capsys, "realize", "--alphabet", "01", "--sparse", "squares",
                         "--depth", "1", "--u", "mu-indicator", "--window",
                         "100000000000000000000:100000000000000000100", "--out", str(path))
    assert (code, err) == (0, "")
    assert out == f"wrote {path}: offset=99999999999999999998 length=105\n"
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    assert [l[:20] for l in out.splitlines()] == [
        f"{name:<14}{status}  " for name, status in
        (("checksum", "PASS"), ("m-list", "PASS"), ("realization", "PASS"),
         ("admissibility", "PASS"), ("minimality", "SKIP"))]


# Pieces of a fuzzed target: alphabet symbols, '*', whitespace of each kind
# (str.split drops it from a file: target, not from a text: one), non-ASCII
# symbols and, in a file, an undecodable 0xff byte and a UTF-8 BOM.
_TEXT_PIECES = ["0", "1", "*", " ", "\t", "\r", "\r\n", "\n", "\u00e9", "\u3000", "\ufeff"]
_FILE_PIECES = [p.encode() for p in _TEXT_PIECES] + [b"\xff", b"\xef\xbb\xbf"]
_TARGET_ERROR = re.compile(r"error: (symbol .+ not in alphabet '01'"
                           r"|target sequence .+ has \d+ terms, u\(\d+\) requested)\n",
                           re.DOTALL)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.lists(st.sampled_from(_TEXT_PIECES), max_size=8).map(lambda p: "text:" + "".join(p)),
    st.lists(st.sampled_from(_FILE_PIECES), max_size=8).map(b"".join)))
@example("text:0110")
@example(b"0 1\r\n1\t0\n")
@example("text:")
@example(b"\xef\xbb\xbf01")
def test_fuzzed_target_realizes_or_exits_2(tmp_path, capsys, target):
    """A text: or file: target either realizes a window that verifies, or
    exits 2 naming the stray symbol or the missing term."""
    if isinstance(target, bytes):
        source = tmp_path / "u.txt"
        source.write_bytes(target)
        target = f"file:{source}"
    path = tmp_path / "x.bsw"
    code, _, err = run(capsys, "realize", "--alphabet", "01", "--sparse", "squares",
                       "--depth", "1", "--u", target, "--out", str(path))
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert _TARGET_ERROR.fullmatch(err), err
    else:
        assert run(capsys, "verify", str(path))[0] == 0


def test_realize_with_text_target(tmp_path, capsys):
    out_path = tmp_path / "t.bsw"
    code, _, _ = run(capsys, "realize", "--sparse", "list:2,6", "--depth", "1",
                     "--u", "text:10", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0


def test_realize_window_past_int64(tmp_path, capsys):
    """A window whose coordinates pass 2**63 fills on window-local offsets,
    and its file verifies."""
    for depth in ("1", "2"):
        path = tmp_path / f"d{depth}.bsw"
        code, _, err = run(capsys, "realize", "--alphabet", "01", "--sparse",
                           "list:9223372036854775809", "--depth", depth, "--u", "text:1",
                           "--window", "9223372036854775800:9223372036854775900",
                           "--out", str(path))
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        rows = {l[:14].strip(): l[14:20].strip() for l in out.splitlines()}
        assert rows == {"checksum": "PASS", "m-list": "PASS", "realization": "PASS",
                        "admissibility": "PASS",
                        "minimality": "SKIP" if depth == "1" else "PASS"}


def first_call(*argv):
    """(exit code, stdout, stderr) of argv as the first CLI call of a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-m", "blockshift", *argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_later_realize_writes_the_central_block_again(tmp_path, capsys):
    """The parser is built once a process: a --window of one call does not
    carry into the next, which writes the central block as a fresh run
    does."""
    path = tmp_path / "x.bsw"
    realize_argv = ("realize", "--sparse", "squares", "--depth", "1", "--u", "mu-indicator",
                    "--out", str(path))
    assert run(capsys, *realize_argv, "--window", "1:1000")[0] == 0
    later = run(capsys, *realize_argv)
    later_bytes = path.read_bytes()
    assert first_call(*realize_argv) == later and path.read_bytes() == later_bytes


def test_later_calls_print_as_first_calls(monkeypatch, capsys):
    """A usage error, a valid call and a --help in one process each give
    the stdout, stderr and exit code of a first call."""
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the terminal width
    calls = [("density", "--sparse", "evens", "--L", "15", "--range", "bogus"),
             ("density", "--sparse", "squares", "--L", "15", "--range", "1:1000"),
             ("schedule", "--help")]
    later = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in later] == [2, 0, 0]
    assert later == [first_call(*argv) for argv in calls]


SUBCOMMAND_ARGV = {
    "schedule": ["--sparse", "squares", "--depth", "1"],
    "realize": ["--sparse", "squares", "--depth", "1", "--u", "mu-indicator", "--out", "x.bsw"],
    "verify": ["x.bsw"],
    "complexity": ["x.bsw"],
    "demo-sarnak": [],
    "density": ["--sparse", "evens", "--L", "15", "--range", "1:100"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_ARGV)
def test_handler_is_looked_up_per_call(monkeypatch, capsys, command):
    """Once the parser is built, a handler patched into the module is the
    one that runs."""
    run(capsys, "--help")
    seen = []
    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(args.command) or 7)
    assert run(capsys, command, *SUBCOMMAND_ARGV[command]) == (7, "", "")
    assert seen == [command]
