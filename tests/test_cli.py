import json

import mpmath
import pytest

from blockshift.cli import main


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
    lines = [f"{key}: {value}" if l.startswith(f"{key}: ") else l
             for l in path.read_text().split("\n")]
    path.write_text("\n".join(lines))
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


# A (key, value) edit runs argv on the depth-1 window file with that header
# value; a string edit is the text of the file.  "{file}" names the file.
# Each expected line is matched as a prefix: argparse words its list of
# choices differently across Python versions.
@pytest.mark.parametrize("edit,argv,code,line", [
    (("profile", "bogus"), ["verify", "{file}"], 1,
     "load      FAIL  header 'profile': unknown profile 'bogus'"),
    (("profile", "bogus"), ["complexity", "{file}"], 1,
     "error: header 'profile': unknown profile 'bogus'"),
    (("sparse", "monomial:x"), ["verify", "{file}"], 1,
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
])
def test_bad_input_exit_code(tmp_path, capsys, d1_lines, edit, argv, code, line):
    path = tmp_path / "input"
    if isinstance(edit, tuple):
        key, value = edit
        path.write_text("\n".join(f"{key}: {value}" if l.startswith(f"{key}: ") else l
                                  for l in d1_lines))
    else:
        path.write_text(edit)
    got, out, err = run(capsys, *(a.format(file=path) for a in argv))
    assert got == code
    stream = out if "FAIL" in line else err
    assert any(l.startswith(line.format(file=path)) for l in stream.splitlines())


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


def test_realize_with_text_target(tmp_path, capsys):
    out_path = tmp_path / "t.bsw"
    code, _, _ = run(capsys, "realize", "--sparse", "list:2,6", "--depth", "1",
                     "--u", "text:10", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
