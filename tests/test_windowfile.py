import pytest

from blockshift import (
    ChecksumError,
    InconsistencyError,
    VersionError,
    load_window,
    save_window,
)
from blockshift.realization import realize
from blockshift.windowfile import LINE_CELLS, checksum64


def _save(tmp_path, x, sched, name="w.bsw", depth=1):
    path = tmp_path / name
    save_window(path, x, alphabet=sched.alphabet, profile=sched.profile,
                depth=depth, m_list=[sched.m(k) for k in range(depth + 1)],
                sparse=sched.sparse.describe(), u="mu-indicator",
                fill="pillar-first-ltr,cycle-lex-restart@0", seed=0)
    return path


def test_roundtrip_depth1(tmp_path, sched2, mu_target, binary):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    wf = load_window(path)
    assert wf.window == x
    assert wf.window.to_text(binary) == "000000101100101"
    assert wf.m_list == (1, 15)
    assert wf.sparse == "squares"
    # byte-exact: re-render reproduces the file
    assert wf.render().encode() == path.read_bytes()


def test_roundtrip_depth2_byte_exact(tmp_path, x2, sched2):
    path = _save(tmp_path, x2, sched2, depth=2)
    raw = path.read_bytes()
    wf = load_window(path)
    assert wf.window == x2
    assert wf.render().encode() == raw
    # long payloads are chunked
    lines = raw.decode().split("\n")
    payload_lines = lines[lines.index("cells:") + 1: -2]
    assert all(len(l) <= LINE_CELLS for l in payload_lines)
    assert len(payload_lines) == (len(x2) + LINE_CELLS - 1) // LINE_CELLS


def test_stars_roundtrip(tmp_path, binary, sched2, mu_target, squares):
    from blockshift import init_partial

    x = init_partial(mu_target, squares, (-7, 7), binary)
    path = _save(tmp_path, x, sched2)
    wf = load_window(path)
    assert wf.window == x
    assert "*" in wf.window.to_text(binary)


def test_version_error(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    text = path.read_text().replace("BLOCKSHIFT/1", "BLOCKSHIFT/2", 1)
    path.write_text(text)
    with pytest.raises(VersionError):
        load_window(path)


def test_checksum_error(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = path.read_text().split("\n")
    idx = next(i for i, l in enumerate(lines) if l.startswith("cells:")) + 1
    lines[idx] = ("1" if lines[idx][0] == "0" else "0") + lines[idx][1:]
    path.write_text("\n".join(lines))
    with pytest.raises(ChecksumError):
        load_window(path)


def test_length_mismatch(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    text = path.read_text().replace("length: 15", "length: 16")
    path.write_text(text)
    with pytest.raises(InconsistencyError):
        load_window(path)


def test_alphabet_payload_mismatch(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = path.read_text().split("\n")
    idx = next(i for i, l in enumerate(lines) if l.startswith("cells:")) + 1
    payload = "2" + lines[idx][1:]
    lines[idx] = payload
    # keep the checksum consistent so the alphabet check is what fires
    for i, l in enumerate(lines):
        if l.startswith("checksum: "):
            lines[i] = "checksum: " + checksum64(payload)
    path.write_text("\n".join(lines))
    with pytest.raises(InconsistencyError):
        load_window(path)


def test_missing_header_key(tmp_path, sched2, mu_target):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = [l for l in path.read_text().split("\n") if not l.startswith("seed:")]
    path.write_text("\n".join(lines))
    with pytest.raises(InconsistencyError):
        load_window(path)


@pytest.mark.parametrize("key,value,message", [
    ("length", "abc", "header 'length': 'abc' is not an integer"),
    ("offset", "-7.5", "header 'offset': '-7.5' is not an integer"),
    ("depth", "one", "header 'depth': 'one' is not an integer"),
    ("seed", "", "header 'seed': '' is not an integer"),
    ("m-list", "1,a", "header 'm-list': 'a' is not an integer"),
    ("alphabet", "0", "header 'alphabet': alphabet needs at least 2 symbols"),
])
def test_bad_header_value(tmp_path, sched2, mu_target, key, value, message):
    x = realize(mu_target, sched2, 1)
    path = _save(tmp_path, x, sched2)
    lines = [f"{key}: {value}" if l.startswith(f"{key}: ") else l
             for l in path.read_text().split("\n")]
    path.write_text("\n".join(lines))
    with pytest.raises(InconsistencyError, match=message):
        load_window(path)
