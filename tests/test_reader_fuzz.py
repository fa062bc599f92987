"""The file readers on arbitrary bytes and on near-valid files: each returns
the same object as its line-by-line reference in genutil, or raises the same
exception type with the same message, which starts with the file's path.
Block sizes down to one line move every block boundary through the inputs."""

import os
import tracemalloc

import numpy as np
import pytest
from genutil import reference_read_distribution, reference_read_poset
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posetdist import Distribution, PosetError, make_matching, read_distribution, read_poset
from posetdist import cli, poset, prob
from posetdist.poset import KINDS, MAX_DOMAIN


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _outcome(reader, path):
    try:
        return reader(path)
    except (PosetError, ValueError) as exc:
        return exc


def _key(out):
    if isinstance(out, Exception):
        return type(out), str(out)
    if isinstance(out, Distribution):
        return out.probs.tobytes()
    return out.n, out.kind, out.edge_array.shape, out.edge_array.tobytes(), out.bottom


def _same(reader, reference, path, block: int):
    """reader with blocks of `block` characters agrees with reference on path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prob, "READ_BLOCK", block)
        got = _outcome(reader, path)
    want = _outcome(reference, path)
    assert _key(got) == _key(want)
    if isinstance(got, Exception):
        assert type(got) in (PosetError, ValueError), repr(got)
        assert str(got).startswith(str(path)), str(got)
    return got


def _check(reader, reference, directory, data: bytes, block: int):
    path = os.path.join(directory, "input")
    with open(path, "wb") as fh:
        fh.write(data)
    _same(reader, reference, path, block)


_block = st.sampled_from([1, 2, 7, 40, prob.READ_BLOCK])
_sep = st.sampled_from([b"\n", b"\r\n", b"\r"])
# Whitespace inside a line: str.split and str.strip take all of it, and a
# reader must not take any of it for a line end.
_space = st.sampled_from([" ", " ", "  ", "\t", "\x0c", "\x0b", "\x85", " ", "\x1c"])


def _lines(line: st.SearchStrategy) -> st.SearchStrategy:
    """Lines joined by '\\n', '\\r\\n' or '\\r', with a stray non-UTF-8 byte now and then."""
    noise = st.sampled_from([b"", b"", b"", b"\xff", b"\xc3", b"\xe2\x82"])
    piece = st.tuples(line.map(str.encode), noise, _sep).map(lambda t: b"".join(t))
    return st.lists(piece, max_size=8).map(b"".join)


@st.composite
def _file(draw, lines: list[str]) -> bytes:
    """lines with blank and comment lines between them and a mix of line ends."""
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "# comment", "  #", "\x0c"]), max_size=1))
        out.append(line)
    return b"".join(ln.encode() + draw(_sep) for ln in out)


def _joined(toks) -> st.SearchStrategy:
    return _space.map(lambda sep: sep.join(toks))


_small = st.integers(-2, 12).map(str)
_int_tok = st.one_of(_small, st.sampled_from(["2", "x", "1.5", "", "9" * 25, "-0", "#", "1_0", "+3", "١"]))
_poset_line = st.one_of(
    st.tuples(_small, _small, st.sampled_from(KINDS + ("frob",))).map(" ".join),
    st.lists(_int_tok, max_size=3).flatmap(_joined),
    st.lists(_int_tok, max_size=4).map(lambda t: "bottom: " + " ".join(t)),
    st.sampled_from(["", "# comment", "bottom:", "0\x0c1", "1 2", "0 1 # note"]),
)
_dist_line = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0.5", "0.25", "1", "0", "-0.5", "abc", "", "# c", "1e400", "nan", "1_0", "+3",
                     "0.5 0.5", "0.5\x0c", "\x850.25", "0.25 0.25", "\x0b1", "1\x0b0"]),
)


def _int_form(v: int) -> st.SearchStrategy:
    """v as a token that int() reads as v."""
    forms = [str(v), str(v), f"+{v}" if v >= 0 else str(v), f"0_{v}" if v >= 0 else str(v)]
    return st.sampled_from(forms + (["١"] if v == 1 else []))


def _shift_token(draw, lines: list[str], first: int = 0) -> None:
    """Now and then move the last token of one line (all of it, if it has no
    space) to the start of the next: the file's token count stays, two lines'
    counts break."""
    if len(lines) - first >= 2 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(first, len(lines) - 2))
        head, _, tok = lines[k].rpartition(" ")
        lines[k], lines[k + 1] = head, tok + " " + lines[k + 1]


@st.composite
def _near_poset(draw) -> bytes:
    """A poset file that is valid or one fault away: a small edge set, with an
    optional bottom line and an optional line after it."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(KINDS))
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6, unique=True))
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, 1, -1]))

    def line(vals):
        return draw(_space).join(draw(_int_form(v)) for v in vals)

    lines = [f"{line([n, m])} {kind}"] + [line(p) for p in pairs]
    _shift_token(draw, lines, first=1)
    if draw(st.booleans()):
        lines.append("bottom: " + line(sorted({u for u, _ in pairs})))
    lines += draw(st.lists(st.sampled_from(["0 1", "bottom: 0", "garbage here", "5 5 5"]), max_size=1))
    return draw(_file(lines))


@st.composite
def _near_distribution(draw) -> bytes:
    w = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    p = np.asarray(w, dtype=float) / max(sum(w), 1)
    lines = [draw(st.sampled_from([repr(float(x)), f"+{float(x)!r}", f"{float(x):.3g}"])) for x in p]
    lines += draw(st.lists(_dist_line, max_size=1))
    return draw(_file(lines))


_fuzz = settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])


@_fuzz
@given(st.one_of(st.binary(max_size=64), _lines(_poset_line), _near_poset()), _block)
def test_read_poset_fuzz(fuzz_dir, data, block):
    _check(read_poset, reference_read_poset, fuzz_dir, data, block)


@_fuzz
@given(st.one_of(st.binary(max_size=64), _lines(_dist_line), _near_distribution()), _block)
def test_read_distribution_fuzz(fuzz_dir, data, block):
    _check(read_distribution, reference_read_distribution, fuzz_dir, data, block)


@pytest.mark.parametrize("text, line", [
    ("4 1 bipartite\n0 2\nbottom: 0 1\ngarbage here\n5 5 5\n", 4),
    ("4 1 bipartite\n0 2\nbottom: 0 1\n# comment\n\nbottom: 0\n", 6),
    ("3 0 general\nbottom:\n0 1\n", 3),
])
def test_content_after_the_bottom_line_is_refused(tmp_path, text, line):
    path = tmp_path / "bad.poset"
    path.write_text(text)
    with pytest.raises(PosetError) as exc:
        read_poset(path)
    assert str(exc.value) == f"{path}:{line}: trailing content after the bottom line"
    _same(read_poset, reference_read_poset, path, 1)


@pytest.mark.parametrize("reader, reference, text, message", [
    (read_poset, reference_read_poset, "4 2 general\n0 1 2\n3\n", "2: expected 2 integers, got 3"),
    (read_poset, reference_read_poset, "4 2 general\n0\n1 2 3\n", "2: expected 2 integers, got 1"),
    (read_distribution, reference_read_distribution, "0.5 0.5\n", "1: not a number: '0.5 0.5'"),
    # a bad edge line in a file that is also short of edge lines: the bad line comes first
    (read_poset, reference_read_poset, "4 3 general\n0 1 2\n3 0 1\n", "2: expected 2 integers, got 3"),
])
def test_token_counts_are_per_line(tmp_path, reader, reference, text, message):
    """Lines whose token counts are off but add up over the file."""
    path = tmp_path / "bad"
    path.write_text(text)
    assert str(_same(reader, reference, path, prob.READ_BLOCK)) == f"{path}:{message}"


def test_vertex_count_beyond_the_limit_is_refused(tmp_path, capsys):
    path = tmp_path / "huge.poset"
    for n in (10**23, MAX_DOMAIN + 1):
        path.write_text(f"{n} 1 bipartite\n0 5\nbottom: 0 1\n")
        with pytest.raises(PosetError) as exc:
            read_poset(path)
        assert str(exc.value) == f"{path}:1: {n} vertices exceed the limit of {MAX_DOMAIN}"
    dist = tmp_path / "u.dist"
    dist.write_text("1\n")
    assert cli.main(["oracle", "--poset", str(path), "--dist", str(dist)]) == 2
    assert f"{path}:1: " in capsys.readouterr().err


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        out = _outcome(fn, *args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_declared_sizes_cost_what_the_file_holds(tmp_path):
    """An 18-byte file that declares 10^6 vertices allocates nothing per
    vertex (the cycle check visits only vertices on an edge)."""
    path = tmp_path / "wide.poset"
    path.write_text("1000000 0 general\n")
    G, peak = _peak_mb(read_poset, path)
    assert G.n == 10**6 and G.edges == () and peak < 1, peak


def _lines_past_one_block(make_line, blocks: float = 2.5) -> tuple[list[str], int]:
    """Lines that fill the default block `blocks` times, and the index of the
    first line that starts past one and a half blocks."""
    lines, size, mid = [], 0, None
    while size < blocks * prob.READ_BLOCK:
        if mid is None and size > 1.5 * prob.READ_BLOCK:
            mid = len(lines)
        lines.append(make_line(len(lines)))
        size += len(lines[-1]) + 1
    return lines, mid


@pytest.mark.parametrize("reader, reference, make_line, bad, message, byte_after", [
    (read_distribution, reference_read_distribution,
     lambda k: "1" if k == 0 else "0.000000000000", "0.5x", "not a number: '0.5x'", 0),
    (read_poset, reference_read_poset,
     lambda k: "400000 50000 general" if k == 0 else f"{k} {k + 200_000}", "12 x", "non-integer token in '12 x'", 0),
    # a non-UTF-8 byte two blocks after the bad line: the bad line, the first
    # fault in file order, is named
    (read_distribution, reference_read_distribution,
     lambda k: "1" if k == 0 else "0.000000000000", "0.5x", "not a number: '0.5x'", 2),
    (read_poset, reference_read_poset,
     lambda k: "400000 50000 general" if k == 0 else f"{k} {k + 200_000}", "12 x",
     "non-integer token in '12 x'", 2),
])
def test_file_of_several_blocks(tmp_path, reader, reference, make_line, bad, message, byte_after):
    lines, mid = _lines_past_one_block(make_line, 2.5 + byte_after)
    if reader is read_poset:
        lines[0] = f"400000 {len(lines) - 1} general"
    path = tmp_path / "big"
    path.write_text("\n".join(lines) + "\n")
    out = _same(reader, reference, path, prob.READ_BLOCK)
    assert not isinstance(out, Exception), out
    # A bad line in the second block is named by its own number.
    lines[mid] = bad
    if byte_after:
        # the first far whose lines[mid:far], newlines included, reach
        # byte_after blocks, found with a running total
        far, size = mid + 1, len(lines[mid]) + 1
        while size < byte_after * prob.READ_BLOCK:
            size += len(lines[far]) + 1
            far += 1
        lines[far] = "\udcff" + lines[far]  # the byte 0xff once written with surrogateescape
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    exc = _same(reader, reference, path, prob.READ_BLOCK)
    assert str(exc) == f"{path}:{mid + 1}: {message}"


def test_many_blocks_give_the_same_poset(tmp_path):
    path = tmp_path / "m.poset"
    G = make_matching(3000)
    path.write_text(f"{G.n} {len(G.edges)} matching\n" + "".join(f"{u}\x0c{v}\r\n# c\n" for u, v in G.edges)
                    + "bottom: " + " ".join(map(str, G.bottom)) + "\n")
    assert _same(read_poset, reference_read_poset, path, 1000) == G


@pytest.mark.parametrize("reader, data", [
    (read_poset, b"# p\r\n2 1 line\r\n0 \xff1\n"),
    (read_distribution, b"# p\r\n0.5\r\n0.\xff5\n"),
], ids=["read_poset", "read_distribution"])
def test_non_utf8_byte_names_file_line_and_column(tmp_path, reader, data):
    path = tmp_path / "bad"
    path.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}:3: not UTF-8 text: byte 0xff at column 3"


def test_a_read_opens_the_file_once(tmp_path, monkeypatch):
    """One pass: a valid or malformed file is opened once; only a non-UTF-8
    byte opens it again, in binary, to find its line and column."""
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    path = tmp_path / "f"
    for reader, data, opens in [
        (read_poset, b"3 2 line\n0 1\n1 2\n", 1),
        (read_poset, b"3 2 line\n0 x\n1 2\n", 1),
        (read_poset, b"3 2 line\n0 1\n1 2\n\xff", 2),
        (read_distribution, b"0.5\n0.5\n", 1),
        (read_distribution, b"0.5\nx\n", 1),
        (read_distribution, b"0.5\n\xff0.5\n", 2),
    ]:
        path.write_bytes(data)
        opened.clear()
        _outcome(reader, path)
        assert opened.count(path) == opens, (reader.__name__, data)


def test_a_refused_read_stops_at_its_fault(tmp_path, monkeypatch):
    """A bad edge line in the first block is refused before the next block is read."""
    yielded = []
    real_blocks = poset._blocks

    def counting_blocks(*args):
        for lines in real_blocks(*args):
            yielded.append(len(lines))
            yield lines

    monkeypatch.setattr(poset, "_blocks", counting_blocks)
    lines, _ = _lines_past_one_block(lambda k: f"{k} {k + 200_000}", 3.5)
    lines[0] = f"400000 {len(lines) - 1} general"
    lines[2] = "2 x"
    path = tmp_path / "bad.poset"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PosetError) as exc:
        read_poset(path)
    assert str(exc.value) == f"{path}:3: non-integer token in '2 x'"
    assert len(yielded) == 1, yielded
