"""The file readers on arbitrary bytes: each returns a valid object or raises
PosetError/ValueError whose message starts with the file's path, never
anything else."""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posetdist import Distribution, Poset, PosetError, SampleHistogram, read_distribution, read_poset
from posetdist.poset import KINDS
from posetdist.prob import read_histogram_csv

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _read(reader, directory, data: bytes, kind):
    path = os.path.join(directory, "input")
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        out = reader(path)
    except (PosetError, ValueError) as exc:
        assert type(exc) in (PosetError, ValueError), repr(exc)
        assert str(exc).startswith(path), str(exc)
        return
    assert isinstance(out, kind)


def _lines(line: st.SearchStrategy) -> st.SearchStrategy:
    """Lines joined by '\\n', '\\r\\n' or '\\r', with a stray non-UTF-8 byte now and then."""
    sep = st.sampled_from([b"\n", b"\r\n", b"\r"])
    noise = st.sampled_from([b"", b"", b"", b"\xff", b"\xc3", b"\xe2\x82"])
    piece = st.tuples(line.map(str.encode), noise, sep).map(lambda t: b"".join(t))
    return st.lists(piece, max_size=8).map(b"".join)


_small = st.integers(-2, 12).map(str)
_int_tok = st.one_of(_small, st.sampled_from(["2", "x", "1.5", "", "9" * 25, "-0", "#"]))
_poset_line = st.one_of(
    st.tuples(_small, _small, st.sampled_from(KINDS + ("frob",))).map(" ".join),
    st.lists(_int_tok, max_size=3).map(" ".join),
    st.lists(_int_tok, max_size=4).map(lambda t: "bottom: " + " ".join(t)),
    st.sampled_from(["", "# comment", "bottom:"]),
)
_dist_line = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0.5", "0.25", "1", "0", "-0.5", "abc", "", "# c", "1e400", "nan"]),
)
# Indexes stay small: the reader allocates a dense vector up to the largest index.
_hist_line = st.one_of(
    st.tuples(_small, _small).map(",".join),
    st.sampled_from(["index,count", "", "1", "1,2,3", "a,b", "3,-1", "2," + "9" * 25, "0,9223372036854775808"]),
)

_fuzz = settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])


@_fuzz
@given(st.one_of(st.binary(max_size=64), _lines(_poset_line)))
def test_read_poset_fuzz(fuzz_dir, data):
    _read(read_poset, fuzz_dir, data, Poset)


@_fuzz
@given(st.one_of(st.binary(max_size=64), _lines(_dist_line)))
def test_read_distribution_fuzz(fuzz_dir, data):
    _read(read_distribution, fuzz_dir, data, Distribution)


@_fuzz
@given(st.one_of(st.binary(max_size=64), _lines(_hist_line).map(lambda b: b"index,count\n" + b)))
def test_read_histogram_csv_fuzz(fuzz_dir, data):
    _read(read_histogram_csv, fuzz_dir, data, SampleHistogram)


def test_bipartite_vertex_count_beyond_int64_is_read(tmp_path):
    path = tmp_path / "huge.poset"
    path.write_text(f"{10**23} 1 bipartite\n0 5\nbottom: 0 1\n")
    assert read_poset(path).n == 10**23


@pytest.mark.parametrize("reader", [read_poset, read_distribution, read_histogram_csv])
def test_non_utf8_byte_names_file_line_and_column(tmp_path, reader):
    path = tmp_path / "bad"
    path.write_bytes(b"index,count\r\n0,1\r\n1,\xff2\n")
    with pytest.raises(ValueError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}:3: not UTF-8 text: byte 0xff at column 3"
