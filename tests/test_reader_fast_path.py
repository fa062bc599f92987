"""The readers at the edges of their fast paths: files that numpy's C parser
refuses or reads in a shape read_poset does not take, and lines that float()
reads raw. Each file agrees with its line-by-line reference in genutil at
block sizes of one line, a few lines and the default block."""

import pytest
from genutil import reference_read_distribution, reference_read_poset
from test_reader_fuzz import _same

from posetdist import read_distribution, read_poset
from posetdist import prob

_BLOCKS = [1, 7, prob.READ_BLOCK]

POSET_FILES = {
    # loadtxt reads these as a (k, 3) and a (k, 1) matrix
    "three tokens a line": ("4 2 general\n0 1 2\n1 2 3\n", "2: expected 2 integers, got 3"),
    "one token a line": ("4 2 general\n0\n1\n", "2: expected 2 integers, got 1"),
    "one edge line": ("2 1 general\n0 1\n", None),
    "one edge line, one bottom vertex": ("2 1 bipartite\n0 1\nbottom: 0\n", None),
    # one past int64: loadtxt refuses it, int() reads it, and Poset refuses it as a non-vertex
    "edge past int64": (f"4 1 general\n0 {2**63}\n", " edges must be (u, v) pairs of integers"),
    "bottom past int64": (f"4 1 bipartite\n0 2\nbottom: 0 {2**63}\n", " bottom must be a set of integer vertices"),
    "empty bottom line": ("3 0 general\nbottom:\n", None),
    "empty bottom line, bipartite edge": ("4 1 bipartite\n0 2\nbottom:\n", " bipartite edge (0,2) must run bottom -> top"),
    "1.0 as a vertex": ("3 1 general\n1.0 2\n", "2: non-integer token in '1.0 2'"),
    "1.0 as a bottom vertex": ("3 1 bipartite\n0 2\nbottom: 1.0\n", "3: non-integer token in '1.0'"),
    # forms only int() reads are read line by line, not refused
    "digits loadtxt refuses": ("12 2 general\n١ 2\n1_0 11\n", None),
    "BOM before the header": ("\ufeff3 1 general\n0 1\n", "1: non-integer token in '\\ufeff3 1'"),
    "BOM before an edge line": ("3 1 general\n\ufeff0 1\n", "2: non-integer token in '\\ufeff0 1'"),
}

DISTRIBUTION_FILES = {
    "BOM before a probability": ("\ufeff0.5\n0.5\n", "1: not a number: '\\ufeff0.5'"),
    "whitespace float() and str.strip take": ("\x0b0.25\x0c\n\x850.25\x1c\n 0.5\t\n", None),
}


def _run(tmp_path, reader, reference, text, fault, block):
    path = tmp_path / "input"
    path.write_bytes(text.encode())
    got = _same(reader, reference, path, block)
    if fault is None:
        assert not isinstance(got, Exception), got
    else:
        assert str(got) == f"{path}:{fault}"


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("name", POSET_FILES)
def test_poset_files(tmp_path, name, block):
    _run(tmp_path, read_poset, reference_read_poset, *POSET_FILES[name], block)


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("name", DISTRIBUTION_FILES)
def test_distribution_files(tmp_path, name, block):
    _run(tmp_path, read_distribution, reference_read_distribution, *DISTRIBUTION_FILES[name], block)

