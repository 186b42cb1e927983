"""The ``resolution`` subcommand's output and the label renderings, pinned.

``resolution`` is the one command that prints enveloping algebra
elements and generator labels.  Each digest is the SHA-256 of the stdout
of one ``resolution`` run (``_digest`` below), in text and in JSON.  They
were recorded from the ``Subset`` objects that preceded int bitmask
subsets (commit 244661c), with

    PYTHONPATH=src:tests python3 -c 'import test_resolution_digests as t; t.print_digests()'

run from the repository root at that commit with this file copied in.
"""

import hashlib
import io

import pytest

from exthh.cli import EXIT_OK, parse_args, run
from exthh.combinat import multiset, multiset_str, subset_mask
from exthh.hochschild import BarChainCell, BarCochainCell, ChainCell, CochainCell, bar_word_str

GRID = (1, 2, 3)
MAX_DEGREE = 3
FORMATS = ("text", "json")

DIGESTS = {
    (1, "text"): "63c839f7c1ce8f341a4068a244e2da49fdf5156158404951cbad5e6ea735f6c5",
    (1, "json"): "913081f1ab20b00abd6b7db1f4b953e3e9d79f23c3d6dda96bc80452e6e0e382",
    (2, "text"): "0a73fae5af4637cf559967d169e55c53ec896c2696ac094c688f5ff91ddfce6a",
    (2, "json"): "3f5b4a2df94e419076bc9163221b8619f2855c237341fec2580452532751e8da",
    (3, "text"): "a82603bf6f6f1dd8b381fc13e3bcba21203540fe0e691cb93df4d76afc852b47",
    (3, "json"): "580282a396826eb5ad7ee488cf22222997334cfc27c37edc6e21cc5bd1b2eff5",
}


def _digest(n: int, fmt: str) -> str:
    argv = ["resolution", "--n", str(n), "--max-degree", str(MAX_DEGREE), "--format", fmt]
    out = io.StringIO()
    assert run(parse_args(argv), out=out) == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def print_digests():
    for n in GRID:
        for fmt in FORMATS:
            print(f'    ({n}, "{fmt}"): "{_digest(n, fmt)}",')


@pytest.mark.parametrize("fmt", FORMATS)
def test_resolution_output_is_pinned(fmt):
    assert {n for n, key_fmt in DIGESTS if key_fmt == fmt} == set(GRID)
    for (n, key_fmt), digest in DIGESTS.items():
        if key_fmt == fmt:
            assert _digest(n, fmt) == digest, (n, fmt)


def test_label_renderings():
    s13 = subset_mask([1, 3])
    word = (subset_mask([2]), s13)
    tau = multiset([2, 1, 2])
    assert tau == (1, 2, 2)
    assert multiset_str(tau) == "(1,2,2)"
    assert bar_word_str(word) == "1|x2|x1^x3|1"
    assert bar_word_str(()) == "1|1"
    assert str(BarChainCell(s13, word)) == "x{1,3}(x)[x2|x1^x3]"
    assert str(BarCochainCell(word, 0)) == "phi[[x2|x1^x3],{}]"
    assert str(ChainCell(s13, tau)) == "x{1,3}(x)(1,2,2)"
    assert str(CochainCell(tau, subset_mask([2]))) == "phi[(1,2,2),{2}]"
