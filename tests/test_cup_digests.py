"""The ``cup`` subcommand's output, pinned byte for byte.

Each digest is the SHA-256 of the stdout of one ``cup`` run (``_digest``
below), in text and in JSON.  They were recorded from the dense-vector
kernels and membership solves that preceded the cached sparse field
reduction (commit 7676b9d), with

    PYTHONPATH=src:tests python3 -c 'import test_cup_digests as t; t.print_digests()'

run from the repository root at that commit with this file copied in.
The grid points (3, Q, 3), the benchmark's ``cup`` job, and (3, F2, 2)
were recorded the same way at commit db650f7, the last one that lifted
classes through whole bar kernels, and (4, Q, 2) at commit b4690d9, the
last one that checked the lifts through the cofaces of their support
rather than through the bar cochain block of their multidegree.
"""

import hashlib
import io

import pytest

from exthh.cli import EXIT_OK, parse_args, run

GRID = tuple((n, ring, 3) for n in (1, 2) for ring in ("Q", "F2", "F3")) + (
    (3, "F3", 2),
    (3, "Q", 3),
    (3, "F2", 2),
    (4, "Q", 2),
)
FORMATS = ("text", "json")

DIGESTS = {
    (1, "Q", 3, "text"): "2399a70c9a5421316b57b4957c8dc214afb8375d6b36c1bd60def569929387db",
    (1, "Q", 3, "json"): "475cbf49afeebbade437fb86d32b8dfa9ea4b34ee33d993b026d55c718fff953",
    (1, "F2", 3, "text"): "88e329eca5ac0aa3b5b17729893c70ebd6c99c5a57fecd72968a9fe433cb6535",
    (1, "F2", 3, "json"): "d1aa55533db4d3fec7ba89ab824a2b4eb0dff058f621cf019b65bb415d9b2d52",
    (1, "F3", 3, "text"): "2399a70c9a5421316b57b4957c8dc214afb8375d6b36c1bd60def569929387db",
    (1, "F3", 3, "json"): "475cbf49afeebbade437fb86d32b8dfa9ea4b34ee33d993b026d55c718fff953",
    (2, "Q", 3, "text"): "a4688e75dc1dd8030844a1165a279952d2611e8a13c068cc1d571cb51848400d",
    (2, "Q", 3, "json"): "55659e9efe8ae319d7b12ff3c9b65f97237c6f82066c4b3195feae292f3e9e58",
    (2, "F2", 3, "text"): "275864d06eec5857ee9ab8eec354d42168d3b2065931bb67c865ec2e51cb60b4",
    (2, "F2", 3, "json"): "d952be355333032e5b52290f84a2e51dc8bf31abf3dc6557a2ebbc2c9d6c2338",
    (2, "F3", 3, "text"): "503e49019f0696e01da81ac06650ee0db70cbba939c7b5e538e882414a5f6a5e",
    (2, "F3", 3, "json"): "67eeb3b78e9d0507584dafad453cefdd6664c471a73dffe1c0027288fce5f80f",
    (3, "F3", 2, "text"): "84875c4962c20bf90b542cf9b55b69db1817eaa6514aef96d65369fbeddb2ea2",
    (3, "F3", 2, "json"): "6a541d266a64beee244ce68152b55200555c08051f44acd999968c8da1358096",
    (3, "Q", 3, "text"): "f8d775df647f573d26fc327a66b0941aedf76e15c57f27669dded50a5cf1292c",
    (3, "Q", 3, "json"): "5d67d9f909ca83c8ce98b886a9e8b66f00180b4de131b9d97fed79aa1e296889",
    (3, "F2", 2, "text"): "84900965a0df48171f4dd55db5e5d91ae572af21de8f140c6e7e2d88f7a202c7",
    (3, "F2", 2, "json"): "e87d5d575478b45198113a91a8a67b4a7dcf42787570f34c922db1b831c02c84",
    (4, "Q", 2, "text"): "82d6abaf0fb156c92f04190cf0ce698fe5b7aa8eae30fdcd71ede51257397baa",
    (4, "Q", 2, "json"): "ea656365677efd43cabf5725bf7094ccf818aff80a0467e2082a58673877fcd0",
}


def _digest(n: int, ring: str, max_degree: int, fmt: str) -> str:
    argv = ["cup", "--n", str(n), "--ring", ring, "--max-degree", str(max_degree), "--format", fmt]
    out = io.StringIO()
    assert run(parse_args(argv), out=out) == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def print_digests():
    for n, ring, max_degree in GRID:
        for fmt in FORMATS:
            print(f'    ({n}, "{ring}", {max_degree}, "{fmt}"): "{_digest(n, ring, max_degree, fmt)}",')


@pytest.mark.parametrize("fmt", FORMATS)
def test_cup_output_is_pinned(fmt):
    assert {key[:3] for key in DIGESTS if key[3] == fmt} == set(GRID)
    for (n, ring, max_degree, key_fmt), digest in DIGESTS.items():
        if key_fmt == fmt:
            assert _digest(n, ring, max_degree, fmt) == digest, (n, ring, max_degree, fmt)
