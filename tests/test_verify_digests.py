"""The ``verify`` subcommand's output, pinned byte for byte.

Each digest is the SHA-256 of the stdout of one ``verify`` run
(``_digest`` below), in text and in JSON, with the default rings.  They
were recorded at commit 86a626e, where the matching checks still built
edge sets, with

    PYTHONPATH=src:tests python3 -c 'import test_verify_digests as t; t.print_digests()'

run from the repository root at that commit with this file copied in.
"""

import hashlib
import io

import pytest

from exthh.cli import EXIT_OK, parse_args, run

CASES = ((1, 3), (2, 3), (3, 2), (2, 4))
FORMATS = ("text", "json")

DIGESTS = {
    (1, 3, "text"): "23749fc2be31a634cbed01aca1a895bf5e23bb033036701ce6d3e98d08074a4e",
    (1, 3, "json"): "eece4a99381c7a3e0afe81c8fd123cefeee3b51d19941ab7a9e3e96ff1936302",
    (2, 3, "text"): "c463b045e4d03a5ea7a391f2771a5f9c2afb4d7ec36e31079729a6fa1fd41a54",
    (2, 3, "json"): "275f21bb047348708daef590ccd0e115c558be870e4cfb7e752ca4330d000f7b",
    (3, 2, "text"): "dc046a74a56210ecd77789fc7349adab51d7383a6d39ac15ce8c0431d5eaaf92",
    (3, 2, "json"): "e07b167fb11a8d95246c9c439e99c98b8ed7dfaafd272e84f2e81ba2c9472fb0",
    (2, 4, "text"): "3002b2f66ba95fe1ff42842e14dda1482d9a0d4b5ec973af601a4db3d68c641d",
    (2, 4, "json"): "6cbe50124d70c5c27277c252f232afd1861b364b816e991358b1d5882cb8bfa0",
}


def _digest(n: int, max_degree: int, fmt: str) -> str:
    argv = ["verify", "--n", str(n), "--max-degree", str(max_degree), "--format", fmt]
    out = io.StringIO()
    assert run(parse_args(argv), out=out) == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def print_digests():
    for case in CASES:
        for fmt in FORMATS:
            key = (*case, fmt)
            print(f'    {key!r}: "{_digest(*key)}",'.replace("'", '"'))


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_verify_output_is_pinned(case):
    keys = [key for key in DIGESTS if key[:2] == case]
    assert sorted(keys) == sorted((*case, fmt) for fmt in FORMATS)
    for key in keys:
        assert _digest(*key) == DIGESTS[key], key
