"""The four Hochschild builders, pinned entry by entry.

Each digest is the SHA-256 of the canonical JSON of one built complex
(``_digest`` below): the basis in order, and every differential entry.
The builders work over Z only; the rings a complex is read in are pinned
end to end by the ``table`` digests.  These were recorded from the
hand-signed builders that preceded the shared base change (commit
cd9cc31), with

    PYTHONPATH=src:tests python3 -c 'import test_builder_digests as t; t.print_digests()'

run from the repository root at that commit with this file copied in.
"""

import hashlib
import json

import pytest

from exthh import hochschild
from exthh.complexes import complex_to_json

GRID = ((1, 4), (2, 4), (3, 3))

DIGESTS = {
    "build_bar_hochschild_chain": {
        (1, 4, "Z"): "a724320cc62da24d6b8ab5db1e239e950c79e329b48b954866c4e9da0796e7e0",
        (2, 4, "Z"): "fdf27c4f157fb8fd9aab1c12ca9aa64de34ca20f6e6eadde1b75afe4e4d13353",
        (3, 3, "Z"): "e6d5a297826463e5ec5504b050c54f05012c3d54a3d1a2ac13b8cf0f45061af8",
    },
    "build_bar_hochschild_cochain": {
        (1, 4, "Z"): "0b351770a2e6f630ca00288b5efc6c76c1d021b0215c0a367086688ba52cc7c2",
        (2, 4, "Z"): "cb62e39bf62850d54a27e7c89b75d2a18a2d08f1c4239fa4ade864ccbdf8d45e",
        (3, 3, "Z"): "46a18ff41bc3b7e1c9bc7ae026c138811f70c8ccfad47b3b43ab30e07b24e390",
    },
    "build_reduced_chain": {
        (1, 4, "Z"): "0e54faa2de0c6337ae96cae72761dd93cd6d4de1a92d12fb8753fbb249550b62",
        (2, 4, "Z"): "d39e6e81a2c9513455daa977cd7f83a07eabbdcdf3c8f56f50074b4e1907621f",
        (3, 3, "Z"): "fe5737d67524edf38bfedb6f51d7ac798c8439bb83d25d0adf5f249f8c7d2db2",
    },
    "build_reduced_cochain": {
        (1, 4, "Z"): "69e4a5e873f9efba1a0381f331c4ad759f1fbbd7a7e6e63a0dd773924b02f007",
        (2, 4, "Z"): "cb0da4c9f470ff8a56d4ec78369635f958e3efc81689c70dbb7a071af8058ffb",
        (3, 3, "Z"): "ee1eabaa358525bafc299710c024b9af55c4fe128d6c6b4716debc6bf129eee6",
    },
}


def _digest(builder: str, n: int, degree: int) -> str:
    c = getattr(hochschild, builder)(n, degree)
    payload = json.dumps(complex_to_json(c), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def print_digests():
    for builder in DIGESTS:
        for n, degree in GRID:
            print(builder, n, degree, "Z", _digest(builder, n, degree))


@pytest.mark.parametrize("builder", sorted(DIGESTS))
def test_builder_output_is_pinned(builder):
    # every complex is built over Z, and its JSON says so
    assert set(DIGESTS[builder]) == {(n, d, "Z") for n, d in GRID}
    for (n, degree, _ring), digest in DIGESTS[builder].items():
        assert _digest(builder, n, degree) == digest, (builder, n, degree)
