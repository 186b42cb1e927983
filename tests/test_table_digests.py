"""The ``table`` subcommand's output, pinned byte for byte.

Each digest is the SHA-256 of the stdout of one ``table --variant both``
run (``_digest`` below), in JSON and in CSV, over Z, Q, F2 and F3.  They
were recorded from the full-rescan pivot search that preceded the
count-bucketed one (commit 6f09cf6), with

    PYTHONPATH=src:tests python3 -c 'import test_table_digests as t; t.print_digests()'

run from the repository root at that commit with this file copied in.
"""

import hashlib
import io

import pytest

from exthh.cli import EXIT_OK, parse_args, run

CASES = (("oracle", 2, 4), ("oracle", 3, 2), ("reduced", 4, 3), ("reduced", 5, 3))
RINGS = ("Z", "Q", "F2", "F3")
FORMATS = ("json", "csv")

DIGESTS = {
    ("oracle", 2, 4, "Z", "json"): "f49c0eb86f7cbb34cf9277fad8b0666778d9681bdb3792b4516f0c4540db5cd3",
    ("oracle", 2, 4, "Z", "csv"): "221807441b35e389d02c383d7070399bc20439dc1c1d26a0b670dc0567c88505",
    ("oracle", 2, 4, "Q", "json"): "1b23025181614d0889aad387b25e41bc53ed4752429e20c2d23035cfc06ea997",
    ("oracle", 2, 4, "Q", "csv"): "6378f9cbbebcc95f0419b1142bbc6bb12955d4493929a4fa6d1451835a46e9bb",
    ("oracle", 2, 4, "F2", "json"): "192020a9016babdde7b2babd74253d840f0369f7374aeea06fd775c9ce96af67",
    ("oracle", 2, 4, "F2", "csv"): "6a00895d9658fabf3e11dca13b49ff6c0f4405acea20038719234a119873eb15",
    ("oracle", 2, 4, "F3", "json"): "9bf21114037fb6c99e42383f63b4df93eaae7b732e1554f4982e3c2f14ff62ed",
    ("oracle", 2, 4, "F3", "csv"): "0a1aca54bbde33e5bdb6de8a94d4fede0c3164a047fa1396cfe6502d7bba2c3a",
    ("oracle", 3, 2, "Z", "json"): "fa882912bcd1b5cfe20cb109dd9e5ee23d8cd70cd3c5733e1208bca0eefbc01b",
    ("oracle", 3, 2, "Z", "csv"): "a868cd4823f70294d2cbc50a357069e9e04dc88fc534ab02a7b77193239d97a6",
    ("oracle", 3, 2, "Q", "json"): "ff21b5eafc8e1d5e58956444c863fdc0a22f744b1db48e01d3627ce13399c433",
    ("oracle", 3, 2, "Q", "csv"): "a16e51e3a81936c97c11a699146b75cfbdc0f5118a85224364dd15fa5685452c",
    ("oracle", 3, 2, "F2", "json"): "9e1e85365ceb8cdbca47c331bf81129eb2e7213708f03914a2786ea5fe942d68",
    ("oracle", 3, 2, "F2", "csv"): "a8dfbe37487b94ec5704d46bee0cc9fdd980aaead4fd99543e1474121ead8d2f",
    ("oracle", 3, 2, "F3", "json"): "f34617e27670b51833c8448d9014f61e8e2f700e697c8a77112226322173dcd4",
    ("oracle", 3, 2, "F3", "csv"): "4da4c5f13fca53ec276335b25e332b6064dc07ab43faa1c19a5fb9c589200105",
    ("reduced", 4, 3, "Z", "json"): "8a301a81c444b3d9702d8a93b6abedfb998f0f30aa93d46e5b116917610604b9",
    ("reduced", 4, 3, "Z", "csv"): "d2c08cc00da1ce77581c5a2e571732f22aa81b73b13eb390b34e58ffcbf4b2d2",
    ("reduced", 4, 3, "Q", "json"): "bad9b503585a074d08f3d82ae324e4c2219cba2d135c25f7bd903819369b11a2",
    ("reduced", 4, 3, "Q", "csv"): "70a8538a0476df5f6176a3ecaaf154878bb8d98039ce0e7e08c7da84e1c36f88",
    ("reduced", 4, 3, "F2", "json"): "54970235b28645d70e0e7410e607a68844a5d7b36280cef6107d805dc740d21b",
    ("reduced", 4, 3, "F2", "csv"): "2f06285043fec3846a66610747255c802d7c8dbe82f6ec0caf17c25e304dca90",
    ("reduced", 4, 3, "F3", "json"): "e2df7bb3d8c376a2852a87a57c4d9a0b8fd3ea69ad75fa34296729fb7af1147b",
    ("reduced", 4, 3, "F3", "csv"): "2221e0c39998c86cd59c81b6aacb54eb3087c62e2f0b565994e4223628a27b2f",
    ("reduced", 5, 3, "Z", "json"): "90bc61e338115c63da157f18d9464dc5ee8516103bf88ef50f4b439bf201765c",
    ("reduced", 5, 3, "Z", "csv"): "8b63207b3af384de07b345191f0e5e8a39684b24e241a4e6551415f44917e152",
    ("reduced", 5, 3, "Q", "json"): "d620b702a88cff7b174643bd47f1a5304f312a90da060587f9b9fed0f6566ad2",
    ("reduced", 5, 3, "Q", "csv"): "1ce4ff02cec7a42ed4b98e7dda7f579e008e3e77f5876059ef57a4541eecfef4",
    ("reduced", 5, 3, "F2", "json"): "5ad0ac8206953b50f4c64313ea124195fa50e682f4a6e830506fd957b4897814",
    ("reduced", 5, 3, "F2", "csv"): "e2cc4ef61c10d0d7faafd9962182bdf745870bca9b2b2e9a291695d0f69414da",
    ("reduced", 5, 3, "F3", "json"): "2dcb46806fa5f7aa6a9b4b73a9634e5efbf0f90a9439ba67152b5795bb59d93e",
    ("reduced", 5, 3, "F3", "csv"): "16742b95ea9a1aa450026e0ff149c753eb0221812dbadc166eb060b3667bd880",
}


def _digest(method: str, n: int, max_degree: int, ring: str, fmt: str) -> str:
    argv = [
        "table", "--n", str(n), "--method", method, "--max-degree", str(max_degree),
        "--variant", "both", "--ring", ring, "--format", fmt,
    ]
    out = io.StringIO()
    assert run(parse_args(argv), out=out) == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def print_digests():
    for case in CASES:
        for ring in RINGS:
            for fmt in FORMATS:
                key = (*case, ring, fmt)
                print(f'    {key!r}: "{_digest(*key)}",'.replace("'", '"'))


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_table_output_is_pinned(case):
    keys = [key for key in DIGESTS if key[:3] == case]
    assert sorted(keys) == sorted((*case, ring, fmt) for ring in RINGS for fmt in FORMATS)
    for key in keys:
        assert _digest(*key) == DIGESTS[key], key
