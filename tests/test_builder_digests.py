"""The four Hochschild builders, pinned entry by entry.

Each digest is the SHA-256 of the canonical JSON of one built complex
(``_digest`` below): the basis in order, and every differential entry.
They were recorded from the hand-signed builders that preceded the shared
base change (commit cd9cc31), with

    PYTHONPATH=src:tests python3 -c 'import test_builder_digests as t; t.print_digests()'

run from the repository root at that commit with this file copied in.
"""

import hashlib
import json

import pytest

from exthh import hochschild
from exthh.complexes import complex_to_json
from exthh.rings import parse_ring

GRID = ((1, 4), (2, 4), (3, 3))
RINGS = ("Z", "Q", "F2", "F3")

DIGESTS = {
    "build_bar_hochschild_chain": {
        (1, 4, "Z"): "a724320cc62da24d6b8ab5db1e239e950c79e329b48b954866c4e9da0796e7e0",
        (1, 4, "Q"): "aec263fec341fbca4d4bc6ff18a96277fe67abc1026cebd65ed75546b4256c12",
        (1, 4, "F2"): "f9379c29171a16da68abe9434cf7300e4cdaad2236ba0613b339dbbb26ace474",
        (1, 4, "F3"): "a3c325fb0c6704bf50ea1f922a5238e6057671cd16dc9d772358f075ca9f5d11",
        (2, 4, "Z"): "fdf27c4f157fb8fd9aab1c12ca9aa64de34ca20f6e6eadde1b75afe4e4d13353",
        (2, 4, "Q"): "f574bb23fa20d1d89a819252099babef52447d3c4819f589ba8cc519a21728e3",
        (2, 4, "F2"): "1afce6f91e0d8fc21fa8e2d0ab7f2bc97029e109f25d78675dae76ed83afef88",
        (2, 4, "F3"): "86d641b1ecd0b9bdf226787d2637b41fa70fe8b1406b870ea75d12851af26648",
        (3, 3, "Z"): "e6d5a297826463e5ec5504b050c54f05012c3d54a3d1a2ac13b8cf0f45061af8",
        (3, 3, "Q"): "8c396a7eb0aab75b6ea6652916cd0063ffd96e04e1683923f853a02e40c4b6a3",
        (3, 3, "F2"): "d7cab42aeb7dec30ebd191f8ea0cc50851c558cc25f67b48ed18d69893038419",
        (3, 3, "F3"): "d9619271e6bc828b355ed68d78ac69e371e8fb1cda472e32ded0544e294b4cb7",
    },
    "build_bar_hochschild_cochain": {
        (1, 4, "Z"): "0b351770a2e6f630ca00288b5efc6c76c1d021b0215c0a367086688ba52cc7c2",
        (1, 4, "Q"): "9a4172ddf7d94e86d436ec1b6bf8c4030de923fa33470e38a6f7a071c61f5ba2",
        (1, 4, "F2"): "cb83bb3adc50d8b457784283dcd8d1aeb48ee2bca85cdbd96e61ae147d5c1146",
        (1, 4, "F3"): "44b586eb13c96170751929f0784b86229d05c19e34a5614b35c48056e9b9d1a9",
        (2, 4, "Z"): "cb62e39bf62850d54a27e7c89b75d2a18a2d08f1c4239fa4ade864ccbdf8d45e",
        (2, 4, "Q"): "4d10693c3c38493e41702fc0b759d863b4471d6ebca56b25122ed2c8df994b2f",
        (2, 4, "F2"): "3d35c9c0b89bc82a5e5e175a267eb6c124569021573d5562df09764dbb49e3c7",
        (2, 4, "F3"): "978f975dd4bc913d1acd7172b9c95ed83dbd001b696a6f8c949c516725bc73a3",
        (3, 3, "Z"): "46a18ff41bc3b7e1c9bc7ae026c138811f70c8ccfad47b3b43ab30e07b24e390",
        (3, 3, "Q"): "bdc1e3f8025ffb5d2fb526319515993395359f5994e21cf2edbe372aca2a7b6a",
        (3, 3, "F2"): "c82b52893f1200d9d329de4e3ab53946c8289079946df42010d2e82fc93d93d4",
        (3, 3, "F3"): "d819e210e9d63cf9f99f00fad021154c716b8cc3c6cef67fae3216289f196a05",
    },
    "build_reduced_chain": {
        (1, 4, "Z"): "0e54faa2de0c6337ae96cae72761dd93cd6d4de1a92d12fb8753fbb249550b62",
        (1, 4, "Q"): "302ba0cb584aafb37992e1bc2fb11e2643d1dbe4c8daf87f4f18bd7a049fb789",
        (1, 4, "F2"): "1e70ea492b75ff774e3c3039b569bc4732e19a5825bc23eadc3bd7c0103257ab",
        (1, 4, "F3"): "17189a845cb486f568b2fa0c8c4878ad54040f28b2d951ed046dc1a4dbdd0cc1",
        (2, 4, "Z"): "d39e6e81a2c9513455daa977cd7f83a07eabbdcdf3c8f56f50074b4e1907621f",
        (2, 4, "Q"): "94f85ae4597b90dd3f770d14cec0fb937fdd391ede04c0680b9cc555fe889412",
        (2, 4, "F2"): "a28796b8358f3495f67f82e18634ec2bd3393e94ec6d193e0e9ed5321fb4e364",
        (2, 4, "F3"): "8abfa5cfacb4422245a89229e12aeed5a6a5283c2d864dad8c993ddb6c310be6",
        (3, 3, "Z"): "fe5737d67524edf38bfedb6f51d7ac798c8439bb83d25d0adf5f249f8c7d2db2",
        (3, 3, "Q"): "7cd55730ebbe75d7494a1ac0fad5e5d52fb2c1ec28a8d611448cdd8ff38bf1c1",
        (3, 3, "F2"): "22232929375ab6512fffe0c0dd1767f778010f45faaad25bda01e3f46b61db56",
        (3, 3, "F3"): "620a8371d297600f2f506592ee0ea6c509f9eae74c8082693e3f1d51ec23b68e",
    },
    "build_reduced_cochain": {
        (1, 4, "Z"): "69e4a5e873f9efba1a0381f331c4ad759f1fbbd7a7e6e63a0dd773924b02f007",
        (1, 4, "Q"): "e4448fbedee711d706477422dc21d6c52d28cff8c8a22ea42f83b7631ae098a1",
        (1, 4, "F2"): "e2de6e9d0174cc334c9cc5e920c905e711b51274beb04454210e93c88a3b442d",
        (1, 4, "F3"): "98fda9e1724dedd8b9f4389fe66cf6316af41d29ac29b4474bb58fa1106c700e",
        (2, 4, "Z"): "cb0da4c9f470ff8a56d4ec78369635f958e3efc81689c70dbb7a071af8058ffb",
        (2, 4, "Q"): "0ba44a1bdbc29b12f6bdc9040d49c7262da96d2f5ad76a895e8cb75bf04c5940",
        (2, 4, "F2"): "3ba739f2ebe88099bedc319b2cad23aaeb3df496a8e886ccd8d28f6632d269aa",
        (2, 4, "F3"): "a03c0cb13646f61b9740dd6622aae2b93e0684c3bb6228db53609b44b81bd285",
        (3, 3, "Z"): "ee1eabaa358525bafc299710c024b9af55c4fe128d6c6b4716debc6bf129eee6",
        (3, 3, "Q"): "32bfbefdc699417d17fde41caed7f0d9a39c2f2c1d74ed39a4e7cc54988999e8",
        (3, 3, "F2"): "0fb75216f643392d3d81b4fe5a9b23167c854db5a1b1280dbd49fc7797904097",
        (3, 3, "F3"): "85cbffee28b24a490b021425285aaf4c6fd5e2ac493999dcd5a16a51170fc792",
    },
}


def _digest(builder: str, n: int, degree: int, ring: str) -> str:
    c = getattr(hochschild, builder)(n, degree, parse_ring(ring))
    payload = json.dumps(complex_to_json(c), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def print_digests():
    for builder in DIGESTS:
        for n, degree in GRID:
            for ring in RINGS:
                print(builder, n, degree, ring, _digest(builder, n, degree, ring))


@pytest.mark.parametrize("builder", sorted(DIGESTS))
def test_builder_output_is_pinned(builder):
    assert set(DIGESTS[builder]) == {(n, d, r) for n, d in GRID for r in RINGS}
    for (n, degree, ring), digest in DIGESTS[builder].items():
        assert _digest(builder, n, degree, ring) == digest, (builder, n, degree, ring)
