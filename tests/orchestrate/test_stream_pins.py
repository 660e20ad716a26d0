"""Byte-level pins of the corruption streams and spec fingerprints.

The tally suites compare folded counts, which a reordered or re-drawn
stream can leave unchanged.  These pins hash the raw bytes every
generator returns — corrupted words, split prefixes with their
held-out symbol index, and every registered scenario's words — for
one code per family shape, on two chunks of the seed-2022 stream.  A
pin may only change together with a deliberate stream change (which
also invalidates every result cache and checkpoint journal).

The exact ``spec_fingerprint`` strings are pinned for the same reason:
they key result-cache cells and checkpoint records on disk.
"""

import hashlib

import pytest

from repro.core.codes import muse_80_69
from repro.distribute.checkpoint import spec_fingerprint
from repro.orchestrate import corruption
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import CodeRef, MuseSimSpec, RsSimSpec
from repro.reliability.monte_carlo import muse_design_point, rs_design_point
from repro.scenarios import resolve_scenario, scenario_names

KEY = derive_key(2022)
CHUNKS = (Chunk(0, 256), Chunk(1000, 1256))
CODES = {
    "muse_80_69": ("muse", muse_80_69),
    "muse_144_128": ("muse", lambda: muse_design_point(0)),
    "rs_144_128": ("rs", lambda: rs_design_point(0)),
}

#: sha256 of the raw bytes, keyed by (code, chunk start, stream).
PINS = {
    # muse_80_69
    ("muse_80_69", 0, "corruption"): "5a9a0fdc79ef73e3f2ee662684a2d476fce635bb70211f419f969c1b62dc44bd",
    ("muse_80_69", 0, "split-k2"): "1929a871f38145d0993dad6a308b06e04e4dd783e07a42ee460858c65e2642c4",
    ("muse_80_69", 0, "split-k3"): "8c01b663799c3dfc6065c40daff1a52798515a05003d260d0052de13a5a94e05",
    ("muse_80_69", 0, "scenario-msed"): "5a9a0fdc79ef73e3f2ee662684a2d476fce635bb70211f419f969c1b62dc44bd",
    ("muse_80_69", 0, "scenario-mbu"): "d56714686ec30921ae38f0668946c8d3a9796814b00eb6b262e977af15baae6c",
    ("muse_80_69", 0, "scenario-stuck"): "3eebba1c1107df4d4435eb5f28aff3a00ddc6861d7572de12b2e67fe3635e19a",
    ("muse_80_69", 0, "scenario-rowfail"): "70cc973da4ec255b28c2b6768bd7a954cda5547895faa88bfbf5c32795c881af",
    ("muse_80_69", 0, "scenario-scrub"): "dd51c07cbf16c4a022aef62806f80105cfe78e6da1d8caf8751c35601b2f15c9",
    ("muse_80_69", 0, "scenario-wear"): "67d5a7f8be4fd468c5d8ded86190c445c9e306139ecd57e998ab7415cf1eb4dc",
    ("muse_80_69", 1000, "corruption"): "8cb92f448a0b6da7a6a7bc8d6852295b6ac0e689819da5a99c4059fded7176dc",
    ("muse_80_69", 1000, "split-k2"): "87040863dd8ca2efdefdec97c3918432859e75ce3f4260a9926c4d946d3a0032",
    ("muse_80_69", 1000, "split-k3"): "60718616965e2ba3599edbbac84a92b24aa2b6fd553eeeb0952cce58a06f9c35",
    ("muse_80_69", 1000, "scenario-msed"): "8cb92f448a0b6da7a6a7bc8d6852295b6ac0e689819da5a99c4059fded7176dc",
    ("muse_80_69", 1000, "scenario-mbu"): "e8902c26e202bc4aa5c5485e55d40fcc3766d551ff612ae560c25ff283a5079f",
    ("muse_80_69", 1000, "scenario-stuck"): "1a442fe46fbf547b6bdc5e91f4462b42846506cce8ce9838c36018f2db55ef5d",
    ("muse_80_69", 1000, "scenario-rowfail"): "8d5f21999a619623f8eed36dc36b01f85d3b71a81db5b5577f955c9262e31c12",
    ("muse_80_69", 1000, "scenario-scrub"): "fc1e285782f2079ad04953a243543f7ba6536afc62d9fb5489835dab47f55d69",
    ("muse_80_69", 1000, "scenario-wear"): "5cc20f3ceeab852c60eb8599cf5347dec696802b9f1f251b36f82540a15228c4",
    # muse_144_128
    ("muse_144_128", 0, "corruption"): "024d03975a7dbd5cee6dc25309e5b15d67721283405fab3c2e4f7a2b81293a42",
    ("muse_144_128", 0, "split-k2"): "76cd7f27adb4004239ed658afc51ee46afd2aaa2c08f64f319a3f6f7eb1a8d0e",
    ("muse_144_128", 0, "split-k3"): "c7ad98ed44face10cd275032bf596d0521a0dbd78e70dc5e23ac28084f66519a",
    ("muse_144_128", 0, "scenario-msed"): "024d03975a7dbd5cee6dc25309e5b15d67721283405fab3c2e4f7a2b81293a42",
    ("muse_144_128", 0, "scenario-mbu"): "b7fb8ca8d91159bb10f234465515f1d7e6f26be8ac248d3c6b100a6834028e7d",
    ("muse_144_128", 0, "scenario-stuck"): "22b65d724fefd679ab15a7b25904292404f67b0df1fada04bb2e36dac7b2d163",
    ("muse_144_128", 0, "scenario-rowfail"): "c312f2d37f3c4ec0c78eb7f485a7a250327b56666ce4a838909f16587f240adb",
    ("muse_144_128", 0, "scenario-scrub"): "0591e45d325d0af9d0361c7d6565198198480fd287a1ff75ce46272b065fd2da",
    ("muse_144_128", 0, "scenario-wear"): "c1a41d449b72b0e8db0fcda63bed8ff80bde11a291cd837d5ba462f5dff4d697",
    ("muse_144_128", 1000, "corruption"): "58a4900ead4dddad7cfd0431848e3b77fff7332b7d2cf22c14c2a4140f2825a6",
    ("muse_144_128", 1000, "split-k2"): "7f0c6b6b914258bee9b0af3df19903c68912fe9417b8dcd16d851f08e16e5a7e",
    ("muse_144_128", 1000, "split-k3"): "9e3d36642f74f2e5b2903fd603f4fa93e4e9e6bb8fa255f9a824a2225b002b96",
    ("muse_144_128", 1000, "scenario-msed"): "58a4900ead4dddad7cfd0431848e3b77fff7332b7d2cf22c14c2a4140f2825a6",
    ("muse_144_128", 1000, "scenario-mbu"): "2b6c6a76430d93a8b6d42214b8061d9e6c53e4291e5ee51f6e70b7bdb21b048a",
    ("muse_144_128", 1000, "scenario-stuck"): "0cadeceebe20b9c9b9b9646f0f3aaa855bc9f1018bc1943adb39422f9a5a6322",
    ("muse_144_128", 1000, "scenario-rowfail"): "ed95da002034bc68735e2c7633ac1df0cab0fe7065e6f2e913d64eb9e4b31fd9",
    ("muse_144_128", 1000, "scenario-scrub"): "b389182b36a092ada82c54d9b11f73380938b77922e9a713df83785889684d92",
    ("muse_144_128", 1000, "scenario-wear"): "094204c27686148bd37ce3e70a387fd355b9d734e4a643136f0184cc3a1e6f72",
    # rs_144_128
    ("rs_144_128", 0, "corruption"): "94dbfa68121c7b6160ba58c6ab7c07dd316be0dbd8a7bcdad7fc085600cf01c4",
    ("rs_144_128", 0, "split-k2"): "5472679815bbe0972a0267cdee599ab7b16b8b376c4fea20a4b2d76c0ef499c6",
    ("rs_144_128", 0, "split-k3"): "7da73b88400a60fe1ff03f2833ff098477cc3daebd7529bef7bc51f915d35528",
    ("rs_144_128", 0, "scenario-msed"): "94dbfa68121c7b6160ba58c6ab7c07dd316be0dbd8a7bcdad7fc085600cf01c4",
    ("rs_144_128", 0, "scenario-mbu"): "80196f63aa049020938ba8e02c7c125dfbe14c14de1d1dadec7bb1ac45b90463",
    ("rs_144_128", 0, "scenario-stuck"): "2df03440ae45affdd6b699b1f75d8da6203f07b49bd7ff89f6c10d415c313bff",
    ("rs_144_128", 0, "scenario-rowfail"): "afc544f5bc49bf264325b5a347732d72b0941537f3430834c0264838c5c0373a",
    ("rs_144_128", 0, "scenario-scrub"): "2428aa42d1c390fdc8068adcb2f05bee83fbb48bbf2e35d66400599e51edd7a5",
    ("rs_144_128", 0, "scenario-wear"): "b8a58575d1cfadcfe96a95228bed808953799ac1eb107378b4fc77c7e13c3b06",
    ("rs_144_128", 1000, "corruption"): "b38f004c86f7f0990002f86fc0d2aff670640d85e21ce217653454676f636a86",
    ("rs_144_128", 1000, "split-k2"): "3cc38f05b2ed47e4913a3ac2a05ebfb3133ccdfbd5d98ea965f27d134c6803c4",
    ("rs_144_128", 1000, "split-k3"): "3b2151544f79744cbd9e63ad6e293f9963a06133539de21e9e8d207bf20d9ab2",
    ("rs_144_128", 1000, "scenario-msed"): "b38f004c86f7f0990002f86fc0d2aff670640d85e21ce217653454676f636a86",
    ("rs_144_128", 1000, "scenario-mbu"): "60feed44afda5608e0caf1d7ce59c2293c8c066799320db717d3a4c9d2305de7",
    ("rs_144_128", 1000, "scenario-stuck"): "7e58ff27e21025fff5c1bb01ca2d0a837676c87a293f9ba5f4389b5379c34834",
    ("rs_144_128", 1000, "scenario-rowfail"): "e94a1110eea2d5db873bcb271a02c3a64a095a9f3701093fa771e1a14c7b4c82",
    ("rs_144_128", 1000, "scenario-scrub"): "103eabce85c76e81774d9ff771a97706cbacb7fdc3e79eee97fac376dd9dc5d4",
    ("rs_144_128", 1000, "scenario-wear"): "327f01be5f3869881c7d3bb0e6098444861de90e8837b3c35f8c4892fe98b3d0",
}


def sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def generator(family: str, name: str):
    return getattr(corruption, f"{family}_{name}")


@pytest.mark.parametrize("chunk", CHUNKS, ids=lambda chunk: str(chunk.start))
@pytest.mark.parametrize("code_name", sorted(CODES))
class TestStreamPins:
    def test_corruption_chunk(self, code_name, chunk):
        family, build = CODES[code_name]
        words = generator(family, "corruption_chunk")(build(), chunk, KEY)
        assert sha256(words) == PINS[(code_name, chunk.start, "corruption")]

    @pytest.mark.parametrize("k_symbols", [2, 3])
    def test_split_chunk(self, code_name, chunk, k_symbols):
        family, build = CODES[code_name]
        words, last = generator(family, "split_chunk")(
            build(), chunk, KEY, k_symbols
        )
        assert sha256(words, last) == PINS[
            (code_name, chunk.start, f"split-k{k_symbols}")
        ]

    @pytest.mark.parametrize("scenario", scenario_names())
    def test_scenario_chunk(self, code_name, chunk, scenario):
        family, build = CODES[code_name]
        words = generator(family, "scenario_chunk")(
            resolve_scenario(scenario), build(), chunk, KEY
        )
        assert sha256(words) == PINS[
            (code_name, chunk.start, f"scenario-{scenario}")
        ]


def test_every_registered_scenario_is_pinned():
    pinned = {stream for (_, _, stream) in PINS if stream.startswith("scenario-")}
    assert pinned == {f"scenario-{name}" for name in scenario_names()}


def test_muse_spec_fingerprint():
    spec = MuseSimSpec(
        CodeRef("repro.reliability.monte_carlo:muse_design_point", (0,))
    )
    assert spec_fingerprint(spec) == (
        "MuseSimSpec(code=CodeRef(target='repro.reliability.monte_carlo:"
        "muse_design_point', args=(0,)), k_symbols=2, ripple_check=True, "
        "backend='any', scenario='msed')"
    )


def test_rs_spec_fingerprint():
    spec = RsSimSpec(
        CodeRef("repro.reliability.monte_carlo:rs_design_point", (0,)),
        device_bits=None,
        scenario="mbu",
    )
    assert spec_fingerprint(spec) == (
        "RsSimSpec(code=CodeRef(target='repro.reliability.monte_carlo:"
        "rs_design_point', args=(0,)), k_symbols=2, device_bits=None, "
        "backend='any', scenario='mbu')"
    )
