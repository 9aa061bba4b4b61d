"""Golden noise vectors: what a seed expands to is pinned, not inherited.

``skellam_noise_from_seed`` used to be defined by numpy's ``default_rng``
and ``Generator.poisson``, which NEP 19 does not freeze across releases.
It is now defined by :mod:`repro.dp.sampler` — over the AES-256-CTR
stream (FIPS-197) since payload version 8, and IEEE 754 — and these
vectors (first seven elements, SHA-256 of the whole vector as
little-endian int64) must come out of the C kernel and the numpy twin
alike, on any host, for both sides of the 2²⁰ switch.  They were taken
from the numpy twin drawing ``PRGReference``'s stream, and again drawing
OpenSSL's AES-CTR, with the same result — never from the kernel.
"""

import hashlib
import inspect

import numpy as np
import pytest

import repro.xnoise.protocol as protocol
from repro.dp import sampler
from repro.dp.sampler import skellam_noise_from_seed_numpy
from repro.xnoise.protocol import skellam_noise_from_seed

SEEDS = (bytes(32), bytes(range(32)))

GOLDEN = {
    (SEEDS[0], 2.0, 7): (
        [0, 1, 0, -1, 1, 0, -2],
        "3a42b8b7cac0b6edd92d7b2a0e7fe55a7b6e6f40ab90ddcfbd8ae129edde1467",
    ),
    (SEEDS[0], 2.0, 1000): (
        [0, 1, 0, -1, 1, 0, -2],
        "5ed630d858f609ceb3c645bc455a36d9c0e58d3b90309a08be10840ebbc51178",
    ),
    (SEEDS[0], 80.0, 7): (
        [1, 9, -1, -9, 6, -3, -12],
        "fc4ef95f0025539af5eeb2e8bcc6b55304b025e00be5d8024fd18f08a78e0aff",
    ),
    (SEEDS[0], 80.0, 1000): (
        [1, 9, -1, -9, 6, -3, -12],
        "0711f1d882feed15a1152020b8eda90646640052c0e3c86e2f3a9c2458785a32",
    ),
    (SEEDS[0], float(1 << 20), 7): (
        [-234, -1388, -26, 484, -983, 1354, 258],
        "98ce6b7dac395b80228e1e10d1ec750a8d3d5e789fe56bfc70121a587a385d0b",
    ),
    (SEEDS[0], float(1 << 20), 1000): (
        [-234, -1388, -26, 484, -983, 1354, 258],
        "4e1e152963973ec4f2b5ed654763eef13838c02ed290b3fe64b8e4268b5a3da3",
    ),
    (SEEDS[0], 2.28e8, 7): (
        [-14565, 27681, 6167, -10587, 17248, 3222, -14047],
        "275df44ab388231cd8c936c95043875bb8246330ccf8af7009955bd67185fd59",
    ),
    (SEEDS[0], 2.28e8, 1000): (
        [-14565, 27681, 6167, -10587, 17248, 3222, -14047],
        "90619d235d9a0157fb0cfbcd1eca3dc620d9c9d0d6d538aebfdd93997ddf39c7",
    ),
    (SEEDS[0], 2.50e9, 7): (
        [-3913, -48300, 20482, -35127, 57172, 10705, -46586],
        "4af4d4ae88b0a85f4dfceb61f7a4ab8b931c38ee23e4014ceecdd0459afbca0a",
    ),
    (SEEDS[0], 2.50e9, 1000): (
        [-3913, -48300, 20482, -35127, 57172, 10705, -46586],
        "75216bfa462f27b4f4417f60947b6a0a54dd4435861db696e1434fd9db295a53",
    ),
    (SEEDS[1], 2.0, 7): (
        [0, 1, 1, 0, 0, 0, 1],
        "75508a7ff6856258c169fe0bb512020d01baeb5ee9695d1fd8d83bc48f740db1",
    ),
    (SEEDS[1], 2.0, 1000): (
        [0, 1, 1, 0, 0, 0, 1],
        "6774d051597e6a5173685744d9419d49546a468ee7544b2dbefb3a14cae52bbb",
    ),
    (SEEDS[1], 80.0, 7): (
        [4, 7, 8, 3, 2, 2, 5],
        "6d74b87f24d4d0744e31f3131f56aa6e6f946eab6ad44af4ccb516f314a2dc11",
    ),
    (SEEDS[1], 80.0, 1000): (
        [4, 7, 8, 3, 2, 2, 5],
        "bb7861d3d43dddca1394228a108455c2e755c6bc09417fcab4f6ccab97982762",
    ),
    (SEEDS[1], float(1 << 20), 7): (
        [-1145, -1341, -499, -454, -349, -756, -820],
        "40c6d350a63ffd8513b48ad7599ee89400107975f7da21eb46e41bfb4de00dbc",
    ),
    (SEEDS[1], float(1 << 20), 1000): (
        [-1145, -1341, -499, -454, -349, -756, -820],
        "d075d8a45bbe0e6b50a84cae76c3d01f361a4bc0f0c43f34e0b493a2cf387afa",
    ),
    (SEEDS[1], 2.28e8, 7): (
        [-5982, -12307, -14171, -4532, -3942, -2611, -8011],
        "f7dd729b3f9bc75e33858ee6924bbc8fa854942d3776b4781ec864156da8ab66",
    ),
    (SEEDS[1], 2.28e8, 1000): (
        [-5982, -12307, -14171, -4532, -3942, -2611, -8011],
        "7c595bcc76f1038107ec24d0c8e3d8044f556420cf3728a2d369555fc3c508bf",
    ),
    (SEEDS[1], 2.50e9, 7): (
        [-19861, -40822, -46994, -15050, -13108, -8685, -26585],
        "c3dd577a6bacef0f6a76aeb29ffff9880383e127c57640e8af86d0b4b72c0ee0",
    ),
    (SEEDS[1], 2.50e9, 1000): (
        [-19861, -40822, -46994, -15050, -13108, -8685, -26585],
        "cea2217a9f99b0b8c003c9528743c58a37585fc512c1f82db34f8874b625db4b",
    ),
}


@pytest.mark.parametrize("expand", [skellam_noise_from_seed, skellam_noise_from_seed_numpy])
@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c[0][:2].hex()}-{c[1]:g}-{c[2]}")
def test_golden_vector(case, expand):
    seed, variance, dimension = case
    head, digest = GOLDEN[case]
    noise = expand(seed, variance, dimension)
    assert noise.dtype == np.int64 and noise.shape == (dimension,)
    assert noise[:7].tolist() == head
    assert hashlib.sha256(noise.astype("<i8").tobytes()).hexdigest() == digest


def test_the_protocol_entry_point_is_the_sampler():
    assert protocol.skellam_noise_from_seed is sampler.skellam_noise_from_seed
    assert list(inspect.signature(skellam_noise_from_seed).parameters)[:3] == [
        "seed", "variance", "dimension",
    ]


def test_no_numpy_generator_on_the_seed_to_noise_path():
    import repro.crypto.prg as prg

    for module in (sampler, protocol, prg):
        source = inspect.getsource(module)
        assert "default_rng" not in source and "numpy_generator" not in source
        assert "np.random" not in source
