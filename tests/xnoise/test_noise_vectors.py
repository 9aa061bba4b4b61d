"""Golden noise vectors: what a seed expands to is pinned, not inherited.

``skellam_noise_from_seed`` used to be defined by numpy's ``default_rng``
and ``Generator.poisson``, which NEP 19 does not freeze across releases.
It is now defined by :mod:`repro.dp.sampler` — FIPS 180-4 and IEEE 754 —
and these vectors (first seven elements, SHA-256 of the whole vector as
little-endian int64) must come out of the C kernel and the numpy twin
alike, on any host, for both sides of the 2²⁰ switch.
"""

import hashlib
import inspect

import numpy as np
import pytest

import repro.xnoise.protocol as protocol
from repro.dp import sampler
from repro.dp.sampler import skellam_noise_from_seed_reference
from repro.xnoise.protocol import skellam_noise_from_seed

SEEDS = (bytes(32), bytes(range(32)))

GOLDEN = {
    (SEEDS[0], 2.0, 7): (
        [-1, 0, 1, -2, -3, 0, 1],
        "d882370c9721e6ce91ad7475aab632c5bae169e0315857b1b8022f5390e4d1f8",
    ),
    (SEEDS[0], 2.0, 1000): (
        [-1, 0, 1, -2, -3, 0, 1],
        "f02a4dc77cbd55bc46806eb239fb58b6f4cb496252c37f3fe14e60f833ab5a3f",
    ),
    (SEEDS[0], 80.0, 7): (
        [-8, -3, 8, -11, -16, -2, 10],
        "851c332026c6983f17b8eabdf11f861253ee77c4850de51131e7feb8c2ef8e86",
    ),
    (SEEDS[0], 80.0, 1000): (
        [-8, -3, 8, -11, -16, -2, 10],
        "c442e29af1991435ba5e2615e97a3ce34553a7e8a56e5a8386ea43e42172b65c",
    ),
    (SEEDS[0], float(1 << 20), 7): (
        [530, 1249, -1343, 359, 106, 1526, -1647],
        "fbc536bee106f576eeb84ad82a0e7032d016326debb66c52aacb605ea1c941fc",
    ),
    (SEEDS[0], float(1 << 20), 1000): (
        [530, 1249, -1343, 359, 106, 1526, -1647],
        "973f870650bbd813b38f20a547ae16fca48a694001ad32d49526d5a041b7878e",
    ),
    (SEEDS[0], 2.28e8, 7): (
        [6789, 16095, -14190, 4515, 1313, 18979, -16504],
        "dad9fd5bc4a9818c5ddb643706d006baec98e4a64eb5e39eda8bcc4cd41d81c8",
    ),
    (SEEDS[0], 2.28e8, 1000): (
        [6789, 16095, -14190, 4515, 1313, 18979, -16504],
        "7373add1482dbc8e21208316442be5d62306cef843fa4987b15da440a0b7757c",
    ),
    (SEEDS[0], 2.50e9, 7): (
        [22540, 53360, -47060, 14997, 4380, 62891, -54711],
        "ef941684f9ff4fc6db39aa16d02ad04e51af7dacc00d9710935902974af0c62a",
    ),
    (SEEDS[0], 2.50e9, 1000): (
        [22540, 53360, -47060, 14997, 4380, 62891, -54711],
        "9b4d126e9d4ee56cf70d8d57d9a4ee90cfe91c0cdcc5b7389b7e0f71bc7cff55",
    ),
    (SEEDS[1], 2.0, 7): (
        [1, -1, 0, 1, 0, 1, -2],
        "4fc02a37a0d8bb39d16685cad6ee5a7d4db7792e668d68c366ff259ddd418400",
    ),
    (SEEDS[1], 2.0, 1000): (
        [1, -1, 0, 1, 0, 1, -2],
        "b0b6ed0d0202066412d446e6590119fee157421d8fab4b2be3bfab8a7441a25d",
    ),
    (SEEDS[1], 80.0, 7): (
        [4, -7, 1, 6, -3, 5, -13],
        "bb807016ee1412b645a0099419fa080bdfe661f3f2536647c428e9fee23d036f",
    ),
    (SEEDS[1], 80.0, 1000): (
        [4, -7, 1, 6, -3, 5, -13],
        "6403936e7696dd7b1740869f8e289db4b72220d86c933925f46076b06cdaf024",
    ),
    (SEEDS[1], float(1 << 20), 7): (
        [-641, 681, -291, -922, 1394, -864, 233],
        "cd81bc38ad2984f66d0d9cd677eb616ccc1ce90210b587ba56cf83771313af49",
    ),
    (SEEDS[1], float(1 << 20), 1000): (
        [-641, 681, -291, -922, 1394, -864, 233],
        "35a21b921519e72c0f8b03b93e8c8571a9e9393f6a8f721784fa58886d80774d",
    ),
    (SEEDS[1], 2.28e8, 7): (
        [-6402, 8936, -9869, 17667, -9211, 2905, 618],
        "afcdb482b64b5bfdb019367d235ce067aec7f50e56d49a41f92174f36ac456d6",
    ),
    (SEEDS[1], 2.28e8, 1000): (
        [-6402, 8936, -9869, 17667, -9211, 2905, 618],
        "51474981f9abf1c7f8995f0e00f689849065c6afef21a26d7bc3c952fc06020e",
    ),
    (SEEDS[1], 2.50e9, 7): (
        [-21257, 29660, -6276, -32746, 58555, -30563, 9654],
        "c4d2af17a8623da1c1d940079fbc521c91a4810e895a914ae39a2442fea90f4c",
    ),
    (SEEDS[1], 2.50e9, 1000): (
        [-21257, 29660, -6276, -32746, 58555, -30563, 9654],
        "fc0ecaa01793ed02e103f50f2770e8bef11336a12831fbb059a58d78baec655d",
    ),
}


@pytest.mark.parametrize("expand", [skellam_noise_from_seed, skellam_noise_from_seed_reference])
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
