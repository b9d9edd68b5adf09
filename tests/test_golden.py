"""Golden SHA-256 digests of the program's outputs.

Each digest pins output bytes that a refactor must leave unchanged: the
`demo` and `attn` trees, the float64 tubes of both inference modes at a
small random-parameter config, and the outputs and gradients of an axial
pass pair. A change that moves a digest on purpose names the digest, the
cause and the largest difference in CHANGES.md.

The digests were computed with numpy 2.4.6, the version CI pins.
"""

import hashlib
import os

import numpy as np
import pytest

from axialtrack.attention import attention_params, axial_trajectory_h, axial_trajectory_w
from axialtrack.backward import trajectory_backward
from axialtrack.cli import cli_main
from axialtrack.config import ModelConfig
from axialtrack.crossclip import offline_inference
from axialtrack.segmenter import near_online_inference
from axialtrack.synthetic import random_pipeline_params

DEMO_DIGESTS = {
    0: "a9170f750712f10041814ce98ccaa610d48acf06fe87d3b6735ecbb89dfe7b3e",
    3: "6e478a2a80b423cd834cd7827efcae7c142d714c02c34ddd5e298e2ff828bc2c",
    7: "99864c8d6a07ef833235fbe0b2ac01cd7b321c2877bfc1060e4fe0dab888c36f",
    11: "fc219403a63ddd9b5a95052bd25c8072a1775ec6b171b2ff2f7513433470dd08",
}
ATTN_DIGEST = "7773b4b5b2077685c4b46941203d9e552d78d8e424c99d85d2feeef35a411cd4"
TUBES_DIGEST = "854c5fd295d3770fc85bccddb25a125901d60bd93a4514fe6d3a7cf398f683f6"
AXIAL_PAIR_DIGEST = "7e71967dfebd627c5811caad0ff15858f6b82cf623accd93d0b6d708817b8a01"

# Five frames in clips of two (a padded last clip), two heads, and a top
# atrous rate above the three-clip length.
TUBES_CONFIG = ModelConfig(l=5, t=2, h=8, w=8, d=8, n=5, c=3, n_w=1, n_c=2, heads=2,
                           atrous_rates=(1, 2, 4), seed=5)


def _tree_digest(root) -> str:
    digest = hashlib.sha256()
    paths = []
    for dirpath, _, names in os.walk(root):
        paths += [os.path.join(dirpath, name) for name in names]
    for path in sorted(paths, key=lambda p: os.path.relpath(p, root).split(os.sep)):
        with open(path, "rb") as fh:
            data = fh.read()
        name = "/".join(os.path.relpath(path, root).split(os.sep))
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _array_digest(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DEMO_DIGESTS))
def test_demo_tree(tmp_path, seed):
    assert cli_main(["demo", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    assert _tree_digest(tmp_path) == DEMO_DIGESTS[seed]


def test_attn_tree(tmp_path):
    assert cli_main(["attn", "--seed", "3", "--ref-t", "1", "--out", str(tmp_path)]) == 0
    assert _tree_digest(tmp_path) == ATTN_DIGEST


def test_random_parameter_tubes():
    cfg = TUBES_CONFIG
    video = np.random.default_rng((cfg.seed, 1)).normal(0.0, 1.0, size=(cfg.l, cfg.d, cfg.h, cfg.w))
    params = random_pipeline_params(cfg)
    tubes = near_online_inference(video, params) + offline_inference(video, params)
    arrays = []
    for tube in tubes:
        arrays += [tube.masks, tube.class_probs, np.array([tube.track_id])]
    assert _array_digest(arrays) == TUBES_DIGEST


def test_axial_pair_outputs_and_gradients():
    rng = np.random.default_rng(9)
    f = rng.normal(0.0, 1.0, size=(3, 4, 5, 6))
    params_h = attention_params(4, rng, heads=2, std=0.3)
    params_w = attention_params(4, rng, heads=2, std=0.3)
    upstream = rng.normal(0.0, 1.0, size=f.shape)
    mid = axial_trajectory_h(f, params_h)
    out = axial_trajectory_w(mid, params_w)
    grads = trajectory_backward(f, params_h, params_w, upstream)
    arrays = [mid, out, grads.d_input]
    for pair in (grads.params_h, grads.params_w):
        for stage in (pair.stage1, pair.stage2):
            arrays += [stage.w_q, stage.w_k, stage.w_v]
    assert _array_digest(arrays) == AXIAL_PAIR_DIGEST
