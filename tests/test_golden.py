"""Golden SHA-256 digests of the program's outputs.

Each digest pins output bytes that a refactor must leave unchanged: the
`demo`, `attn` and `bench` trees, the float64 tubes of both inference
modes at a small random-parameter config, and the outputs and gradients
of an axial pass pair. A change that moves a digest on purpose names the digest, the
cause and the largest difference in CHANGES.md.

The digests were computed with numpy 2.4.6, the version CI pins. All but
one pin bits of numpy's own loops (einsum, sorts, ufuncs), which BLAS
does not touch. The gradient digest pins BLAS bits: the backward's matrix
products are OpenBLAS gemm calls (`tensor.matmul`), whose bits depend on
the gemm kernel OpenBLAS picks for the CPU. The FMA kernels agree to
about 1e-15 but not bit for bit (the SkylakeX kernel gives `692e644f...`),
so the gradients are computed in a child process pinned to OpenBLAS
0.3.31's Haswell kernel on one thread (OPENBLAS_CORETYPE=Haswell,
OPENBLAS_NUM_THREADS=1, set for the child only). That digest is skipped
where the kernel cannot be chosen: on a CPU without AVX2 and FMA, or with
a numpy whose BLAS is not a DYNAMIC_ARCH OpenBLAS.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import axialtrack
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
# The default 12-shape sweep, and one shape given by flags.
BENCH_DIGESTS = {
    "sweep": ([], "e28e2563cf80a4e932a768e9c10c367d2a8aff159b66a72ef2bf07933e597bcb"),
    "t2_h4_w4_d8": (["--t", "2", "--h", "4", "--w", "4", "--d", "8"],
                    "444e998c3f67ea93946e2bf506b7dde67830645d230ae174773e06ef47c0f48f"),
}
TUBES_DIGEST = "854c5fd295d3770fc85bccddb25a125901d60bd93a4514fe6d3a7cf398f683f6"
AXIAL_PAIR_DIGEST = "d07a0cfcfcb4c1c792e0eb7f7a97d9f6260309f362e6126103c60566fd70cfe8"
GRADIENT_DIGEST = "178727bfc4186fa161c9fe6544d3ff98a5f46a09b904bba42589eaefb9895af2"

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


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_bench_tree(tmp_path, name):
    flags, digest = BENCH_DIGESTS[name]
    assert cli_main(["bench", *flags, "--out", str(tmp_path)]) == 0
    assert _tree_digest(tmp_path) == digest


def test_random_parameter_tubes():
    cfg = TUBES_CONFIG
    video = np.random.default_rng((cfg.seed, 1)).normal(0.0, 1.0, size=(cfg.l, cfg.d, cfg.h, cfg.w))
    params = random_pipeline_params(cfg)
    tubes = near_online_inference(video, params) + offline_inference(video, params)
    arrays = []
    for tube in tubes:
        arrays += [tube.masks, tube.class_probs, np.array([tube.track_id])]
    assert _array_digest(arrays) == TUBES_DIGEST


def _axial_pair(shape=(3, 4, 5, 6), seed=9):
    """Input, H and W pass parameters (two heads) and upstream cotangent."""
    rng = np.random.default_rng(seed)
    f = rng.normal(0.0, 1.0, size=shape)
    params = [attention_params(shape[1], rng, heads=2, std=0.3) for _ in range(2)]
    return f, *params, rng.normal(0.0, 1.0, size=shape)


def _gradients(shape=(3, 4, 5, 6), seed=9):
    """The input gradient and the twelve projection gradients of `_axial_pair`."""
    grads = trajectory_backward(*_axial_pair(shape, seed))
    arrays = [grads.d_input]
    for pair in (grads.params_h, grads.params_w):
        for stage in (pair.stage1, pair.stage2):
            arrays += [stage.w_q, stage.w_k, stage.w_v]
    return arrays


def _no_pinned_kernel():
    """Why OpenBLAS's Haswell kernel cannot be chosen here, or None."""
    cpu = np._core._multiarray_umath.__cpu_features__
    if not (cpu.get("AVX2") and cpu.get("FMA3")):
        return "the CPU lacks AVX2 or FMA, which OpenBLAS's Haswell kernel needs"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS, so its kernel cannot be chosen"
    return None


NO_PINNED_KERNEL = _no_pinned_kernel()
needs_pinned_kernel = pytest.mark.skipif(NO_PINNED_KERNEL is not None, reason=str(NO_PINNED_KERNEL))


def _child_gradients(tmp_path, coretype, threads, *args):
    """`_gradients(*args)` from a child process whose OpenBLAS runs `threads`
    threads of the `coretype` kernel (None: the kernel it picks for the CPU)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = os.path.dirname(os.path.dirname(axialtrack.__file__))
    env.update(OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    path = tmp_path / f"{coretype}-{threads}.npz"
    code = f"import numpy as np, test_golden as g; np.savez({str(path)!r}, *g._gradients(*{args!r}))"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    with np.load(path) as saved:
        return [saved[f"arr_{i}"] for i in range(len(saved.files))]


def test_axial_pair_outputs_and_gradients(tmp_path):
    f, params_h, params_w, _ = _axial_pair()
    mid = axial_trajectory_h(f, params_h)
    assert _array_digest([mid, axial_trajectory_w(mid, params_w)]) == AXIAL_PAIR_DIGEST
    if NO_PINNED_KERNEL is not None:
        pytest.skip(NO_PINNED_KERNEL)
    assert _array_digest(_child_gradients(tmp_path, "Haswell", 1)) == GRADIENT_DIGEST


@needs_pinned_kernel
def test_gradient_bits_of_the_native_kernel(tmp_path):
    # At (T, D, H, W) = (2, 16, 24, 24) the Gram products of the projection
    # gradients are above OpenBLAS's threshold for running on threads.
    shape = (2, 16, 24, 24)
    one, two, haswell = (_child_gradients(tmp_path, core, n, shape, 31)
                         for core, n in ((None, 1), (None, 2), ("Haswell", 1)))
    for a, b, pinned in zip(one, two, haswell):
        assert a.tobytes() == b.tobytes()
        assert np.max(np.abs(a - pinned)) <= 1e-13 * np.max(np.abs(pinned))
