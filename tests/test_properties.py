"""Property tests for the inputs behind the CLI: text and binary files,
paths and reference coordinates.

A malformed input must end in a validation error (exit 1), never an
internal error (exit 2).
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from axialtrack.cli import cli_main
from axialtrack.config import ModelConfig, parse_config
from axialtrack.errors import ConfigError
from axialtrack.pgm import dump_tube_set
from axialtrack.segmenter import Tube

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

BIG = 10 ** 15
ints = st.one_of(st.sampled_from([0, 1, 2, BIG, -BIG]), st.integers(-BIG, BIG))
values = st.one_of(ints, st.text(max_size=12))


def _lines(keys):
    line = st.one_of(
        st.builds(lambda k, v: f"{k} = {v}", keys, values),
        st.text(max_size=20),
    )
    return st.lists(line, max_size=6).map("\n".join)


# Well-formed meta files with extreme integers, and free-form ones.
meta_texts = st.one_of(
    st.builds(
        lambda track, cls, span: f"track_id = {track}\nclass_id = {cls}\nspan = {span}\n",
        ints, ints.map(abs), st.one_of(st.sampled_from([1, 2]), values),
    ),
    _lines(st.sampled_from(["track_id", "class_id", "span", "extra"])),
)
pgm_bytes = st.one_of(
    st.binary(max_size=40),
    st.builds(
        lambda w, h, maxval, pixels: f"P5\n{w} {h}\n{maxval}\n".encode() + pixels,
        ints, ints,
        st.sampled_from([255, 0, 65535]), st.binary(max_size=40),
    ),
)


def _dump(root):
    masks = np.zeros((2, 4, 4))
    masks[:, 1:3, 1:3] = 1.0
    tubes = [Tube(masks, np.array([0.0, 1.0]), track_id=0)]
    dump_tube_set(tubes, [1], os.path.join(root, "gt"))
    dump_tube_set(tubes, [1], os.path.join(root, "pred"))


@PROPERTY
@given(side=st.sampled_from(["pred", "gt"]), meta=st.none() | meta_texts,
       frame=st.none() | pgm_bytes)
def test_eval_on_corrupt_dump_never_exits_two(side, meta, frame):
    with tempfile.TemporaryDirectory() as root:
        _dump(root)
        tube = os.path.join(root, side, "tube_000")
        if meta is not None:
            with open(os.path.join(tube, "meta"), "w", encoding="utf-8") as fh:
                fh.write(meta)
        if frame is not None:
            with open(os.path.join(tube, "t0001.pgm"), "wb") as fh:
                fh.write(frame)
        rc = cli_main(["eval", "--pred", os.path.join(root, "pred"),
                       "--gt", os.path.join(root, "gt"), "--out", os.path.join(root, "eval")])
    assert rc in (0, 1)


config_texts = _lines(st.sampled_from(
    ["l", "t", "h", "w", "d", "n", "c", "n_w", "n_c", "heads", "k_sample",
     "atrous_rates", "scale_mode", "seed", "extra"]
))


@PROPERTY
@given(text=config_texts)
def test_parse_config_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ModelConfig)


@PROPERTY
@given(ref_t=st.none() | ints, ref_h=st.none() | ints, ref_w=st.none() | ints)
def test_attn_reference_never_exits_two(ref_t, ref_h, ref_w):
    argv = ["attn", "--l", "4", "--h", "8", "--w", "8", "--d", "4"]
    for flag, value in (("--ref-t", ref_t), ("--ref-h", ref_h), ("--ref-w", ref_w)):
        if value is not None:
            argv += [flag, str(value)]
    with tempfile.TemporaryDirectory() as root:
        rc = cli_main(argv + ["--out", root])
    assert rc in (0, 1)


@PROPERTY
@given(kind=st.sampled_from(["missing", "directory", "bytes"]), data=st.binary(max_size=60))
def test_config_path_never_exits_two(kind, data):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "cfg")
        if kind == "directory":
            os.mkdir(path)
        elif kind == "bytes":
            with open(path, "wb") as fh:
                fh.write(data)
        rc = cli_main(["bench", "--config", path, "--t", "2", "--h", "2", "--w", "2", "--d", "4",
                       "--out", os.path.join(root, "out")])
    assert rc in (0, 1)
