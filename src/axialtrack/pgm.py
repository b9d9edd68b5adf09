"""Binary (P5) PGM reading/writing and the on-disk tube dump layout.

A tube dump is a directory per tube, `tube_{id:03d}/`, holding one
`t{frame:04d}.pgm` per frame plus a `meta` text file with `track_id`,
`class_id`, and `span` lines. Mask values quantize as floor(255 * m), so
a mask exactly at 0.5 stays below threshold after a round trip.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import DimensionError
from .segmenter import Tube


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D uint8 array as a binary P5 PGM."""
    if image.ndim != 2:
        raise DimensionError(f"PGM images are 2-D, got shape {image.shape}")
    data = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# "P5", then width, height and maxval as decimal tokens, each after
# whitespace and `#` comments that run to the end of their line (at least
# one right after "P5"), then one whitespace byte before the pixels.
_PGM_HEADER = re.compile(rb"P5(?=[\s#])" + rb"(?:\s|#[^\n]*(?=\n|\Z))*(\d{1,18})(?!\S)" * 3 + rb"\s?")


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM (maxval 255, optional comment lines)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise DimensionError(f"{path}: not a binary PGM")
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise DimensionError(f"{path}: header needs a decimal width, height and maxval")
    w, h, maxval = (int(tok) for tok in header.groups())
    if maxval != 255:
        raise DimensionError(f"{path}: only maxval 255 is supported")
    pos = header.end()
    pixels = np.frombuffer(raw[pos:pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise DimensionError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).copy()


def mask_to_u8(mask: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(mask, 0.0, 1.0) * 255.0).astype(np.uint8)


def dump_tube(tube: Tube, class_id: int, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    span = tube.masks.shape[0]
    with open(os.path.join(dirpath, "meta"), "w", encoding="utf-8") as fh:
        fh.write(f"track_id = {tube.track_id}\n")
        fh.write(f"class_id = {class_id}\n")
        fh.write(f"span = {span}\n")
    for f in range(span):
        write_pgm(os.path.join(dirpath, f"t{f:04d}.pgm"), mask_to_u8(tube.masks[f]))


def load_tube(dirpath) -> tuple[np.ndarray, int, int]:
    """Return (masks, class_id, track_id) for one dumped tube."""
    path = os.path.join(dirpath, "meta")
    meta: dict[str, int] = {}
    # An undecodable byte reads as U+FFFD, which no integer value accepts.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise DimensionError(f"{path}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                meta[key] = int(value)
            except ValueError:
                raise DimensionError(f"{path}: {key} needs an integer, got {value!r}") from None
    for key in ("track_id", "class_id", "span"):
        if key not in meta:
            raise DimensionError(f"{path}: missing key {key!r}")
    if meta["class_id"] < 0:
        raise DimensionError(f"{path}: class_id must be >= 0, got {meta['class_id']}")
    if meta["span"] < 1:
        raise DimensionError(f"{path}: span must be >= 1, got {meta['span']}")
    span = meta["span"]
    frames = []
    for f in range(span):
        frame_path = os.path.join(dirpath, f"t{f:04d}.pgm")
        frames.append(read_pgm(frame_path))
        if frames[-1].shape != frames[0].shape:
            raise DimensionError(
                f"{frame_path}: frame size (h, w) = {frames[-1].shape}, "
                f"expected {frames[0].shape} as in the tube's first frame"
            )
    masks = np.stack(frames).astype(np.float64) / 255.0
    return masks, meta["class_id"], meta["track_id"]


def dump_tube_set(tubes: list[Tube], class_ids: list[int], root) -> None:
    os.makedirs(root, exist_ok=True)
    for tube, cid in zip(tubes, class_ids):
        dump_tube(tube, cid, os.path.join(root, f"tube_{tube.track_id:03d}"))


def load_tube_set(root) -> tuple[list[np.ndarray], list[int], list[int]]:
    """Load every tube_* directory under `root`, sorted by name."""
    masks, class_ids, track_ids = [], [], []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if not (name.startswith("tube_") and os.path.isdir(path)):
            continue
        m, cid, tid = load_tube(path)
        masks.append(m)
        class_ids.append(cid)
        track_ids.append(tid)
    return masks, class_ids, track_ids
