"""Snapshot files: raw little-endian float64 plus a JSON metadata sidecar.

A snapshot named `state` is the pair `state.f64` (raw array bytes,
C order, little-endian 64-bit floats) and `state.json` (shape, axis
definitions, units, format version).  Both files are written to
temporaries and renamed into place, so an interrupted writer never
leaves a truncated snapshot behind.
"""

import json
import os
import tempfile

import numpy as np

FORMAT_VERSION = 1


def _atomic_write(path, payload):
    """Write a bytes-like payload (bytes or a C-contiguous array) to path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-snapshot-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(base, array, axes, units="", extra=None):
    """Write `base`.f64 and `base`.json atomically.

    axes maps axis names to a description in array order, which the
    sidecar keeps, e.g. {"x": {"n": 64, "spacing": 0.15, "origin": 0.0}};
    extra metadata is merged into the sidecar under "extra".
    """
    array = np.ascontiguousarray(array, dtype="<f8")
    axes = dict(axes)
    if len(axes) != array.ndim:
        raise ValueError(
            f"axes has {len(axes)} entries for a {array.ndim}-d array")
    meta = {
        "format_version": FORMAT_VERSION,
        "dtype": "<f8",
        "order": "C",
        "shape": list(array.shape),
        "axes": axes,
        "units": units,
    }
    if extra:
        meta["extra"] = dict(extra)
    base = str(base)
    # the contiguous <f8 array's own buffer holds the file bytes
    _atomic_write(base + ".f64", array)
    _atomic_write(base + ".json",
                  (json.dumps(meta, indent=2) + "\n").encode())


def read_snapshot(base):
    """Load the (array, metadata) pair written by write_snapshot."""
    base = str(base)
    with open(base + ".json") as fh:
        meta = json.load(fh)
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot format version {meta.get('format_version')}")
    shape = tuple(meta["shape"])
    data = np.fromfile(base + ".f64", dtype="<f8")
    if data.size != int(np.prod(shape)):
        raise ValueError(
            f"snapshot payload has {data.size} values, expected {shape}")
    return data.reshape(shape), meta
