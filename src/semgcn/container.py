"""The file layout shared by ``.poses`` datasets and ``.ckpt`` checkpoints.

A file is one UTF-8 JSON header line, written with sorted keys and no
NaN or infinity, then its arrays as little-endian float64 values, back
to back, none of them NaN or infinite.  A loader accepts only what its
writer writes: ``read`` refuses any other version, a missing or unknown
key, a value of another JSON type, a payload of any other length, and a
non-finite payload value.
"""

from __future__ import annotations

import json

import numpy as np

_JSON_TYPES = {int: "an integer", str: "a string", dict: "an object",
               list: "a list"}


def write(path, header: dict, arrays) -> None:
    """Write the file, or raise ValueError before opening ``path`` when
    the header or an array holds NaN or infinity."""
    line = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    arrays = [np.ascontiguousarray(arr, dtype="<f8") for arr in arrays]
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValueError(f"refusing to write non-finite values to {path}")
    with open(path, "wb") as fh:
        fh.write(line + b"\n")
        for arr in arrays:
            fh.write(arr.tobytes())


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def read(path, version: tuple[str, int], fields: dict[str, type], error):
    """The header of the file at ``path`` and its payload reader.

    The header must hold the ``version`` key with exactly that integer,
    checked first so that a newer file is named as such, and otherwise
    exactly the keys of ``fields``, each of its JSON type (``true`` is no
    integer).  ``payload(count)`` returns the ``count`` float64 values
    that follow the header, read-only, all finite.  Every failure raises
    ``error``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        blob = fh.read()
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; a header
    # nested too deep for the decoder is a RecursionError
    try:
        header = json.loads(line.decode("utf-8"), parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise error(f"unreadable header in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"header of {path} is not a JSON object")
    key, expected = version
    if key in header and (type(header[key]) is not int or header[key] != expected):
        raise error(f"{path} has format version {header[key]!r}, "
                    f"this program reads version {expected}")
    keys = (key, *fields)
    missing = [k for k in keys if k not in header]
    if missing:
        raise error(f"header of {path} lacks {missing}")
    unknown = sorted(set(header).difference(keys))
    if unknown:
        raise error(f"header of {path} has unknown keys {unknown}")
    for k, kind in fields.items():
        if type(header[k]) is not kind:
            raise error(f"header field {k!r} of {path} is {header[k]!r}, "
                        f"not {_JSON_TYPES[kind]}")

    def payload(count: int) -> np.ndarray:
        if len(blob) < 8 * count:
            raise error(f"truncated payload in {path}: expected {8 * count} "
                        f"bytes, got {len(blob)}")
        if len(blob) > 8 * count:
            raise error(f"{path} has {len(blob) - 8 * count} trailing bytes "
                        f"after its {8 * count}-byte payload")
        values = np.frombuffer(blob, dtype="<f8")
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise error(f"{path} holds the non-finite value {values[i]} at "
                        f"payload index {i}")
        return values

    return header, payload
