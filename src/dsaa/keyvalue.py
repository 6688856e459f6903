"""The `key = value` text codec behind the avatar and dataset manifests,
the training and data configs, and the evaluation tables, and
`write_atomic`, the one writer that replaces any file a run keeps.

A text holds one `key = value` entry per line. Reading is strict: blank
lines and lines starting with `#` are skipped, every other line must
hold `=`, and no key may repeat. Dataclass fields are written and read
by the type of their declared default, not of the value they happen to
hold: bool as `true`/`false`, int in decimal, float as repr(float(x))
(which reads back to the same float64) and str as is. So 1 given to a
float field is written `1.0`, the text it reads back as, and hashes
taken over written text stay valid across a reload.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from pathlib import Path

__all__ = ["dump", "read", "field_items", "take_fields", "reject_unknown",
           "write_atomic"]


def _format_value(default, value) -> str:
    """Text of `value` for a field whose default is `default`."""
    if isinstance(default, bool):
        return "true" if value else "false"
    if isinstance(default, int):
        return str(int(value))
    if isinstance(default, float):
        return repr(float(value))
    return str(value)


def _parse_value(default, text: str):
    """Inverse of _format_value."""
    if isinstance(default, bool):
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    if isinstance(default, (int, float)):
        return type(default)(text)
    return text


def dump(items) -> str:
    """One `key = value` line per (key, value) pair, each ending in a newline."""
    return "".join(f"{key} = {value}\n" for key, value in items)


def write_atomic(path, data: str | bytes) -> None:
    """Replace the file at path whole with data (a str as utf-8) through a
    temp file of its own (mode 0644) in path's directory: a kill leaves the
    previous file or none, and of writers sharing a path the last wins."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.",
                               suffix=".tmp")
    os.close(fd)
    try:
        os.chmod(tmp, 0o644)            # mkstemp's 0600 would hide the file
        Path(tmp).write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read(text: str) -> dict:
    """{key: value text} in file order."""
    out = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"line {n} is not 'key = value': {raw!r}")
        if key in out:
            raise ValueError(f"line {n} repeats key {key!r}")
        out[key] = value.strip()
    return out


def _fields(cls):
    """The fields of dataclass cls whose default is a scalar; a nested
    dataclass is written under its own prefix. Any other field raises
    TypeError, so no field drops out of the text unnoticed."""
    out = []
    for f in dataclasses.fields(cls):
        if isinstance(f.default, (int, float, str)):
            out.append(f)
        elif not dataclasses.is_dataclass(f.default):
            raise TypeError(f"{cls.__name__}.{f.name} has no text form")
    return out


def field_items(obj, prefix: str = "") -> list:
    """(prefix + name, value text) for each text field of dataclass obj,
    in declaration order."""
    return [(prefix + f.name, _format_value(f.default, getattr(obj, f.name)))
            for f in _fields(type(obj))]


def take_fields(cls, kv: dict, prefix: str = "", complete: bool = True) -> dict:
    """Remove the keys `prefix + name` of cls's text fields from kv and
    return {name: parsed value}. With complete, every field must be there."""
    values = {f.name: _parse_value(f.default, kv.pop(prefix + f.name))
              for f in _fields(cls) if prefix + f.name in kv}
    missing = [prefix + f.name for f in _fields(cls) if f.name not in values]
    if complete and missing:
        raise ValueError(f"manifest missing keys: {missing}")
    return values


def reject_unknown(kv: dict, what: str) -> None:
    """Raise when keys are left in kv after every known key was taken."""
    if kv:
        raise ValueError(f"unknown {what} keys: {sorted(kv)}")
