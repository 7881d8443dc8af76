"""On-disk memo for count tables.

A cache entry is one file per table key, two lines long.  Line 1 is a
compact JSON header ``{"v":3,"key":...,"horizon":...,"sha256":...}``;
line 2 is the counts 0..horizon as one compact JSON array of integers
(counts overflow 64 bits well inside the scales this tool targets, and
JSON integers are exact at any size), and ``sha256`` is the digest of
line 2's bytes.  The cache is a pure memo: a valid hit must reproduce
exactly what a fresh build would give, and anything malformed, mismatched
or failing its digest is discarded and rebuilt rather than trusted, and
so is an entry of an older layout, which its rebuild overwrites in place.
``write_atomic`` writes an entry, and the CLI's --out file, through a
temp file renamed over the target, so readers never observe a torn file.
"""

from __future__ import annotations

import json
import os
import re

try:  # hashlib loads OpenSSL, about 3.5 MB of RSS in every run; this is lean
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

CACHE_VERSION = 3

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _path(cache_dir: str | os.PathLike, key: str) -> str:
    return os.path.join(cache_dir, _SAFE.sub("_", key) + ".json")


def load(cache_dir: str | os.PathLike, key: str, horizon: int) -> list[int] | None:
    """Return cached values [0..h] with h >= horizon, or None on any defect."""
    try:
        with open(_path(cache_dir, key), "rb") as fh:
            head, body = fh.read().split(b"\n")
        header = json.loads(head)
        if (header["v"] != CACHE_VERSION or header["key"] != key
                or header["horizon"] < horizon or sha256(body).hexdigest() != header["sha256"]):
            return None
        # only "[", digits, commas and "]": no sign, fraction, literal or string
        if body.translate(None, b"0123456789,") != b"[]":
            return None
        values = json.loads(body)
        if len(values) != header["horizon"] + 1 or values[0] != 1:
            return None
        return values
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return None


def write_atomic(path: str, write) -> None:
    """Call ``write(fh)`` on ``<path>.<pid>.tmp``, then rename it over
    ``path``; on any failure the temp file is removed and ``path`` unchanged."""
    tmp = f"{path}.{os.getpid()}.tmp"  # a plain open keeps the umask mode, not 0600
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def store(cache_dir: str | os.PathLike, key: str, values: list[int]) -> None:
    """Write a table to the cache; failures are non-fatal (cache is advisory)."""
    body = json.dumps(values, separators=(",", ":"))
    header = json.dumps({"v": CACHE_VERSION, "key": key, "horizon": len(values) - 1,
                         "sha256": sha256(body.encode("ascii")).hexdigest()},
                        separators=(",", ":"))
    try:
        os.makedirs(cache_dir, exist_ok=True)
        write_atomic(_path(cache_dir, key), lambda fh: fh.write(f"{header}\n{body}"))
    except OSError:
        pass
