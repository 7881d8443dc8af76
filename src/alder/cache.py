"""On-disk memo for count tables.

A cache entry is one JSON file per table key holding the horizon, the
counts as decimal strings (counts overflow 64 bits well inside the scales
this tool targets, so no binary integer packing) and the sha256 of those
strings joined by commas.  The cache is a pure memo: a valid hit must
reproduce exactly what a fresh build would give, and anything malformed,
mismatched or failing its digest is discarded and rebuilt rather than
trusted.  ``write_atomic`` writes an entry, and the CLI's --out file,
through a temp file renamed over the target, so readers never observe a
torn file.
"""

from __future__ import annotations

import json
import os
import re

try:  # hashlib loads OpenSSL, about 3.5 MB of RSS in every run; this is lean
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

CACHE_VERSION = 2

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _path(cache_dir: str | os.PathLike, key: str) -> str:
    return os.path.join(cache_dir, _SAFE.sub("_", key) + ".json")


def _digest(strings: list[str]) -> str:
    return sha256(",".join(strings).encode("ascii")).hexdigest()


def load(cache_dir: str | os.PathLike, key: str, horizon: int) -> list[int] | None:
    """Return cached values [0..h] with h >= horizon, or None on any defect."""
    try:
        with open(_path(cache_dir, key), "r", encoding="ascii") as fh:
            data = json.load(fh)
        if data["v"] != CACHE_VERSION or data["key"] != key:
            return None
        strings = data["values"]
        if data["horizon"] != len(strings) - 1 or data["horizon"] < horizon:
            return None
        if _digest(strings) != data["sha256"]:
            return None
        values = [int(s) for s in strings]
        if not values or values[0] != 1 or any(v < 0 for v in values):
            return None
        return values
    except (OSError, ValueError, KeyError, TypeError):
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
    strings = [str(v) for v in values]
    payload = {"v": CACHE_VERSION, "key": key, "horizon": len(values) - 1,
               "values": strings, "sha256": _digest(strings)}
    try:
        os.makedirs(cache_dir, exist_ok=True)
        write_atomic(_path(cache_dir, key), lambda fh: json.dump(payload, fh))
    except OSError:
        pass
