"""On-disk memo for count tables.

A cache entry is one file per table name ("," as "_"): a compact JSON header line
``{"v":4,"key":...,"horizon":...,"encoding":...,"blake2b":...}``, then
the body, the counts 0..horizon, whose BLAKE2b digest the header holds.
When every count lies in [0, 2^64) the body (``"u64le"``) is horizon+1
little-endian 64-bit words, loaded as words (a ``memoryview``, repacked
in host order on a big-endian host) with no int per count.  Otherwise (the
partition function passes 2^64 at n = 417) it is one compact JSON
array of integers (``"json"``): exact at any size, and for counts two or
more words wide no slower to decode than 64-bit limbs.  A word takes 8
bytes where the short decimals of a small-count table take about 5, so
such entries are about 1.5 times larger on disk.  The cache is a pure
memo: a valid hit must reproduce exactly what a fresh build would give,
and anything malformed, mismatched or failing its digest is discarded
and rebuilt rather than trusted, and so is an entry of an older layout,
which its rebuild overwrites in place.  ``write_atomic`` writes an
entry, and the CLI's --out file, through a temp file renamed over the
target, so readers never observe a torn file.
"""

from __future__ import annotations

import json
import os
import struct
import sys

try:  # hashlib loads OpenSSL, about 3.5 MB of RSS in every run; this is lean
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

CACHE_VERSION = 4


def _path(cache_dir: str | os.PathLike, key: str) -> str:
    return os.path.join(cache_dir, key.replace(",", "_") + ".json")


def load(cache_dir: str | os.PathLike, key: str, horizon: int) -> memoryview | tuple | None:
    """Return cached values (0..h) with h >= horizon, or None on any defect."""
    try:
        with open(_path(cache_dir, key), "rb") as fh:
            head, body = fh.read().split(b"\n", 1)
        header = json.loads(head)
        size = header["horizon"] + 1
        if (header["v"] != CACHE_VERSION or header["key"] != key
                or header["horizon"] < horizon or blake2b(body).hexdigest() != header["blake2b"]):
            return None
        if header["encoding"] == "u64le" and len(body) == 8 * size:
            if sys.byteorder != "little":
                body = struct.pack(f"={size}Q", *struct.unpack(f"<{size}Q", body))
            values = memoryview(body).cast("Q")
        # only "[", digits, commas and "]": no sign, fraction, literal or string
        elif header["encoding"] == "json" and body.translate(None, b"0123456789,") == b"[]":
            values = tuple(json.loads(body))
        else:
            return None
        if len(values) != size or values[0] != 1:
            return None
        return values
    except (OSError, ValueError, KeyError, TypeError, IndexError, struct.error):
        return None


def write_atomic(path: str, write):
    """Call ``write(fh)`` on ``<path>.<pid>.tmp``, then rename it over
    ``path`` and return what ``write`` returned; on any failure the temp file
    is removed and ``path`` unchanged.  ``fh`` is a UTF-8 text file; bytes
    go to ``fh.buffer``."""
    tmp = f"{path}.{os.getpid()}.tmp"  # a plain open keeps the umask mode, not 0600
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


def store(cache_dir: str | os.PathLike, key: str, values: list[int] | tuple | memoryview) -> None:
    """Write a table to the cache; failures are non-fatal (cache is advisory)."""
    try:  # struct refuses exactly the counts outside [0, 2^64)
        little = isinstance(values, memoryview) and sys.byteorder == "little"
        encoding, body = "u64le", (values.tobytes() if little  # held words: "<Q" already
                                   else struct.pack(f"<{len(values)}Q", *values))
    except struct.error:
        encoding, body = "json", json.dumps(values, separators=(",", ":")).encode("ascii")
    header = json.dumps({"v": CACHE_VERSION, "key": key, "horizon": len(values) - 1,
                         "encoding": encoding, "blake2b": blake2b(body).hexdigest()},
                        separators=(",", ":"))
    try:
        os.makedirs(cache_dir, exist_ok=True)
        write_atomic(_path(cache_dir, key),
                     lambda fh: fh.buffer.write(header.encode("ascii") + b"\n" + body))
    except OSError:
        pass
