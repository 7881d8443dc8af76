import json
import os

import pytest

from alder import counting
from alder.cache import blake2b

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def no_cache_dir_leak():
    """CLI runs may point the table cache at a tmp dir; undo it afterwards."""
    yield
    counting.set_cache_dir(None)


def child_env():
    """``os.environ`` with src/ first on PYTHONPATH: a child started with
    ``sys.executable`` imports this checkout's alder, installed or not (the
    ``pythonpath`` ini option reaches only the pytest process itself)."""
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + rest if rest else "")}


def rewrite_entry(path, edit=lambda body: body, redigest=False, **header):
    """Rewrite the cache entry at ``path``: ``edit`` maps its body bytes (the
    packed words or the JSON array that the header's ``encoding`` names) to
    the new body, and each keyword replaces a header field (None drops it).
    With ``redigest`` the BLAKE2b digest is taken over the new body, so that
    only a guard after the digest check can reject the entry."""
    head, body = path.read_bytes().split(b"\n", 1)
    fields = {**json.loads(head), **header}
    body = edit(body)
    if redigest:
        fields["blake2b"] = blake2b(body).hexdigest()
    fields = {k: v for k, v in fields.items() if v is not None}
    path.write_bytes(json.dumps(fields).encode() + b"\n" + body)
