import json
import os

import pytest

from alder import counting
from alder.cache import sha256

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
    """Rewrite the two-line cache entry at ``path``: ``edit`` maps its counts
    line to the new one, and each keyword replaces a header field (None
    drops it).  With ``redigest`` the sha256 is taken over the new counts
    line, so that only a guard after the digest check can reject the entry."""
    head, body = path.read_text().split("\n")
    fields = {**json.loads(head), **header}
    body = edit(body)
    if redigest:
        fields["sha256"] = sha256(body.encode()).hexdigest()
    fields = {k: v for k, v in fields.items() if v is not None}
    path.write_text(json.dumps(fields) + "\n" + body)
