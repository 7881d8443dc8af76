"""Disk cache semantics: pure memo, never trusted when malformed."""

import json

from alder import cache
from conftest import rewrite_entry


def test_roundtrip(tmp_path):
    # p(10^5), the largest count a table within MAX_HORIZON reaches, has 346 digits
    values = [1, 0, 2, 5, 10 ** 30, 3 * 10 ** 349 + 7]
    cache.store(tmp_path, "q.a1.d2", values)
    assert cache.load(tmp_path, "q.a1.d2", 5) == values


def test_entry_is_a_digest_header_and_one_integer_array(tmp_path):
    cache.store(tmp_path, "k", [1, 0, 12])
    head, body = (tmp_path / "k.json").read_bytes().split(b"\n")
    assert body == b"[1,0,12]"
    assert json.loads(head) == {"v": 3, "key": "k", "horizon": 2,
                                "sha256": cache.sha256(body).hexdigest()}


def test_larger_horizon_served_for_smaller_request(tmp_path):
    cache.store(tmp_path, "k", [1, 2, 3, 4])
    assert cache.load(tmp_path, "k", 1) == [1, 2, 3, 4]


def test_short_horizon_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    assert cache.load(tmp_path, "k", 5) is None


def test_missing_file(tmp_path):
    assert cache.load(tmp_path, "nothing.here", 1) is None


def test_key_mismatch_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    rewrite_entry(next(tmp_path.glob("*.json")), key="other")
    assert cache.load(tmp_path, "k", 1) is None


def test_other_version_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    rewrite_entry(next(tmp_path.glob("*.json")), v=2)
    assert cache.load(tmp_path, "k", 1) is None


def test_garbage_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    path = next(tmp_path.glob("*.json"))
    path.write_text("{broken")
    assert cache.load(tmp_path, "k", 1) is None


def test_negative_or_bad_entry_rejected(tmp_path):
    # re-digested, so the body guards and not the digest reject each: a sign,
    # a fraction, a literal, a leading zero, a string, whitespace, nesting, a
    # dropped element, a truncated body, values[0] != 1 and an extra element
    cache.store(tmp_path, "k", [1, 2])
    path = next(tmp_path.glob("*.json"))
    for body in ["[1,-3]", "[1,1.5]", "[1,true]", "[1,01]", '[1,"2"]', "[1,null]",
                 "[1, 2]", "[[1,2]]", "[1]", "[1,2", "[2,2]", "[1,2,3]"]:
        rewrite_entry(path, lambda old: body, redigest=True)
        assert cache.load(tmp_path, "k", 1) is None, body


def test_flipped_digit_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2, 35, 10 ** 30])
    rewrite_entry(next(tmp_path.glob("*.json")),
                  lambda body: body.replace(",35,", ",36,"))
    assert cache.load(tmp_path, "k", 1) is None


def test_entry_without_digest_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    rewrite_entry(next(tmp_path.glob("*.json")), sha256=None)
    assert cache.load(tmp_path, "k", 1) is None


def test_store_failure_is_nonfatal(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("file in the way")
    cache.store(target, "k", [1])  # must not raise, and is a no-op
    assert target.read_text() == "file in the way"
    assert [p.name for p in tmp_path.iterdir()] == ["not-a-dir"]


def test_failed_store_keeps_the_old_entry(tmp_path, monkeypatch):
    cache.store(tmp_path, "k", [1, 2, 3])
    written = []

    def open_then_fail_mid_write(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def write_half_then_fail(text):
            written.append(fh.name)
            write(text[:len(text) // 2])
            fh.flush()
            raise OSError(28, "No space left on device")
        fh.write = write_half_then_fail
        return fh
    monkeypatch.setattr(cache, "open", open_then_fail_mid_write, raising=False)
    cache.store(tmp_path, "k", [1, 5, 7, 9])  # must not raise
    assert written and written[0].endswith(".tmp")
    monkeypatch.undo()
    assert cache.load(tmp_path, "k", 2) == [1, 2, 3]
    assert list(tmp_path.glob("*.tmp")) == []
