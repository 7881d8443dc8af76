"""Disk cache semantics: pure memo, never trusted when malformed."""

import json

from alder import cache


def test_roundtrip(tmp_path):
    values = [1, 0, 2, 5, 10 ** 30]
    cache.store(tmp_path, "q.a1.d2", values)
    assert cache.load(tmp_path, "q.a1.d2", 4) == values


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
    path = next(tmp_path.glob("*.json"))
    data = json.loads(path.read_text())
    data["key"] = "other"
    path.write_text(json.dumps(data))
    assert cache.load(tmp_path, "k", 1) is None


def test_garbage_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    path = next(tmp_path.glob("*.json"))
    path.write_text("{broken")
    assert cache.load(tmp_path, "k", 1) is None


def test_negative_or_bad_entry_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    path = next(tmp_path.glob("*.json"))
    data = json.loads(path.read_text())
    data["values"] = ["1", "-3"]
    path.write_text(json.dumps(data))
    assert cache.load(tmp_path, "k", 1) is None


def test_flipped_digit_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2, 35, 10 ** 30])
    path = next(tmp_path.glob("*.json"))
    data = json.loads(path.read_text())
    data["values"][2] = "36"
    path.write_text(json.dumps(data))
    assert cache.load(tmp_path, "k", 1) is None


def test_entry_without_digest_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    path = next(tmp_path.glob("*.json"))
    data = json.loads(path.read_text())
    del data["sha256"]
    path.write_text(json.dumps(data))
    assert cache.load(tmp_path, "k", 1) is None


def test_store_failure_is_nonfatal(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("file in the way")
    cache.store(target, "k", [1])  # must not raise, and is a no-op
    assert target.read_text() == "file in the way"
    assert [p.name for p in tmp_path.iterdir()] == ["not-a-dir"]


def test_failed_store_keeps_the_old_entry(tmp_path, monkeypatch):
    cache.store(tmp_path, "k", [1, 2, 3])

    def dump_then_fail(obj, fh):
        fh.write('{"v": ')
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cache.json, "dump", dump_then_fail)
    cache.store(tmp_path, "k", [1, 5, 7, 9])  # must not raise
    monkeypatch.undo()
    assert cache.load(tmp_path, "k", 2) == [1, 2, 3]
    assert list(tmp_path.glob("*.tmp")) == []
