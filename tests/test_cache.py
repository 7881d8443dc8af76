"""Disk cache semantics: pure memo, never trusted when malformed."""

import hashlib
import json
import struct
import sys

from alder import cache, counting
from conftest import rewrite_entry
from oracles import pm_set, positive_integers


def test_roundtrip(tmp_path):
    # p(10^5), the largest count a table within MAX_HORIZON reaches, has 346 digits
    values = [1, 0, 2, 5, 10 ** 30, 3 * 10 ** 349 + 7]
    cache.store(tmp_path, "q.a1.d2", values)
    assert cache.load(tmp_path, "q.a1.d2", 5) == tuple(values)


def test_entry_is_a_digest_header_and_one_integer_array(tmp_path):
    cache.store(tmp_path, "k", [1, 0, 2 ** 64])
    head, body = (tmp_path / "k.json").read_bytes().split(b"\n")
    assert body == b"[1,0,18446744073709551616]"
    assert json.loads(head) == {"v": 4, "key": "k", "horizon": 2, "encoding": "json",
                                "blake2b": cache.blake2b(body).hexdigest()}


def test_small_counts_are_packed_words(tmp_path):
    cache.store(tmp_path, "k", [1, 0, 12])
    head, body = (tmp_path / "k.json").read_bytes().split(b"\n", 1)
    assert body == struct.pack("<3Q", 1, 0, 12)
    assert json.loads(head) == {"v": 4, "key": "k", "horizon": 2, "encoding": "u64le",
                                "blake2b": cache.blake2b(body).hexdigest()}


def test_word_limit_picks_the_encoding(tmp_path):
    # 2^64 - 1 is the largest word, and the same table decodes equal from
    # a JSON body; 2^64 and a negative count (which store must not raise
    # on) go to JSON
    path = tmp_path / "k.json"
    for values, encoding in (([1, 7, 2 ** 64 - 1], "u64le"), ([1, 7, 2 ** 64], "json"),
                             ([1, -1], "json")):
        cache.store(tmp_path, "k", values)
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["encoding"] == encoding
    words = [1, 7, 2 ** 64 - 1]
    cache.store(tmp_path, "k", words)
    assert tuple(cache.load(tmp_path, "k", 1)) == tuple(words)
    rewrite_entry(path, lambda body: json.dumps(words, separators=(",", ":")).encode(),
                  redigest=True, encoding="json")
    assert cache.load(tmp_path, "k", 1) == tuple(words)
    cache.store(tmp_path, "k", [1, 7, 2 ** 64])
    assert cache.load(tmp_path, "k", 1) == (1, 7, 2 ** 64)


def test_word_entry_written_by_struct_loads_as_words(tmp_path):
    # an entry as every earlier v4 writer made it: compact header, "<nQ" body
    counts = [1, 0, 12, 2 ** 64 - 1, 256]
    body = struct.pack("<5Q", *counts)
    header = {"v": 4, "key": "k", "horizon": 4, "encoding": "u64le",
              "blake2b": cache.blake2b(body).hexdigest()}
    (tmp_path / "k.json").write_bytes(json.dumps(header, separators=(",", ":")).encode()
                                      + b"\n" + body)
    words = cache.load(tmp_path, "k", 4)
    assert isinstance(words, memoryview) and words.readonly and list(words) == counts


def test_big_endian_host_repacks_the_words(tmp_path, monkeypatch):
    counts = [1, 2, 2 ** 64 - 1, 258]
    cache.store(tmp_path, "k", counts)
    unpacked = []
    unpack = struct.unpack
    monkeypatch.setattr(cache.struct, "unpack",
                        lambda fmt, body: unpacked.append(fmt) or unpack(fmt, body))
    if sys.byteorder == "little":  # read as stored: no int per count
        assert list(cache.load(tmp_path, "k", 3)) == counts and unpacked == []
    monkeypatch.setattr(sys, "byteorder", "big")
    words = cache.load(tmp_path, "k", 3)
    monkeypatch.undo()
    assert unpacked == ["<4Q"]
    assert isinstance(words, memoryview) and list(words) == counts


def test_held_words_stored_as_they_are_only_on_a_little_endian_host(tmp_path, monkeypatch):
    # a held table's native words are its "<Q" body on a little-endian host;
    # on any other host the writer packs them, and both entries load alike
    counts = [1, 2, 2 ** 64 - 1]
    words = memoryview(struct.pack("3Q", *counts)).cast("Q")
    packed, pack = [], struct.pack
    monkeypatch.setattr(cache.struct, "pack", lambda fmt, *v: packed.append(fmt) or pack(fmt, *v))
    cache.store(tmp_path, "host", words)
    monkeypatch.setattr(sys, "byteorder", "big")
    cache.store(tmp_path, "big", words)
    monkeypatch.undo()
    assert packed == ["<3Q"] * (1 if sys.byteorder == "little" else 2)
    assert list(cache.load(tmp_path, "host", 2)) == list(cache.load(tmp_path, "big", 2)) == counts


def test_held_tables_store_the_bytes_of_their_counts(tmp_path, monkeypatch):
    # each file as the writer made it from the builder's list: "<nQ" words
    # while every count fits (a +-2 (mod 11) table to 1000), else a JSON
    # array (p(n) to 500 passes 2^64)
    monkeypatch.setattr(counting, "_tables", {})
    counting.set_cache_dir(tmp_path)
    for name, encoding in ((pm_set(2, 11), "u64le"), (positive_integers(), "json")):
        held = counting.column(name, 500)
        built = counting._build(name, len(held) - 1)
        body = (struct.pack(f"<{len(built)}Q", *built) if encoding == "u64le"
                else json.dumps(built, separators=(",", ":")).encode())
        header = {"v": 4, "key": name, "horizon": len(built) - 1, "encoding": encoding,
                  "blake2b": cache.blake2b(body).hexdigest()}
        with open(cache._path(tmp_path, name), "rb") as fh:
            assert fh.read() == json.dumps(header, separators=(",", ":")).encode() \
                + b"\n" + body
        assert isinstance(held, memoryview if encoding == "u64le" else tuple)
        counting._tables.clear()  # a warm read holds the same counts, the same way
        warm = counting.column(name, 500)
        assert type(warm) is type(held) and list(warm) == built


def test_larger_horizon_served_for_smaller_request(tmp_path):
    cache.store(tmp_path, "k", [1, 2, 3, 4])
    assert tuple(cache.load(tmp_path, "k", 1)) == (1, 2, 3, 4)


def test_short_horizon_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2])
    assert cache.load(tmp_path, "k", 5) is None


def test_horizon_boundary(tmp_path):
    # an entry one short of the horizon asked for must not be trusted
    cache.store(tmp_path, "k", [1, 2, 3, 4])
    assert cache.load(tmp_path, "k", 4) is None
    assert tuple(cache.load(tmp_path, "k", 3)) == (1, 2, 3, 4)


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
    cache.store(tmp_path, "k", [1, 2 ** 64])
    path = next(tmp_path.glob("*.json"))
    for body in ["[1,-3]", "[1,1.5]", "[1,true]", "[1,01]", '[1,"2"]', "[1,null]",
                 "[1, 2]", "[[1,2]]", "[1]", "[1,2", "[2,2]", "[1,2,3]"]:
        rewrite_entry(path, lambda old: body.encode(), redigest=True)
        assert cache.load(tmp_path, "k", 1) is None, body
    for encoding in ("u64le", "text", None):  # a good body under another encoding
        rewrite_entry(path, lambda old: b"[1,2]", redigest=True, encoding=encoding)
        assert cache.load(tmp_path, "k", 1) is None, encoding
    rewrite_entry(path, lambda old: b"[1,2]", redigest=True, encoding="json")
    assert cache.load(tmp_path, "k", 1) == (1, 2)


def test_bad_word_body_rejected(tmp_path):
    # re-digested, so the body guards and not the digest reject each: a
    # truncated body, one extra word, a word count the horizon disagrees
    # with, values[0] != 1 and an encoding the loader does not know
    cache.store(tmp_path, "k", [1, 2, 3])
    path = next(tmp_path.glob("*.json"))
    good = path.read_bytes()
    for edit, header in [(lambda body: body[:-1], {}),
                         (lambda body: body + struct.pack("<Q", 4), {}),
                         (lambda body: body, {"horizon": 1}),
                         (lambda body: body, {"horizon": 3}),
                         (lambda body: struct.pack("<Q", 2) + body[8:], {}),
                         (lambda body: body, {"encoding": "u32le"}),
                         (lambda body: body, {"encoding": None})]:
        path.write_bytes(good)
        rewrite_entry(path, edit, redigest=True, **header)
        assert cache.load(tmp_path, "k", 1) is None, header
    path.write_bytes(good)
    assert tuple(cache.load(tmp_path, "k", 1)) == (1, 2, 3)


def test_flipped_digit_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2, 35, 10 ** 30])
    rewrite_entry(next(tmp_path.glob("*.json")),
                  lambda body: body.replace(b",35,", b",36,"))
    assert cache.load(tmp_path, "k", 1) is None


def test_flipped_word_byte_rejected(tmp_path):
    cache.store(tmp_path, "k", [1, 2, 35, 10 ** 9])
    rewrite_entry(next(tmp_path.glob("*.json")),
                  lambda body: body[:16] + bytes([body[16] ^ 1]) + body[17:])
    assert cache.load(tmp_path, "k", 1) is None


def test_entry_without_digest_rejected(tmp_path):
    for values in ([1, 2], [1, 2 ** 64]):
        cache.store(tmp_path, "k", values)
        rewrite_entry(next(tmp_path.glob("*.json")), blake2b=None)
        assert cache.load(tmp_path, "k", 1) is None


def test_v3_entry_rebuilt_and_rewritten_as_v4(tmp_path, monkeypatch):
    # a well-formed v3 entry whose counts are all 1: trusted, n=65 gives 1
    body = json.dumps([1] * 66, separators=(",", ":")).encode()
    path = tmp_path / "q.a1.d63.json"
    path.write_bytes(json.dumps({"v": 3, "key": "q.a1.d63", "horizon": 65,
                                 "sha256": hashlib.sha256(body).hexdigest()}).encode()
                     + b"\n" + body)
    monkeypatch.setattr(counting, "_tables", {})
    counting.set_cache_dir(tmp_path)
    assert counting.column(counting.q_name(1, 63), 65)[65] == 2
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["v"] == 4
    assert cache.load(tmp_path, "q.a1.d63", 65)[65] == 2


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
        write = fh.buffer.write

        def write_half_then_fail(data):
            written.append(fh.name)
            write(data[:len(data) // 2])
            fh.buffer.flush()
            raise OSError(28, "No space left on device")
        fh.buffer.write = write_half_then_fail
        return fh
    monkeypatch.setattr(cache, "open", open_then_fail_mid_write, raising=False)
    cache.store(tmp_path, "k", [1, 5, 7, 9])  # must not raise
    assert written and written[0].endswith(".tmp")
    monkeypatch.undo()
    assert tuple(cache.load(tmp_path, "k", 2)) == (1, 2, 3)
    assert list(tmp_path.glob("*.tmp")) == []
