import hashlib
import struct
from bisect import bisect_right
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from twinsync import recordlog
from twinsync.recordlog import (CHANNEL_COMMAND, CHANNEL_MOCAP,
                                CHANNEL_TELEMETRY, LogError, LogRecord,
                                LogWriter, read_log)

HEADER_SIZE = 22
RECORD_HEAD_SIZE = 14


class Scan(NamedTuple):
    records: tuple
    truncated: bool


def read(path) -> Scan:
    """Every record ``read_log`` yields for the log at ``path``, and its
    torn-tail flag: only the last block, and every log has one, is flagged
    last, and only it may be flagged truncated."""
    blocks = list(read_log(path))
    assert [b.last for b in blocks] == [False] * (len(blocks) - 1) + [True]
    assert not any(b.truncated for b in blocks[:-1])
    return Scan(tuple(r for b in blocks for r in b.records), blocks[-1].truncated)


def whole_file_scan(data: bytes) -> Scan:
    """The log in ``data`` as a reader that holds the whole file reads it:
    the oracle for ``read_log``'s blocks."""
    if len(data) < HEADER_SIZE:
        raise LogError("file too short for header")
    magic, version, _, _ = struct.unpack_from("<4sHQQ", data)
    if magic != b"DTRL":
        raise LogError(f"bad log magic {magic!r}")
    if version != 1:
        raise LogError(f"unsupported log version {version}")
    records, off, last_time = [], HEADER_SIZE, 0
    while off + RECORD_HEAD_SIZE <= len(data):
        time_ns, channel, length = struct.unpack_from("<QHI", data, off)
        stop = off + RECORD_HEAD_SIZE + length
        if stop > len(data):
            break
        if time_ns < last_time:
            raise LogError(f"record time regression at offset {off}")
        last_time = time_ns
        records.append(LogRecord(time_ns, channel, data[off + RECORD_HEAD_SIZE:stop]))
        off = stop
    return Scan(tuple(records), off < len(data))


def write(path, records, seed=7):
    with LogWriter(path, seed=seed) as w:
        for r in records:
            w.append(r)
    return path


def written_header(path):
    """(magic, version, seed, created time) of the log's 22-byte header."""
    return struct.unpack_from("<4sHQQ", path.read_bytes())


class TestRoundtrip:
    def test_basic(self, tmp_path):
        recs = [LogRecord(100, CHANNEL_TELEMETRY, b"abc"),
                LogRecord(150, CHANNEL_MOCAP, b"\x00\x01"),
                LogRecord(150, CHANNEL_COMMAND, b"xyzw")]
        path = write(tmp_path / "a.dtrl", recs, seed=42)
        out = read(path)
        assert written_header(path) == (b"DTRL", 1, 42, 0)
        assert not out.truncated
        assert list(out.records) == recs

    def test_empty_log(self, tmp_path):
        out = read(write(tmp_path / "e.dtrl", []))
        assert out.records == () and not out.truncated

    def test_zero_length_payload(self, tmp_path):
        path = write(tmp_path / "h.dtrl", [LogRecord(999, 0, b"")])
        out = read(path)
        assert out.records[0].payload == b""
        assert out.records[0].channel == 0

    def test_file_size_accounting(self, tmp_path):
        recs = [LogRecord(i, CHANNEL_TELEMETRY, b"x" * i) for i in range(10)]
        path = write(tmp_path / "s.dtrl", recs)
        expected = HEADER_SIZE + sum(RECORD_HEAD_SIZE + len(r.payload)
                                     for r in recs)
        assert path.stat().st_size == expected


class TestWriter:
    def test_time_regression_rejected(self, tmp_path):
        with LogWriter(tmp_path / "r.dtrl", seed=0) as w:
            w.append(LogRecord(100, 1, b""))
            with pytest.raises(LogError):
                w.append(LogRecord(99, 1, b""))

    def test_equal_times_allowed(self, tmp_path):
        with LogWriter(tmp_path / "q.dtrl", seed=0) as w:
            w.append(LogRecord(100, 1, b""))
            w.append(LogRecord(100, 2, b""))
        assert read(tmp_path / "q.dtrl").records == (LogRecord(100, 1, b""),
                                                         LogRecord(100, 2, b""))

    def test_hash_only_matches_path(self, tmp_path):
        recs = [LogRecord(100, CHANNEL_TELEMETRY, b"abc"),
                LogRecord(150, CHANNEL_COMMAND, b"")]
        with LogWriter(None, seed=42) as w:
            for r in recs:
                w.append(r)
            with pytest.raises(LogError):
                w.append(LogRecord(149, CHANNEL_MOCAP, b""))
            assert w.last_time == 150
        path = write(tmp_path / "p.dtrl", recs, seed=42)
        assert w.out.sha256.digest() == hashlib.sha256(path.read_bytes()).digest()

    def test_closed_writer_rejects(self, tmp_path):
        w = LogWriter(tmp_path / "c.dtrl", seed=0)
        w.close()
        with pytest.raises(LogError):
            w.append(LogRecord(0, 1, b""))


class TestRecovery:
    def test_torn_payload_dropped(self, tmp_path):
        recs = [LogRecord(1, 1, b"aaaa"), LogRecord(2, 2, b"bbbb")]
        path = write(tmp_path / "t.dtrl", recs)
        data = path.read_bytes()
        path.write_bytes(data[:-2])  # simulate a crash mid-record
        out = read(path)
        assert out.truncated
        assert len(out.records) == 1 and out.records[0].payload == b"aaaa"

    def test_torn_record_head_dropped(self, tmp_path):
        path = write(tmp_path / "t2.dtrl", [LogRecord(1, 1, b"aa")])
        path.write_bytes(path.read_bytes() + b"\x05\x00")  # partial head
        out = read(path)
        assert out.truncated and len(out.records) == 1

    def test_bad_magic(self, tmp_path):
        path = write(tmp_path / "m.dtrl", [])
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(LogError, match="magic"):
            read(path)

    def test_bad_version(self, tmp_path):
        path = write(tmp_path / "v.dtrl", [])
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(LogError, match="version"):
            read(path)

    def test_too_short_for_header(self, tmp_path):
        p = tmp_path / "short.dtrl"
        p.write_bytes(b"DTRL")
        with pytest.raises(LogError, match="short"):
            read(p)

    def test_regression_in_file_detected(self, tmp_path):
        path = write(tmp_path / "rr.dtrl", [LogRecord(100, 1, b"")])
        extra = struct.pack("<QHI", 50, 1, 0)  # earlier time appended raw
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(LogError, match="regression"):
            read(path)


@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 65535),
                          st.binary(max_size=64)), max_size=20),
       st.integers(0, 2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_write_read_identity(tmp_path_factory, entries, seed):
    entries.sort(key=lambda e: e[0])
    recs = [LogRecord(t, c, p) for t, c, p in entries]
    path = tmp_path_factory.mktemp("logs") / "x.dtrl"
    write(path, recs, seed=seed)
    out = read(path)
    assert list(out.records) == recs
    assert written_header(path)[2] == seed and not out.truncated


@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 65535),
                          st.binary(max_size=24)), max_size=6),
       st.integers(1, 48))
@settings(max_examples=30, deadline=None)
def test_cut_at_every_offset_keeps_whole_records(tmp_path_factory, entries, block_size):
    # a log cut at any byte, as a crash leaves it, read in blocks of any
    # size: the records that end by the cut come back, and a cut inside a
    # record flags the torn tail
    entries.sort(key=lambda e: e[0])
    recs = [LogRecord(t, c, p) for t, c, p in entries]
    path = tmp_path_factory.mktemp("cut") / "c.dtrl"
    data = write(path, recs, seed=3).read_bytes()
    ends = [HEADER_SIZE]
    for r in recs:
        ends.append(ends[-1] + RECORD_HEAD_SIZE + len(r.payload))
    assert ends[-1] == len(data)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(recordlog, "BLOCK_SIZE", block_size)
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            if cut < HEADER_SIZE:
                with pytest.raises(LogError, match="short"):
                    read(path)
                continue
            out = read(path)
            assert out.records == tuple(recs[:bisect_right(ends, cut) - 1])
            assert out.truncated == (cut not in ends)


RECORDS = [LogRecord(10, CHANNEL_TELEMETRY, bytes(range(40))),
           LogRecord(10, CHANNEL_MOCAP, b""),
           LogRecord(25, CHANNEL_COMMAND, b"xyz" * 9),
           LogRecord(40, CHANNEL_MOCAP, b"\x00" * 5)]
# the file offset each record of RECORDS starts at, and the end of the log
STARTS = [22, 76, 90, 131, 150]


BLOCK_SIZES = [1, 2, 3, 5, 13, 14, 22, 27, 54, 8192]


def boundaries(block_size, size=STARTS[-1]):
    """The file offsets where ``read_log`` ends a block of a log of ``size``
    bytes, after it has read the header."""
    return set(range(HEADER_SIZE + block_size, size, block_size))


def test_block_sizes_cut_heads_payloads_and_record_ends():
    cuts = set().union(*map(boundaries, BLOCK_SIZES))
    assert any(s < b < s + RECORD_HEAD_SIZE for b in cuts for s in STARTS[:-1])
    assert any(s + RECORD_HEAD_SIZE < b < e for b in cuts for s, e in zip(STARTS, STARTS[1:]))
    assert cuts & set(STARTS)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_blocks_read_as_the_whole_file(tmp_path, monkeypatch, block_size):
    # wherever the block boundaries fall (in a record head, in a payload,
    # on a record's end) and wherever the log is cut, the blocks hold what
    # a scan of the whole file finds; a record older than the one before
    # it is the same error at the same offset
    path = write(tmp_path / "b.dtrl", RECORDS)
    data = path.read_bytes()
    assert len(data) == STARTS[-1]
    monkeypatch.setattr(recordlog, "BLOCK_SIZE", block_size)
    # the writer passes its chunks on at the same size: the bytes stay
    assert write(tmp_path / "c.dtrl", RECORDS).read_bytes() == data
    for cut in range(HEADER_SIZE, len(data) + 1):
        path.write_bytes(data[:cut])
        assert read(path) == whole_file_scan(data[:cut])
    older = struct.pack("<QHI", 5, CHANNEL_TELEMETRY, 2) + b"ab"
    for at in STARTS[1:]:
        bad = data[:at] + older + data[at:]
        path.write_bytes(bad)
        with pytest.raises(LogError) as scanned:
            whole_file_scan(bad)
        with pytest.raises(LogError, match="regression") as streamed:
            read(path)
        assert str(streamed.value) == str(scanned.value)
