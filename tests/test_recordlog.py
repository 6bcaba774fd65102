import io
import struct
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from twinsync.recordlog import (CHANNEL_COMMAND, CHANNEL_MOCAP,
                                CHANNEL_TELEMETRY, LogError, LogRecord,
                                LogWriter, read_log)

HEADER_SIZE = 22
RECORD_HEAD_SIZE = 14


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
        out = read_log(path)
        assert written_header(path) == (b"DTRL", 1, 42, 0)
        assert not out.truncated
        assert list(out.records) == recs

    def test_empty_log(self, tmp_path):
        out = read_log(write(tmp_path / "e.dtrl", []))
        assert out.records == () and not out.truncated

    def test_zero_length_payload(self, tmp_path):
        path = write(tmp_path / "h.dtrl", [LogRecord(999, 0, b"")])
        out = read_log(path)
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
        assert read_log(tmp_path / "q.dtrl").records == (LogRecord(100, 1, b""),
                                                         LogRecord(100, 2, b""))

    def test_file_object_matches_path(self, tmp_path):
        recs = [LogRecord(100, CHANNEL_TELEMETRY, b"abc"),
                LogRecord(150, CHANNEL_COMMAND, b"")]
        buf = io.BytesIO()
        with LogWriter(buf, seed=42) as w:
            for r in recs:
                w.append(r)
            with pytest.raises(LogError):
                w.append(LogRecord(149, CHANNEL_MOCAP, b""))
            assert w.last_time == 150
        path = write(tmp_path / "p.dtrl", recs, seed=42)
        assert buf.getvalue() == path.read_bytes()  # the caller's file stays open

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
        out = read_log(path)
        assert out.truncated
        assert len(out.records) == 1 and out.records[0].payload == b"aaaa"

    def test_torn_record_head_dropped(self, tmp_path):
        path = write(tmp_path / "t2.dtrl", [LogRecord(1, 1, b"aa")])
        path.write_bytes(path.read_bytes() + b"\x05\x00")  # partial head
        out = read_log(path)
        assert out.truncated and len(out.records) == 1

    def test_bad_magic(self, tmp_path):
        path = write(tmp_path / "m.dtrl", [])
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(LogError, match="magic"):
            read_log(path)

    def test_bad_version(self, tmp_path):
        path = write(tmp_path / "v.dtrl", [])
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(LogError, match="version"):
            read_log(path)

    def test_too_short_for_header(self, tmp_path):
        p = tmp_path / "short.dtrl"
        p.write_bytes(b"DTRL")
        with pytest.raises(LogError, match="short"):
            read_log(p)

    def test_regression_in_file_detected(self, tmp_path):
        import struct
        path = write(tmp_path / "rr.dtrl", [LogRecord(100, 1, b"")])
        extra = struct.pack("<QHI", 50, 1, 0)  # earlier time appended raw
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(LogError, match="regression"):
            read_log(path)


@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 65535),
                          st.binary(max_size=64)), max_size=20),
       st.integers(0, 2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_write_read_identity(tmp_path_factory, entries, seed):
    entries.sort(key=lambda e: e[0])
    recs = [LogRecord(t, c, p) for t, c, p in entries]
    path = tmp_path_factory.mktemp("logs") / "x.dtrl"
    write(path, recs, seed=seed)
    out = read_log(path)
    assert list(out.records) == recs
    assert written_header(path)[2] == seed and not out.truncated


@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 65535),
                          st.binary(max_size=24)), max_size=6))
@settings(max_examples=30, deadline=None)
def test_cut_at_every_offset_keeps_whole_records(tmp_path_factory, entries):
    # a log cut at any byte, as a crash leaves it: the records that end by
    # the cut come back, and a cut inside a record flags the torn tail
    entries.sort(key=lambda e: e[0])
    recs = [LogRecord(t, c, p) for t, c, p in entries]
    buf = io.BytesIO()
    with LogWriter(buf, seed=3) as w:
        for r in recs:
            w.append(r)
    data = buf.getvalue()
    ends = [HEADER_SIZE]
    for r in recs:
        ends.append(ends[-1] + RECORD_HEAD_SIZE + len(r.payload))
    assert ends[-1] == len(data)
    path = tmp_path_factory.mktemp("cut") / "c.dtrl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        if cut < HEADER_SIZE:
            with pytest.raises(LogError, match="short"):
                read_log(path)
            continue
        out = read_log(path)
        assert out.records == tuple(recs[:bisect_right(ends, cut) - 1])
        assert out.truncated == (cut not in ends)
