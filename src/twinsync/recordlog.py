"""Append-only binary channel log (.dtrl) with crash-safe tail recovery.

Layout (little-endian):
  header: magic "DTRL", version u16, scenario seed u64, created time u64
          (written as 0, so a log's bytes depend only on its run)
  record: time u64, channel u16, payload length u32, payload bytes

Both sides stream, ``BLOCK_SIZE`` bytes at a time: ``LogWriter`` gathers
whole records into a chunk that it passes to a SHA-256 and, given a path,
writes to the file; ``read_log`` reads the file in blocks. Neither holds
more than a chunk or a block (and the one record that may straddle it),
however long the log.
"""

from __future__ import annotations

import hashlib
import io
import struct
from typing import NamedTuple

MAGIC = b"DTRL"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQQ")
_RECORD_HEAD = struct.Struct("<QHI")
# the most a writer gathers before it passes its chunk on, and what the
# reader asks the file for at a time
BLOCK_SIZE = io.DEFAULT_BUFFER_SIZE

CHANNEL_TELEMETRY = 1
CHANNEL_MOCAP = 2
CHANNEL_COMMAND = 3
# heartbeat records carry no payload; they pin the final merge tick for replay
CHANNEL_HEARTBEAT = 0


class LogError(ValueError):
    pass


class LogRecord(NamedTuple):
    time_ns: int
    channel: int
    payload: bytes


class HashedFile:
    """An output of a run: each write goes to ``sha256`` and, when a path is
    given, to that file, opened at once and closed by ``close``."""

    def __init__(self, path):
        self.sha256 = hashlib.sha256()
        self._f = None if path is None else open(path, "wb")

    def write(self, data: bytes) -> None:
        self.sha256.update(data)
        if self._f is not None:
            self._f.write(data)

    def close(self) -> None:
        if self._f is not None:
            self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class LogWriter:
    """Writes a log to a path, or with ``None`` only to its SHA-256
    (``out.sha256``). Records gather in a chunk of whole records that is
    passed on before it would outgrow ``BLOCK_SIZE``, and on close; a
    process killed mid-write leaves whole records up to the torn tail that
    ``read_log`` drops."""

    def __init__(self, path, seed: int):
        self.out = HashedFile(path)
        self._chunk = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, seed, 0))
        self.last_time = 0  # time of the newest record, 0 before the first
        self.closed = False

    def append(self, record: LogRecord) -> None:
        if self.closed:
            raise LogError("writer closed")
        time_ns, channel, payload = record
        if time_ns < self.last_time:
            raise LogError("record time regression")
        chunk, size = self._chunk, len(payload)
        if len(chunk) + _RECORD_HEAD.size + size > BLOCK_SIZE:
            self.out.write(chunk)
            chunk.clear()
        chunk += _RECORD_HEAD.pack(time_ns, channel, size)
        chunk += payload
        self.last_time = time_ns

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.out.write(self._chunk)
            finally:
                self.out.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class LogBlock(NamedTuple):
    records: list  # the LogRecords that end in this block, in log order
    last: bool  # the log ends with this block
    truncated: bool  # a partial record at the end of the log was dropped


def read_log(path):
    """Yield a log's complete records, one ``LogBlock`` for each block of
    ``BLOCK_SIZE`` bytes read: a record that runs on past its block's end
    carries into the next. The last block, always yielded, is flagged; a
    torn tail record (a crash mid-write) is dropped and flagged on it.
    A bad header or a record older than the one before it is a
    ``LogError``."""
    with open(path, "rb", buffering=0) as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise LogError("file too short for header")
        magic, version, _, _ = _HEADER.unpack(header)
        if magic != MAGIC:
            raise LogError(f"bad log magic {magic!r}")
        if version != FORMAT_VERSION:
            raise LogError(f"unsupported log version {version}")

        new, unpack_from, head = tuple.__new__, _RECORD_HEAD.unpack_from, _RECORD_HEAD.size
        data = b""  # the bytes of the record that runs on past the last block
        offset = _HEADER.size  # the file offset of ``data``
        last_time = 0
        block = f.read(BLOCK_SIZE)
        while True:
            data += block
            records = []
            append = records.append
            off, end = 0, len(data)
            while off + head <= end:
                time_ns, channel, length = unpack_from(data, off)
                stop = off + head + length
                if stop > end:
                    break
                if time_ns < last_time:
                    raise LogError(f"record time regression at offset {offset + off}")
                last_time = time_ns
                append(new(LogRecord, (time_ns, channel, data[off + head:stop])))
                off = stop
            data = data[off:]
            offset += off
            block = f.read(BLOCK_SIZE)
            if not block:
                yield LogBlock(records, True, bool(data))
                return
            yield LogBlock(records, False, False)
