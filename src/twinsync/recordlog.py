"""Append-only binary channel log (.dtrl) with crash-safe tail recovery.

Layout (little-endian):
  header: magic "DTRL", version u16, scenario seed u64, created time u64
          (written as 0, so a log's bytes depend only on its run)
  record: time u64, channel u16, payload length u32, payload bytes

LogWriter writes to a path, or to a binary file object such as an
io.BytesIO that the caller owns and keeps open.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

MAGIC = b"DTRL"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQQ")
_RECORD_HEAD = struct.Struct("<QHI")

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


class LogWriter:
    """Writes a log to a path, or to a binary file object left open on close."""

    def __init__(self, target, seed: int):
        self._owns_file = isinstance(target, (str, os.PathLike))
        self._f = open(target, "wb") if self._owns_file else target
        self._f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, seed, 0))
        self.last_time = 0  # time of the newest record, 0 before the first
        self.closed = False

    def append(self, record: LogRecord) -> None:
        if self.closed:
            raise LogError("writer closed")
        if record.time_ns < self.last_time:
            raise LogError("record time regression")
        self._f.write(_RECORD_HEAD.pack(record.time_ns, record.channel,
                                        len(record.payload)))
        self._f.write(record.payload)
        self.last_time = record.time_ns

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._f.flush()
            if self._owns_file:
                self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass(frozen=True)
class ScanResult:
    records: tuple[LogRecord, ...]
    truncated: bool  # a partial record was dropped at the tail


def read_log(path) -> ScanResult:
    """Read all complete records; a torn tail record is dropped and flagged."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise LogError("file too short for header")
    magic, version, _, _ = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise LogError(f"bad log magic {magic!r}")
    if version != FORMAT_VERSION:
        raise LogError(f"unsupported log version {version}")

    records: list[LogRecord] = []
    append, new, unpack_from = records.append, tuple.__new__, _RECORD_HEAD.unpack_from
    head, end = _RECORD_HEAD.size, len(data)
    off = _HEADER.size
    truncated = False
    last_time = 0
    while off < end:
        body = off + head
        if body > end:
            truncated = True
            break
        time_ns, channel, length = unpack_from(data, off)
        stop = body + length
        if stop > end:
            truncated = True
            break
        if time_ns < last_time:
            raise LogError(f"record time regression at offset {off}")
        last_time = time_ns
        append(new(LogRecord, (time_ns, channel, data[body:stop])))
        off = stop
    return ScanResult(tuple(records), truncated)
