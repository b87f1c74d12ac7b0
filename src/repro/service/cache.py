"""Content-addressed summary cache.

A cache entry is keyed by the SHA-256 of the *resolved source bytes*
plus everything that could change the answer: the persist format
version, the cache record schema, and the GMOD solver requested.  Two
consequences:

* an unchanged file is never re-solved — a warm batch run is pure
  cache reads;
* a schema bump (:data:`repro.core.persist.FORMAT_VERSION` or
  :data:`CACHE_SCHEMA_VERSION`) changes every key *and* is re-checked
  on read, so stale entries written by an older build are treated as
  misses, never misread.

Entries are one binary file per key (``<key>.ckb``, the
:mod:`repro.core.persist` v3 container — roughly an order of magnitude
smaller than the JSON form it replaced) under the cache root; legacy
``<key>.json`` entries written by older builds are still read, so an
existing cache stays warm across the format change.  Writes go
through a temp file + ``os.replace`` so concurrent batch runs sharing
a cache directory never observe torn entries.

The cache is optionally *bounded*: with ``max_entries`` set, a store
that pushes the directory past the limit evicts the least-recently
used entries, where recency is the file mtime — refreshed on every
hit via ``os.utime`` — so a long-lived daemon or repeated batch runs
cannot grow the directory without limit.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.persist import (
    DECODE_ERRORS,
    FORMAT_VERSION,
    encode_summary_payload,
    load_summary_payload_file,
    loads_summary_payload,
)

#: Version of the cache *record* envelope (not the summary payload —
#: that carries its own :data:`FORMAT_VERSION`).
CACHE_SCHEMA_VERSION = 1


def content_key(source: str, gmod_method: str = "auto", lanes=()) -> str:
    """SHA-256 cache key for one program source + solver choice.

    ``lanes`` (extra effect lanes solved alongside MOD+USE) feeds the
    key only when non-empty, so every pre-lane key — and every on-disk
    entry hashed from one — stays valid verbatim.
    """
    hasher = hashlib.sha256()
    hasher.update(b"ck-summary-cache\0")
    hasher.update(("%d\0%d\0%s\0" % (CACHE_SCHEMA_VERSION, FORMAT_VERSION, gmod_method)).encode())
    if lanes:
        hasher.update(("lanes=%s\0" % ",".join(lanes)).encode())
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found on disk but rejected (stale schema, torn JSON).
    invalid: int = 0
    #: Entries removed by the ``max_entries`` LRU bound.
    evictions: int = 0

    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> Dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        }


def encode_record(key: str, result: Dict) -> bytes:
    """One cache record envelope as bytes — the unit both the disk
    cache and the fleet summary store exchange."""
    return encode_summary_payload(
        {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "format_version": FORMAT_VERSION,
            "key": key,
            "result": result,
        }
    )


def validate_record_blob(key: str, blob: bytes) -> Optional[Dict]:
    """Decode a record envelope and return its result payload, or None
    when the blob is torn, stale-schema, or keyed for something else.

    Both ends of the fleet store run this: the server refuses to store
    junk, the client refuses to trust a server it didn't write to."""
    try:
        record = loads_summary_payload(blob)
    except DECODE_ERRORS:
        return None
    if (
        not isinstance(record, dict)
        or record.get("cache_schema") != CACHE_SCHEMA_VERSION
        or record.get("format_version") != FORMAT_VERSION
        or record.get("key") != key
        or "result" not in record
    ):
        return None
    return record["result"]


class SummaryCache:
    """On-disk cache of per-file analysis payloads.

    ``max_entries`` (None = unbounded, the historical behaviour) caps
    the number of entry files; exceeding it evicts in mtime order.
    """

    def __init__(self, root: str, max_entries: Optional[int] = None):
        self.root = root
        self.max_entries = max_entries
        self.stats = CacheStats()
        os.makedirs(root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key + ".ckb")

    def legacy_path_for(self, key: str) -> str:
        """Where an entry written by a pre-binary build would live."""
        return os.path.join(self.root, key + ".json")

    def _read_record(self, key: str) -> Optional[Dict]:
        """The raw record envelope for ``key`` from disk, plus a mtime
        refresh on the file that provided it.  Returns None when no
        readable entry exists (``stats.invalid`` is bumped for files
        that exist but do not decode)."""
        for path in (self.path_for(key), self.legacy_path_for(key)):
            try:
                # mmap-decode: the container walks the mapped pages in
                # place instead of pulling the file through a read
                # buffer — the warm-batch fast path is page-cache reads.
                record = load_summary_payload_file(path)
            except OSError:
                continue
            except DECODE_ERRORS:
                self.stats.invalid += 1
                continue
            if not isinstance(record, dict):
                self.stats.invalid += 1
                continue
            try:
                os.utime(path, None)  # Refresh recency for the LRU bound.
            except OSError:
                pass  # Entry raced away or read-only cache; the hit stands.
            return record
        return None

    def get(self, key: str) -> Optional[Dict]:
        """The cached analysis payload for ``key``, or None on miss."""
        record = self._read_record(key)
        if record is None:
            self.stats.misses += 1
            return None
        if (
            record.get("cache_schema") != CACHE_SCHEMA_VERSION
            or record.get("format_version") != FORMAT_VERSION
            or "result" not in record
        ):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record["result"]

    def put(self, key: str, result: Dict) -> None:
        """Store one analysis payload under ``key`` (atomic write)."""
        self._write_blob(key, encode_record(key, result))

    def _write_blob(self, key: str, blob: bytes) -> None:
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, self.path_for(key))
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        self.stats.stores += 1
        self._evict_over_limit()

    # -- raw record access (the fleet summary store service) -----------------

    def get_blob(self, key: str) -> Optional[bytes]:
        """The raw record envelope for ``key``, validated; None on
        miss.  Validation decodes in place over a memory map — a fleet
        store thrashing through static blobs re-reads hot pages, not
        whole files — and the bytes are materialized once, for the
        wire.  Legacy ``.json`` entries are served re-read through the
        normal path so the store never ships a format the client would
        reject."""
        blob = None
        validated = False
        try:
            with open(self.path_for(key), "rb") as handle:
                try:
                    buffer = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except (ValueError, OSError):
                    blob = handle.read()
                    validated = validate_record_blob(key, blob) is not None
                else:
                    try:
                        if validate_record_blob(key, buffer) is not None:
                            blob = bytes(buffer)
                            validated = True
                    finally:
                        buffer.close()
        except OSError:
            pass
        if validated and blob is not None:
            self.stats.hits += 1
            try:
                os.utime(self.path_for(key), None)
            except OSError:
                pass
            return blob
        result = self.get(key)  # Legacy-path fallback + stats accounting.
        if result is None:
            return None
        return encode_record(key, result)

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Store a raw record envelope; False (and no write) when the
        blob does not validate for ``key``."""
        if validate_record_blob(key, blob) is None:
            self.stats.invalid += 1
            return False
        self._write_blob(key, blob)
        return True

    def has(self, key: str) -> bool:
        return os.path.exists(self.path_for(key)) or os.path.exists(
            self.legacy_path_for(key)
        )

    def _evict_over_limit(self) -> None:
        """Drop least-recently-used entries past ``max_entries``.

        Recency is file mtime (refreshed on hit); races with concurrent
        runs sharing the directory are benign — a vanished file is
        simply skipped, and over-eviction only costs a future miss.
        """
        if self.max_entries is None:
            return
        try:
            names = [
                n for n in os.listdir(self.root) if n.endswith((".ckb", ".json"))
            ]
        except OSError:
            return
        if len(names) <= self.max_entries:
            return
        aged = []
        for name in names:
            try:
                aged.append((os.path.getmtime(os.path.join(self.root, name)), name))
            except OSError:
                continue
        aged.sort()
        for _, name in aged[: max(0, len(aged) - self.max_entries)]:
            try:
                os.unlink(os.path.join(self.root, name))
                self.stats.evictions += 1
            except OSError:
                continue
