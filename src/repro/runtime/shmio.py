"""Named shared-memory array segments: the generic wire format.

A segment is an 8-byte magic, an 8-byte little-endian header length, a
JSON header describing every array (name / dtype / shape / offset), then
the raw array bytes, each start 64-byte aligned.  This module is the
array-agnostic half; ``repro.serve.cluster.shm`` builds the serving
cluster's compiled-plan segments on it:

- :func:`publish_segment` lays an ordered ``{name: ndarray}`` mapping
  plus a JSON-serialisable ``meta`` dict into one named
  ``multiprocessing.shared_memory`` segment and returns a refcounted
  :class:`Segment` handle (the release that drops the count to zero
  unlinks the name).
- :func:`map_segment` attaches a segment by name — in the publisher or
  any worker — and rebuilds the metadata plus zero-copy ndarray views
  into the mapping.  Views are writable (the mapping is); callers that
  promise immutability freeze them (``setflags(write=False)``).
- :func:`leaked_segments` lists the /dev/shm entries under a prefix —
  the benchmark/test leak gate.

Lifetime contract (unchanged from the plan module): the publisher owns
the unlink; attachers only ever ``close`` their mappings.  POSIX keeps
the memory alive until the last mapping closes, so a publisher-side
unlink never pulls pages out from under a worker still holding views.
"""

from __future__ import annotations

import json
import os
import threading
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import ConfigError, ReproError

__all__ = [
    "ALIGN",
    "Segment",
    "align",
    "attach_raw",
    "leaked_segments",
    "map_segment",
    "publish_segment",
]

ALIGN = 64  # cache-line alignment for every array start
_HEADER_LEN_BYTES = 8
_MAGIC_LEN = 8


def align(offset: int) -> int:
    """Round ``offset`` up to the next :data:`ALIGN` boundary."""
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def leaked_segments(prefix: str) -> list[str]:
    """Segments under ``prefix`` still linked in /dev/shm.

    Empty on platforms without a visible shm filesystem, in which case
    leak gates degrade to the in-process :attr:`Segment.released` checks.
    """
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


_attach_lock = threading.Lock()


def attach_raw(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment WITHOUT registering it for cleanup.

    Python 3.8–3.12 register every ``SharedMemory`` with the resource
    tracker even when merely attaching (bpo-39959), so a worker exit
    would unlink a segment the publisher still serves from — and workers
    share one tracker process, whose bookkeeping is a set, so sending
    compensating ``unregister`` messages from several workers crashes
    it.  Instead, suppress the registration call for the duration of
    the attach; the publisher owns the unlink.
    """
    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    return segment


class Segment:
    """A published segment: publisher-side handle with refcounted unlink.

    Created holding one reference (the publisher's).  :meth:`retain`
    for every additional owner, :meth:`release` when done — the release
    that drops the count to zero closes the mapping and unlinks the
    name.  Both are idempotent past zero; ``released`` tells tests
    nothing leaked.  Subclasses pick the error type their layer raises
    on use-after-unlink via ``_error``.
    """

    _error: type[Exception] = ReproError

    def __init__(self, name: str, nbytes: int, segment: shared_memory.SharedMemory):
        self.name = name
        self.nbytes = nbytes
        self._segment = segment
        self._lock = threading.Lock()
        self._refs = 1
        self._unlinked = False

    def retain(self) -> "Segment":
        with self._lock:
            if self._unlinked:
                raise self._error(f"segment {self.name} already unlinked")
            self._refs += 1
        return self

    def release(self) -> bool:
        """Drop one reference; True when this call unlinked the segment."""
        with self._lock:
            if self._unlinked:
                return False
            self._refs -= 1
            if self._refs > 0:
                return False
            self._unlinked = True
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        return True

    @property
    def mapping(self) -> shared_memory.SharedMemory:
        """The underlying mapping — for layers that rewrap the handle."""
        return self._segment

    @property
    def released(self) -> bool:
        with self._lock:
            return self._unlinked

    @property
    def refcount(self) -> int:
        with self._lock:
            return self._refs

    def describe(self) -> dict:
        with self._lock:
            refs, unlinked = self._refs, self._unlinked
        return {
            "name": self.name,
            "nbytes": self.nbytes,
            "refcount": refs,
            "unlinked": unlinked,
        }


def _layout(arrays: dict[str, np.ndarray]) -> tuple[list[dict], int]:
    entries = []
    offset = 0
    for name, array in arrays.items():
        if not array.flags.c_contiguous:
            raise ConfigError(f"segment array {name!r} is not contiguous")
        offset = align(offset)
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    return entries, offset


def publish_segment(
    name: str,
    magic: bytes,
    meta: dict,
    arrays: dict[str, np.ndarray],
) -> Segment:
    """Copy ``arrays`` into a fresh named segment, exactly once.

    The layout is self-describing: attachers need only the name and the
    expected ``magic`` (8 bytes, the format/version stamp).  ``meta``
    must be JSON-serialisable; it travels in the header.  Returns the
    refcounted publisher-side handle; layers that keep a richer subclass
    (e.g. the plan module's fingerprinted one) rewrap the raw mapping.
    """
    if len(magic) != _MAGIC_LEN:
        raise ConfigError(f"segment magic must be {_MAGIC_LEN} bytes, got {len(magic)}")
    entries, data_bytes = _layout(arrays)
    header = json.dumps({"meta": meta, "arrays": entries}).encode("utf-8")
    data_start = align(_MAGIC_LEN + _HEADER_LEN_BYTES + len(header))
    total = data_start + data_bytes

    shm = shared_memory.SharedMemory(create=True, size=total, name=name)
    buf = shm.buf
    buf[:_MAGIC_LEN] = magic
    buf[_MAGIC_LEN : _MAGIC_LEN + _HEADER_LEN_BYTES] = len(header).to_bytes(8, "little")
    buf[_MAGIC_LEN + _HEADER_LEN_BYTES : _MAGIC_LEN + _HEADER_LEN_BYTES + len(header)] = header
    for entry, array in zip(entries, arrays.values()):
        start = data_start + entry["offset"]
        buf[start : start + array.nbytes] = array.tobytes()
    return Segment(shm.name, total, shm)


def map_segment(
    name: str, magic: bytes
) -> tuple[dict, dict[str, np.ndarray], shared_memory.SharedMemory]:
    """Attach a published segment: ``(meta, zero-copy views, mapping)``.

    The views point straight into the shared mapping and are writable —
    freeze them where the protocol demands immutability.  The caller
    owns ``mapping.close()`` (after dropping every view); attachers
    never unlink.
    """
    segment = attach_raw(name)
    buf = segment.buf
    if bytes(buf[:_MAGIC_LEN]) != magic:
        segment.close()
        raise ConfigError(f"segment {name!r} does not carry magic {magic!r}")
    header_len = int.from_bytes(
        bytes(buf[_MAGIC_LEN : _MAGIC_LEN + _HEADER_LEN_BYTES]), "little"
    )
    header = json.loads(
        bytes(buf[_MAGIC_LEN + _HEADER_LEN_BYTES : _MAGIC_LEN + _HEADER_LEN_BYTES + header_len])
    )
    data_start = align(_MAGIC_LEN + _HEADER_LEN_BYTES + header_len)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        start = data_start + entry["offset"]
        count = int(np.prod(entry["shape"], dtype=np.int64))
        array = np.frombuffer(
            buf, dtype=np.dtype(entry["dtype"]), count=count, offset=start
        ).reshape(entry["shape"])
        arrays[entry["name"]] = array
    return header["meta"], arrays, segment
