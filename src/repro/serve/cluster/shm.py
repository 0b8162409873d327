"""Zero-copy publication of compiled MADEPlans over shared memory.

A :class:`~repro.runtime.plan.MADEPlan` is immutable, read-only, and
content-fingerprinted — exactly the shape of data worth mapping once and
sharing across a pool of worker processes instead of pickling a copy
into each.

A segment is the 8-byte magic ``IAMPLAN1``, an 8-byte little-endian
header length, a JSON header (the plan's ``to_buffers()`` meta plus
name / dtype / shape / offset of every array), then the raw array
bytes, each start 64-byte aligned.

- :func:`publish_plan` lays the plan's complete array set (via
  ``MADEPlan.to_buffers()``) into ONE named segment.  The returned
  :class:`PlanSegment` is refcounted; :meth:`PlanSegment.release` of
  the last reference unlinks the segment from ``/dev/shm``.
- :func:`attach_plan` maps a segment by name in a worker and rebuilds
  the plan through ``MADEPlan.from_buffers()`` with ndarray views
  straight into the mapping — zero copy, fingerprint-verified, frozen
  read-only.
- :func:`leaked_segments` lists the plan segments still linked in
  ``/dev/shm`` — the benchmark/test leak gate.
- :class:`PlanPickler` / :class:`PlanUnpickler` pickle an estimator for
  shipment to a worker while externalizing every embedded plan to its
  fingerprint (``persistent_id``) and replacing scratch
  :class:`~repro.runtime.plan.Workspace` objects with fresh empty ones —
  the worker resolves fingerprints against its attached segments, so the
  heavy arrays never transit the pipe.

Lifetime contract: the parent that publishes a segment owns its unlink
(refcounted, in :class:`PlanSegment`); workers only ever ``close``
their mappings.  POSIX keeps the memory alive until the
last mapping closes, so a parent-side unlink never pulls pages out from
under a worker still holding views.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import pickle
import threading
import traceback
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import ConfigError, ServeError
from repro.runtime.plan import MADEPlan, Workspace

__all__ = [
    "PlanSegment",
    "PlanAttachment",
    "PlanPickler",
    "PlanUnpickler",
    "attach_plan",
    "dump_for_worker",
    "leaked_segments",
    "load_in_worker",
    "publish_plan",
    "segment_name",
]

_MAGIC = b"IAMPLAN1"
_HEADER = len(_MAGIC) + 8  # magic, then the JSON header's byte length
_ALIGN = 64  # cache-line alignment for every array start
_PREFIX = "repro-plan"

# Process-global generation counter: several services (or several reload
# generations of one) may publish the same fingerprint from one PID.
_NONCES = itertools.count(1)


def segment_name(fingerprint: str, nonce: int) -> str:
    """The /dev/shm-visible name for one published plan generation.

    The publisher PID keeps independent services (and the debris of a
    crashed earlier run) from colliding on the same fingerprint.
    """
    return f"{_PREFIX}-{fingerprint}-{os.getpid():x}-{nonce:x}"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def leaked_segments() -> list[str]:
    """Plan segments still linked in /dev/shm — the benchmark/test leak gate.

    Empty on platforms without a visible shm filesystem, in which case
    the gate degrades to the in-process ``PlanSegment.released`` checks.
    """
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(_PREFIX))


_attach_lock = threading.Lock()


def _attach_raw(name: str) -> shared_memory.SharedMemory:
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


class PlanSegment:
    """A published plan: parent-side handle with refcounted unlink.

    Created holding one reference (the publisher's).  :meth:`retain`
    for every additional owner (e.g. a routing-table generation),
    :meth:`release` when done — the release that drops the count to
    zero closes the mapping and unlinks the name.  Both are idempotent
    past zero; ``released`` tells tests nothing leaked.
    """

    def __init__(self, name: str, fingerprint: str, nbytes: int,
                 segment: shared_memory.SharedMemory,
                 dtype: str | None = None):
        self.name = name
        self.fingerprint = fingerprint
        self.nbytes = nbytes
        # The published plan's dtype string (e.g. '<f8' / '<f4'): a
        # float32 tier publishes roughly half the bytes of the float64
        # plan for the same weights, and /models reports both.
        self.dtype = dtype
        self._segment = segment
        self._lock = threading.Lock()
        self._refs = 1
        self._unlinked = False

    def retain(self) -> "PlanSegment":
        with self._lock:
            if self._unlinked:
                raise ServeError(f"segment {self.name} already unlinked")
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
            "fingerprint": self.fingerprint,
            "dtype": self.dtype,
        }


def publish_plan(plan: MADEPlan, nonce: int | None = None) -> PlanSegment:
    """Copy ``plan``'s arrays into a fresh named segment, exactly once.

    The segment layout is self-describing: workers need only the name.
    Returns the refcounted parent-side handle.
    """
    if nonce is None:
        nonce = next(_NONCES)
    meta, arrays = plan.to_buffers()
    entries = []
    data_bytes = 0
    for name, array in arrays.items():
        if not array.flags.c_contiguous:
            raise ConfigError(f"segment array {name!r} is not contiguous")
        data_bytes = _align(data_bytes)
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": data_bytes,
            }
        )
        data_bytes += array.nbytes
    header = json.dumps({"meta": meta, "arrays": entries}).encode("utf-8")
    data_start = _align(_HEADER + len(header))
    total = data_start + data_bytes

    segment = shared_memory.SharedMemory(
        create=True, size=total, name=segment_name(plan.fingerprint, nonce)
    )
    buf = segment.buf
    buf[: len(_MAGIC)] = _MAGIC
    buf[len(_MAGIC) : _HEADER] = len(header).to_bytes(8, "little")
    buf[_HEADER : _HEADER + len(header)] = header
    for entry, array in zip(entries, arrays.values()):
        start = data_start + entry["offset"]
        buf[start : start + array.nbytes] = array.tobytes()
    return PlanSegment(segment.name, plan.fingerprint, total, segment,
                       dtype=meta.get("dtype"))


class PlanAttachment:
    """A worker-side mapping: the zero-copy plan plus its segment.

    ``close`` unmaps once every ndarray view has been dropped; numpy
    keeps the buffer exported while views live, in which case ``close``
    reports False and may be retried (e.g. after the old estimator is
    garbage-collected post-reload).  Workers never unlink.
    """

    def __init__(self, name: str, plan: MADEPlan,
                 segment: shared_memory.SharedMemory):
        self.name = name
        self.plan = plan
        self.fingerprint = plan.fingerprint
        self._segment = segment
        self._closed = False

    def close(self) -> bool:
        if self._closed:
            return True
        self.plan = None  # drop our own reference to the views
        try:
            self._segment.close()
        except BufferError:
            return False  # live views remain; caller retries later
        self._closed = True
        return True


def _plan_from_segment(name: str, buf: memoryview, verify: bool) -> MADEPlan:
    """Parse a segment's header and rebuild its plan over views into ``buf``."""
    if bytes(buf[: len(_MAGIC)]) != _MAGIC:
        raise ConfigError(f"segment {name!r} is not a published plan")
    try:
        header_len = int.from_bytes(bytes(buf[len(_MAGIC) : _HEADER]), "little")
        header = json.loads(bytes(buf[_HEADER : _HEADER + header_len]))
        data_start = _align(_HEADER + header_len)
        arrays = {
            entry["name"]: np.frombuffer(
                buf,
                dtype=np.dtype(entry["dtype"]),
                count=int(np.prod(entry["shape"], dtype=np.int64)),
                offset=data_start + entry["offset"],
            ).reshape(entry["shape"])
            for entry in header["arrays"]
        }
        return MADEPlan.from_buffers(header["meta"], arrays, verify=verify)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"segment {name!r} has a malformed header: {exc!r}") from exc


def attach_plan(name: str, verify: bool = True) -> PlanAttachment:
    """Map a published segment and rebuild its plan, zero-copy.

    Every ndarray the returned plan holds is a read-only view into the
    shared mapping; ``verify`` re-hashes the bytes against the header
    fingerprint (cheap relative to a worker's lifetime, and the only
    defense against attaching a torn or foreign segment).  A foreign or
    malformed segment raises ``ConfigError`` with the mapping closed.
    """
    segment = _attach_raw(name)
    try:
        plan = _plan_from_segment(name, segment.buf, verify)
    except Exception as exc:
        # The failed frames still hold views into the mapping, which
        # close() refuses while any is alive: drop their locals first.
        while exc is not None:
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__context__
        segment.close()
        raise
    return PlanAttachment(name, plan, segment)


# ---------------------------------------------------------------------------
# Plan-aware pickling (estimator shipment)
# ---------------------------------------------------------------------------


class PlanPickler(pickle.Pickler):
    """Pickles an object graph with plans and scratch space externalized.

    Every reachable :class:`MADEPlan` is reduced to its fingerprint (the
    worker re-binds it to the shared mapping) and every
    :class:`Workspace` to a marker (the worker gets a fresh one — scratch
    buffers and memoised programs are per-process by contract).  The
    fingerprints encountered are collected on ``self.plans`` so the
    caller knows which segments the payload requires.
    """

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.plans: dict[str, MADEPlan] = {}

    def persistent_id(self, obj):
        if isinstance(obj, MADEPlan):
            self.plans[obj.fingerprint] = obj
            return ("madeplan", obj.fingerprint)
        if isinstance(obj, Workspace):
            return ("workspace",)
        return None


class PlanUnpickler(pickle.Unpickler):
    """Resolves :class:`PlanPickler` ids against attached plans."""

    def __init__(self, file, plans: dict[str, MADEPlan]):
        super().__init__(file)
        self._plans = plans

    def persistent_load(self, pid):
        kind = pid[0]
        if kind == "madeplan":
            plan = self._plans.get(pid[1])
            if plan is None:
                raise ServeError(
                    f"payload references plan {pid[1]} but no matching "
                    "segment is attached"
                )
            return plan
        if kind == "workspace":
            return Workspace()
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dump_for_worker(obj) -> tuple[bytes, list[str]]:
    """(payload bytes, fingerprints of the plans the payload needs)."""
    buffer = io.BytesIO()
    pickler = PlanPickler(buffer)
    pickler.dump(obj)
    return buffer.getvalue(), sorted(pickler.plans)


def load_in_worker(payload: bytes, plans: dict[str, MADEPlan]):
    """Rebuild a payload, binding plan references to attached mappings."""
    return PlanUnpickler(io.BytesIO(payload), plans).load()
