"""Shared-memory segments for large pool worker contexts.

:meth:`repro.service.pool.ResilientPool.map_with_context` pickles a
runner's read-only context once.  Small blobs ride inside every chunk
payload; a blob of at least :data:`MIN_SHIP_BYTES` is parked here instead,
in one :mod:`multiprocessing.shared_memory` segment, and chunks carry a
tiny :class:`ShmHandle` (name + length):

* **Parent** — :func:`pack` copies the pickled bytes into a fresh segment
  and owns its lifetime: :func:`release` unlinks it when the context is
  released or the pool closes.
* **Worker** — :func:`load` attaches by name and copies the bytes out.
  Attached segments are unregistered from the worker's
  ``resource_tracker`` (the parent unlinks; workers must not).

The transport is *bit-transparent*: the worker unpickles the identical
bytes the inline path would have shipped, so results are bit-identical
under the sweep/ensemble determinism contracts
(``tests/service/test_shm.py``).  A platform without shared memory, or a
segment the OS refuses, degrades to the inline blob, never to an error.

Telemetry: ``pool.shm_ships`` counts packed segments and
``pool.shm_bytes`` their total size (both parent-side, riding the usual
metrics registry).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import get_metrics

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

#: Pickled contexts below this many bytes ship inline; a shared segment's
#: create/attach round-trip only wins on large blobs.
MIN_SHIP_BYTES = 65536


@dataclass(frozen=True)
class ShmHandle:
    """A picklable reference to bytes parked in shared memory."""

    name: str
    size: int


def pack(blob: bytes, label: str = "pool") -> Optional[ShmHandle]:
    """Park ``blob`` in a fresh shared segment; ``None`` ships it inline.

    ``None`` means the blob is below :data:`MIN_SHIP_BYTES`, shared memory
    is unavailable, or segment creation failed — the last logged at
    WARNING.  The caller owns the returned segment and must
    :func:`release` it.
    """
    if shared_memory is None or len(blob) < MIN_SHIP_BYTES:
        return None
    try:
        segment = shared_memory.SharedMemory(create=True, size=len(blob))
        segment.buf[: len(blob)] = blob
    except Exception as exc:
        logger.warning(
            "%s: shared-memory segment creation failed (%s: %s); "
            "shipping the worker context inline instead",
            label,
            type(exc).__name__,
            exc,
        )
        return None
    handle = ShmHandle(name=segment.name, size=len(blob))
    segment.close()
    registry = get_metrics()
    if registry.enabled:
        registry.counter("pool.shm_ships").inc()
        registry.counter("pool.shm_bytes").inc(len(blob))
    logger.debug(
        "%s: parked %d-byte worker context in shared memory %s",
        label,
        len(blob),
        handle.name,
    )
    return handle


def load(handle: ShmHandle) -> bytes:
    """Worker-side: copy a packed blob out of its segment.

    The segment is unregistered from this process's ``resource_tracker``
    so worker exit does not unlink (or warn about) a segment the parent
    still owns.
    """
    segment = shared_memory.SharedMemory(name=handle.name)
    try:
        if resource_tracker is not None:
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        return bytes(segment.buf[: handle.size])
    finally:
        segment.close()


def release(handle: Optional[ShmHandle]) -> None:
    """Unlink a segment created by :func:`pack` (parent-side, idempotent)."""
    if handle is None or shared_memory is None:
        return
    try:
        segment = shared_memory.SharedMemory(name=handle.name)
        segment.close()
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception as exc:  # pragma: no cover - platform-specific
        logger.debug(
            "shared-memory release of %s failed: %s", handle.name, exc
        )
