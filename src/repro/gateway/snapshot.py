"""Cross-process histogram publication over ``multiprocessing.shared_memory``.

The gateway parent owns the latest histogram snapshots (it sees every
completion); worker processes need them to decide admissions.  The
:class:`SnapshotBoard` is the bridge: one shared-memory segment holding a
generation counter and a fixed array of slots, each slot one named
:class:`~repro.core.histogram.HistogramSnapshot` in its dense binary wire
form (:meth:`~repro.core.histogram.HistogramSnapshot.to_bytes` — the
existing bucket-count arrays plus the three layout floats the bucket edges
derive from).

Concurrency is a classic single-writer seqlock.  The writer bumps the
generation to an odd value, rewrites the slots, then bumps it to the next
even value; a reader snapshots the generation, copies the payload, and
re-reads the generation — an odd value or a mismatch means a concurrent
write, so it retries.  No locks cross the process boundary, readers never
block the writer, and a crashed reader cannot wedge publication.

The dual-buffer publish *epoch* rides inside each serialized snapshot.
Workers preload the decoded snapshots with ``adopt_epochs=True``
(:meth:`repro.core.bouncer.BouncerPolicy.preload_snapshots`), so every
process observes the same epoch for the same published view — the epoch
is the invalidation token for all the estimator caches, exactly as it is
in-process (docs/performance.md), and the board's generation is just the
"something changed" doorbell.
"""

from __future__ import annotations

import struct
import time
from typing import Dict, Mapping, NamedTuple, Optional

from multiprocessing import shared_memory

from ..core.histogram import (BucketLayout, DEFAULT_LAYOUT,
                              HistogramSnapshot, SNAPSHOT_WIRE_HEADER)
from ..exceptions import ConfigurationError

#: Slot name reserved for the general (all-types) histogram.  Matches the
#: key Bouncer itself uses internally, and cannot collide with a query
#: type (types are routed as socket-protocol tokens and never start with
#: a NUL byte).
GENERAL_SLOT = "\x00general"

#: Default number of snapshot slots (distinct query types + the general
#: histogram) a board holds.
BOARD_DEFAULT_SLOTS = 32

#: Longest slot name accepted, in UTF-8 bytes.
MAX_NAME_BYTES = 64

#: magic, format version, slot count, slot payload capacity.
_HEADER = struct.Struct("<4sHHQ")
_MAGIC = b"RPRB"
_VERSION = 1
#: Byte offsets: the seqlock generation (u64) sits right after the
#: header; the used-slot count (u32) after it; slots start 8-aligned.
_GEN_OFF = _HEADER.size
_USED_OFF = _GEN_OFF + 8
_SLOTS_OFF = _USED_OFF + 8
_GEN = struct.Struct("<Q")
_USED = struct.Struct("<I")
_NAME_LEN = struct.Struct("<H")

#: Reader retry budget before giving up on a torn view.  Each retry
#: yields the CPU, so even a single-core host lets the writer finish.
_READ_RETRIES = 10_000

#: Pure-yield retries before a torn reader starts sleeping: the writer's
#: critical section is a few microseconds of memcpy, so the common case
#: resolves within a couple of scheduler yields.
_SPIN_RETRIES = 64

#: Upper bound on a single reader backoff sleep, in seconds (100 us) —
#: long enough for a descheduled writer to finish on a loaded single
#: core, short enough to stay invisible next to the decide RTT.
_MAX_BACKOFF = 100e-6


def _reader_backoff(attempt: int) -> None:
    """Yield the CPU, escalating to bounded exponential sleeps.

    The seqlock reader races a writer in *another process*, so the
    injected clock cannot help here: making the writer progress means
    really giving up the core.  The first :data:`_SPIN_RETRIES` attempts
    stay pure ``sched_yield``; after that the sleep doubles from 1 us up
    to :data:`_MAX_BACKOFF` so a reader pinned against a descheduled
    writer converges instead of burning its whole retry budget hot.
    """
    if attempt < _SPIN_RETRIES:
        # repro: allow=no-wall-clock (sleep(0) is sched_yield, not timed)
        time.sleep(0)
        return
    delay = min(_MAX_BACKOFF, 1e-6 * (1 << min(attempt - _SPIN_RETRIES, 7)))
    # The writer lives in another process, so no injected clock can order
    # this wait; the bound keeps the worst case invisible vs decide RTT.
    # repro: allow=no-wall-clock (bounded cross-process seqlock backoff)
    time.sleep(delay)


class BoardView(NamedTuple):
    """One coherent read of the board."""

    generation: int
    types: Dict[str, HistogramSnapshot]
    general: Optional[HistogramSnapshot]


def _slot_size(layout: BucketLayout) -> int:
    """Payload capacity one slot needs for one named snapshot."""
    snapshot_bytes = SNAPSHOT_WIRE_HEADER.size + layout.num_buckets * 8
    return _NAME_LEN.size + MAX_NAME_BYTES + snapshot_bytes


class SnapshotBoard:
    """Seqlock-guarded snapshot slots in one shared-memory segment.

    Build the writer side with :meth:`create` (parent process); attach
    readers with :meth:`attach` (workers, by name).  Exactly one process
    may call :meth:`publish`.
    """

    def __init__(self, shm: "shared_memory.SharedMemory", slots: int,
                 slot_size: int, owner: bool) -> None:
        self._shm = shm
        self._slots = slots
        self._slot_size = slot_size
        self._owner = owner
        self._layout: Optional[BucketLayout] = None
        self._closed = False

    # -- construction ----------------------------------------------------
    @classmethod
    def create(cls, slots: int = BOARD_DEFAULT_SLOTS,
               layout: Optional[BucketLayout] = None,
               name: Optional[str] = None) -> "SnapshotBoard":
        """Allocate a fresh board (writer side; call :meth:`unlink` last)."""
        if slots < 1:
            raise ConfigurationError(f"slots must be >= 1, got {slots}")
        layout = layout or DEFAULT_LAYOUT
        slot_size = _slot_size(layout)
        size = _SLOTS_OFF + slots * slot_size
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        try:
            # The generation word goes last so a crash mid-init can never
            # leave a valid header next to a stale even generation.
            _HEADER.pack_into(shm.buf, 0, _MAGIC, _VERSION, slots,
                              slot_size)
            _USED.pack_into(shm.buf, _USED_OFF, 0)
            _GEN.pack_into(shm.buf, _GEN_OFF, 0)
        except BaseException:
            # The create-failure path must not leak the segment: without
            # this, a crash here orphans the mapping in /dev/shm until
            # reboot and nobody holds a handle to unlink it.
            shm.close()
            shm.unlink()
            raise
        board = cls(shm, slots, slot_size, owner=True)
        board._layout = layout
        return board

    @classmethod
    def attach(cls, name: str) -> "SnapshotBoard":
        """Open an existing board by segment name (reader side)."""
        try:
            shm = shared_memory.SharedMemory(  # type: ignore[call-arg]
                name=name, track=False)
        except TypeError:
            # Python < 3.13 has no track flag; attaching registers the
            # segment with the resource tracker a second time.  The
            # tracker's cache is a set, so the duplicate is harmless —
            # the creator's unlink clears the single entry — and
            # unregistering here would instead *remove* the creator's
            # registration (the tracker process is shared), breaking its
            # unlink-time bookkeeping.
            shm = shared_memory.SharedMemory(name=name)
        magic, version, slots, slot_size = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC or version != _VERSION:
            shm.close()
            raise ConfigurationError(
                f"segment {name!r} is not a snapshot board")
        return cls(shm, slots, slot_size, owner=False)

    @property
    def name(self) -> str:
        """Segment name readers attach by."""
        return self._shm.name

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def generation(self) -> int:
        """Latest stable generation (0 = nothing published yet)."""
        gen = _GEN.unpack_from(self._shm.buf, _GEN_OFF)[0]
        return int(gen - 1 if gen % 2 else gen)

    # -- writer ----------------------------------------------------------
    def publish(self, types: Mapping[str, HistogramSnapshot],
                general: Optional[HistogramSnapshot] = None) -> int:
        """Replace the board's contents; returns the new generation.

        Single writer only.  The full set of snapshots is written each
        time — the board is a bulletin, not a journal; readers that skip
        generations simply adopt the latest view (and the decision logs
        record which generations a worker actually applied).
        """
        if not self._owner:
            raise ConfigurationError("only the creating process publishes")
        entries = dict(types)
        if general is not None:
            entries[GENERAL_SLOT] = general
        if len(entries) > self._slots:
            raise ConfigurationError(
                f"{len(entries)} snapshots exceed the board's "
                f"{self._slots} slots")
        # Serialize and validate everything *before* opening the odd
        # window: a ConfigurationError mid-copy would otherwise wedge the
        # board forever-odd and spin every reader to exhaustion.
        records = []
        for slot_name, snapshot in entries.items():
            name_bytes = slot_name.encode("utf-8")
            if len(name_bytes) > MAX_NAME_BYTES:
                raise ConfigurationError(
                    f"slot name {slot_name!r} exceeds "
                    f"{MAX_NAME_BYTES} bytes")
            payload = snapshot.to_bytes()
            record_len = _NAME_LEN.size + len(name_bytes) + len(payload)
            if record_len > self._slot_size:
                raise ConfigurationError(
                    "snapshot layout larger than the board's slot size")
            records.append((name_bytes, payload))
        buf = self._shm.buf
        gen = _GEN.unpack_from(buf, _GEN_OFF)[0]
        _GEN.pack_into(buf, _GEN_OFF, gen + 1)        # odd: write in progress
        offset = _SLOTS_OFF
        for name_bytes, payload in records:
            _NAME_LEN.pack_into(buf, offset, len(name_bytes))
            start = offset + _NAME_LEN.size
            buf[start:start + len(name_bytes)] = name_bytes
            start += len(name_bytes)
            buf[start:start + len(payload)] = payload
            offset += self._slot_size
        _USED.pack_into(buf, _USED_OFF, len(records))
        _GEN.pack_into(buf, _GEN_OFF, gen + 2)        # even: stable
        return int(gen + 2)

    # -- reader ----------------------------------------------------------
    def read(self) -> Optional[BoardView]:
        """One coherent view, or ``None`` when nothing is published yet."""
        buf = self._shm.buf
        for attempt in range(_READ_RETRIES):
            before = _GEN.unpack_from(buf, _GEN_OFF)[0]
            if before == 0:
                return None
            if before % 2:             # writer mid-publish; back off, retry
                _reader_backoff(attempt)
                continue
            used = _USED.unpack_from(buf, _USED_OFF)[0]
            payload = bytes(buf[_SLOTS_OFF:
                                _SLOTS_OFF + used * self._slot_size])
            after = _GEN.unpack_from(buf, _GEN_OFF)[0]
            if after != before:
                _reader_backoff(attempt)
                continue
            return self._decode(int(before), int(used), payload)
        raise RuntimeError("snapshot board read kept tearing; "
                           "is more than one process publishing?")

    def _decode(self, generation: int, used: int,
                payload: bytes) -> BoardView:
        types: Dict[str, HistogramSnapshot] = {}
        general: Optional[HistogramSnapshot] = None
        for slot in range(used):
            offset = slot * self._slot_size
            name_len = _NAME_LEN.unpack_from(payload, offset)[0]
            start = offset + _NAME_LEN.size
            slot_name = payload[start:start + name_len].decode("utf-8")
            snapshot, _ = HistogramSnapshot.from_bytes(
                payload, start + name_len, layout=self._layout)
            # Cache the decoded layout so every later snapshot shares one
            # object (preload compatibility checks become float compares
            # on identical values).
            self._layout = snapshot._layout
            if slot_name == GENERAL_SLOT:
                general = snapshot
            else:
                types[slot_name] = snapshot
        return BoardView(generation, types, general)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping (leave the segment alive)."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (writer side, after workers detached)."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SnapshotBoard":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()
