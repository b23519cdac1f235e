"""Atomic, verified file publication.

Every durable artifact (leaf files, dataset manifests, series catalogs) is
published by :func:`publish_bytes`: write a ``*.tmp`` sibling, flush and
fsync it, read it back and compare it against the in-memory image, then
``os.replace`` it onto the final name and fsync the directory. A reader
therefore never observes a half-written file — it sees either the previous
version or the complete new one — and a damaged attempt (an injected torn
write or bit flip) is discarded and retried instead of being published,
which is what makes the write path provably recover from them.
"""

from __future__ import annotations

import os
import zlib

from .errors import PublishError

__all__ = ["publish_bytes"]


def _fsync_dir(dirname: str) -> None:
    """Best-effort fsync of a directory so the rename itself is durable."""
    try:
        fd = os.open(dirname or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _apply_fault(data: bytes, fault) -> bytes:
    """Damage one write attempt according to a fault-plan entry.

    Entries are plain tuples, precomputed on rank 0 so thread scheduling
    cannot reorder them: ``("torn", f)`` keeps only the first ``f``
    fraction of the payload, ``("bitflip", f)`` flips the byte at
    fractional position ``f``.
    """
    if fault is None:
        return data
    kind, frac = fault
    if kind == "none":
        return data
    if kind == "torn":
        return data[: min(int(len(data) * frac), max(len(data) - 1, 0))]
    if kind == "bitflip":
        damaged = bytearray(data)
        if damaged:
            damaged[min(int(len(data) * frac), len(data) - 1)] ^= 0xFF
        return bytes(damaged)
    raise ValueError(f"unknown write fault kind {kind!r}")


def publish_bytes(path, data, *, fault_plan=(), max_attempts: int = 4) -> int:
    """Publish ``data`` at ``path`` with read-back verification and retry.

    Each attempt writes the tmp file, reads it back, and compares length and
    CRC32 against the in-memory image; only a verified attempt is renamed
    into place. ``fault_plan`` (one entry per attempt, see
    :func:`_apply_fault`) lets the fault injector damage specific attempts.

    Returns the number of attempts used (1 = first try clean). Raises
    :class:`~repro.errors.PublishError` if every attempt failed; the target
    path is untouched in that case.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    spath = os.fspath(path)
    tmp = spath + ".tmp"
    expect = zlib.crc32(data)
    for attempt in range(1, max_attempts + 1):
        fault = fault_plan[attempt - 1] if attempt - 1 < len(fault_plan) else None
        payload = _apply_fault(data, fault)
        try:
            with open(tmp, "wb") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            with open(tmp, "rb") as f:
                written = f.read()
            if len(written) == len(data) and zlib.crc32(written) == expect:
                os.replace(tmp, spath)
                _fsync_dir(os.path.dirname(spath))
                return attempt
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    raise PublishError(
        f"failed to publish {spath}: {max_attempts} write attempts "
        f"all failed read-back verification"
    )
