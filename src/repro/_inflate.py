"""The one zlib inflate kernel: the system's libdeflate, else ``zlib``.

Codec decode is most of a cold read, and inflating the v4 ``zlib``
columns is most of that. libdeflate inflates the same streams about 2x
faster than ``zlib.decompress`` (it decodes whole buffers, never
streams), so it is used when ``ctypes.util.find_library("deflate")``
finds it and it loads; otherwise ``zlib.decompress`` does the job. The
bytes on disk are the same either way: only the reader changes.

A decompressor is allocated and freed per call. That costs well under a
microsecond against the ~180 us of a treelet column, and it keeps no
per-thread state, so serve and shard threads share the kernel freely;
ctypes releases the GIL for the call.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import zlib

import numpy as np

from .errors import CodecError

# enum libdeflate_result
_SUCCESS, _BAD_DATA, _SHORT_OUTPUT, _INSUFFICIENT_SPACE = range(4)
_FAULTS = {
    _BAD_DATA: "is not a valid zlib stream",
    _SHORT_OUTPUT: "inflates to fewer bytes than expected",
    _INSUFFICIENT_SPACE: "inflates to more bytes than expected",
}


def _load():
    """libdeflate's three entry points, or ``None`` where it is absent."""
    name = ctypes.util.find_library("deflate")
    if name is None:
        return None
    try:
        lib = ctypes.CDLL(name)
        alloc = lib.libdeflate_alloc_decompressor
        run = lib.libdeflate_zlib_decompress
        free = lib.libdeflate_free_decompressor
    except (OSError, AttributeError):
        return None
    alloc.argtypes, alloc.restype = (), ctypes.c_void_p
    # (decompressor, in, in_nbytes, out, out_nbytes_avail, actual_out_nbytes_ret)
    run.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p,
    )
    run.restype = ctypes.c_int
    free.argtypes, free.restype = (ctypes.c_void_p,), None
    return alloc, run, free


#: libdeflate's entry points; ``None`` means :func:`inflate` uses ``zlib``
_libdeflate = _load()


def kernel() -> str:
    """Which kernel :func:`inflate` runs: ``"libdeflate"`` or ``"zlib"``."""
    return "zlib" if _libdeflate is None else "libdeflate"


def inflate(buf, nbytes: int) -> np.ndarray:
    """The ``nbytes`` bytes the zlib stream in ``buf`` inflates to, as a
    read-only uint8 array.

    ``buf`` is any buffer (an mmap-backed memoryview is read in place).
    A stream that is not valid zlib, or inflates to any other size than
    ``nbytes``, raises :class:`~repro.errors.CodecError`.
    """
    if _libdeflate is None:
        try:
            raw = zlib.decompress(buf, bufsize=max(nbytes, 1))
        except zlib.error as exc:
            raise CodecError(f"zlib payload does not inflate ({exc})", codec="zlib") from None
        if len(raw) != nbytes:
            raise CodecError(
                f"zlib payload inflates to {len(raw)} bytes, expected {nbytes}", codec="zlib",
            )
        return np.frombuffer(raw, dtype=np.uint8)
    alloc, run, free = _libdeflate
    src = np.frombuffer(buf, dtype=np.uint8)
    out = np.empty(nbytes, dtype=np.uint8)
    d = alloc()
    if not d:
        raise MemoryError("libdeflate_alloc_decompressor failed")
    try:
        # no actual-size pointer: anything but exactly nbytes is an error code
        rc = run(d, src.ctypes.data, src.size, out.ctypes.data, nbytes, None)
    finally:
        free(d)
    if rc != _SUCCESS:
        fault = _FAULTS.get(rc, f"fails to inflate (libdeflate result {rc})")
        raise CodecError(f"zlib payload {fault} ({nbytes} bytes expected)", codec="zlib")
    out.flags.writeable = False
    return out
