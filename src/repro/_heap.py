"""The process's allocator policy: freed heap memory is kept for reuse.

A warm read frees its multi-MB result columns and temporaries when the op
ends. With glibc's defaults a block above the mmap threshold is unmapped
on free and a free heap top above the trim threshold is returned to the
kernel, so the next read faults in zeroed pages again (14 ms of a 60 ms
``read_warm`` cycle). Setting either value switches off glibc's dynamic
threshold and pins the other at 128 KiB, so both are set: blocks up to
32 MiB (glibc's own ceiling on 64-bit) come from the heap, and an arena
returns its free top only once that exceeds 64 MiB. Other libcs are left
as they are.
"""

import ctypes
import os

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def keep_freed_heap() -> bool:
    """Set both glibc thresholds; ``False`` (and no change) elsewhere."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20) and mallopt(M_TRIM_THRESHOLD, 64 << 20))
