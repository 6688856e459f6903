"""Desk-scale driving-signal-aware avatar model.

A small numpy implementation of a conditional VAE avatar whose latent code
is explicitly disentangled from the driving signals (body pose, face state,
view), with spatially localized conditioning, linear blend skinning and an
ambient-occlusion driven quasi-shadow gain.  Training is inverse rendering
against procedurally generated multi-view data with a known hidden factor.
"""

import ctypes
import platform

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BYTES = 256 << 20


def _keep_freed_buffers() -> None:
    """Keep freed numpy buffers in the process heap (glibc only).

    Each rasterize and AO call allocates many MB of temporaries. Under
    glibc's defaults, arrays above the mmap threshold (128 KiB at start,
    raised only as such chunks are freed) are mapped and unmapped per
    call, and free heap above the trim threshold goes back to the kernel,
    so the next call faults the same memory in again. Setting both
    thresholds to 256 MiB serves those arrays from the heap and keeps
    what is freed for reuse (a perfbench `train` run took as few faults
    as with 1 GiB, ~71k against ~238k at the defaults). On a 2-vCPU host (glibc 2.36, one BLAS thread), a fresh
    process rendering one default-scene frame with `render_views` went
    from ~4,060 to ~1 minor page fault per call and from 62 to 47 ms per
    call (medians of 5 alternating runs of 20 calls). Peak RSS is
    unchanged (~256 MB for a perfbench `train` run); a process may keep
    up to 256 MiB it no longer uses after its peak. No arithmetic
    changes. Other libcs, and a glibc that refuses the mmap threshold,
    keep their defaults.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # setting the trim threshold fixes the mmap threshold too, so it is
    # set only once the mmap threshold took
    if mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES)


_keep_freed_buffers()
