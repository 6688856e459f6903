"""The allocator settings made when dsaa is imported: on glibc a process
serves numpy's large temporaries from its heap and keeps them when freed,
so repeated render calls reuse memory in place of faulting it in again."""

import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dsaa

# one default-scene frame rendered once to warm up, then the minor page
# faults of 5 more calls of the same render, per call
_FAULTS_PER_RENDER = """
import resource
from dsaa.synthdata import (default_scene, frame_mesh, frame_texture,
                            render_views, sample_frame)
spec = default_scene()
theta, face, u = sample_frame(spec, "000000", 1)
_, posed = frame_mesh(spec, theta, u)
texture = frame_texture(spec, u, face)
render_views(spec, posed, texture)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    render_views(spec, posed, texture)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="dsaa sets the allocator thresholds on glibc only; "
                           "other libcs keep their defaults")
def test_render_views_reuses_freed_buffers(tmp_path):
    # glibc's defaults unmap or trim the freed temporaries after every
    # call: ~4,000 faults per call, or ~100 where the kernel backs them
    # with huge pages; the kept heap takes ~1. The heap layout moves with
    # the length of the module paths, so the source tree is imported
    # through links whose paths differ by 16 bytes each.
    src = Path(dsaa.__file__).parents[1]
    faults = {}
    for k in range(5):
        link = tmp_path / ("s" * (1 + 16 * k))
        link.symlink_to(src, target_is_directory=True)
        env = dict(os.environ, PYTHONPATH=str(link))
        out = subprocess.run([sys.executable, "-c", _FAULTS_PER_RENDER],
                             env=env, capture_output=True, text=True,
                             check=True)
        faults[len(str(link))] = float(out.stdout)
    assert max(faults.values()) < 20, faults


def test_other_libcs_are_left_alone(monkeypatch):
    def no_libc(*args):
        raise AssertionError("libc loaded on a libc other than glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda: ("musl", "1.2"))
    monkeypatch.setattr(dsaa.ctypes, "CDLL", no_libc)
    dsaa._keep_freed_buffers()


def test_trim_threshold_waits_for_the_mmap_threshold(monkeypatch):
    # setting M_TRIM_THRESHOLD freezes glibc's mmap threshold too, so a
    # refused M_MMAP_THRESHOLD must leave both at their defaults
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return 0

    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(dsaa.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    dsaa._keep_freed_buffers()
    assert calls == [dsaa._M_MMAP_THRESHOLD]
