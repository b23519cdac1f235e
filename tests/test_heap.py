"""The allocator policy set at ``import repro``: freed heap memory is kept.

A warm read frees multi-MB result columns and temporaries at the end of
every op; if the allocator hands them back to the kernel, the next read
faults in fresh zeroed pages for the same sizes.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REUSE = """
import resource
import numpy as np
import repro

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

n = 16 << 20
f = faults(); a = np.ones(n, np.uint8); first = faults() - f
del a
f = faults(); a = np.ones(n, np.uint8); second = faults() - f
print(first, second)
"""


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True,
        text=True, timeout=60,
    ).stdout


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the allocator policy is set on glibc only",
)
def test_freed_block_is_reused_without_faults():
    first, second = map(int, run_python(REUSE).split())
    assert first > 0
    assert second <= first / 10, (first, second)


class _RefusingLibc:
    """A stand-in for ``ctypes.CDLL(None)`` whose ``mallopt`` returns 0."""

    def __init__(self, *_):
        self.mallopt = lambda param, value: 0


class _NoMallopt:
    def __init__(self, *_):
        pass


@pytest.mark.parametrize("libc", [_RefusingLibc, _NoMallopt], ids=["returns-0", "missing"])
def test_allocator_refusal_is_not_an_error(monkeypatch, libc):
    from repro import _heap

    monkeypatch.setattr(_heap.ctypes, "CDLL", libc)
    assert _heap.keep_freed_heap() is False


def test_other_libc_is_left_alone(monkeypatch):
    from repro import _heap

    def unknown(name):
        raise ValueError(f"unrecognized configuration name: {name}")

    def no_dlopen(*_):
        raise AssertionError("dlopen on a libc that is not glibc")

    monkeypatch.setattr(_heap.os, "confstr", unknown)
    monkeypatch.setattr(_heap.ctypes, "CDLL", no_dlopen)
    assert _heap.keep_freed_heap() is False


def test_import_succeeds_without_mallopt():
    code = (
        "import ctypes\n"
        "class NoMallopt:\n"
        "    def __init__(self, *_): pass\n"
        "ctypes.CDLL = NoMallopt\n"
        "import repro\n"
        "print(repro._heap.keep_freed_heap())\n"
    )
    assert run_python(code).strip() == "False"
