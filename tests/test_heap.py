"""Memory a march frees stays in the heap for its next RK4 step.

Importing ``symcocycle.dynamics`` raises glibc's mmap and trim
thresholds, so a jet on a 101x101 grid, whose steps free arrays of about
80-180 KB, reuses them instead of faulting fresh pages in on every step
(the default thresholds cost about 12,000 minor faults per jet).  A libc
without ``mallopt`` keeps its defaults, silently.
"""

import ctypes
import platform
import resource
import sys
import warnings
from types import SimpleNamespace

import pytest

from symcocycle import dynamics
from symcocycle.dynamics import FlowMap, HamiltonianSpec, map_with_jacobian
from symcocycle.exprlang import parse
from symcocycle.geometry import GridSpec, Window, plane

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
def test_a_second_jet_on_the_grid_faults_in_almost_no_pages():
    manifold = plane(Window(-4, 4, -4, 4))
    spec = HamiltonianSpec(parse("0.15*exp(-(0.5*(p - 0.3)^2 + 0.6*(q + 0.2)^2))"))
    f = FlowMap(spec, manifold, step=1e-2)
    P, Q = GridSpec(101, 101).mesh(manifold.window)
    map_with_jacobian(f, P, Q)
    before = minor_faults()
    map_with_jacobian(f, P, Q)
    assert minor_faults() - before < 1_000


def _raise_os_error(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", ["no library", "no mallopt", "glibc"])
def test_thresholds_are_set_through_mallopt_or_left_alone(monkeypatch, libc):
    calls = []
    fakes = {
        "no library": _raise_os_error,
        "no mallopt": lambda name: object(),
        "glibc": lambda name: SimpleNamespace(mallopt=lambda *args: calls.append(args)),
    }
    monkeypatch.setattr(ctypes, "CDLL", fakes[libc])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dynamics._keep_freed_memory()
    want = [(-3, 4 << 20), (-1, 64 << 20)] if libc == "glibc" else []
    assert calls == want
