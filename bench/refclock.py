"""Reference-speed time.

On a shared host the speed of one core swings: a fixed pure-Python loop was
seen to take 1.7x longer for seconds at a time.  The benchmark therefore
reports timings in reference-speed time: wall time times REF_KERNEL_S over
the time a calibration kernel takes around the timed work, on the same
core.  The kernel does not touch lfac, so a change to lfac moves the figures
and the host does not.  REF_KERNEL_S is about the kernel's time on the host
the baseline was measured on, so there the figures read as wall time at
full speed.
"""

import inspect
from time import perf_counter

REF_KERNEL_S = 0.0003


def kernel():
    # a sparse polynomial square over exponent tuples: the dict, tuple and
    # int traffic of exact algebra in pure Python
    p = {(i, j, k): i + 2 * j + 3 * k + 1
         for i in range(4) for j in range(3) for k in range(3)}
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in p.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0) + c1 * c2
    return out


def kernel_time():
    # the mean of three runs follows the speed the timed work saw better
    # than the best of three, which picks the host's fastest moments
    t0 = perf_counter()
    for _ in range(3):
        kernel()
    return (perf_counter() - t0) / 3


def scale(before: float, after: float) -> float:
    """Wall-to-reference factor from kernel times before and after."""
    return (REF_KERNEL_S / before + REF_KERNEL_S / after) / 2


# Source a child program starts with, to time the kernel on its own core.
CHILD_PRELUDE = "from time import perf_counter\n\n" + \
    inspect.getsource(kernel) + "\n" + inspect.getsource(kernel_time)


class RefClock:
    """Kernel times taken between operations in this process."""

    def __init__(self):
        self.times: list[float] = []

    def tick(self) -> float:
        self.times.append(kernel_time())
        return self.times[-1]

    def speeds(self) -> list[float]:
        return [REF_KERNEL_S / t for t in self.times]
