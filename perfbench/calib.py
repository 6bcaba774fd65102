"""The reference speed that the benchmark scales its times to.

The host this benchmark was developed on switches between a fast speed and
one about 1.8x slower, in phases from under a second to over 30 s, on both
vCPUs at once, and process CPU time slows just as much as wall time. A
28 s run can fall wholly in a slow phase, so no estimator over raw times
repeats. So each time is scaled by ``KERNEL_REF_S`` over the mean time of
``kernel()`` just before and just after it: a run's time per unit of work,
and a process's set-up. The kernel slows in the same phases; see
``perfbench/README.md`` for the figures.

The kernel imports nothing and does not touch twinsync, so no change to
the program can change it, and a program that does less work still reads
faster.
"""

import time

# about the kernel's fast-phase time on the 2-core VM the benchmark was
# developed on, so that scaled times read close to that host's fast-phase
# times
KERNEL_REF_S = 0.0025


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel(n: int = 6000) -> float:
    """Float arithmetic, object and attribute access, dict and list
    traffic and ``repr``: the interpreter work that twinsync's loops do."""
    table = {}
    items = []
    acc = 0.0
    for i in range(n):
        p = _Point(i * 0.5, i % 7)
        acc += p.a * 1.0001 - p.b
        table[i & 255] = p
        items.append(acc)
        if i % 64 == 0:
            items = [repr(acc)]
    return acc + len(table)


def kernel_s() -> float:
    """Seconds one ``kernel()`` call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
