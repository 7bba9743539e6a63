"""Reference blocks: fixed units of work, timed next to and inside the
operations so that each operation can be expressed in blocks, which cancels
the host's speed swings.  Nothing here imports qdegree.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# 2^15 complex nodes (512 KiB): past malloc's mmap threshold, like the contour grids.
_NODES = (0.25 + 1j * np.linspace(0.0, 6.0, 1 << 15)).reshape(256, 128)


def stdlib_block():
    """Fraction arithmetic and dict/tuple churn, the kinds of work the exact
    kernel does, from the standard library only.
    """
    acc = Fraction(0)
    table = {}
    for i in range(1, 41):
        x = Fraction(i, i + 7) * Fraction(3, 2 * i + 1) + Fraction(1, i)
        acc += x
        key = (i % 7, x)
        table[key] = table.get(key, 0) + 1
    return acc, sorted(table)


def contour_block():
    """The stdlib block plus the kind of numpy work a contour grid does:
    complex exponentials of a node array and products of (1 - q^E) factors.
    About four fifths of its time is the numpy part, as in a contour round.
    """
    values = (1.0 - np.exp(0.7 * _NODES)) * np.exp(-0.2 * _NODES)
    return stdlib_block(), complex(values.mean())
