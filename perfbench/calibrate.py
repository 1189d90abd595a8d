"""A fixed piece of Python work that measures how fast the machine is now.

The reference machine is shared: identical work runs up to 1.9 times slower
for stretches of seconds to minutes, on either CPU, with no steal time, so
the slowdown is contention for the core and its caches.  `reference()` does
the kind of work lcer does (build hash-consed terms, look them up in dicts,
match patterns against them recursively), so it slows down with lcer: over
such stretches the ratio of an lcer search's time to `reference()`'s time
moved by about a tenth while each of the two moved by up to 1.9 times.  It
uses no lcer code, so a change to lcer leaves it as it is, and it runs with
the garbage collector paused, so the size of lcer's heap does not change it
either.

`normalize` turns a measured time into reference time: the time the same
work takes when `reference()` takes REFERENCE_MS, as on the reference
machine when it is quiet.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_MS = 2.5


class _Node:
    __slots__ = ("f", "args", "_hash")

    def __init__(self, f: str, args: tuple) -> None:
        self.f = f
        self.args = args
        self._hash = hash((f, args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.f == other.f and self.args == other.args


_HOLE = _Node("?", ())
_PATTERN = _Node("f", (_HOLE, _Node("g", (_HOLE, _Node("?", ("y",))))))


def _match(pattern: _Node, node: _Node, binding: dict) -> bool:
    if pattern.f == "?":
        if pattern in binding:
            return binding[pattern] == node
        binding[pattern] = node
        return True
    return pattern.f == node.f and len(pattern.args) == len(node.args) and \
        all(_match(p, n, binding) for p, n in zip(pattern.args, node.args))


def _size(node: _Node) -> int:
    return 1 + sum(_size(a) for a in node.args)


def reference() -> int:
    """About 3 ms on the reference machine when it is quiet."""
    rng = random.Random(7)
    pool = [_Node(s, ()) for s in "abcde"]
    seen: dict[_Node, int] = {}
    for _ in range(800):
        f = rng.choice("fgh")
        args = (rng.choice(pool),) if f == "h" else (rng.choice(pool), rng.choice(pool))
        node = _Node(f, args)
        seen[node] = seen.get(node, 0) + 1
        pool.append(node)
    hits = sum(1 for node in pool[-200:] if _match(_PATTERN, node, {}))
    return hits + len(seen) + sum(_size(node) for node in pool[-40:])


def timed_reference() -> float:
    """Milliseconds one call of `reference()` takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def normalize(measured: float, before_ms: float, after_ms: float) -> float:
    """`measured` (in any unit) in reference time, given the reference's
    times taken just before and just after the measured work."""
    return measured * REFERENCE_MS / ((before_ms + after_ms) / 2)
