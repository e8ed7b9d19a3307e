"""Seeded input generators: the workload seed fixes every input.

The program only ever sees what these functions return, so two runs
with the same ``--seed`` drive it with identical inputs.  Draws are
balanced rather than independent: request kinds come in shuffled blocks
with the exact traffic shares, and points are dealt from seeded
permutations of the grid, so every run sees the same mix and covers the
grid evenly while the order still changes with the seed.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

#: Search seeds with a checked-in reference frontier (see refs/).
SEARCH_SEED_POOL = tuple(range(12))

#: Technology nodes a cold-context ``/estimate`` draws from.
COLD_NODES_NM = (65, 45, 28, 16, 7)

#: ``serve_mixed`` traffic: request kinds per block of 50 (72/10/12/6 %).
SERVE_BLOCK = (("hot", 36), ("cold", 5), ("sweep", 6), ("optimize", 3))

#: Points per ``/sweep`` request.
SWEEP_POINTS = 16


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{stream}:{seed}")


def grid_order(seed: int, size: int) -> list[int]:
    """A seeded permutation of ``range(size)`` (the sweep's point order)."""
    order = list(range(size))
    _rng(seed, "grid").shuffle(order)
    return order


def search_seeds(seed: int) -> list[int]:
    """The reference search seeds in a seeded order."""
    seeds = list(SEARCH_SEED_POOL)
    _rng(seed, "search").shuffle(seeds)
    return seeds


def _dealt(rng: random.Random, items: Sequence) -> Iterator:
    """Endless passes over ``items``, each pass in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def serve_requests(seed: int, points: Sequence) -> Iterator[dict]:
    """An endless seeded ``serve_mixed`` request sequence.

    ``points`` are the hot Table I points; each request is a dict with a
    ``kind`` plus what that kind needs.  Cold requests never repeat a
    ``(node, freq)`` context.
    """
    rng = _rng(seed, "serve")
    hot = _dealt(rng, points)
    cold_points = _dealt(rng, points)
    nodes = _dealt(rng, COLD_NODES_NM)
    swept = _dealt(rng, points)
    seen: set[tuple[int, float]] = set()
    block = [kind for kind, count in SERVE_BLOCK for _ in range(count)]
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "hot":
                yield {"kind": kind, "point": next(hot)}
            elif kind == "cold":
                node = next(nodes)
                freq = round(rng.uniform(0.5, 1.0), 4)
                while (node, freq) in seen:
                    freq = round(rng.uniform(0.5, 1.0), 4)
                seen.add((node, freq))
                yield {"kind": kind, "point": next(cold_points),
                       "node": node, "freq": freq}
            elif kind == "sweep":
                chosen: list = []
                while len(chosen) < SWEEP_POINTS:
                    point = next(swept)
                    if point not in chosen:
                        chosen.append(point)
                yield {"kind": kind, "points": chosen}
            else:
                yield {"kind": kind}
