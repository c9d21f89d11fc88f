"""Context-document generators for the benchmark workloads.

Three families, all plain JSON mappings in the document schema:

* product documents on the value square: points (a, b) with index a*m + b,
  K generated by one group of moves on each axis, variables ``a`` and ``b``,
  and ``k`` the explicit swap permutation (a, b) -> (b, a). The axis moves are
  the cyclic shift (cyclic-product, G = Z_m) or the XOR by each power of two
  below m (XOR-product, G = Z_2^log2(m));
* single-variable documents whose induced group is S_n (acting on n points)
  or D_n (the dihedral group of order 2n acting on an n-gon).

The seed only draws the numeric values, as distinct numbers at least 0.25
apart, so every pinned outcome is the same for every seed.
"""

from __future__ import annotations

import random


def numeric_values(rng: random.Random, count: int) -> list[float]:
    """`count` distinct values in [-8, 8), pairwise at least 0.25 apart."""
    slots = rng.sample(range(64), count)
    return [round(-8.0 + 0.25 * s + rng.uniform(0.0, 0.1), 6) for s in slots]


def _product_document(m: int, axis_moves: list[list[int]], rng: random.Random) -> dict:
    size = m * m
    gens = []
    for move in axis_moves:
        gens.append([move[p // m] * m + p % m for p in range(size)])
    for move in axis_moves:
        gens.append([(p // m) * m + move[p % m] for p in range(size)])
    names = [f"a{i}" for i in range(len(axis_moves))] + [f"b{i}" for i in range(len(axis_moves))]
    return {
        "schema_version": "1",
        "phi_space": {"size": size},
        "group_K": {"generators": gens, "names": names},
        "variables": [
            {"name": "a", "values": [p // m for p in range(size)],
             "numeric_values": numeric_values(rng, m)},
            {"name": "b", "values": [p % m for p in range(size)],
             "numeric_values": numeric_values(rng, m)},
        ],
        "maximal_family": ["a", "b"],
        "pairs": [{"theta": "a", "xi": "b",
                   "k": [(p % m) * m + p // m for p in range(size)]}],
        "options": {"tolerance": 1e-9, "fiducial_index": 0, "max_order": 1024},
    }


def cyclic_product(m: int, rng: random.Random) -> dict:
    return _product_document(m, [[(x + 1) % m for x in range(m)]], rng)


def xor_product(m: int, rng: random.Random) -> dict:
    if m < 2 or m & (m - 1):
        raise ValueError("XOR-product needs a power of two")
    bits = [1 << i for i in range(m.bit_length() - 1)]
    return _product_document(m, [[x ^ bit for x in range(m)] for bit in bits], rng)


def _single_variable(n: int, gens: list[list[int]], rng: random.Random) -> dict:
    return {
        "schema_version": "1",
        "phi_space": {"size": n},
        "group_K": {"generators": gens},
        "variables": [{"name": "v", "values": list(range(n)),
                       "numeric_values": numeric_values(rng, n)}],
        "maximal_family": ["v"],
        "options": {"tolerance": 1e-9, "fiducial_index": 0, "max_order": 1024},
    }


def symmetric(n: int, rng: random.Random) -> dict:
    """Induced group S_n: a transposition and an n-cycle."""
    return _single_variable(n, [[1, 0] + list(range(2, n)),
                                [(x + 1) % n for x in range(n)]], rng)


def dihedral(n: int, rng: random.Random) -> dict:
    """Induced group D_n of order 2n: rotation and reflection of an n-gon."""
    return _single_variable(n, [[(x + 1) % n for x in range(n)],
                                [(-x) % n for x in range(n)]], rng)
