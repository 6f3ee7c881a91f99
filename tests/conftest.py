"""Shared generators for randomized suites.

Randomness is always drawn from a seeded ``random.Random`` so every run is
reproducible bit for bit.
"""

import random
from dataclasses import replace

from diskfloer.cfk import CfkComplex, ChainPair, SimplifiedBases
from diskfloer.linalg import UMatrix
from diskfloer.structures import TypeDMorphism
from diskfloer.torus_algebra import I0, R1, R3


def random_box_cfk(rng: random.Random, max_boxes: int = 3) -> CfkComplex:
    """A random box-sum complex with one distinguished singleton."""
    boxes = rng.randrange(max_boxes + 1)
    return CfkComplex.from_boxes(boxes, 1, name=f"rand{boxes}")


def random_long_box_cfk(rng: random.Random, max_boxes: int = 3,
                        max_len: int = 3):
    """A random complex of 'long boxes' da = U^m b + V^n c, db = V^n e,
    dc = U^m e, with the simplified bases describing its chains.

    Returns (complex, bases)."""
    boxes = rng.randrange(max_boxes + 1)
    gens = []
    diff = []
    vertical = []
    horizontal = []
    for i in range(1, boxes + 1):
        a, b, c, e = f"a{i}", f"b{i}", f"c{i}", f"e{i}"
        m = rng.randrange(1, max_len + 1)
        n = rng.randrange(1, max_len + 1)
        gens += [a, b, c, e]
        diff += [(a, b, m, 0), (a, c, 0, n), (b, e, 0, n), (c, e, m, 0)]
        vertical.append(ChainPair(b, e, n))
        vertical.append(ChainPair(a, c, n))
        horizontal.append(ChainPair(a, b, m))
        horizontal.append(ChainPair(c, e, m))
    gens.append("x")
    cfk = CfkComplex(gens, diff, name=f"long{boxes}")
    bases = SimplifiedBases(vertical, horizontal, xi0="x", eta0="x")
    return cfk, bases


def random_long_box_model(rng: random.Random, max_boxes: int = 3,
                          max_len: int = 3):
    """A random long-box complex (``random_long_box_cfk``) with named
    chains, and its difference morphism from the unknot complement: per box
    a unit entry v -> e, a rho3 entry to the first generator of the b -> e
    vertical chain and a rho1 entry to the last generator of the c -> e
    horizontal chain (``morphism_m946_diff`` is two boxes of length 1).

    Returns (complex, bases, morphism)."""
    cfk, bases = random_long_box_cfk(rng, max_boxes, max_len)

    def named(pairs, tag):
        return [replace(p, chain_names=tuple(f"{tag}{j}_{s}"
                                             for s in range(1, p.length + 1)))
                for j, p in enumerate(pairs)]

    vertical, horizontal = named(bases.vertical, "k"), named(bases.horizontal, "l")
    entries = []
    # per box: vertical (b -> e, a -> c), horizontal (a -> b, c -> e)
    for be, ce in zip(vertical[::2], horizontal[1::2]):
        entries += [("v", I0, be.target), ("v", R3, be.chain_names[0]),
                    ("v", R1, ce.chain_names[-1])]
    bases = SimplifiedBases(vertical, horizontal, bases.xi0, bases.eta0)
    return cfk, bases, TypeDMorphism(entries, name=f"diff.{cfk.name}")


def random_umatrix(rng: random.Random, max_dim: int = 12,
                   max_deg: int = 3) -> UMatrix:
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    m = UMatrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.4:
                m.entries[i][j] = rng.randrange(1, 1 << (max_deg + 1))
    return m


def random_block_complex(rng: random.Random, max_half: int = 5,
                         max_deg: int = 3) -> UMatrix:
    """A random square differential d = [[0, A], [0, 0]] (so d^2 = 0)."""
    h = rng.randrange(1, max_half + 1)
    n = 2 * h
    d = UMatrix(n, n)
    for i in range(h):
        for j in range(h, n):
            if rng.random() < 0.5:
                d.entries[i][j] = rng.randrange(1, 1 << (max_deg + 1))
    return d
