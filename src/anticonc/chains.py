"""Chain decompositions of products of blocks.

A block is a finite point set with pairwise distances at least 1 whose
supporting-functional values are pairwise at least 1/2 apart. The product of
two blocks, read as a multiset of sums, splits into chains of sizes
m-n+1, m-n+3, ..., m+n-1 by peeling a matrix of sums row by row; each chain
is itself a block. Iterating over a list of blocks decomposes the full
product, and the number of chains equals the size of the middle layer of the
corresponding box of integer tuples.

All separation checks run through the exact comparisons of the owning
LineFrame, so the decomposition is certified, not assumed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .caps import Caps, resolve
from .errors import DomainError, InvariantViolation, ResourceCapExceeded
from .exact import as_fraction, vector_str
from .geometry import (
    LineFrame,
    VectorMeasure,
    concentration_q,
    _near_pairs,
    product_sum_measure,
)
from .lattice import t_value

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Block:
    """Points sorted by functional value; a certified k-block.

    ``f_raw`` stores the exact numerators <coeffs, x> of the frame's
    functional; dividing by the frame scale (often irrational) is never
    needed because every comparison goes through the frame's exact gap
    tests. Chains and block decompositions pass values they already know;
    construction still checks their order, gaps and point distances.
    """

    points: tuple[tuple[Fraction, ...], ...]
    f_raw: tuple[Fraction, ...]
    frame: LineFrame

    def __post_init__(self):
        if not self.points:
            raise DomainError("a block needs at least one point")
        for i in range(len(self.points) - 1):
            if self.f_raw[i] > self.f_raw[i + 1]:
                raise InvariantViolation("block points must be sorted by functional value")
            if not self.frame.raw_gap_at_least(
                self.f_raw[i + 1] - self.f_raw[i], HALF
            ):
                raise InvariantViolation(
                    "consecutive functional values closer than 1/2"
                )
        near = _near_pairs(self.frame.norm, self.points)
        if near:
            i, j = min(near)
            raise InvariantViolation(f"points {i} and {j} are at distance below 1")

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_points(cls, points: Sequence[Sequence], frame: LineFrame) -> "Block":
        pts = [tuple(as_fraction(c) for c in p) for p in points]
        keyed = sorted(((frame.f_raw(p), p) for p in pts), key=lambda t: (t[0], t[1]))
        return cls(
            tuple(p for _, p in keyed),
            tuple(f for f, _ in keyed),
            frame,
        )

    def to_json(self) -> list:
        return [vector_str(p) for p in self.points]


@dataclass(frozen=True)
class ChainDecomposition:
    """Partition of a product of blocks into chains (each again a block)."""

    chains: tuple[Block, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)

    def total_points(self) -> int:
        return sum(self.sizes)

    def to_json(self) -> list:
        return [c.to_json() for c in self.chains]


def btk_decompose(a: Block, b: Block) -> ChainDecomposition:
    """Peel the matrix of pairwise sums into chains.

    With m = max(|A|, |B|) and n = min(|A|, |B|), repeatedly peeling the
    bottommost remaining row (left to right) together with the rightmost
    remaining column (bottom to top) yields chains of sizes
    m+n-1, m+n-3, ..., m-n+1. Consecutive chain elements inherit a
    functional gap of at least 1/2 from the blocks, which forces pairwise
    distances of at least 1 along each chain; both facts are re-checked
    exactly during Block construction, which takes f(x + y) = f(x) + f(y)
    from the two blocks.
    """
    if a.frame is not b.frame and a.frame != b.frame:
        raise DomainError("blocks must share one line frame")
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    xs = big.points
    ys = small.points
    m, n = len(xs), len(ys)
    chains = []
    for k in range(n):
        # row with the (k+1)-th smallest functional value of the small block,
        # then the remaining column above it: increasing in f
        cells = [(j, k) for j in range(m - k)] + [(m - k - 1, i) for i in range(k + 1, n)]
        points = tuple(tuple(map(operator.add, xs[j], ys[i])) for j, i in cells)
        values = tuple(big.f_raw[j] + small.f_raw[i] for j, i in cells)
        chains.append(Block(points, values, a.frame))
    decomp = ChainDecomposition(tuple(chains))
    expected = sorted(range(m - n + 1, m + n, 2))
    if sorted(decomp.sizes) != expected:
        raise InvariantViolation(
            f"chain sizes {sorted(decomp.sizes)} differ from {expected}"
        )
    if decomp.total_points() != m * n:
        raise InvariantViolation("chains do not partition the product")
    return decomp


def iterated_decompose(
    blocks: Sequence[Block], caps: Caps | None = None
) -> ChainDecomposition:
    """Decompose the product of all blocks by folding pairwise peels.

    Processes blocks in input order, always pairing each accumulated chain
    with the next block; the resulting chain count equals the middle-layer
    count of the block sizes, which is asserted.
    """
    caps = resolve(caps)
    if not blocks:
        raise DomainError("need at least one block")
    total = math.prod(len(b) for b in blocks)
    if total > caps.chain_tuples:
        raise ResourceCapExceeded(
            f"product of blocks has {total} tuples, cap is {caps.chain_tuples}"
        )
    chains = [blocks[0]]
    for nxt in blocks[1:]:
        new_chains: list[Block] = []
        for chain in chains:
            new_chains.extend(btk_decompose(chain, nxt).chains)
        chains = new_chains
    decomp = ChainDecomposition(tuple(chains))
    expected = middle_layer_count([len(b) for b in blocks])
    if len(decomp.chains) != expected:
        raise InvariantViolation(
            f"got {len(decomp.chains)} chains, middle layer has {expected}"
        )
    if decomp.total_points() != total:
        raise InvariantViolation("chains do not partition the full product")
    return decomp


def middle_layer_count(ks: Sequence[int]) -> int:
    """Number of tuples in the box prod {0..k_i - 1} with coordinate sum
    ceil(N/2), N = sum (k_i - 1). Exact integer dynamic programming."""
    if not ks:
        raise DomainError("need at least one factor")
    if any(k < 1 for k in ks):
        raise DomainError("factors must be >= 1")
    n_total = sum(k - 1 for k in ks)
    target = (n_total + 1) // 2
    counts = [1]  # counts[s] = number of tuples with coordinate sum s
    for k in ks:
        new = [0] * (len(counts) + k - 1)
        for s, c in enumerate(counts):
            if c:
                for x in range(k):
                    new[s + x] += c
        counts = new
    return counts[target]


@dataclass(frozen=True)
class JonesBoundResult:
    bound: Fraction
    t_exact: Fraction
    q_exact: Fraction | None
    q_witness: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.bound == self.t_exact and (
            self.q_exact is None or self.q_exact <= self.bound
        )


def jones_bound(blocks: Sequence[Block], caps: Caps | None = None) -> JonesBoundResult:
    """Middle-layer bound for the concentration of a uniform block sum.

    Returns middle_layer_count / prod(k_i), asserts it equals the exact
    lattice t-value of the reciprocals 1/k_i, and, when the product support
    fits the solver caps, also computes the exact concentration of the sum
    of the uniform block measures and checks it does not exceed the bound.
    """
    caps = resolve(caps)
    if not blocks:
        raise DomainError("need at least one block")
    ks = [len(b) for b in blocks]
    bound = Fraction(middle_layer_count(ks), math.prod(ks))
    t = t_value([Fraction(1, k) for k in ks])
    if t != bound:
        raise InvariantViolation(
            f"middle-layer ratio {bound} differs from the lattice t-value {t}"
        )
    q_exact = None
    witness = None
    if math.prod(ks) <= caps.product_support:
        norm = blocks[0].frame.norm
        measures = [VectorMeasure.uniform(norm, b.points) for b in blocks]
        total = product_sum_measure(measures, caps)
        if len(total.points) <= caps.clique:
            result = concentration_q(total, caps)
            q_exact = result.value
            witness = result.witness
            if q_exact > bound:
                raise InvariantViolation(
                    f"exact concentration {q_exact} exceeds the bound {bound}"
                )
    return JonesBoundResult(bound, t, q_exact, witness)
