"""Chain decompositions of products of blocks.

A block is a finite point set with pairwise distances at least 1 whose
supporting-functional values are pairwise at least 1/2 apart. The product of
two blocks, read as a multiset of sums, splits into chains of sizes
m-n+1, m-n+3, ..., m+n-1 by peeling a matrix of sums row by row; each chain
is itself a block. Iterating over a list of blocks decomposes the full
product, and the number of chains equals the size of the middle layer of the
corresponding box of integer tuples.

Every separation check is an exact comparison, so the decomposition is
certified, not assumed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .caps import Caps, resolve
from .errors import DomainError, InvariantViolation, ResourceCapExceeded
from .exact import as_fraction, vector_str
from .geometry import (
    LineFrame,
    VectorMeasure,
    concentration_q,
    _near_masks,
    _near_in_row,
    _scaled_integers,
    product_sum_measure,
)
from .lattice import t_value


@dataclass(frozen=True)
class Block:
    """Points sorted by functional value; a certified k-block.

    ``f_raw`` stores the exact numerators <coeffs, x> of the frame's
    functional; dividing by the frame scale (often irrational) is never
    needed because every gap is compared exactly, raised to the frame's
    scale_root. Chains and block decompositions pass values they already
    know; construction checks each against the frame, then their order and
    gaps, and then the point distances, all on the points and coefficients
    scaled once to integers. When the functional is bounded by the norm,
    only consecutive points are tested.
    """

    points: tuple[tuple[Fraction, ...], ...]
    f_raw: tuple[Fraction, ...]
    frame: LineFrame

    def __post_init__(self):
        if not self.points:
            raise DomainError("a block needs at least one point")
        if len(self.f_raw) != len(self.points):
            raise InvariantViolation(
                f"{len(self.f_raw)} functional values for {len(self.points)} points"
            )
        # with X = s p and C = t coeffs integers, f_raw(p) = <C, X> / st, and a
        # gap D / st is at least 1/2 when (2D)^r * den(scale_pow) >= st^r * num
        s, ipts = _scaled_integers(self.points)
        t, (icoeffs,) = _scaled_integers([self.frame.coeffs])
        st = s * t
        dots = [sum(map(operator.mul, icoeffs, x)) for x in ipts]
        for p, d, f in zip(self.points, dots, self.f_raw):
            if f.numerator * st != d * f.denominator:
                raise InvariantViolation(f"functional value {f} is wrong at point {p}")
        r, scale_pow = self.frame.scale_root, self.frame.scale_pow
        num, den = scale_pow.numerator, scale_pow.denominator
        gap_min = st ** r * num
        for lo, hi in zip(dots, dots[1:]):
            if lo > hi:
                raise InvariantViolation("block points must be sorted by functional value")
            if (2 * (hi - lo)) ** r * den < gap_min:
                raise InvariantViolation("consecutive functional values closer than 1/2")
        # if ||C / t||_dual <= scale, |f| <= ||.||: points two apart differ by
        # at least 1 in f, hence in norm, and only consecutive pairs can be near
        norm, k, dual = self.frame.norm, 1, None
        if norm.kind == "linf":
            dual = sum(map(abs, icoeffs))
        elif norm.exponent == 1:
            dual = max(map(abs, icoeffs))
        elif norm.exponent == 2:
            dual, k = sum(c * c for c in icoeffs), 2  # the dual norm squared
        if dual is not None and num > 0 and dual**r * den**k <= num**k * t ** (k * r):
            near_in_row = _near_in_row(norm, s)
            near = [(i, i + 1) for i in range(len(ipts) - 1) if near_in_row(ipts[i], ipts, (i + 1,))]
        else:
            near = [(i, (m & -m).bit_length() - 1)
                    for i, row in enumerate(_near_masks(norm, s, ipts)) if (m := row & -(2 << i))]
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
    ceil(N/2), N = sum (k_i - 1). Exact integer dynamic programming.

    counts[s] is the number of tuples with coordinate sum s, kept for s up
    to the target only, as no factor lowers a sum. A factor k is a box
    filter of width k: with k zeros in front, the prefix sums pre give
    counts'[s] = pre[s + k] - pre[s]. Nothing here reads ``lattice``, so
    ``jones_bound`` compares two independent computations.
    """
    if not ks:
        raise DomainError("need at least one factor")
    if any(k < 1 for k in ks):
        raise DomainError("factors must be >= 1")
    target = (sum(k - 1 for k in ks) + 1) // 2
    counts = [1]
    for k in ks:
        pre = list(accumulate([0] * k + counts + [0] * (k - 1)))
        counts = list(map(operator.sub, pre[k:k + target + 1], pre))
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
