"""Chain decompositions of products of blocks.

A block is a finite point set with pairwise distances at least 1 whose
supporting-functional values are pairwise at least 1/2 apart. The product of
two blocks, read as a multiset of sums, splits into chains of sizes
m-n+1, m-n+3, ..., m+n-1 by peeling a matrix of sums row by row; each chain
is itself a block. Iterating over a list of blocks decomposes the full
product, and the number of chains equals the size of the middle layer of the
corresponding box of integer tuples.

Every separation check is an exact comparison, so the decomposition is
certified, not assumed. The checks run on integers: a block stores only its
points scaled to integers and their functional numerators, and derives its
Fraction points and values from them when they are read; chains add those
integers, and no block built from them scales its points again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .caps import Caps, check
from .errors import DomainError, InvariantViolation
from .exact import as_fraction, vector_str
from .geometry import (
    LineFrame,
    PointConfig,
    VectorMeasure,
    _IntForm,
    concentration_q,
    _check_dims,
    _near_masks,
    _row_test,
    _scaled_integers,
    _unscaled,
    product_sum_measure,
)
from .lattice import t_value


@dataclass(frozen=True)
class Block(_IntForm):
    """Points sorted by functional value; a certified k-block.

    A block stores only integers: its points scaled to integers, X = s x,
    and their functional numerators <C, X> = st f_raw(x), with C = t coeffs
    the frame's integer form. ``points`` and ``f_raw``, the exact values
    <coeffs, x> of the frame's functional (dividing by the frame scale,
    often irrational, is never needed: every gap is compared exactly,
    raised to the frame's scale_root), are derived from them on first read.

    ``Block(points, f_raw, frame)`` scales the points once; chains and block
    decompositions hold the integers already and build through
    ``_from_scaled``. Both end in ``_init``, which runs every check on the
    integers: each value against the frame, then their order and gaps, then
    the point distances (only consecutive points when the functional is
    bounded by the norm).
    """

    points: tuple[tuple[Fraction, ...], ...]
    f_raw: tuple[Fraction, ...]
    frame: LineFrame

    _derive = {
        "points": lambda self: _unscaled(self._s, self._ipts),
        "f_raw": lambda self: _unscaled(self._s * self.frame._scaled[0], (self._dots,))[0],
    }

    def __init__(self, points: Sequence[Sequence], f_raw: Sequence, frame: LineFrame):
        _check_dims(frame.norm, *points)
        s, ipts = _scaled_integers(points)
        st = s * frame._scaled[0]
        self._init(frame, s, ipts, tuple(f * st for f in f_raw))

    @classmethod
    def _from_scaled(cls, frame: LineFrame, s: int, ipts: Sequence[tuple], dots: Sequence) -> "Block":
        """The block of the points ``ipts / s`` of the frame's dimension, with
        numerators ``dots`` (f_raw times st), checked like a public block."""
        block = object.__new__(cls)
        block._init(frame, s, tuple(ipts), tuple(dots))
        return block

    def _init(self, frame: LineFrame, s: int, ipts: tuple, dots: tuple) -> None:
        """Store the integer form and check it: each numerator against the
        frame's, then their order and gaps of at least 1/2 in f, then no two
        points at distance below 1."""
        if not ipts:
            raise DomainError("a block needs at least one point")
        if len(dots) != len(ipts):
            raise InvariantViolation(f"{len(dots)} functional values for {len(ipts)} points")
        self.__dict__.update(frame=frame, _s=s, _ipts=ipts, _dots=dots)  # so an error names the value given
        ints = tuple(frame._dots(ipts))
        if dots != ints:
            i = next(i for i, (d, e) in enumerate(zip(dots, ints)) if d != e)
            raise InvariantViolation(f"functional value {self.f_raw[i]} is wrong at point {self.points[i]}")
        self.__dict__["_dots"] = dots = ints  # equal; ints where a public block gave Fractions
        if len(ipts) == 1:
            return
        half_apart = frame._half_apart(s * frame._scaled[0])
        # the test is monotone in |gap|, so the least gap passes only if every
        # one does; otherwise the scan in order finds the first fault
        least = min(map(operator.sub, dots[1:], dots))
        if least < 0 or not half_apart(least):
            for lo, hi in zip(dots, dots[1:]):
                if lo > hi:
                    raise InvariantViolation("block points must be sorted by functional value")
                if not half_apart(hi - lo):
                    raise InvariantViolation("consecutive functional values closer than 1/2")
        if frame._consecutive_only:
            near_pair = _row_test(frame.norm, s, ipts)
            near = [(i, i + 1) for i in range(len(ipts) - 1) if near_pair(i, (i + 1,))]
        else:
            near = [(i, (m & -m).bit_length() - 1)
                    for i, row in enumerate(_near_masks(frame.norm, s, ipts)[0]) if (m := row & -(2 << i))]
        if near:
            i, j = min(near)
            raise InvariantViolation(f"points {i} and {j} are at distance below 1")

    def __len__(self) -> int:
        return len(self._ipts)

    @classmethod
    def from_points(cls, points: Sequence[Sequence], frame: LineFrame) -> "Block":
        pts = [tuple(as_fraction(c) for c in p) for p in points]
        _check_dims(frame.norm, *pts)
        s, ipts = _scaled_integers(pts)
        keyed = sorted(zip(frame._dots(ipts), ipts))  # the (f_raw, point) order: st > 0
        return cls._from_scaled(frame, s, [x for _, x in keyed], [d for d, _ in keyed])

    def to_json(self) -> list:
        return [vector_str(p) for p in self.points]


def _one_frame(blocks: Sequence[Block]) -> LineFrame:
    frame = blocks[0].frame  # frames in l1 and lp(1), or l2 and lp(2), may mix
    key = lambda f: (f.norm._model, f.direction, f.base, f.coeffs, f.scale_pow, f.scale_root)
    if any(b.frame is not frame and key(b.frame) != key(frame) for b in blocks[1:]):
        raise DomainError("blocks must share one line frame")
    return frame


def _at_scale(block: Block, s: int) -> tuple[Sequence[tuple], Sequence]:
    """A block's integer points and numerators at the scale s, a multiple of
    its own."""
    k = s // block._s
    if k == 1:
        return block._ipts, block._dots
    return [tuple(c * k for c in p) for p in block._ipts], [d * k for d in block._dots]


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
    from the two blocks. Points and values are added as integers, both
    blocks taken to the lcm of their scales.
    """
    _one_frame((a, b))
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    s = math.lcm(big._s, small._s)
    (xs, fx), (ys, fy) = _at_scale(big, s), _at_scale(small, s)
    m, n = len(xs), len(ys)
    chains = []
    for k in range(n):
        # row with the (k+1)-th smallest functional value of the small block,
        # then the remaining column above it: increasing in f
        cells = [(j, k) for j in range(m - k)] + [(m - k - 1, i) for i in range(k + 1, n)]
        points = [tuple(map(operator.add, xs[j], ys[i])) for j, i in cells]
        dots = [fx[j] + fy[i] for j, i in cells]
        chains.append(Block._from_scaled(a.frame, s, points, dots))
    decomp = ChainDecomposition(tuple(chains))
    expected = sorted(range(m - n + 1, m + n, 2))
    if sorted(decomp.sizes) != expected:
        raise InvariantViolation(
            f"chain sizes {sorted(decomp.sizes)} differ from {expected}"
        )
    if decomp.total_points() != m * n:
        raise InvariantViolation("chains do not partition the product")
    return decomp


def iterated_decompose(blocks: Sequence[Block]) -> ChainDecomposition:
    """Decompose the product of all blocks by folding pairwise peels.

    Processes blocks in input order, always pairing each accumulated chain
    with the next block; the resulting chain count equals the middle-layer
    count of the block sizes, which is asserted.
    """
    if not blocks:
        raise DomainError("need at least one block")
    total = math.prod(len(b) for b in blocks)
    check("chain_tuples", total)
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
    T = ceil(N/2), N = sum (k_i - 1). Exact, by de Moivre's dice-sum formula.

    The count is the coefficient of x^T in prod (1 - x^k_i) / (1 - x), that
    is in the numerator P = prod (1 - x^k) over the n factors with k >= 2
    (a factor k = 1 is 1) times (1 - x)^-n. P is kept to degree T only, one
    pass of differences per factor with k <= T, and the count is the sum of
    P_e C(T - e + n - 1, n - 1), the binomials built by their exact
    recurrence. Nothing here reads ``lattice``, so ``jones_bound`` compares
    two independent computations.
    """
    if not ks:
        raise DomainError("need at least one factor")
    for k in ks:
        # bool is an int subclass; True is no factor
        if isinstance(k, bool) or not isinstance(k, int):
            raise DomainError(f"factors must be ints, got {k!r}")
        if k < 1:
            raise DomainError("factors must be >= 1")
    target = (sum(ks) - len(ks) + 1) // 2
    numerator, n = [1] + [0] * target, 0
    for k in ks:
        if k > 1:
            n += 1
            if k <= target:
                numerator[k:] = map(operator.sub, numerator[k:], numerator)
    binomials = [1]  # C(j + n - 1, n - 1) for j = 0 ... T
    for j in range(1, target + 1):
        binomials.append(binomials[-1] * (j + n - 1) // j)
    return sum(map(operator.mul, numerator, reversed(binomials)))


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


def jones_bound(blocks: Sequence[Block]) -> JonesBoundResult:
    """Middle-layer bound for the concentration of a uniform block sum.

    Returns middle_layer_count / prod(k_i), asserts it equals the exact
    lattice t-value of the reciprocals 1/k_i, and, when the product support
    fits the solver caps, also computes the exact concentration of the sum
    of the uniform block measures and checks it does not exceed the bound.
    """
    if not blocks:
        raise DomainError("need at least one block")
    norm = _one_frame(blocks).norm
    ks = [len(b) for b in blocks]
    bound = Fraction(middle_layer_count(ks), math.prod(ks))
    t = t_value([Fraction(1, k) for k in ks])
    if t != bound:
        raise InvariantViolation(
            f"middle-layer ratio {bound} differs from the lattice t-value {t}"
        )
    q_exact = None
    witness = None
    caps = Caps.from_env()
    if math.prod(ks) <= caps.product_support:
        # a block's points are distinct, so sorted they need no merge
        measures = [
            VectorMeasure._from_ints(PointConfig._from_scaled(norm, b._s, sorted(b._ipts)), (1,) * k, k)
            for b, k in zip(blocks, ks)
        ]
        total = product_sum_measure(measures)
        if len(total.config) <= caps.clique:
            result = concentration_q(total)
            q_exact = result.value
            witness = result.witness
            if q_exact > bound:
                raise InvariantViolation(
                    f"exact concentration {q_exact} exceeds the bound {bound}"
                )
    return JonesBoundResult(bound, t, q_exact, witness)
