"""Seeded job lists of the three workloads.

A job spec is a tuple of strings, ints and tuples only: generating one never
touches the library, and the ``repr`` of a job list is a stable input
digest. Every job list is a whole number of blocks, and each block
asks for the same amount of work whatever the seed: sizes that set the work
run through all their values once per block, and where the work depends on
more than one size, a block takes candidates at fixed quantiles of their
computed work. Two seeds then differ in detail, not in load.

Job kinds:
    ("certify", norm, points)        points are (x, y) numerators over 32
    ("sharpness", seed)
    ("vsum", norm, summands)         summand = (points over 16, int weights)
    ("window", alphas)               alphas are (num, den) pairs
    ("octagon",)
    ("tvalue", variant, alphas, via_cli)   variant "random" or "uniform"
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

WORKLOADS = ("certify", "sums", "tvalue")
NORMS = ("l2", "l1", "linf")

BLOCK = {"certify": 70, "sums": 20, "tvalue": 8}
# Jobs per second of job time at nominal machine speed: a run of --seconds S
# gets about rate * S jobs, so its job list is fixed by seed and S.
JOBS_PER_SECOND = {"certify": 7.0, "sums": 4.0, "tvalue": 13.0}

CERTIFY_DEN = 32
SUMS_DEN = 16
SUMS_X_SPAN = 16
# Product supports of the vector sums: twelve mid-size and three large per
# twenty jobs. Mid-size sums vary little in work, so the median job is
# steady; large sums carry the distance graphs near the clique cap of 500.
MID_SUPPORT = (64, 96)
LARGE_SUPPORT = (260, 400)
WINDOW_ALPHAS = ((1, 2), (1, 3), (3, 8), (1, 4), (2, 5))


def strip_bound(norm: str, den: int) -> int:
    """Largest b with b/den at most 9/10 of the norm's near-line radius.

    The radius is sqrt(3)/4 for l2 and 1/8 for l1 and linf; comparing
    squares keeps the bound exact.
    """
    radius_sq = Fraction(3, 16) if norm == "l2" else Fraction(1, 64)
    return math.isqrt(math.floor(Fraction(81, 100) * radius_sq * den * den))


class _Strata:
    """Each block of ``len(values)`` draws is a permutation of ``values``."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.pool: list = []

    def draw(self):
        if not self.pool:
            self.pool = self.values[:]
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def _by_work(rng: random.Random, count: int, make, work, oversample: int = 4) -> list:
    """``count`` jobs from ``make`` at evenly spaced quantiles of the work
    of ``oversample * count`` candidates, in shuffled order."""
    pool = sorted((make() for _ in range(oversample * count)), key=work)
    picked = [pool[(2 * i + 1) * len(pool) // (2 * count)] for i in range(count)]
    rng.shuffle(picked)
    return picked


def _conv_work(alphas) -> int:
    """Multiply-adds of folding the extremal measures of ``alphas`` into one
    by direct convolution: each factor meets every slot built so far."""
    work, length = 0, 1
    for num, den in alphas:
        k = den // num
        work += length * (2 * k + 1)
        length += 2 * k
    return work


def _certify(rng: random.Random, jobs: int) -> list[tuple]:
    """Nine jobs in ten certify one near-line configuration of 12-32 points,
    norms in rotation; the tenth runs the sharpness scenario."""
    sizes = {norm: _Strata(rng, range(12, 33)) for norm in NORMS}
    out: list[tuple] = []
    configs = 0
    for i in range(jobs):
        if i % 10 == 9:
            out.append(("sharpness", rng.randrange(1 << 30)))
            continue
        norm = NORMS[configs % len(NORMS)]
        configs += 1
        n = sizes[norm].draw()
        b = strip_bound(norm, CERTIFY_DEN)
        x_max = n * CERTIFY_DEN // 6
        points = tuple((rng.randint(0, x_max), rng.randint(-b, b)) for _ in range(n))
        out.append(("certify", norm, points))
    return out


def _vector_sum(rng: random.Random, norm: str, support: tuple[int, int]) -> tuple:
    """2-5 near-line measures of 2-5 atoms whose product support lies in
    the closed range ``support``."""
    while True:
        atoms = [rng.randint(2, 5) for _ in range(rng.randint(2, 5))]
        if support[0] <= math.prod(atoms) <= support[1]:
            break
    b = strip_bound(norm, SUMS_DEN)
    measures = []
    for count in atoms:
        points = tuple(
            (rng.randint(0, SUMS_X_SPAN * SUMS_DEN), rng.randint(-b, b))
            for _ in range(count)
        )
        measures.append((points, tuple(rng.randint(1, 5) for _ in range(count))))
    return ("vsum", norm, tuple(measures))


def _sum_pairs(job: tuple) -> int:
    """Point pairs of the sum's support, where its concentration spends."""
    support = {(0, 0)}
    for points, _ in job[2]:
        support = {(x + u, y + v) for x, y in support for u, v in points}
    return len(support) ** 2


def _window(rng: random.Random) -> tuple:
    """100-399 alphas drawn from 1-3 distinct values of WINDOW_ALPHAS."""
    values = rng.sample(WINDOW_ALPHAS, rng.randint(1, 3))
    return ("window", tuple(rng.choice(values) for _ in range(rng.randint(100, 399))))


def _window_work(job: tuple) -> int:
    return _conv_work(sorted(job[1], key=lambda a: a[1] / a[0]))


def _sums(rng: random.Random, jobs: int) -> list[tuple]:
    """Per twenty jobs: fifteen vector sums, norms in rotation, twelve of
    them mid-size and three large; four normal windows; one octagon."""
    kinds: list[tuple] = []
    vsums = 0
    for i in range(jobs):
        if i % 20 == 19:
            kinds.append(("octagon",))
        elif i % 5 == 3:
            kinds.append(("window",))
        else:
            size = LARGE_SUPPORT if vsums // 3 % 5 == 4 else MID_SUPPORT
            kinds.append(("vsum", NORMS[vsums % 3], size))
            vsums += 1
    pools = {}
    for kind in dict.fromkeys(kinds):
        if kind[0] == "window":
            pools[kind] = _by_work(rng, kinds.count(kind), lambda: _window(rng), _window_work)
        elif kind[0] == "vsum":
            pools[kind] = _by_work(rng, kinds.count(kind),
                                   lambda: _vector_sum(rng, kind[1], kind[2]), _sum_pairs)
    return [pools[kind].pop() if kind in pools else kind for kind in kinds]


def _tvalue(rng: random.Random, jobs: int) -> list[tuple]:
    """Alternating 8-40 random alphas j/100, j = 4-100, and 16-48 uniform
    alphas 1/k, k = 1-8; one job of each variant in four goes through the
    command line. Leaving out j < 4 caps an extremal measure at 25 atoms,
    which keeps the longest job under a second."""

    def random_alphas():
        return tuple((rng.randint(4, 100), 100) for _ in range(rng.randint(8, 40)))

    def uniform_alphas():
        return tuple((1, rng.randint(1, 8)) for _ in range(rng.randint(16, 48)))

    variants = {"random": _by_work(rng, (jobs + 1) // 2, random_alphas, _conv_work),
                "uniform": _by_work(rng, jobs // 2, uniform_alphas, _conv_work)}
    out: list[tuple] = []
    for i in range(jobs):
        variant = ("random", "uniform")[i % 2]
        out.append(("tvalue", variant, variants[variant].pop(), (i // 2) % 4 == 3))
    return out


_GENERATORS = {"certify": _certify, "sums": _sums, "tvalue": _tvalue}


def job_count(workload: str, seconds: float) -> int:
    block = BLOCK[workload]
    return block * max(1, round(JOBS_PER_SECOND[workload] * seconds / block))


def generate(workload: str, seed: int, jobs: int) -> list[tuple]:
    rng = random.Random(f"anticonc-bench:{workload}:{seed}")
    return _GENERATORS[workload](rng, jobs)


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]
