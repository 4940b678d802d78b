"""Exact toolkit for concentration of sums of independent discrete vectors.

Submodules:
    lattice         exact measures on the half-integer lattice
    geometry        rational point configurations, norms, vector measures
    perfect_graphs  exact clique / colouring / odd-hole solvers
    chains          chain decompositions of products of blocks
    bounds          closed-form bound evaluation with condition checks
    scenarios       bundled verification scenarios
    cli             command-line front end
"""

from .lattice import (
    LatticeMeasure,
    concentration_1d,
    convolve,
    extremal_measure,
    extremal_variance,
    t_value,
    third_abs_moment,
    variance_profile,
)
from .geometry import (
    NormSpec,
    PointConfig,
    VectorMeasure,
    concentration_q,
    distance,
    distance_graph,
    empirical_measure,
    halasz_diagnostics,
    near_line_fit,
    product_sum_measure,
    separation_check,
    supporting_functional,
)
from .perfect_graphs import (
    DistGraph,
    block_decomposition,
    chromatic_number,
    cocomparability_order,
    find_odd_hole,
    is_berge,
    max_clique,
    to_uniform_multiset,
    verify_perfection_near_line,
)
from .chains import Block, btk_decompose, iterated_decompose, jones_bound, middle_layer_count
from .bounds import clt_window, crude_bound, kesten_bound, main_bound, theorem_local_conditions
from .caps import Caps
from .scenarios import run_octagon_scenario, run_sharpness_scenario, run_verify_theorem22

__version__ = "0.1.0"
