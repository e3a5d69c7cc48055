"""Exact arithmetic for joint core partitions and their bar analogues.

Partitions, bar partitions, core/quotient towers, runner encodings, signed
lattice grids with their path bijections, truncated integer series for six
families of generating functions, a brute-force enumeration oracle, and named
verification suites tying them together. Everything is exact integer
arithmetic; nothing here floats.
"""

from .bar_partitions import (
    BarPartition,
    as_bar_partition,
    bar_length_multiset,
    enumerate_bar_partitions,
    is_bar_partition,
    is_tbar_core,
)
from .core_quotient import (
    BarTower,
    StraightTower,
    bar_decompose,
    bar_reconstruct,
    decompose,
    is_st_core,
    is_stbar_core,
    reconstruct,
)
from .encodings import (
    gks_decode,
    gks_encode,
    olsson_decode,
    olsson_encode,
    zeta,
    zeta_inverse,
)
from .lattice import (
    anderson_grid,
    big_gamma,
    big_gamma_inverse,
    dh_grid,
    enumerate_cores_by_paths,
    gamma,
    gamma_inverse,
    path_to_core,
    yinyang_grid,
)
from .oracle import (
    CountTable,
    barcore_counts,
    core_counts,
    count_filtered,
    enumerate_partitions,
    enumerate_self_conjugate,
    extremal_stats,
    selfconj_core_counts,
    selfconj_st_core_counts,
    st_core_counts,
    stbar_core_counts,
)
from .partitions import (
    Partition,
    as_partition,
    conjugate,
    diagonal_hooks,
    first_column_hooks,
    from_diagonal_hooks,
    from_first_column_hooks,
    hook_length_multiset,
    is_self_conjugate,
    is_t_core,
    size,
)
from .series import (
    TruncatedSeries,
    barcore_gf,
    congruence_scan,
    convolution_psi,
    convolution_psi_bar,
    convolution_psi_star,
    core_gf,
    eta_quotient,
    partition_gf,
    progression_extract,
    psi_bar_st_gf,
    psi_st_gf,
    psi_star_st_gf,
    selfconj_core_gf,
)
from .verify import run_suite

__version__ = "0.1.0"

# Every public name bound above, less the submodules that the imports bind.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, type(verify))
)
