"""Meet, join and combined meet-and-join matrices over finite lattices.

The package builds the matrices (GCD/LCM and MIN/MAX matrices are the stock
special cases), verifies their factorizations, computes lower bounds and
inclusion regions for their eigenvalues against directly computed spectra,
and reproduces the extremal constants those bounds depend on by a certified
search over unit-lower-triangular 0/1 matrices.
"""

from ._kernels import backend_name
from .bounds import (
    BoundReport,
    ConstantValue,
    HypothesisError,
    RegionReport,
    gcd_power_family,
    divisor_closed_family,
    interval_from_discs,
    lower_bound_join,
    lower_bound_meet,
    region_join_closed,
    region_meet_closed,
    resolve_C,
    resolve_c,
    totient_reciprocal_interval,
)
from .constants import (
    Certificate,
    ConjectureCheck,
    SearchResult,
    TriangularMask,
    certify_cn,
    cn_lower_bound_from_n0,
    cn_lower_bound_from_tn,
    enumerate_kn,
    full_scan,
    kappa_y0,
    n0_frobenius,
    n0_frobenius_closed_form,
    search_Cn,
    search_cn,
    t_n,
    table1,
    verify_conjecture,
    y0_matrix,
)
from .incidence import (
    ConvolutionVector,
    PosetFunction,
    PowerDomainError,
    down_convolution,
    is_semimultiplicative,
    parse_function,
    power_value,
    real_power,
    up_convolution,
)
from .matrices import (
    CombinedSpec,
    ExistenceError,
    FactorizationError,
    StructureFactors,
    combined_matrix,
    factor_filter,
    factor_ideal,
    factor_join_closed,
    factor_meet_closed,
    format_matrix,
    g_matrix,
    hadamard_diag_identity_check,
    ideal_block_split,
    incidence_matrix,
    join_matrix,
    matrices_close,
    meet_matrix,
    parse_matrix_csv,
    structure_join,
    structure_meet,
)
from .poset import (
    ElementSubset,
    LatticeError,
    MobiusTable,
    Poset,
    PosetError,
    chain_poset,
    divisor_lattice,
    divisor_poset,
    divisors_of,
    format_poset,
    from_cover_relations,
    gcd_lcm_closure,
    parse_poset,
)
from .spectra import (
    SpectraError,
    Spectrum,
    determinant,
    det_symmetric,
    eigen_symmetric,
    frobenius_norm,
    is_positive_definite,
    kappa,
    spectral_norm,
    spectral_radius,
)

__version__ = "0.1.0"
