"""Cross-sections of singly generated matrix group actions on R^n.

Decides existence of, explicitly constructs, and numerically verifies
cross-sections (multiplicative tiling sets) for the continuous action
``gamma -> gamma A^t`` (``A = exp(B)``) and the discrete action
``gamma -> gamma A^k``, then uses them to build and partition
multi-wavelet sets over full-rank lattices.
"""

__version__ = "0.1.0"

from .errors import (
    BorderlineModulus,
    BudgetExceeded,
    DetOne,
    DimensionTooHigh,
    ExceptionalPoint,
    IllConditioned,
    MixedModuli,
    NoSection,
    NoWavelet,
    Overflow,
    QuadratureDivergence,
    SearchExhausted,
    SelectorMiss,
    Singular,
    UsageError,
    XsectError,
)
from .linalg import (
    DEFAULT_TOL,
    JordanBlock,
    RealJordanForm,
    integer_power,
    matrix_from_json,
    matrix_to_json,
    one_parameter_power,
    real_jordan_form,
)
from .classify import (
    ContinuousVerdict,
    DiscreteVerdict,
    classify_continuous,
    classify_discrete,
    is_similar_to_unitary,
)
from .sections import (
    CrossSection,
    OrbitSolution,
    build_continuous_section,
    build_discrete_section,
    contains,
    derive_discrete_section,
    section_from_json,
    section_to_json,
    solve_orbit,
)
from .shaping import (
    MeasureEstimate,
    ShapedSection,
    ShellPartition,
    estimate_measure,
    to_bounded,
    to_finite_measure,
)
from .verify import (
    TilingReport,
    check_continuous_tiling,
    check_discrete_tiling,
    jacobian_check,
    orbit_integral,
)
from .wavelet import (
    BoxUnion,
    Lattice,
    RegionSet,
    build_order_infinity_set,
    coset_selector_U,
    dilation_count,
    dimension_function,
    is_multiwavelet_set,
    partition_multiwavelet_set,
    saturate,
    translation_count,
    translation_counts,
)
