"""Self-dual MDS codes from evaluation sets over odd-order fields.

The package builds generalized Reed-Solomon evaluation sets whose
codes are self-dual and MDS, through several construction families:
scaled roots of unity moved through additive subspace lifts (th1 to
th4), multiplicative coset lifts and their iterated tower forms (th8
to th13, cor1 to cor4), and a greedy square-clique construction for
large fields. Everything is verified at build time; `grsdual` is also
a command-line tool exposing construct, verify, catalog, and selftest.
"""

from .errors import (
    BaseNotSelfDual,
    BasePointsNotInSubfield,
    CharacterCondition,
    CompositeCharacteristic,
    DependentBasis,
    DuplicatePoints,
    E1NotOdd,
    EnumerationTooLarge,
    EvenLength,
    GreedyFailed,
    GrsDualError,
    HypothesisViolated,
    MultipliersUnset,
    NonPositiveDegree,
    NotASubfield,
    NotInSubgroup,
    OddLength,
    ParityCondition,
    SchemaError,
    ShapeMismatch,
    ShiftInSubspace,
    TableLimitExceeded,
    TooManyCosets,
    VerificationFailed,
    ZeroArgument,
)
from .field import (
    DEFAULT_TABLE_LIMIT,
    Field,
    make_field,
)
from .grs import (
    EvalSet,
    GeneratorMatrix,
    SelfDualCode,
    build_verified_code,
    check_mds,
    check_self_dual,
    check_verify_scale,
    code_from_obj,
    generator_matrix,
    lagrange_products,
    min_distance,
    products_at,
    solve_extended_multipliers,
    solve_multipliers,
)
from .subspace import (
    default_shift,
    default_subspace,
    integer_run,
    roots_of_unity,
    subspace_basis,
    subspace_lift,
    th1_base,
    th1_code,
    th2_code,
    th3_code,
    th4_code,
    zero_and_roots,
)
from .cosets import (
    CosetSpec,
    TwoDecomposition,
    coset_lift,
    coset_points,
    distinct_coset_indices,
    extended_coset_lift,
    iterated_lift,
    th8_code,
    th8_th9_code,
    th9_code,
    th10_code,
    th10_th11_code,
    th11_code,
    th12_code,
    th13_code,
)
from .search import (
    CatalogEntry,
    catalog,
    catalog_to_csv,
    catalog_to_jsonl,
    clique_count_lower_bound,
    large_q_bound,
    odd_prime_powers,
    square_clique_greedy,
    th_large_q_code,
)
from .selftest import SuiteResult, run_selftest, selftest_passed

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
