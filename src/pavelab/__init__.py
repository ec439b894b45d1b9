"""Matrix paving laboratory.

Random paving construction with exact small-instance oracles, seeded exact
and Monte Carlo restricted-norm moments, a registry of the moment
inequalities behind the paving argument, and the closed-form bound chain.
"""

from .bounds import (
    ChainReport,
    delta_sufficient,
    haagerup_constant,
    khintchine_constant,
    mu_bound,
    paving_size_bound,
    rudelson_bound,
    step3_bound,
    theorem_pipeline,
)
from .errors import (
    CapacityError,
    DimensionError,
    FormatError,
    ParameterError,
    PavelabError,
    PreconditionError,
)
from .inequalities import (
    CASE_IDS,
    CASES,
    InequalityInstance,
    InequalityReport,
    format_report,
    verify_inequality,
)
from .matrices import (
    CoordinateSet,
    DenseMatrix,
    Partition,
    hollow_rescale,
    max_abs_entry,
    max_column_norm,
    paving_quality,
    restrict,
    schatten_norm,
    spectral_norm,
)
from .moments import MomentEstimate, exact_moment, mc_moment
from .paving import (
    PavingCheck,
    PavingResult,
    exhaustive_pave,
    pad_to_multiple,
    random_pave,
    verify_paving,
)
from .polynomials import (
    ExtrapolationReport,
    MarkovReport,
    PolyCoefficients,
    SandwichReport,
    check_extrapolation,
    check_markov,
    check_polynomial_sandwich,
    chebyshev_coefficients,
    trace_moment_polynomial,
)
from .sampling import (
    Bernoulli,
    BernoulliPair,
    ProjectorModel,
    RademacherSigns,
    Seed,
    UniformK,
    binomial_median_bracket,
    gen_ensemble,
    parse_seed,
    sample_permutation_partition,
    sample_subset,
)

__version__ = "0.1.0"
