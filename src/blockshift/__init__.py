"""blockshift: finite windows of minimal zero-entropy subshifts that
realize arbitrary targets along sparse sets, with exact analyzers and a
Mobius correlation harness."""

from .analysis import (
    ComplexityReport,
    MinimalityReport,
    aligned_block_census,
    complexity_profile,
    corrected_constant,
    decay_report,
    entropy_bound_series,
    minimality_witnesses,
    positive_density_bound,
    realization_forced_count,
    window_admissibility_report,
)
from .correlation import (
    CorrelationReport,
    SarnakDemo,
    WeightTable,
    correlation_average,
    sarnak_demo,
)
from .errors import (
    BlockshiftError,
    ChecksumError,
    ConstructionInvariantError,
    DensityViolation,
    EmptyCoreError,
    IncompleteDataError,
    InconsistencyError,
    InfeasibleDepth,
    InvalidParameterError,
    VersionError,
    WindowFormatError,
    WindowRangeError,
)
from .mobius import MobiusTable, mobius_sieve
from .realization import (
    RealizationReport,
    TargetSequence,
    fill_level,
    init_partial,
    realize,
    verify_realization,
)
from .schedule import (
    Card,
    LevelParams,
    Schedule,
    WindowAdmissibilityReport,
    build_schedule,
    is_admissible_block,
)
from .sparse import SparseSetSpec
from .windowfile import WindowFile, load_window, save_window
from .words import (
    STAR,
    Alphabet,
    PartialWindow,
    block_interval,
    block_of,
    hull_of_blocks,
)

__version__ = "0.1.0"
