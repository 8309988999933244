"""Conformal e-prediction.

E-values are nonnegative statistics whose expectation is at most 1 when
the candidate label is the true one; unlike p-values they average safely,
which makes cross-conformal merging a plain arithmetic mean. This package
provides split, cross, and full conformal e-predictors over pluggable
conformity rules, the p-value baselines they are compared against, and
Monte Carlo harnesses for the expectation and time-average guarantees.
"""

from .conformity import (
    EPSILON_FLOOR,
    ConformityRule,
    KnnRule,
    RidgeRule,
    SupportSet,
    support_set_assignment,
    support_set_e_values,
    train_conformity,
    unit_margin_provider,
)
from .core import (
    E_MEAN_TOLERANCE,
    ClassificationTask,
    Dataset,
    EValueVector,
    FoldPartition,
    Observation,
    PlausibilityTable,
    RegressionTask,
    SummaryVector,
    derive_seed,
    make_fold_partition,
    spawn_rng,
)
from .data import (
    SCENARIO_PRESETS,
    Scenario,
    get_scenario,
    load_csv,
    sample,
    save_csv,
)
from .errors import (
    AverageExceedsOneError,
    ConfeeError,
    DimensionMismatchError,
    EmptyDatasetError,
    EmptyProperSetError,
    EmptySupportSetError,
    InvalidScenarioError,
    KTooLargeError,
    LabelOutOfSpaceError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveSummaryError,
    OutOfRangeError,
    ParseError,
    RaggedRowsError,
    SingularSystemError,
    TooFewFoldsError,
    TooFewObservationsError,
    UnboundedNormalizerError,
)
from .normalize import Normalizer, get_normalizer, mean_normalize, sum_normalize
from .predictors import (
    CrossEPredictor,
    FullEPredictor,
    OnlineTrace,
    cross_p_merge,
    e_prediction_set,
    e_to_p,
    fit_cross,
    fit_cross_from_partition,
    fit_split,
    harmonic_mean,
)
from .validity import (
    DEFAULT_EPSILONS,
    PREDICTOR_PRESETS,
    TAIL_THRESHOLDS,
    ComparisonReport,
    ConstantEPredictor,
    PredictorSpec,
    SpaceValidityReport,
    TimeValidityReport,
    build_predictor,
    compare_e_vs_p,
    mc_space_validity,
    online_time_validity,
)

__version__ = "0.1.0"
