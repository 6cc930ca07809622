"""BTS power-saving simulator and hysteresis tuning pipeline."""

from .analytics import (
    ClusteringResult,
    ElbowResult,
    FeatureMatrix,
    PcaModel,
    SelectKResult,
    Stage,
    elbow_curve,
    fit_k_range,
    kmeanspp_seed,
    kpi_feature_matrix,
    lloyd,
    pca_reduce,
    run_kmeans,
    select_k,
    silhouette_score,
    silhouette_scores,
    standardize,
)
from .cell_model import (
    CellConfig,
    CellState,
    build_cell,
    idle_tch_count,
    place_calls,
)
from .errors import ConfigurationError, DataError, InvariantError, TrxSaveError
from .evaluator import (
    ComparisonSummary,
    NetworkReport,
    NetworkScenario,
    compare,
    emit_report,
    simulate_network,
    summarize,
)
from .saving_engine import (
    CellTimeline,
    PowerSavingParams,
    SavingState,
    ScanAction,
    apply_action,
    run_cell,
    scan_step,
    validate_params,
)
from .traffic import (
    DiurnalProfileSpec,
    KpiRecord,
    TrafficTrace,
    generate_diurnal_trace,
    ingest_kpi_csv,
    trace_to_kpis,
)
from .tuner import (
    ClusterProfile,
    HysteresisAssignment,
    HysteresisPolicy,
    profile_clusters,
    rank_and_assign,
)

__version__ = "0.1.0"
