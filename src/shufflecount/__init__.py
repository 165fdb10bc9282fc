"""Pure-DP binary counting in the shuffle model, with compositions and audits."""

from .audit import (
    AuditReport,
    check_geo_ratio,
    check_poi_ratio,
    divergence_audit,
    exact_mean_messages,
    exact_mse,
    measure_comm,
    measure_mse,
    mse_bound,
)
from .composition import (
    HistogramRun,
    RealSumRun,
    run_histogram,
    run_real_sum,
    split_budget,
)
from .dist import (
    RandomSource,
    dlap_variance,
    poi_logpmf,
    sample_nb,
    sample_poi,
)
from .errors import (
    AuditInconclusiveError,
    DegenerateInputError,
    InfeasibleParametersError,
    ParameterError,
)
from .params import (
    ProtocolParams,
    check_condition,
    derive_params,
    minimal_params,
)
from .protocol import (
    CountingRun,
    View,
    analyze,
    run_counting,
)

__version__ = "0.1.0"

__all__ = [
    "AuditInconclusiveError",
    "AuditReport",
    "CountingRun",
    "DegenerateInputError",
    "HistogramRun",
    "InfeasibleParametersError",
    "ParameterError",
    "ProtocolParams",
    "RandomSource",
    "RealSumRun",
    "View",
    "analyze",
    "check_condition",
    "check_geo_ratio",
    "check_poi_ratio",
    "derive_params",
    "divergence_audit",
    "dlap_variance",
    "exact_mean_messages",
    "exact_mse",
    "measure_comm",
    "measure_mse",
    "minimal_params",
    "mse_bound",
    "poi_logpmf",
    "run_counting",
    "run_histogram",
    "run_real_sum",
    "sample_nb",
    "sample_poi",
    "split_budget",
]
