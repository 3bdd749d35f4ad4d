"""Robust change point detection for adversarially contaminated series.

The detector scans a series with two adjacent windows, estimates each
window's location with a contamination-robust mean, and reports local
maximizers of the window contrast that clear a threshold. Companion modules
provide the threshold policies, an automatic contamination-level tuner,
adversarial data generators, evaluation metrics, and a Monte-Carlo harness.
"""

from types import ModuleType as _ModuleType

from .core import (
    ArcCpdError,
    ChangePointSet,
    DegenerateScale,
    DetectionConfig,
    EmptySeries,
    InfeasibleWindow,
    LambdaResolutionFailure,
    NoFeasibleCandidate,
    NonFiniteScan,
    NonFiniteValue,
    RngStream,
    RunReport,
    SeriesTooShort,
    SpecInvalid,
    TimeSeries,
    mad_sigma,
    substream,
)
from .detector import (
    AggregateReport,
    LambdaPolicy,
    ManualLambda,
    RealDataHeavyTailLambda,
    RealDataLambda,
    SimulationDefaultLambda,
    TheoreticalLambda,
    baseline_scan,
    detect,
    detect_repeated,
    local_maximizers,
    recommend_h,
    resolve_lambda,
)
from .metrics import MetricReport, count_error, covering, hausdorff, score
from .rume import (
    RumeOutcome,
    RumeParams,
    auto_delta,
    effective_epsilon,
    rume,
    trimming_span,
)
from .simgen import (
    AttackSpec,
    CauchyContam,
    CleanSteps,
    CorruptReal,
    CorruptionRule,
    Hiding,
    LabeledSeries,
    PRESET_NAMES,
    Sine,
    Spurious,
    atom_profile,
    build_preset,
    generate,
)
from .tune import (
    TournamentConfig,
    TournamentResult,
    default_grid,
    pairwise_test,
    select_epsilon,
    tournament,
)
from .bench import (
    BenchRow,
    ExperimentGrid,
    phase_sweep,
    rows_to_csv,
    rows_to_json,
    run_grid,
)

__version__ = "0.1.0"

# every public name bound above; importing them also binds the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
