"""Composite plan synthesis over ranked alternatives with pairwise
compatibility: Pareto frontiers on the (w; e) quality order, bottleneck
analysis, interval multiset estimates with consensus medians, and
budgeted kernel extension via the multiple choice knapsack."""

from .analysis import (
    ImprovementAction,
    ImprovementError,
    KernelReport,
    apply_improvement,
    bottlenecks,
    kernel,
)
from .estimates import (
    MedianResult,
    Proximity,
    enumerate_estimates,
    generalized_median,
    multiset_number,
    multiset_synthesize,
    proximity,
    satisfies_gap_rule,
    uplus,
)
from .knapsack import (
    AggregatedPlan,
    ChoiceItem,
    KnapsackError,
    KnapsackInstance,
    Selection,
    exact_mckp,
    extend_kernel,
    greedy_mckp,
)
from .model import (
    CompatibilityTable,
    Component,
    CompositeSolution,
    DesignAlternative,
    InfeasibleNodeError,
    InvalidComparisonError,
    MorphError,
    MorphModel,
    OrdinalScale,
    QualityVector,
    SolutionError,
    ValidationReport,
    Violation,
    e_dominates,
    n_dominates,
    system_quality,
    validate_model,
)
from .modeldoc import (
    DocumentError,
    ExpectedSolution,
    ModelDocument,
    model_digest,
    parse_model,
    parse_model_file,
    serialize_document,
)
from .reporting import estimate_scale_dot, frontier_dot, render_json, render_text
from .synthesis import (
    Frontier,
    SynthesisOutcome,
    enumerate_admissible,
    hierarchical_synthesize,
    pareto_filter,
    synthesize_dp,
)

__version__ = "0.1.0"
