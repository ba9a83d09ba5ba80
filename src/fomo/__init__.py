"""fomo: how likely is it that an incomplete document search missed a topic?

A search that finds most relevant documents usually finds all the
relevant *information*, because topics repeat across documents. This
package puts numbers on that: closed-form bounds on the chance a
never-sighted topic hides in the missed documents, coupon-collector
expectations for how long full topic coverage takes, and seeded
shuffle simulations over multi-label corpora to check the math against
scan experiments.
"""

from .analytic import (
    FomoRow,
    RecallScenario,
    first_discovery_pmf,
    fomo_confidence,
    fomo_table,
    format_percent,
    missed_set_size,
    novel_topic_prob_in_missed,
    prevalence_upper_bound,
)
from .collector import (
    CouponDistribution,
    MonteCarloDraws,
    SubsetLimitError,
    birthday_first_collision_expected,
    completion_quantile,
    dice_sum_distribution,
    expected_draws_equal,
    expected_draws_unequal_exact,
    expected_draws_unequal_sum,
    simulate_expected_draws,
)
from .corpus import (
    Corpus,
    CorpusFormatError,
    DegenerateDistributionError,
    Document,
    TopicDistribution,
    generate_corpus,
    load_corpus,
    save_corpus,
    zipf_prevalences,
)
from .simulation import (
    AnalyticComparison,
    CoverageCurve,
    HistogramBin,
    SimulationSummary,
    TrialResult,
    completion_topics,
    completion_vs_analytic,
    run_shuffles,
    run_trials,
    scan_accession,
    shuffle_trial,
    summarize,
    summary_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # analytic
    "RecallScenario",
    "FomoRow",
    "first_discovery_pmf",
    "prevalence_upper_bound",
    "missed_set_size",
    "novel_topic_prob_in_missed",
    "fomo_confidence",
    "fomo_table",
    "format_percent",
    # collector
    "CouponDistribution",
    "MonteCarloDraws",
    "SubsetLimitError",
    "dice_sum_distribution",
    "expected_draws_equal",
    "expected_draws_unequal_exact",
    "expected_draws_unequal_sum",
    "completion_quantile",
    "birthday_first_collision_expected",
    "simulate_expected_draws",
    # corpus
    "TopicDistribution",
    "Document",
    "Corpus",
    "CorpusFormatError",
    "DegenerateDistributionError",
    "zipf_prevalences",
    "generate_corpus",
    "save_corpus",
    "load_corpus",
    # simulation
    "CoverageCurve",
    "TrialResult",
    "HistogramBin",
    "SimulationSummary",
    "AnalyticComparison",
    "scan_accession",
    "shuffle_trial",
    "run_trials",
    "run_shuffles",
    "summarize",
    "completion_topics",
    "completion_vs_analytic",
    "summary_from_json",
]
