"""hdpbench: benchmarking heterogeneous and unsupervised cross-project
defect prediction methods under one experiment harness."""

from .datasets import (
    DefectDataset,
    dataset_stats,
    enumerate_combinations,
    load_dataset,
    load_manifest_datasets,
    read_manifest,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    build_report,
    export_results,
    load_config,
    load_results,
    register_external_method,
    run_experiment,
    write_report,
)
from .hdp import (
    HdpOutcome,
    MetricMatch,
    distribution_vector,
    gain_ratio,
    hdp1_predict,
    hdp5_predict,
    ks_pvalue,
    match_metrics,
    select_top_metrics,
)
from .learner import LogisticModel, TrainConfig, predict_proba, train_logistic, zscore_apply, zscore_fit
from .measures import (
    ConfusionMatrix,
    acc_at,
    auc,
    confusion,
    ifa,
    pmi_at,
    popt,
    prf1,
)
from .stats import (
    ContingencyTable,
    SkRanking,
    WtlRecord,
    bh_adjust,
    cliffs_delta,
    mcnemar,
    satisfactory,
    satisfactory_ratio,
    scott_knott,
    wilcoxon_signed_rank,
    wilcoxon_signed_ranks,
)
from .udp import (
    Prediction,
    best_metric_oracle,
    cla_predict,
    clami_predict,
    manual_rank,
    spectral_predict,
)

__version__ = "0.1.0"
