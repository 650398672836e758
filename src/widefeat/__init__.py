"""widefeat: hierarchical feature bank + dual-selector feature recommendation
for labeled 1-D sensor time series."""

from .classifier_eval import (EvalConfig, FoldOutcome, evaluate_feature_set, pca_baseline,
                              score_test_rows)
from .dataset import (DatasetManifest, FoldPlan, SignalRecord, WavRecord, fold_roles,
                      load_dataset, load_manifest, make_folds)
from .errors import (ConfigError, LoadError, RunError, TrainingError, ValidationError,
                     WidefeatError)
from .feature_bank import (ExtractionConfig, FeatureDescriptor, FeatureMatrix,
                           build_feature_matrix, describe, extract_level0, extract_level1,
                           extract_level2, parse_lineage_path)
from .metrics import MetricReport, compute_metrics
from .recommender import (Recommendation, RecommendConfig, exhaustive_refine, interpret,
                          recommend)
from .selector import (RelevanceCache, SelectionResult, SelectorConfig, f_statistic,
                       fuzzy_dependency, mrmr_select, mrms_select, union_recommend)
from .stft import stft
from .svm import KernelSpec, SvmModel, decision_function, svm_predict, svm_train
from .wavelets import (WAVELET_BANK, dwt_decompose, dwt_max_depth, dwt_reconstruct,
                       register_wavelet)

__version__ = "0.1.0"
