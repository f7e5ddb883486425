"""Sequence-labeling toolkit for Persian ezafe recognition and POS tagging
with linear-chain CRFs: corpus protocol, window/affix feature templates,
elastic-net training, exact inference, evaluation, and a synthetic-data
oracle for verification."""

from .corpus import (
    Corpus,
    CorpusFormatError,
    PosStatsRow,
    Sentence,
    SplitSpec,
    Token,
    corpus_stats,
    filter_long,
    parse_corpus,
    shannon_index,
    shuffle_split,
    write_corpus,
)
from .crf import (
    CrfModel,
    Lattice,
    ModelFormatError,
    TrainConfig,
    backward,
    forward,
    load_model,
    marginals,
    nll_and_gradient,
    save_model,
    score_lattice,
    train,
    viterbi,
)
from .datagen import GeometricLength, HmmSpec, HmmSpecError, bayes_decode, generate
from .features import (
    EzafeAnnotation,
    FeatureIndex,
    FeatureTemplate,
    FeatureVector,
    build_feature_index,
    extract_features,
    sentence_features,
)
from .metrics import (
    ConfusionTable,
    EvalReport,
    Metrics,
    binary_metrics,
    confusion,
    delta_report,
    ezafe_f1_per_pos,
    macro_metrics,
)
from .tasks import (
    ExperimentConfig,
    ExperimentResult,
    pipeline_tag,
    run_ezafe,
    run_experiment,
    run_joint,
    run_pos,
)

__version__ = "0.1.0"
