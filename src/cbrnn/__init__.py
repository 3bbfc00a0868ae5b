"""Bidirectional RNN relation classifier with prefix-curve interpretation."""

from .corpus import (
    CorpusSplit,
    InputError,
    LabeledSentence,
    SyntheticConfig,
    Vocabulary,
    build_vocabulary,
    encode_sentence,
    generate_synthetic,
    import_semeval,
    parse_marked_sentence,
)
from .embeddings import EmbeddingTable, compose_ngram_inputs, init_random, load_pretrained_text
from .interpret import (
    FixedCurveModel,
    PatternTable,
    PrefixScoreCurve,
    SaliencyPattern,
    export_hidden_states,
    extract_pattern,
    mine_patterns,
    prefix_curve,
)
from .model import (
    CBRNNParams,
    LossConfig,
    TrainConfig,
    TrainedModel,
    evaluate,
    forward_pass,
    gradient_check,
    load_model,
    loss_gradients,
    predict,
    ranking_loss,
    save_model,
    sgd_step,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
