"""Story-aware recipe generation from feature-level cooking videos.

The library covers the full desk-scale pipeline: a synthetic kitchen world,
oracle candidate analysis, a jointly trained event selector and sentence
generator (with the ingredient-grounded extension), and the DVC evaluation
stack (tIoU, dvc_eval, SODA, event-count statistics).
"""

from .data import (
    DatasetRecord,
    EventCandidateSet,
    GroundTruthRecipe,
    ParseError,
    PredictionRecipe,
    RecipeStep,
    TimedEvent,
    ValidationError,
    Vocabulary,
    build_vocabulary,
    load_dataset,
    load_predictions,
    save_dataset,
    save_predictions,
    tokenize,
)
from .dvceval import (
    Alignment,
    dp_alignment,
    dvc_eval,
    evaluate_corpus,
    event_count_stats,
    soda,
    soda_from_matrix,
    tiou,
)
from .extended import distant_labels, update_ingredients
from .model import (
    ModelConfig,
    RecipeModel,
    build_labels,
    load_checkpoint,
    loss_event,
    loss_sentence,
    mix_memories,
    pool_memory,
    preset_config,
    save_checkpoint,
)
from .optim import Adam, OptimizerConfig, grad_check, warmup_lr
from .oracle import (
    OracleAssignment,
    oracle_prediction,
    oracle_report,
    oracle_select,
    oracle_sweep,
    subset_candidates,
)
from .synth import WorldConfig, generate_world, propose_candidates
from .textmetrics import CorpusDF, bleu4, build_df, cider_d, meteor_lite
from .training import (
    ExperimentConfig,
    ablate,
    split_dataset,
    train,
)

__version__ = "0.1.0"
