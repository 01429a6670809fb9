"""Long-tail sequential recommendation toolkit.

Candidate construction from a diagonal-constrained linear item-item
model, tail-aware sequence augmentation with representation mixup,

two-stage training of pluggable encoders, and segmented head/tail
evaluation.
"""

from .augment import (AugmentedBatch, CrossPlan, OperatorConfig, apply_cross_mixup,
                      augment_batch, augment_sequence, plan_cross_batch, t_insert, t_substitute)
from .corpus import (DatasetStats, InteractionLog, PreferenceClass, Segmentation,
                     SequenceStore, build_sequences, classify_sequence,
                     dataset_stats, k_core_filter, leave_one_out_split,
                     load_interactions, segment)
from .encoders import ModelState, encode_batch, init_model
from .errors import ConfigError, DataError, NumericError, TailaugError
from .evaluation import (MetricReport, RankingResult, evaluate_model,
                         format_table, hit_at_k, mean_report,
                         ndcg_at_k, segmented_report,
                         validation_score)
from .simcand import (CandidateSets, SimilarityMatrix, SolverConfig,
                      build_candidates, build_cooccurrence,
                      build_interaction_matrix, solve_similarity,
                      top_k_correlation, union_candidates)
from .training import (AdamState, TrainConfig, adam_step, batch_loss,
                       init_adam, load_checkpoint, save_checkpoint,
                       train_stage1, train_stage2)

__version__ = "0.1.0"
