"""uapkit: universal adversarial perturbations for cross-modal retrieval.

Synthesizes sample-agnostic patches and norm-bounded global perturbations
against a differentiable image encoder, using minimal decision-boundary
crossing steps, and evaluates their effect on image-text retrieval.
"""

from .attack import (AttackConfig, AttackTrace, Perturbation, evaluate_metrics,
                     run_attack)
from .boundary import (CrossingReport, LinearClassifier, accumulate,
                       binary_distance, binary_min_perturbation,
                       cross_k_boundaries,
                       k_nearest_boundaries, multiclass_min_perturbation,
                       nearest_boundary)
from .core import (Carrier, apply_patch, clamp_unit, patch_side_for_area,
                   project_l2, project_linf, square_patch_mask)
from .datagen import Dataset, DatasetParams, build_dataset, generate, load
from .encoder import (Encoder, PerturbedBatch, build_encoder, default_toy_encoder,
                      encode_batch, encoder_hash, gradcheck, load_encoder,
                      save_encoder, score_with_gradient)
from .errors import (CorruptDatasetError, DegenerateDatasetError,
                     DegenerateEncodingError, IntegrityError,
                     InvalidArgumentError, PreconditionError, UapkitError)
from .retrieval import (EmbeddingIndex, hit_rate, match_ranks, rank_rows,
                        select_nonmatching_topk)

__version__ = "0.1.0"
