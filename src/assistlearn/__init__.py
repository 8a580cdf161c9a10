"""Decentralized learning over vertically partitioned features.

Autonomous modules each hold a private slice of columns for the same rows.
One module owns the labels; the others assist it by fitting residual vectors
it sends them and later serving predictions. Nobody ships features or
models. A split-network variant trains a single neural net whose input layer
is partitioned across two parties.
"""

from .core import (FeaturePartition, LocalModule, TaskLabels, align,
                   derive_seed, vertical_split)
from .data import (SplitSpec, SyntheticSpec, generate, gen_friedman1,
                   gen_linear, load_csv, save_csv, split)
from .errors import AssistError, TransportError
from .harness import (ExperimentConfig, Report, compare_stacking,
                      format_table, run_experiment)
from .learners import FittedModel, LearnerSpec, fit_learner, predict
from .metrics import mad, rmse
from .nn_protocol import (NnConfig, NnTrainResult, SharedWeights,
                          bob_update_round, nn_predict, run_nn_learning)
from .protocol import (BaselineMetrics, ProtocolConfig, RoundRecord,
                       TrainedTask, assist_fit, argmin_round,
                       oracle_baseline, per_round_predictions, predict_stage,
                       run_learning_stage, stacking_baseline, stop_check,
                       stopped_round)
from .transport import (Envelope, InProcEndpoint, ModuleResponder,
                        TcpEndpoint, TcpModuleServer, decode, encode,
                        local_endpoint, serve_module, validate_payload)

__version__ = "0.1.0"

__all__ = [
    "AssistError", "BaselineMetrics", "Envelope", "ExperimentConfig",
    "FeaturePartition", "FittedModel", "InProcEndpoint", "LearnerSpec",
    "LocalModule", "ModuleResponder", "NnConfig", "NnTrainResult",
    "ProtocolConfig", "Report", "RoundRecord",
    "SharedWeights", "SplitSpec", "SyntheticSpec", "TaskLabels",
    "TcpEndpoint", "TcpModuleServer", "TrainedTask", "TransportError",
    "align", "argmin_round", "assist_fit", "bob_update_round",
    "compare_stacking", "decode", "derive_seed", "encode", "fit_learner",
    "format_table", "gen_friedman1", "gen_linear", "generate", "load_csv",
    "local_endpoint", "mad", "nn_predict", "oracle_baseline",
    "per_round_predictions", "predict", "predict_stage", "rmse",
    "run_experiment", "run_learning_stage", "run_nn_learning", "save_csv",
    "serve_module", "split", "stacking_baseline", "stop_check",
    "stopped_round", "validate_payload", "vertical_split",
]
