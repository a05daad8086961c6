"""Spike processing for 96-channel motor-cortex recordings.

The package covers the full path from raw int8 traces to decoded cursor
kinematics: threshold detection that reduces each spike to its peak and
trough, hardware-shaped spike sorters (a streaming histogram/CAM trainer and an offline
segmentation-tree fitter with an L1 template baseline), an ensemble-observation
Kalman filter with an implant/prosthesis split and fixed-point option, a
cycle-driven simulator of the shared-sorter fabric, and synthetic data
generators for all of it.
"""

__version__ = "0.1.0"

from .synthdata import (ClippingError, DatasetFormatError, GroundTruthLabels,
                        HeaderError, PayloadError, RawTrace, ReachSession,
                        SessionConfig, TraceConfig, VersionError,
                        gen_reach_session, gen_spike_trace, load_labels,
                        load_session, load_trace, split_trials, store_labels,
                        store_session, store_trace, tier_config,
                        trials_to_bins)
from .detect import (DEFAULT_K, DEFAULT_PRE, WINDOW_LEN, Completion,
                     SegmentTooShort, Tokens, detect_trace, estimate_threshold,
                     load_tokens, load_windows, store_tokens, store_windows)
from .patterns import SegmentationPattern, enumerate_patterns
from .opcount import OpCounts, SingularMatrixError
from .sort_online import OnlineSorterModel, fit_online, train_online
from .sort_offline import (L1_BITS_PER_TEMPLATE, TREE_MODEL_BITS,
                           ChannelSorterModel, L1TemplateModel, classify_spike,
                           l1_classify, load_models, model_footprint,
                           pack_model, store_models, train_channel_model,
                           train_l1, unpack_model)
from .decode import (DecoderBundle, EnsembleModel, FilterState,
                     FixedPointFormat, ImplantAccumulator,
                     StandardObservationModel, StateTransitionModel, StepOps,
                     best_single_neuron_decoder, bin_spikes, count_ops,
                     ensemble_ez, eokf_step, evaluate_reconstruction, kf_step,
                     load_decoded, load_decoder, per_direction_stats,
                     reduce_observation, run_eokf, run_eokf_split, run_filter,
                     run_kf, select_neurons, selection_columns, store_decoded,
                     store_decoder, train_ensemble, train_observation_standard,
                     train_transition)
from .sim import (ConfigMismatchError, SimConfig, SimCounters, Simulator,
                  build_schedule, parse_sim_config, reference_ez, run_simulation,
                  sweep_spike_rate)
from .evaluation import (calibrate, evaluate_channel_sorters, mapped_accuracy,
                         match_events, permutation_accuracy, run_decoder_benchmark,
                         run_parity_benchmark, split_indices, train_channels)

__all__ = [
    "__version__",
    # datasets
    "RawTrace", "GroundTruthLabels", "ReachSession", "TraceConfig",
    "SessionConfig", "gen_spike_trace", "gen_reach_session", "tier_config",
    "store_trace", "load_trace", "store_labels", "load_labels",
    "store_session", "load_session",
    "split_trials", "trials_to_bins",
    "DatasetFormatError", "HeaderError", "VersionError", "PayloadError",
    "ClippingError",
    # detection
    "WINDOW_LEN", "DEFAULT_K", "DEFAULT_PRE", "Completion", "Tokens",
    "SegmentTooShort", "estimate_threshold", "detect_trace", "store_tokens",
    "load_tokens", "store_windows", "load_windows",
    # sorting
    "SegmentationPattern", "enumerate_patterns",
    "OnlineSorterModel", "fit_online", "train_online", "ChannelSorterModel",
    "L1TemplateModel", "train_channel_model", "train_l1", "classify_spike",
    "l1_classify", "model_footprint", "pack_model",
    "unpack_model", "TREE_MODEL_BITS", "L1_BITS_PER_TEMPLATE", "store_models",
    "load_models",
    # decoding
    "StateTransitionModel", "StandardObservationModel", "EnsembleModel",
    "FilterState", "StepOps", "OpCounts", "SingularMatrixError",
    "train_transition", "train_observation_standard", "train_ensemble",
    "select_neurons", "selection_columns", "kf_step", "eokf_step", "run_filter",
    "run_kf", "run_eokf", "run_eokf_split", "reduce_observation", "ensemble_ez",
    "bin_spikes", "FixedPointFormat", "ImplantAccumulator", "count_ops",
    "evaluate_reconstruction", "per_direction_stats",
    "best_single_neuron_decoder", "DecoderBundle", "store_decoder",
    "load_decoder", "store_decoded", "load_decoded",
    # simulation
    "SimConfig", "SimCounters", "Simulator", "ConfigMismatchError",
    "parse_sim_config", "build_schedule",
    "run_simulation", "reference_ez", "sweep_spike_rate",
    # evaluation
    "calibrate", "match_events", "permutation_accuracy", "mapped_accuracy",
    "split_indices", "evaluate_channel_sorters", "train_channels",
    "run_parity_benchmark", "run_decoder_benchmark",
]
