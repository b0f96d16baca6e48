"""Neural hybrid system learning, abstraction, and CTL verification."""

from .abstraction import (
    TraceSet,
    TransitionSystem,
    build_cells,
    compute_transitions,
    export_dot,
    sample_traces,
)
from .ctl import CtlSyntaxError, check, format_ctl, parse_ctl, sat_set
from .data import DataError, Dataset, WorkingZone, load_dataset, save_dataset, zone_from_data
from .elm import ElmNetwork, fit_output_weights, init_elm, mse, predict_batch
from .geometry import Box, BoxTree, membership_matrix
from .hybrid import HybridModel, Region, SimResult, hybrid_mse, merge_and_learn
from .partition import PartitionSet, me_partition, shannon_entropy
from .reach import Bounds, ReachPiece, ReachResult, cell_successor_box, elm_output_box

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BoxTree",
    "Bounds",
    "CtlSyntaxError",
    "DataError",
    "Dataset",
    "ElmNetwork",
    "HybridModel",
    "PartitionSet",
    "ReachPiece",
    "ReachResult",
    "Region",
    "SimResult",
    "TraceSet",
    "TransitionSystem",
    "WorkingZone",
    "build_cells",
    "cell_successor_box",
    "check",
    "compute_transitions",
    "elm_output_box",
    "export_dot",
    "fit_output_weights",
    "format_ctl",
    "hybrid_mse",
    "init_elm",
    "load_dataset",
    "me_partition",
    "membership_matrix",
    "merge_and_learn",
    "mse",
    "parse_ctl",
    "predict_batch",
    "sample_traces",
    "sat_set",
    "save_dataset",
    "shannon_entropy",
    "zone_from_data",
]
