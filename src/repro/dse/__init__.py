"""Design-space exploration: the Sec. III brawny-vs-wimpy study."""

from repro.dse.space import (
    DesignPoint,
    design_space,
    named_points,
    max_core_point,
)
from repro.dse.metrics import geomean, tops_per_tco, tops_per_watt
from repro.dse.sweep import DesignPointResult, evaluate_point, sweep
from repro.dse.engine import (
    PointFailure,
    PointRecord,
    SweepReport,
    run_sweep,
)
from repro.dse.journal import Journal, JournalEntry, load_journal
from repro.dse.pareto import pareto_front
from repro.dse.edge import edge_design_point, edge_sweep, evaluate_edge_point
from repro.dse.sparsity_study import sparsity_sweep
from repro.dse.optimizer import Constraints, Objective, optimize_design
from repro.dse.cost import CostModel, tops_per_dollar
from repro.dse.sensitivity import (
    perturbed_calibration,
    stability_summary,
    winner_stability,
)
from repro.integrity import validate_result

__all__ = [
    "Constraints",
    "CostModel",
    "DesignPoint",
    "DesignPointResult",
    "design_space",
    "edge_design_point",
    "edge_sweep",
    "evaluate_edge_point",
    "evaluate_point",
    "geomean",
    "Journal",
    "JournalEntry",
    "load_journal",
    "max_core_point",
    "named_points",
    "Objective",
    "optimize_design",
    "pareto_front",
    "perturbed_calibration",
    "PointFailure",
    "PointRecord",
    "run_sweep",
    "stability_summary",
    "sparsity_sweep",
    "sweep",
    "SweepReport",
    "validate_result",
    "winner_stability",
    "tops_per_dollar",
    "tops_per_tco",
    "tops_per_watt",
]
