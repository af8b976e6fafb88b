"""Simulation-based sizing of an emergency-department network.

A discrete-event model of several EDs linked by ambulance-diversion
policies estimates patients' non-value-added times; a derivative-free
integer solver then sizes the per-slot sanitary resources under mean
NVA-time constraints.
"""

from .calibrate import calibrate_ed, calibrate_network, l1_error
from .distributions import ArrivalProcess, LosDistribution, summarize
from .engine import EventCalendar, RandomStreams, ReplicationSpec, SimulationLogicError
from .network import (
    RED,
    YELLOW,
    Patient,
    PolicySpec,
    decide_routing,
    validate_transfer_matrix,
)
from .objective import (
    ObjectiveSpec,
    SimSummary,
    constraint_violations,
    make_allocation_problem,
    objective_value,
    saa_evaluate,
)
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_from_dict
from .simulate import ReplicationOutput, run_replication
from .solver import BoxedIntegerProblem, SolveResult, SolverState, merit, solve

__version__ = "0.1.0"

__all__ = [
    "ArrivalProcess",
    "BoxedIntegerProblem",
    "EventCalendar",
    "LosDistribution",
    "ObjectiveSpec",
    "Patient",
    "PolicySpec",
    "RED",
    "RandomStreams",
    "ReplicationOutput",
    "ReplicationSpec",
    "Scenario",
    "ScenarioError",
    "SimSummary",
    "SimulationLogicError",
    "SolveResult",
    "SolverState",
    "YELLOW",
    "calibrate_ed",
    "calibrate_network",
    "constraint_violations",
    "decide_routing",
    "l1_error",
    "make_allocation_problem",
    "merit",
    "objective_value",
    "parse_scenario",
    "run_replication",
    "saa_evaluate",
    "scenario_from_dict",
    "solve",
    "summarize",
    "validate_transfer_matrix",
]
