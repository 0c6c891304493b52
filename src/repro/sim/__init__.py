"""The volatile master–worker simulator and its substrates."""

from .availability import (
    AvailabilitySource,
    MarkovSource,
    RunLengthMarkovSource,
    SemiMarkovSource,
    TraceSource,
    WeibullSource,
)
from .events import EventKind, EventLog, SimEvent
from .instance_table import InstanceTable
from .master import MasterSimulator, simulate
from .metrics import SimulationReport
from .network import BoundedMultiportNetwork, TransferRequest
from .options import SimulatorOptions
from .platform import Platform, Processor
from .reference import ReferenceSimulator
from .relevance import ReplanPolicy, parse_replan_policy
from .timeline import Activity, TimelineRecorder
from .worker import TaskInstance, WorkerRuntime

__all__ = [
    "MarkovSource",
    "TraceSource",
    "SemiMarkovSource",
    "RunLengthMarkovSource",
    "WeibullSource",
    "AvailabilitySource",
    "EventLog",
    "EventKind",
    "SimEvent",
    "InstanceTable",
    "MasterSimulator",
    "ReferenceSimulator",
    "SimulatorOptions",
    "ReplanPolicy",
    "parse_replan_policy",
    "simulate",
    "SimulationReport",
    "BoundedMultiportNetwork",
    "TransferRequest",
    "Platform",
    "Processor",
    "TaskInstance",
    "WorkerRuntime",
    "TimelineRecorder",
    "Activity",
]
