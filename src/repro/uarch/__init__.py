"""Microarchitectural models: caches, TLBs, branch prediction, CPU."""

from repro.uarch.backend import BatchedBackend
from repro.uarch.btb import BTB
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.component import ComponentRegistry, SimComponent, default_registry
from repro.uarch.counters import PerfCounters
from repro.uarch.cpu import CPU, CPUConfig, CPUHooks, Mark
from repro.uarch.machine import CheckpointStore, MachineState, machine_key
from repro.uarch.multicore import DualCoreSystem
from repro.uarch.predictor import GsharePredictor, ReturnAddressStack
from repro.uarch.timing import TimingModel
from repro.uarch.tlb import TLB

__all__ = [
    "BTB",
    "BatchedBackend",
    "CPU",
    "CPUConfig",
    "CPUHooks",
    "CheckpointStore",
    "ComponentRegistry",
    "DualCoreSystem",
    "GsharePredictor",
    "MachineState",
    "Mark",
    "PerfCounters",
    "ReturnAddressStack",
    "SetAssociativeCache",
    "SimComponent",
    "TLB",
    "TimingModel",
    "default_registry",
    "machine_key",
]
