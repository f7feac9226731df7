"""Alveo U280 hardware model: resources, off-chip memory, power, platform."""

from .hbm import MemoryChannelSpec, MemorySystemModel, MemorySystemSpec
from .power import EnergyBreakdown, EnergyModel, EnergyModelConfig
from .resources import ResourceBudget, ResourceError, ResourceVector, UtilizationReport
from .u280 import U280_RESOURCES, FpgaPlatform, u280

__all__ = [
    "MemoryChannelSpec",
    "MemorySystemModel",
    "MemorySystemSpec",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyModelConfig",
    "ResourceBudget",
    "ResourceError",
    "ResourceVector",
    "UtilizationReport",
    "U280_RESOURCES",
    "FpgaPlatform",
    "u280",
]
