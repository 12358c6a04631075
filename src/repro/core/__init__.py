"""Core: the Figure-1 end-to-end discovery system."""

from repro.core.config import DiscoveryConfig, PipelineStats
from repro.core.dag import Stage, StageCycleError, StageGraph
from repro.core.errors import (
    ConfigError,
    CsvFormatError,
    DiscoveryError,
    LakeError,
    SchemaError,
    SnapshotError,
)
from repro.core.engine import (
    REGISTRY,
    Engine,
    EngineContext,
    EngineRegistry,
    FederatedHit,
    QueryRequest,
    register_engine,
)
from repro.core.snapshot import SnapshotManifest
from repro.core.system import STAGE_DEPS, STAGES, DiscoverySystem

__all__ = [
    "REGISTRY",
    "STAGES",
    "STAGE_DEPS",
    "ConfigError",
    "CsvFormatError",
    "DiscoveryConfig",
    "DiscoveryError",
    "DiscoverySystem",
    "Engine",
    "EngineContext",
    "EngineRegistry",
    "FederatedHit",
    "LakeError",
    "QueryRequest",
    "register_engine",
    "PipelineStats",
    "SchemaError",
    "SnapshotError",
    "SnapshotManifest",
    "Stage",
    "StageCycleError",
    "StageGraph",
]
