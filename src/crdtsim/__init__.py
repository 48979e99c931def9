"""Deterministic execute-order-validate pipeline simulator with a JSON CRDT
merge path alongside classic MVCC validation."""

from .jsoncrdt import (
    CrdtError,
    DocumentShapeError,
    JsonCrdt,
    StructuralConflictError,
    canonical_json_bytes,
    init_empty_crdt,
)
from .ledger import BlockLog, Version, WorldState, commit_block
from .txpipeline import (
    Block,
    ChaincodeSpec,
    EndorsementPolicy,
    Orderer,
    PipelineConfig,
    Proposal,
    Read,
    ReadWriteSet,
    RunReport,
    Transaction,
    ValidatedBlock,
    Write,
    endorse,
    mvcc_validate,
    run_pipeline,
    simulate_proposal,
    validate_endorsements_block,
    validate_merge_block,
)
from .workload import WorkloadConfig, gen_iot_json, gen_stream, iot_chaincode

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockLog",
    "ChaincodeSpec",
    "CrdtError",
    "DocumentShapeError",
    "EndorsementPolicy",
    "JsonCrdt",
    "Orderer",
    "PipelineConfig",
    "Proposal",
    "Read",
    "ReadWriteSet",
    "RunReport",
    "StructuralConflictError",
    "Transaction",
    "ValidatedBlock",
    "Version",
    "WorkloadConfig",
    "WorldState",
    "Write",
    "canonical_json_bytes",
    "commit_block",
    "endorse",
    "gen_iot_json",
    "gen_stream",
    "init_empty_crdt",
    "iot_chaincode",
    "mvcc_validate",
    "run_pipeline",
    "simulate_proposal",
    "validate_endorsements_block",
    "validate_merge_block",
]
