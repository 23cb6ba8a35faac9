"""Smart-contract layer: MedScript VM, runtime executor, built-in contracts."""

from repro.contracts.library import (
    ANALYTICS_SOURCE,
    BLOB_REGISTRY_SOURCE,
    CLINICAL_TRIAL_SOURCE,
    COMPUTE_CONTRACT_SOURCE,
    CONTRACT_CATEGORIES,
    COUNTER_SOURCE,
    DATA_REGISTRY_SOURCE,
    PATIENT_CONSENT_SOURCE,
)
from repro.contracts.registry import ContractRegistry, DeploymentRecord
from repro.contracts.runtime import (
    HOST_FUNCTION_NAMES,
    ContractExecutor,
    ContractInfo,
    HostBridge,
)
from repro.contracts.vm import (
    ContractSource,
    GasMeter,
    compile_contract,
)

__all__ = [
    "ANALYTICS_SOURCE",
    "BLOB_REGISTRY_SOURCE",
    "CLINICAL_TRIAL_SOURCE",
    "COMPUTE_CONTRACT_SOURCE",
    "CONTRACT_CATEGORIES",
    "COUNTER_SOURCE",
    "ContractExecutor",
    "ContractInfo",
    "ContractRegistry",
    "ContractSource",
    "DATA_REGISTRY_SOURCE",
    "DeploymentRecord",
    "HOST_FUNCTION_NAMES",
    "PATIENT_CONSENT_SOURCE",
    "GasMeter",
    "HostBridge",
    "compile_contract",
]
