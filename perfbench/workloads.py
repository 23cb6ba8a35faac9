"""Workload definitions shared by the generator and the launchers.

Everything a process needs to agree on is a pure function of the workload
name (genesis, contract ids, site datasets) or of the workload name plus
the run seed (the operations the generator offers).  Validator and site
processes derive the world themselves, so no files are shared.

Offered rates are constants, chosen once from capacity measured on the
reference machine (see README.md).  They are never recalibrated at run
time: a faster system must show lower latency, not receive more load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chain.blocks import make_genesis
from repro.chain.executor import ExecutionContext
from repro.chain.state import StateDB
from repro.chain.transactions import (
    TX_DEPLOY,
    Transaction,
    make_call,
    make_transfer,
)
from repro.common.signatures import KeyPair
from repro.consensus.poa import ProofOfAuthority
from repro.contracts.library import COMPUTE_CONTRACT_SOURCE, PATIENT_CONSENT_SOURCE
from repro.contracts.runtime import STORAGE_PREFIX, ContractExecutor

VALIDATORS = ("v0", "v1", "v2")
SITES = ("hospital-0", "hospital-1", "hospital-2")
BLOCK_INTERVAL_S = 0.5
N_ACCOUNTS = 32
FUNDING = 10**12
DEPLOYER = "perfbench-deployer"
CONSENT_SCOPE = "research"
# Native formats per site, as in E10, so every record access re-parses.
SITE_FORMATS = ("hl7v2", "fhirjson", "legacycsv")
SITE_DATA_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "chain" or "sites"
    rate_per_s: float  # offered open-loop Poisson rate
    # chain workloads
    call: str = ""  # "" (transfer), "train_step" or "set_consent"
    consent_patients: int = 0
    batch: Tuple[int, int] = (0, 0)  # train_step features: rows x dims
    # site workloads
    records_per_site: int = 0
    fl_share: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "transfer",
            "chain",
            rate_per_s=22.0,
        ),
        Workload(
            "onchain_compute",
            "chain",
            rate_per_s=8.0,
            call="train_step",
            batch=(64, 8),
        ),
        Workload(
            "consent_update",
            "chain",
            rate_per_s=12.0,
            call="set_consent",
            consent_patients=100_000,
        ),
        Workload(
            "site_query",
            "sites",
            rate_per_s=8.0,
            records_per_site=400,
            fl_share=0.1,
        ),
    )
}


def account(index: int) -> KeyPair:
    return KeyPair.generate(f"hospital-account-{index}")


# -- chain world ---------------------------------------------------------------
@dataclass
class ChainWorld:
    """Genesis state and the contract ids it holds."""

    genesis: Any
    state: StateDB
    engine: ProofOfAuthority
    compute_contracts: List[str] = field(default_factory=list)  # one per account
    consent_contract: str = ""


def _deploy(executor: ContractExecutor, state: StateDB, name: str, source: str) -> str:
    """Apply an (unsigned) deploy tx from the deployer; returns the id."""
    deployer = KeyPair.generate(DEPLOYER).address
    tx = Transaction(
        sender=deployer,
        nonce=state.nonce(deployer),
        kind=TX_DEPLOY,
        payload={"contract": name, "source": source, "init": {}},
    )
    receipt = executor.apply(state, tx, ExecutionContext(node_name="genesis"))
    if not receipt.success:
        raise RuntimeError(f"genesis deploy of {name} failed: {receipt.error}")
    return receipt.output


def consent_key(contract_id: str, patient: str) -> str:
    return StateDB.contract_key(
        contract_id, f"{STORAGE_PREFIX}consent/{CONSENT_SCOPE}/{patient}"
    )


def patient_id(index: int) -> str:
    return f"p{index:06d}"


def build_chain_world(workload: Workload, populate: bool = True) -> ChainWorld:
    """Deterministic genesis for ``workload``; identical in every process.

    ``populate=False`` skips the bulk consent entries: enough to learn the
    contract ids the generator addresses, without the genesis cost.
    """
    state = StateDB()
    for index in range(N_ACCOUNTS):
        state.credit(account(index).address, FUNDING)
    executor = ContractExecutor()
    world_contracts: List[str] = []
    consent_contract = ""
    if workload.call == "train_step":
        # One contract instance per sender, so each sender's writes land in
        # its own slot and calls never conflict.
        world_contracts = [
            _deploy(executor, state, f"compute-{i}", COMPUTE_CONTRACT_SOURCE)
            for i in range(N_ACCOUNTS)
        ]
    elif workload.call == "set_consent":
        consent_contract = _deploy(executor, state, "consent", PATIENT_CONSENT_SOURCE)
        for index in range(workload.consent_patients if populate else 0):
            pid = patient_id(index)
            state.set(
                consent_key(consent_contract, pid),
                {
                    "patient": pid,
                    "scope": CONSENT_SCOPE,
                    "allow": True,
                    "set_by": "",
                    "set_at": 0,
                },
            )
    genesis = make_genesis(state.state_root())
    keypairs = {name: KeyPair.generate(name) for name in VALIDATORS}
    engine = ProofOfAuthority(
        list(VALIDATORS), keypairs, block_interval_s=BLOCK_INTERVAL_S
    )
    return ChainWorld(genesis, state, engine, world_contracts, consent_contract)


def witness_items(workload: Workload, world: ChainWorld, ops) -> List[List[str]]:
    """State a user of the workload reads: per-sender weights, touched
    consent entries, or account balances and nonces."""
    if workload.call == "train_step":
        return [
            ["key", StateDB.contract_key(cid, STORAGE_PREFIX + "weights")]
            for cid in world.compute_contracts
        ]
    if workload.call == "set_consent":
        touched = sorted({op.tx.payload["args"]["patient_pseudo_id"] for op in ops})
        return [["key", consent_key(world.consent_contract, pid)] for pid in touched]
    return [["account", account(i).address] for i in range(N_ACCOUNTS)]


def read_witness(state: StateDB, items: List[List[str]]) -> List[Any]:
    return [
        state.get(arg) if kind == "key" else [state.balance(arg), state.nonce(arg)]
        for kind, arg in items
    ]


# -- offered operations --------------------------------------------------------
def arrival_times(rate_per_s: float, seconds: float, rng: random.Random) -> List[float]:
    """A Poisson process conditioned on its count: N uniform order statistics.

    Fixing N = rate x seconds keeps the offered work identical across seeds,
    so run-to-run spread reflects the system, not the sample size.
    """
    count = max(1, int(round(rate_per_s * seconds)))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


@dataclass
class ChainOp:
    index: int
    due: float
    sender: int
    node: str
    tx: Transaction
    wire: Dict[str, Any]


def _train_args(rng: random.Random, rows: int, dims: int) -> Dict[str, Any]:
    return {
        "features": [[rng.randint(-1000, 1000) for _ in range(dims)] for _ in range(rows)],
        "labels": [rng.randint(0, 1) for _ in range(rows)],
        "weights": [rng.randint(-500, 500) for _ in range(dims)],
        "lr_milli": 100,
    }


def chain_ops(workload: Workload, world: ChainWorld, seed: int, seconds: float) -> List[ChainOp]:
    """Signed, wire-encoded txs with due times (done before any timing)."""
    from repro.p2p.wire import tx_to_wire

    rng = random.Random(seed)
    keys = [account(i) for i in range(N_ACCOUNTS)]
    nonces = [0] * N_ACCOUNTS
    ops: List[ChainOp] = []
    for index, due in enumerate(arrival_times(workload.rate_per_s, seconds, rng)):
        sender = rng.randrange(N_ACCOUNTS)
        nonce = nonces[sender]
        nonces[sender] += 1
        if workload.call == "train_step":
            tx = make_call(
                keys[sender],
                world.compute_contracts[sender],
                "train_step",
                _train_args(rng, *workload.batch),
                nonce=nonce,
            )
        elif workload.call == "set_consent":
            # allow=True keeps the contract's opt-out list empty, so VM cost
            # stays constant through the run and the state root dominates.
            pid = patient_id(rng.randrange(workload.consent_patients))
            tx = make_call(
                keys[sender],
                world.consent_contract,
                "set_consent",
                {"patient_pseudo_id": pid, "scope": CONSENT_SCOPE, "allow": True},
                nonce=nonce,
            )
        else:
            to = rng.randrange(N_ACCOUNTS - 1)
            to += to >= sender
            tx = make_transfer(keys[sender], keys[to].address, rng.randint(1, 1000), nonce=nonce)
        node = VALIDATORS[sender % len(VALIDATORS)]
        ops.append(ChainOp(index, due, sender, node, tx, tx_to_wire(tx)))
    return ops


# -- site world ----------------------------------------------------------------
QUESTIONS = (
    "how many patients have diabetes",
    "how many men aged 40 to 60 have cancer",
    "prevalence of stroke among smokers",
    "prevalence of diabetes among women",
    "average systolic blood pressure for women over 50",
    "average bmi for smokers",
    "histogram of bmi between 15 and 55 with 8 bins",
    "histogram of glucose between 60 and 200 with 7 bins",
)
FL_VARIANTS = 4  # distinct starting models; each round trains one


def build_site_platform(workload: Workload):
    """Boot the deterministic 3-site platform every site process serves.

    Mirrors :func:`repro.rpc.demo.build_demo_network` but stores each
    site's records in a native format, so ``get_records`` re-parses
    HL7 v2 / FHIR JSON / legacy CSV on every access.
    """
    from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
    from repro.datamgmt.cohort import CohortGenerator, default_site_profiles

    cohorts = CohortGenerator(seed=SITE_DATA_SEED).generate_multi_site(
        default_site_profiles(len(SITES)), workload.records_per_site
    )
    platform = MedicalBlockchainNetwork(
        PlatformConfig(
            site_count=len(SITES),
            consensus="poa",
            include_fda=False,
            seed=SITE_DATA_SEED,
        )
    )
    for fmt, (site, records) in zip(SITE_FORMATS, sorted(cohorts.items())):
        platform.register_dataset(site, f"emr-{site}", records, fmt=fmt)
    researcher = KeyPair.generate(f"perfbench-researcher-{SITE_DATA_SEED}")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", researcher.address, "research")
    return platform


@dataclass
class SiteOp:
    index: int
    due: float
    question: Optional[str] = None  # None = one federated round
    fl_variant: int = 0


def site_ops(workload: Workload, seed: int, seconds: float) -> List[SiteOp]:
    """Seeded arrivals with a balanced mix: exactly ``fl_share`` of the ops
    are federated rounds and every question text appears equally often,
    in a seeded order, so the mix does not vary from seed to seed."""
    rng = random.Random(seed)
    times = arrival_times(workload.rate_per_s, seconds, rng)
    rounds = set(rng.sample(range(len(times)), int(round(workload.fl_share * len(times)))))
    questions = [QUESTIONS[i % len(QUESTIONS)] for i in range(len(times) - len(rounds))]
    rng.shuffle(questions)
    ops: List[SiteOp] = []
    for index, due in enumerate(times):
        if index in rounds:
            variant = sum(op.question is None for op in ops) % FL_VARIANTS
            ops.append(SiteOp(index, due, None, variant))
        else:
            ops.append(SiteOp(index, due, questions.pop()))
    return ops


def fl_params(variant: int) -> Dict[str, Any]:
    """``local_train`` tool params for one federated round of ``variant``."""
    from repro.analytics.models import LogisticModel
    from repro.analytics.features import FEATURE_DIM

    model = LogisticModel(FEATURE_DIM, seed=variant)
    return {
        "outcome": "stroke",
        "model": "logistic",
        "epochs": 1,
        "lr": 0.1,
        "batch_size": 32,
        "seed": variant,
        "global_params": [p.tolist() for p in model.get_params()],
    }
