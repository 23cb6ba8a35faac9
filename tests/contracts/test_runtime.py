"""Contract runtime tests: deploy, call, storage, events, rollback, views."""

import pytest

from oracle import Interpreter
from repro.chain.executor import ExecutionContext
from repro.chain.state import StateDB
from repro.chain.transactions import make_call, make_deploy
from repro.common.errors import ContractError
from repro.contracts import gas as G
from repro.contracts.library import COUNTER_SOURCE
from repro.contracts.runtime import ContractExecutor, HostBridge
from repro.contracts.vm import GasMeter, compile_contract


@pytest.fixture()
def env(alice):
    state = StateDB()
    state.credit(alice.address, 10_000)
    executor = ContractExecutor()
    ctx = ExecutionContext(block_height=1, timestamp_ms=1000)
    return state, executor, ctx


def deploy_counter(state, executor, ctx, alice, nonce=0, start=0):
    tx = make_deploy(alice, "counter", COUNTER_SOURCE, init={"start": start}, nonce=nonce)
    receipt = executor.apply(state, tx, ctx)
    assert receipt.success, receipt.error
    return receipt.output


class TestDeploy:
    def test_deploy_returns_contract_id(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        assert len(contract_id) == 40

    def test_init_runs_on_deploy(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice, start=42)
        assert executor.execute_view(state, contract_id, "get") == 42

    def test_metadata_recorded(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        info = executor.contract_info(state, contract_id)
        assert info.owner == alice.address
        assert info.name == "counter"
        assert info.deployed_at_height == 1

    def test_bad_source_fails_cleanly(self, env, alice):
        state, executor, ctx = env
        tx = make_deploy(alice, "bad", "import os\n", nonce=0)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success

    def test_contract_ids_distinct_per_nonce(self, env, alice):
        state, executor, ctx = env
        a = deploy_counter(state, executor, ctx, alice, nonce=0)
        b = deploy_counter(state, executor, ctx, alice, nonce=1)
        assert a != b

    def test_list_contracts(self, env, alice):
        state, executor, ctx = env
        deploy_counter(state, executor, ctx, alice)
        assert len(executor.list_contracts(state)) == 1


class TestCall:
    def test_call_mutates_storage(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice, start=5)
        tx = make_call(alice, contract_id, "increment", {"by": 3}, nonce=1)
        receipt = executor.apply(state, tx, ctx)
        assert receipt.success
        assert receipt.output == 8
        assert executor.execute_view(state, contract_id, "get") == 8

    def test_events_emitted(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        tx = make_call(alice, contract_id, "increment", nonce=1)
        receipt = executor.apply(state, tx, ctx)
        assert len(receipt.events) == 1
        assert receipt.events[0].name == "Incremented"
        assert receipt.events[0].tx_id == tx.tx_id

    def test_unknown_contract(self, env, alice):
        state, executor, ctx = env
        tx = make_call(alice, "00" * 20, "get", nonce=0)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success
        assert "unknown contract" in receipt.error

    def test_unknown_method(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        tx = make_call(alice, contract_id, "destroy", nonce=1)
        receipt = executor.apply(state, tx, ctx)
        assert not receipt.success

    def test_failed_call_rolls_back_storage(self, env, alice):
        state, executor, ctx = env
        source = (
            "def init():\n"
            "    storage_set('v', 1)\n"
            "def bad():\n"
            "    storage_set('v', 999)\n"
            "    require(False, 'boom')\n"
            "def get():\n"
            "    return storage_get('v')\n"
        )
        tx = make_deploy(alice, "rollback", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "bad", nonce=1)
        receipt = executor.apply(state, call, ctx)
        assert not receipt.success
        assert "boom" in receipt.error
        assert executor.execute_view(state, contract_id, "get") == 1

    def test_failed_call_still_bumps_nonce(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        call = make_call(alice, contract_id, "nope", nonce=1)
        executor.apply(state, call, ctx)
        assert state.nonce(alice.address) == 2

    def test_out_of_gas_call(self, env, alice):
        state, executor, ctx = env
        source = (
            "def spin():\n"
            "    i = 0\n"
            "    while i < 1000000:\n"
            "        i = i + 1\n"
            "    return i\n"
        )
        tx = make_deploy(alice, "spinner", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "spin", nonce=1, gas_limit=20_000)
        receipt = executor.apply(state, call, ctx)
        assert not receipt.success
        assert receipt.gas_used <= 20_000 + 5_000

    def test_sender_visible_to_contract(self, env, alice):
        state, executor, ctx = env
        source = "def who():\n    return sender()\n"
        tx = make_deploy(alice, "who", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "who", nonce=1)
        assert executor.apply(state, call, ctx).output == alice.address

    def test_block_context_visible(self, env, alice):
        state, executor, ctx = env
        source = "def h():\n    return block_height()\n"
        tx = make_deploy(alice, "ctx", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        call = make_call(alice, contract_id, "h", nonce=1)
        assert executor.apply(state, call, ctx).output == 1

    def test_float_storage_write_rejected(self, env, alice):
        state, executor, ctx = env
        source = "def f(x):\n    storage_set('k', x)\n    return 1\n"
        tx = make_deploy(alice, "floaty", source, nonce=0)
        contract_id = executor.apply(state, tx, ctx).output
        # Host call receives a float through args -> _check_value rejects.
        call = make_call(alice, contract_id, "f", {"x": 1}, nonce=1)
        assert executor.apply(state, call, ctx).success


#: Constructs whose Python error used to escape ``ContractExecutor.apply``.
FAULTS = {
    "order-mixed-types": "x = 1 < 'a'",
    "negate-string": "x = -'a'",
    "in-int": "x = 1 in 5",
    "tuple-item-assign": "t = (1, 2)\n    t[0] = 5",
    "unpack-int": "a, b = 5",
    "augassign-missing-key": "d = {}\n    d['k'] += 1",
    "list-assign-out-of-range": "a = [0]\n    a[3] = 0",
    "unhashable-dict-key": "x = {[1]: 2}",
    "iterate-int": "for x in 5:\n        pass",
    "huge-repeat": "x = [0] * 10 ** 20",
    "float-storage-write": "storage_set('k', [2 ** -1])",
}


class TestContractFaults:
    """Every failure inside contract code is a failed receipt, never a crash."""

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_becomes_failed_receipt(self, env, alice, name):
        state, executor, ctx = env
        source = (
            "def init():\n    storage_set('v', 1)\n"
            "def get():\n    return storage_get('v')\n"
            f"def f():\n    storage_set('v', 2)\n    {FAULTS[name]}\n    return 0\n"
        )
        contract_id = executor.apply(
            state, make_deploy(alice, "faulty", source, nonce=0), ctx
        ).output
        journal_depth = len(state._journal)
        receipt = executor.apply(state, make_call(alice, contract_id, "f", nonce=1), ctx)
        assert not receipt.success
        # The oracle fails at the same operation with the same text and gas.
        meter = GasMeter(1_000_000 - G.GAS_CALL_BASE)
        bridge = HostBridge(
            state.fork(), contract_id, alice.address, ctx, meter, []
        )
        with pytest.raises(ContractError) as raised:
            Interpreter(compile_contract(source), bridge.functions(), meter).call("f", {})
        assert receipt.error == str(raised.value)
        assert receipt.gas_used == G.GAS_CALL_BASE + meter.used
        # State rolled back, snapshot closed, nonce consumed.
        assert len(state._journal) == journal_depth
        assert executor.execute_view(state, contract_id, "get") == 1
        assert state.nonce(alice.address) == 2

    def test_fault_in_view_is_a_contract_error(self, env, alice):
        state, executor, ctx = env
        source = "def f(x):\n    return 1 < x\n"
        contract_id = executor.apply(
            state, make_deploy(alice, "v", source, nonce=0), ctx
        ).output
        with pytest.raises(ContractError, match="TypeError"):
            executor.execute_view(state, contract_id, "f", {"x": "a"})

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    @pytest.mark.parametrize("runner", ["compiled", "oracle"])
    def test_node_dependent_error_propagates(self, error, runner):
        # Whether these are raised depends on the node's memory and stack,
        # so a receipt made from one would differ between validators.
        def boom():
            raise error("node limit")

        contract = compile_contract("def f():\n    return boom()\n")
        hosts, meter = {"boom": boom}, GasMeter(1_000)
        with pytest.raises(error):
            if runner == "compiled":
                contract.call("f", {}, hosts, meter)
            else:
                Interpreter(contract, hosts, meter).call("f", {})

    def test_fault_in_init_fails_the_deploy(self, env, alice):
        state, executor, ctx = env
        source = "def init():\n    a, b = 5\n"
        receipt = executor.apply(state, make_deploy(alice, "i", source, nonce=0), ctx)
        assert not receipt.success
        assert receipt.error.startswith("init failed: TypeError")


class TestViews:
    def test_view_does_not_mutate(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice, start=1)
        root_before = state.state_root()
        executor.execute_view(state, contract_id, "get")
        assert state.state_root() == root_before

    def test_view_write_rejected(self, env, alice):
        state, executor, ctx = env
        contract_id = deploy_counter(state, executor, ctx, alice)
        with pytest.raises(ContractError):
            executor.execute_view(state, contract_id, "increment")

    def test_view_unknown_contract(self, env, alice):
        state, executor, ctx = env
        with pytest.raises(ContractError):
            executor.execute_view(state, "ab" * 20, "get")


class TestDeterminismAcrossExecutors:
    def test_two_executors_same_state_root(self, alice):
        """Invariant 3: identical txs produce identical state on any node."""
        results = []
        for __ in range(2):
            state = StateDB()
            state.credit(alice.address, 10_000)
            executor = ContractExecutor()
            ctx = ExecutionContext(block_height=1, timestamp_ms=1000)
            contract_id = deploy_counter(state, executor, ctx, alice)
            for nonce in range(1, 6):
                tx = make_call(alice, contract_id, "increment", {"by": nonce}, nonce=nonce)
                executor.apply(state, tx, ctx)
            results.append(state.state_root())
        assert results[0] == results[1]
