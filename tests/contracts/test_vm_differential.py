"""Differential testing: CPython vs the MedScript oracle vs compiled MedScript.

The VM claims to implement a strict subset of Python semantics.  These
property tests generate random programs inside that subset and run them
three ways: through CPython, through the AST-walking oracle
(``oracle.Interpreter``) and through the compiled functions consensus runs
(``ContractSource.call``).  The two VM legs must agree exactly: the same
value or the same error text, and the same ``meter.used``.

``TestGasLimitSweep`` runs real contracts (every one in
``repro.contracts.library``, the E17 workload and a small ``train_step``)
against the real host bridge at every gas limit from 0 to the gas the call
uses, so each possible out-of-gas point, host charge and failure is
compared between the oracle and the compiled code.
"""

import ast
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Interpreter
from repro.chain.executor import ExecutionContext
from repro.chain.state import StateDB
from repro.common.errors import ContractError
from repro.contracts import library
from repro.contracts.runtime import HostBridge
from repro.contracts.vm import GasMeter, compile_contract

# -- three legs ---------------------------------------------------------------


def outcome(run, contract, method, args, hosts, limit):
    """(kind, value or error text, gas used) of one VM run."""
    meter = GasMeter(limit)
    try:
        value = run(contract, method, dict(args), hosts, meter)
        return ("ok", value, meter.used)
    except ContractError as exc:
        return (type(exc).__name__, str(exc), meter.used)


def oracle_leg(contract, method, args, hosts, meter):
    return Interpreter(contract, hosts, meter).call(method, args)


def compiled_leg(contract, method, args, hosts, meter):
    return contract.call(method, args, hosts, meter)


def run_both(source, method, args, hosts=None, limit=10_000_000):
    """Both VM legs; they must agree exactly.  Returns the shared outcome."""
    contract = compile_contract(source)
    expected = outcome(oracle_leg, contract, method, args, hosts or {}, limit)
    actual = outcome(compiled_leg, contract, method, args, hosts or {}, limit)
    assert actual == expected
    return expected


def run_vm(source, method, args):
    kind, value, _ = run_both(source, method, args)
    assert kind == "ok", value
    return value


def run_cpython(source, method, args):
    namespace = {}
    exec(source, namespace)  # trusted: generated by this test
    return namespace[method](**args)


# -- expression generator ---------------------------------------------------

_INT = st.integers(min_value=-50, max_value=50)
_NONZERO = st.integers(min_value=1, max_value=20)


@st.composite
def arith_expression(draw, depth=0):
    """A random integer expression using only VM-supported operators."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return str(draw(_INT))
        if choice == 1:
            return "x"
        return "y"
    op = draw(st.sampled_from(["+", "-", "*", "%", "//"]))
    left = draw(arith_expression(depth=depth + 1))
    right = draw(arith_expression(depth=depth + 1))
    if op in ("%", "//"):
        # Keep divisors provably nonzero.
        right = str(draw(_NONZERO))
    return f"({left} {op} {right})"


@st.composite
def any_expression(draw, depth=0):
    """An expression over ints, strings and lists that may well fail."""
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.sampled_from(
                ["x", "y", "0", "2", "-3", "'a'", "[]", "[1, 2]", "(1,)", "None",
                 "{'k': 1}", "xs", "True"]
            )
        )
    left = draw(any_expression(depth=depth + 1))
    right = draw(any_expression(depth=depth + 1))
    shape = draw(
        st.sampled_from(
            ["({} + {})", "({} - {})", "({} * {})", "({} // {})", "({} % {})",
             "({} ** {})", "({} < {})", "({} == {})", "({} in {})",
             "({} and {})", "({} or {})", "({} if {} else 0)", "{}[{}]",
             "len({})", "[{}, {}]", "(-{})", "(not {})", 'f"{{{}}}-{{{}}}"',
             "min({}, {})", "{{{}: {}}}"]
        )
    )
    if shape.startswith("f") and 'f"' in left + right:
        shape = "[{}, {}]"  # f-strings cannot nest their own quotes before 3.12
    arity = shape.count("{}")
    return shape.format(*([left, right][:arity]))


class TestDifferentialExpressions:
    @settings(max_examples=120, deadline=None)
    @given(arith_expression(), _INT, _INT)
    def test_expressions_match_cpython(self, expression, x, y):
        source = f"def f(x, y):\n    return {expression}\n"
        assert run_vm(source, "f", {"x": x, "y": y}) == run_cpython(
            source, "f", {"x": x, "y": y}
        )

    @settings(max_examples=60, deadline=None)
    @given(arith_expression(), arith_expression(), _INT, _INT)
    def test_comparisons_match_cpython(self, left, right, x, y):
        source = (
            f"def f(x, y):\n"
            f"    if {left} < {right}:\n"
            f"        return 'lt'\n"
            f"    if {left} == {right}:\n"
            f"        return 'eq'\n"
            f"    return 'gt'\n"
        )
        assert run_vm(source, "f", {"x": x, "y": y}) == run_cpython(
            source, "f", {"x": x, "y": y}
        )

    @settings(deadline=None)  # example count from the profile (ci-stress: 500)
    @given(any_expression(), _INT, st.sampled_from(["a", "", "zz"]),
           st.integers(min_value=0, max_value=400))
    def test_failing_expressions_agree_at_every_outcome(self, expression, x, y, limit):
        """Type errors, bad subscripts, floats from ``**``, out of gas."""
        source = (
            "def f(x, y, xs):\n"
            f"    v = {expression}\n"
            "    w = [v, v]\n"
            f"    w[0] = {expression}\n"
            "    return w\n"
        )
        run_both(source, "f", {"x": x, "y": y, "xs": [1, x, "s"]}, limit=limit)


class TestDifferentialControlFlow:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
    )
    def test_loop_accumulation_matches(self, n, a, b):
        source = (
            "def f(n, a, b):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        if i % a == 0:\n"
            "            total = total + i * b\n"
            "        else:\n"
            "            total = total - i\n"
            "    return total\n"
        )
        args = {"n": n, "a": a, "b": b}
        assert run_vm(source, "f", args) == run_cpython(source, "f", args)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_INT, min_size=0, max_size=12))
    def test_list_processing_matches(self, values):
        source = (
            "def f(xs):\n"
            "    out = []\n"
            "    for v in xs:\n"
            "        if v >= 0:\n"
            "            out = out + [v * 2]\n"
            "    return [len(out), sum(out)]\n"
        )
        assert run_vm(source, "f", {"xs": values}) == run_cpython(
            source, "f", {"xs": values}
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), _INT, min_size=0, max_size=4
        )
    )
    def test_dict_processing_matches(self, mapping):
        source = (
            "def f(d):\n"
            "    total = 0\n"
            "    for key in sorted(d):\n"
            "        total = total + d[key]\n"
            "    return total\n"
        )
        assert run_vm(source, "f", {"d": mapping}) == run_cpython(
            source, "f", {"d": mapping}
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=12))
    def test_while_with_break_matches(self, n):
        source = (
            "def f(n):\n"
            "    i = 0\n"
            "    total = 0\n"
            "    while True:\n"
            "        if i >= n:\n"
            "            break\n"
            "        if i % 3 == 1:\n"
            "            i = i + 1\n"
            "            continue\n"
            "        total = total + i\n"
            "        i = i + 1\n"
            "    return total\n"
        )
        assert run_vm(source, "f", {"n": n}) == run_cpython(source, "f", {"n": n})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_recursion_matches(self, n):
        source = (
            "def f(n):\n"
            "    if n <= 1:\n"
            "        return 1\n"
            "    return n * f(n - 1)\n"
        )
        assert run_vm(source, "f", {"n": n}) == run_cpython(source, "f", {"n": n})

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_INT, min_size=1, max_size=8))
    def test_builtin_combinations_match(self, values):
        source = (
            "def f(xs):\n"
            "    ordered = sorted(xs)\n"
            "    return [min(xs), max(xs), ordered[0], ordered[len(xs) - 1], abs(xs[0])]\n"
        )
        assert run_vm(source, "f", {"xs": values}) == run_cpython(
            source, "f", {"xs": values}
        )

    @settings(deadline=None)  # example count from the profile (ci-stress: 500)
    @given(
        st.integers(min_value=0, max_value=6),
        st.booleans(),
        st.integers(min_value=0, max_value=900),
    )
    def test_control_flow_gas_agrees_at_every_limit(self, n, flag, limit):
        """Loops with else, short circuits, unbound locals, nested calls."""
        source = (
            "BASE = [1, 2]\n"
            "def _helper(a, b=3):\n"
            "    if a > 2:\n"
            "        return a * b\n"
            "    return _helper(a + 1, b=b + 1)\n"
            "def f(n, flag):\n"
            "    if flag:\n"
            "        len = 5\n"
            "    total = len(BASE)\n"
            "    i = 0\n"
            "    while i < n:\n"
            "        i += 1\n"
            "        if i == 4:\n"
            "            break\n"
            "    else:\n"
            "        total = total + 100\n"
            "    for j in range(n):\n"
            "        if j % 2 == 0 and flag or j == 5:\n"
            "            continue\n"
            "        total = total + _helper(j) + (j if flag else -j)\n"
            "        total = total + (1 if 0 <= j < 4 <= n else 0)\n"
            "    else:\n"
            "        BASE[0] += total\n"
            "    a, b = BASE\n"
            "    assert a > -1000, f'low {a}'\n"
            "    return [total, a, b, 2 ** -n if n > 5 else 0]\n"
        )
        run_both(source, "f", {"n": n, "flag": flag}, limit=limit)


    @settings(deadline=None)  # example count from the profile (ci-stress: 500)
    @given(
        st.integers(min_value=0, max_value=40),
        st.sampled_from([[3, 1, 2], [], [1, 2.5], "ab", 4]),
        st.integers(min_value=0, max_value=1500),
    )
    def test_dynamic_calls_and_faults_agree_at_every_limit(self, n, xs, limit):
        """Calls through values and keywords, depth overflow, unbound
        ``op=`` targets, ``while``-``else`` around a ``for``, unpacking."""
        source = (
            "def _down(k):\n"
            "    if k <= 0:\n"
            "        return 0\n"
            "    return _down(k - 1) + 1\n"
            "def f(n, xs):\n"
            "    call, size, down = _down, len, _down\n"
            "    out = {'n': size(xs), n: call(k=n % 5)}\n"
            "    while n > 30:\n"
            "        for v in xs:\n"
            "            if v == 2:\n"
            "                break\n"
            "        n = n - 1\n"
            "        if n == 33:\n"
            "            break\n"
            "    else:\n"
            "        out['else'] = sorted(xs)[1:]\n"
            "    if n % 7 == 0:\n"
            "        missing = 1\n"
            "    if n % 3 == 0:\n"
            "        missing += 1\n"
            "    first, second = xs[:2]\n"
            "    out[first] = [second ** -1 if n == 9 else second, down(n)]\n"
            "    return out\n"
        )
        run_both(source, "f", {"n": n, "xs": xs}, limit=limit)


class TestConstantsPerCall:
    def test_mutated_constant_does_not_leak_into_the_next_call(self):
        source = "C = [0]\ndef f():\n    C[0] = C[0] + 1\n    return C[0]\n"
        contract = compile_contract(source)
        for run in (oracle_leg, compiled_leg):
            for _ in range(2):
                assert run(contract, "f", {}, {}, GasMeter(1000)) == 1


# -- gas-limit sweep over real contracts --------------------------------------


def _e17_workload_source():
    """``WORKLOAD_SOURCE`` of the E17 benchmark, read without importing it."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "bench_e17_parallel_exec.py"
    )
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == (
            "WORKLOAD_SOURCE"
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("E17 WORKLOAD_SOURCE not found")


_E17 = _e17_workload_source()

_HOST_FAULTS = """
def _store(key, value):
    storage_set(key, value)
    return value

def put(xs):
    emit("Put", {"n": len(xs)})
    return _store("k", xs)
"""

_DATASET = {"dataset_id": "d1", "site": "s", "schema": "omop", "record_count": 3,
            "merkle_root": "ab"}
_TRIAL = {"trial_id": "t1", "protocol_hash": "p", "outcomes": ["mrs"],
          "target_enrollment": 1}
_BLOB = {"blob_id": "b1", "merkle_root": "r", "size": 10, "chunk_size": 4, "k": 1,
         "n": 2, "stripes": 1, "placement": ["s1", "s2"]}

#: (name, source, calls): each call runs on the state the previous ones left.
SWEEP_SCENARIOS = [
    ("counter", library.COUNTER_SOURCE, [
        ("init", {"start": 4}), ("increment", {"by": 3}), ("get", {}),
        ("increment", {"by": "x"}),
    ]),
    ("data", library.DATA_REGISTRY_SOURCE, [
        ("register_dataset", _DATASET),
        ("register_dataset", _DATASET),
        ("grant_access", {"dataset_id": "d1", "grantee": "g", "purpose": "p",
                          "expires_ms": 50}),
        ("check_access", {"dataset_id": "d1", "grantee": "g", "purpose": "p",
                          "now_ms": 10}),
        ("revoke_access", {"dataset_id": "d1", "grantee": "g", "purpose": "p"}),
        ("update_anchor", {"dataset_id": "nope", "merkle_root": "x", "record_count": 1}),
        ("list_datasets", {}),
    ]),
    ("analytics", library.ANALYTICS_SOURCE, [
        ("register_tool", {"tool_id": "t", "code_hash": "h", "description": "d"}),
        ("request_task", {"task_id": "k", "tool_id": "t", "dataset_ids": ["d1"],
                          "params": {"a": 1}, "purpose": "p"}),
        ("post_result", {"task_id": "k", "result_hash": "r", "summary": {"n": 2}}),
        ("fail_task", {"task_id": "k", "reason": "late"}),
        ("get_task", {"task_id": "k"}),
    ]),
    ("clinical_trial", library.CLINICAL_TRIAL_SOURCE, [
        ("register_trial", _TRIAL),
        ("enroll", {"trial_id": "t1", "patient_pseudo_id": "p1", "site": "s",
                    "arm": "a"}),
        ("report_outcome", {"trial_id": "t1", "patient_pseudo_id": "p1",
                            "outcome": "mrs", "value_milli": 5, "data_hash": "h"}),
        ("report_outcome", {"trial_id": "t1", "patient_pseudo_id": "p1",
                            "outcome": "other", "value_milli": 5, "data_hash": "h"}),
        ("report_adverse_event", {"trial_id": "t1", "patient_pseudo_id": "p1",
                                  "severity": 2, "description_hash": "d"}),
        ("finalize", {"trial_id": "t1", "results_hash": "r"}),
    ]),
    ("consent", library.PATIENT_CONSENT_SOURCE, [
        ("set_consent", {"patient_pseudo_id": "p1", "scope": "s", "allow": False}),
        ("set_consent", {"patient_pseudo_id": "p2", "scope": "s", "allow": False}),
        ("set_consent", {"patient_pseudo_id": "p1", "scope": "s", "allow": True}),
        ("check_consent", {"patient_pseudo_id": "p2", "scope": "s"}),
        ("optout_count", {"scope": "s"}),
    ]),
    ("blob", library.BLOB_REGISTRY_SOURCE, [
        ("register_blob", _BLOB),
        ("report_audit", {"blob_id": "b1", "samples": 3, "verified": 2,
                          "flagged_sites": ["s2"]}),
        ("report_repair", {"blob_id": "b1", "restored": 1}),
        ("report_audit", {"blob_id": "b1", "samples": 1, "verified": 2,
                          "flagged_sites": []}),
        ("revoke_blob", {"blob_id": "b1"}),
        ("list_blobs", {}),
    ]),
    ("compute", library.COMPUTE_CONTRACT_SOURCE, [
        ("train_step", {"features": [[1000, -2000], [500, 3000], [-700, 10]],
                        "labels": [1, -1, 0], "weights": [300, -400],
                        "lr_milli": 100}),
        ("get_weights", {}),
        ("matmul", {"a": [[1, 2], [3, 4]], "b": [[5, 6], [7, 8]], "n": 2}),
        ("train_step", {"features": [[1, 2.5]], "labels": [1], "weights": [1, 2],
                        "lr_milli": 1}),
    ]),
    # A host that charges and then fails, reached through a contract call.
    ("host_faults", _HOST_FAULTS, [
        ("put", {"xs": [1, 2]}),
        ("put", {"xs": [1, 2.5]}),
        ("put", {"xs": 7}),
    ]),
    ("e17_workload", _E17, [
        ("work", {"user": "u1", "rounds": 3}),
        ("work", {"user": "u1", "rounds": -1}),
        ("work", {"user": 5, "rounds": 1}),
    ]),
]

_CTX = ExecutionContext(block_height=3, timestamp_ms=1234, node_name="sweep")


def _sweep_leg(run, contract, state, method, args, limit):
    """One call on a throwaway fork: outcome, events and resulting root."""
    fork = state.fork()
    events = []
    meter = GasMeter(limit)
    bridge = HostBridge(fork, "c0", "alice", _CTX, meter, events)
    try:
        result = ("ok", run(contract, method, dict(args), bridge.functions(), meter))
    except ContractError as exc:
        result = (type(exc).__name__, str(exc))
    root = fork.state_root()
    fork.discard()
    return result, meter.used, events, root


class TestGasLimitSweep:
    @pytest.mark.parametrize(
        "name,source,calls", SWEEP_SCENARIOS, ids=[s[0] for s in SWEEP_SCENARIOS]
    )
    def test_every_limit_agrees(self, name, source, calls):
        contract = compile_contract(source)
        state = StateDB()
        for method, args in calls:
            full = _sweep_leg(compiled_leg, contract, state, method, args, 10**9)
            assert full == _sweep_leg(oracle_leg, contract, state, method, args, 10**9)
            for limit in range(full[1] + 1):
                expected = _sweep_leg(oracle_leg, contract, state, method, args, limit)
                actual = _sweep_leg(compiled_leg, contract, state, method, args, limit)
                assert actual == expected, (method, limit)
            # Advance the shared state with the full-gas call.
            events = []
            meter = GasMeter(10**9)
            state.snapshot()
            try:
                contract.call(method, dict(args),
                              HostBridge(state, "c0", "alice", _CTX, meter, events)
                              .functions(), meter)
                state.commit()
            except ContractError:
                state.rollback()

    def test_sweep_covers_every_library_contract(self):
        sources = {source for _, source, _ in SWEEP_SCENARIOS}
        assert {
            getattr(library, name) for name in dir(library) if name.endswith("_SOURCE")
        } <= sources
