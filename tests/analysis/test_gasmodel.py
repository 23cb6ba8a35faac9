"""Gas-estimator tests: soundness (estimate >= metered usage) and bounds."""

import ast
import math

import pytest

from repro.analysis.gasmodel import (
    GasEstimator,
    estimate_contract_gas,
    format_gas,
    static_loop_bound,
)
from repro.contracts import gas as G
from repro.contracts import library
from repro.contracts.vm import GasMeter, compile_contract


def estimate(source):
    tree = ast.parse(source)
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    return estimate_contract_gas(functions)


def metered_run(source, method, args=None, hosts=None):
    """Run ``method`` on the compiled path consensus executes."""
    contract = compile_contract(source)
    meter = GasMeter(100_000_000)
    result = contract.call(method, args or {}, hosts or {}, meter)
    return result, meter


class TestLoopBounds:
    @pytest.mark.parametrize(
        "loop_source,expected",
        [
            ("for i in range(10):\n    pass", 10),
            ("for i in range(2, 12):\n    pass", 10),
            ("for i in range(0, 10, 3):\n    pass", 4),
            ("for i in range(10, 0, -2):\n    pass", 5),
            ("for i in [1, 2, 3]:\n    pass", 3),
            ("for c in 'abcd':\n    pass", 4),
            ("while False:\n    pass", 0),
        ],
    )
    def test_static_bounds(self, loop_source, expected):
        stmt = ast.parse(loop_source).body[0]
        assert static_loop_bound(stmt) == expected

    def test_dynamic_loops_use_vm_ceiling(self):
        for loop_source in (
            "for i in range(n):\n    pass",
            "for item in items:\n    pass",
            "while n > 0:\n    pass",
        ):
            stmt = ast.parse(loop_source).body[0]
            assert static_loop_bound(stmt) == G.MAX_ITERATIONS_PER_LOOP


class TestSoundness:
    """The estimate must never be below what the GasMeter observes."""

    def test_straight_line_function(self):
        source = "def f(a, b):\n    c = a + b\n    return c * 2\n"
        _, meter = metered_run(source, "f", {"a": 3, "b": 4})
        assert estimate(source)["f"] >= meter.used

    def test_static_loop(self):
        source = (
            "def f():\n"
            "    total = 0\n"
            "    for i in range(50):\n"
            "        total = total + i\n"
            "    return total\n"
        )
        _, meter = metered_run(source, "f")
        assert estimate(source)["f"] >= meter.used

    def test_branches_use_max(self):
        source = (
            "def f(flag):\n"
            "    if flag:\n"
            "        return 1\n"
            "    x = 1 + 2 + 3 + 4\n"
            "    return x\n"
        )
        est = estimate(source)["f"]
        for flag in (True, False):
            _, meter = metered_run(source, "f", {"flag": flag})
            assert est >= meter.used

    def test_internal_calls_memoized_and_counted(self):
        source = (
            "def _helper(x):\n"
            "    return x * 2\n"
            "def f(a):\n"
            "    return _helper(a) + _helper(a + 1)\n"
        )
        _, meter = metered_run(source, "f", {"a": 5})
        tree = ast.parse(source)
        functions = {
            n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
        }
        estimator = GasEstimator(functions)
        assert estimator.estimate("f") >= meter.used

    def test_library_counter_contract(self):
        storage = {}
        hosts = {
            "storage_get": lambda k, d=None: storage.get(k, d),
            "storage_set": lambda k, v: storage.__setitem__(k, v),
            "emit": lambda *a, **kw: None,
            "require": lambda cond, msg="": None,
            "sender": lambda: "addr",
        }
        est = estimate(library.COUNTER_SOURCE)
        _, meter = metered_run(
            library.COUNTER_SOURCE, "increment", {"by": 3}, hosts=hosts
        )
        assert est["increment"] >= meter.used

    def test_recursion_is_unbounded(self):
        source = "def f(n):\n    return f(n - 1)\n"
        assert math.isinf(estimate(source)["f"])

    def test_private_helpers_excluded_from_entrypoints(self):
        source = "def _h():\n    return 1\ndef f():\n    return _h()\n"
        assert set(estimate(source)) == {"f"}


def test_format_gas():
    assert format_gas(1234567) == "1,234,567"
    assert format_gas(math.inf) == "unbounded"
