"""MedScript: a deterministic, gas-metered smart-contract language.

Contracts are written in a strict subset of Python (parsed with ``ast``;
contract source text is never executed).  The subset is chosen so that
execution is *deterministic across nodes* — the consensus-critical property
the paper relies on when it runs "the identical smart contract code in all
the nodes" (section I):

- integers, strings, booleans, lists, dicts, tuples — no floats;
- ``if`` / ``while`` / ``for`` / function definitions / ``return``;
- a whitelist of pure builtins (``len``, ``range``, ``min``, ...);
- host functions injected by the runtime (``storage_get``, ``storage_set``,
  ``emit``, ``require``, ``sender``, ``block_height``, ``timestamp_ms``,
  ``sha256_hex``);
- every AST node evaluated charges gas; storage and events cost extra.

No attribute access, no imports, no comprehensions, no closures over
mutable state: what remains is small enough to audit and big enough to be
Turing-complete (bounded by gas), matching the paper's "arbitrary
computation codes" framing.

The subset is defined once, here: :data:`MEDSCRIPT_NODES` is the positive
whitelist of node types, and :func:`scan_contract` checks a parsed module
against it.  Both consumers read the same stream of :class:`Violation`\\ s:
:func:`compile_contract` raises on the first one, and the
MED002/MED003/MED009 rules of ``repro.analysis`` report all of them, so the
deploy gate rejects exactly what the VM rejects.

Execution: ``repro.contracts.codegen`` lowers the validated AST of each
function once to a Python function that charges the same gas at the same
points as the reference interpreter kept in ``tests/contracts/oracle.py``;
:meth:`ContractSource.call` is the one runtime path.

State aliasing: the world state stores values by reference (the
immutable-value convention of ``repro.chain.state``), so the host bridge
copies every container crossing the ``storage_get``/``storage_set``
boundary.  Contract code may therefore freely mutate values it read
from storage — the mutation only becomes state once written back.
Authors of new host functions must preserve this isolation: never hand a
reference obtained from ``StateDB`` to contract code, and never store a
reference contract code can still reach.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
    Tuple,
)

from repro.common.errors import ContractError, OutOfGasError
from repro.obs.tracer import trace_span


class GasMeter:
    """Tracks gas consumption against a limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise OutOfGasError(f"out of gas: used {self.used} > limit {self.limit}")

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)


#: Binary and comparison operators of the subset.  The compiler emits each
#: as the same Python operator, so CPython supplies the semantics.
_BINOPS = frozenset(
    {ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.Pow}
)
_COMPARE_OPS = frozenset(
    {
        ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
        ast.In, ast.NotIn, ast.Is, ast.IsNot,
    }
)

_PURE_BUILTINS: Dict[str, Callable[..., Any]] = {
    "len": len,
    "range": range,
    "min": min,
    "max": max,
    "sum": sum,
    "abs": abs,
    "sorted": sorted,
    "int": int,
    "str": str,
    "bool": bool,
    "list": list,
    "dict": dict,
    "tuple": tuple,
    "enumerate": enumerate,
    "zip": zip,
    "reversed": reversed,
    "divmod": divmod,
}


_INEXACT = (float, complex)


def _check_value(value: Any) -> Any:
    """Reject non-deterministic value types (floats and complex numbers)."""
    if isinstance(value, _INEXACT):
        kind = "floats" if isinstance(value, float) else "complex numbers"
        raise ContractError(f"{kind} are forbidden in contracts (non-deterministic)")
    return value


@dataclass
class ContractSource:
    """Parsed and statically-checked contract module.

    :meth:`call` runs a method.  The functions are compiled to Python on
    first use, once per set of host-function names (in a node that is
    always ``HostBridge.functions()``, so once per source).
    """

    source: str
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    constants: Dict[str, Any] = field(default_factory=dict)
    _programs: Dict[FrozenSet[str], Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def methods(self) -> List[str]:
        return sorted(name for name in self.functions if not name.startswith("_"))

    def program(self, host_names: Iterable[str]) -> Program:
        """The compiled form of this contract for these host names."""
        key = frozenset(host_names)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = Program(self, key)
        return program

    def call(
        self,
        method: str,
        args: Dict[str, Any],
        host_functions: Dict[str, Callable[..., Any]],
        meter: GasMeter,
    ) -> Any:
        """Invoke a public method with keyword arguments, charging ``meter``.

        Every failure is a :class:`ContractError` (:class:`OutOfGasError`
        when gas runs out), raised with ``meter.used`` at the gas spent up
        to the failing operation, except the :data:`NODE_FAULTS`, which
        propagate unchanged.
        """
        func = self.functions.get(method)
        if func is None or method.startswith("_"):
            raise ContractError(f"unknown or private method {method!r}")
        with trace_span("vm.call", method=method) as span:
            gas_before = meter.used
            try:
                program = self.program(host_functions)
                return program.run(func, args, host_functions, meter)
            except (ContractError, *NODE_FAULTS):
                raise
            except Exception as exc:
                raise contract_fault(exc) from exc
            finally:
                span.set_attr("gas", meter.used - gas_before)


# -- front end: the MedScript subset, defined once ---------------------------

#: Every node type a function may contain: the statements and expressions
#: the compiler lowers, the operators they apply, and the structural nodes
#: around them.  Anything else is rejected before deploy.
MEDSCRIPT_NODES = frozenset(
    {
        # statements
        ast.Return, ast.Assign, ast.AugAssign, ast.If, ast.While, ast.For,
        ast.Expr, ast.Pass, ast.Break, ast.Continue, ast.Assert,
        # expressions (FormattedValue only occurs inside JoinedStr)
        ast.Constant, ast.Name, ast.BinOp, ast.UnaryOp, ast.BoolOp,
        ast.Compare, ast.Call, ast.Subscript, ast.Slice, ast.List, ast.Tuple,
        ast.Dict, ast.IfExp, ast.JoinedStr, ast.FormattedValue,
        # operators
        *_BINOPS, *_COMPARE_OPS, ast.USub, ast.UAdd, ast.Not,
        ast.And, ast.Or,
        # structure
        ast.arguments, ast.arg, ast.keyword, ast.Load, ast.Store,
    }
)


class Violation(NamedTuple):
    """One way a contract module leaves the MedScript subset."""

    node: ast.AST  # nearest node with a source position
    code: str  # MED002 float/complex, MED003 true division, MED009 the rest
    message: str
    symbol: str = ""  # enclosing function; "" at module level


def collect_module(
    tree: ast.Module,
) -> Tuple[Dict[str, ast.FunctionDef], Dict[str, ast.expr]]:
    """Top-level functions and single-name constant assignments of a module.

    The shared front half of every contract-source consumer: the VM, the
    MED-rule engine (``repro.analysis.engine``) and the read/write-set
    deriver (``repro.analysis.rwsets``) all build on this instead of
    growing second parsers.
    """
    functions: Dict[str, ast.FunctionDef] = {}
    constants: Dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                constants[node.targets[0].id] = node.value
    return functions, constants


def scan_contract(module: ast.Module) -> Iterator[Violation]:
    """Yield every way ``module`` leaves the MedScript subset, in source order.

    Module level: only functions, single-name literal constants and a
    docstring, with at least one function.  Function level: only
    :data:`MEDSCRIPT_NODES`, no float/complex literals, no ``/`` or ``/=``,
    plain parameters with literal defaults, no decorators or nested defs.
    """
    has_function = False
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            has_function = True
            if node.decorator_list:
                yield Violation(node, "MED009", "decorators are not allowed", node.name)
            yield from _scan_tree(node, node.name)
        elif isinstance(node, ast.Assign):
            if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                yield Violation(
                    node, "MED009", "top-level assignments must bind a single name"
                )
            elif not _is_literal(node.value):
                yield Violation(node, "MED009", "top-level constants must be literals")
            else:
                yield from _scan_tree(node, "")
        elif not (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            yield Violation(
                node, "MED009", f"disallowed top-level statement {type(node).__name__}"
            )
    if not has_function:
        yield Violation(module, "MED009", "contract defines no functions")


#: Nesting bounds that keep the compiled form of any accepted contract
#: inside CPython's limits (20 statically nested blocks per function, the
#: recursion limit while lowering), with room to spare.
MAX_LOOP_NESTING = 12
MAX_NESTING = 100


def _scan_tree(root: ast.AST, symbol: str) -> Iterator[Violation]:
    """Depth-first check of everything below ``root``, in source order.

    A rejected node is reported once, at the nearest positioned node, and
    its subtree is not searched further.
    """
    stack = [
        (child, root, 1, 0) for child in reversed(list(ast.iter_child_nodes(root)))
    ]
    while stack:
        node, anchor, depth, loops = stack.pop()
        if hasattr(node, "lineno"):
            anchor = node
        loops += isinstance(node, (ast.For, ast.While))
        problem = _node_problem(node)
        if problem is None and depth > MAX_NESTING:
            problem = "MED009", f"nesting deeper than {MAX_NESTING} levels"
        if problem is None and loops > MAX_LOOP_NESTING:
            problem = "MED009", f"loops nested deeper than {MAX_LOOP_NESTING}"
        if problem is not None:
            yield Violation(anchor, problem[0], problem[1], symbol)
        elif type(node) in MEDSCRIPT_NODES:
            children = list(ast.iter_child_nodes(node))
            stack.extend(
                (child, anchor, depth + 1, loops) for child in reversed(children)
            )


def _node_problem(node: ast.AST) -> Optional[Tuple[str, str]]:
    kind = type(node)
    if kind is ast.Div:
        return "MED003", "true division `/` yields floats; use floor division `//`"
    if kind is ast.FunctionDef:
        return "MED009", "nested functions are not allowed"
    if kind not in MEDSCRIPT_NODES:
        return "MED009", f"disallowed syntax {kind.__name__}"
    if kind is ast.Constant and isinstance(node.value, _INEXACT):
        return "MED002", (
            f"{type(node.value).__name__} literal {node.value!r} is forbidden; "
            "use scaled integers (e.g. value_milli)"
        )
    if kind is ast.Dict and None in node.keys:
        return "MED009", "dict unpacking is not allowed"
    if kind is ast.keyword and node.arg is None:
        return "MED009", "**kwargs calls are not allowed"
    if kind is ast.FormattedValue and (
        node.format_spec is not None or node.conversion != -1
    ):
        return "MED009", "f-string format specs and conversions are not allowed"
    if kind is ast.arguments:
        if node.posonlyargs or node.vararg or node.kwonlyargs or node.kwarg:
            return "MED009", "only plain positional parameters are allowed"
        if not all(map(_is_literal, node.defaults)):
            return "MED009", "parameter defaults must be literals"
    return None


def _is_literal(node: ast.expr) -> bool:
    """A value ``ast.literal_eval`` accepts, with no set anywhere in it."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return False
    return not any(isinstance(sub, (ast.Set, ast.Call)) for sub in ast.walk(node))


def compile_contract(source: str) -> ContractSource:
    """Parse a MedScript module and check it against the subset.

    Raises :class:`ContractError` on a syntax error or on the first
    :func:`scan_contract` violation.
    """
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise ContractError(f"contract syntax error: {exc}") from exc
    for violation in scan_contract(module):
        prefix = f"{violation.symbol}: " if violation.symbol else ""
        raise ContractError(prefix + violation.message)
    functions, constants = collect_module(module)
    return ContractSource(
        source=source,
        functions=functions,
        constants={name: _literal(node) for name, node in constants.items()},
    )


def _literal(node: ast.AST) -> Any:
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError) as exc:
        raise ContractError("top-level constants must be literals") from exc
    return _check_value(value)


#: Errors that depend on the node rather than on the contract: whether
#: ``"a" * 10 ** 10`` runs out of memory, or a deeply nested value runs out
#: of stack, differs between validators (and between the proposer, the
#: importer and a scheduler thread).  Turning one into a failed receipt
#: would fork the state root without an error, so they propagate and stop
#: the node instead.
NODE_FAULTS = (MemoryError, RecursionError)


def contract_fault(exc: Exception) -> ContractError:
    """The :class:`ContractError` for a Python error raised by contract code.

    Operations the subset does not wrap (``1 < "a"``, ``for x in 5``,
    ``t[0] = 5`` on a tuple, ...) raise plain Python errors; every one of
    them is a failed call, never a crashed node.  :data:`NODE_FAULTS` are
    the exception: callers re-raise them instead.
    """
    return ContractError(f"{type(exc).__name__}: {exc}")


# The back end reads the names above, so it is imported last.  Importing it
# with the front end rather than on a contract's first call matters for
# memory: parsing codegen.py from source peaks at about 1.5 MB, which the
# heap reuses during start-up but keeps as extra RSS once a node is running.
from repro.contracts.codegen import Program  # noqa: E402
