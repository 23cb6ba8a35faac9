"""MedScript: a deterministic, gas-metered smart-contract interpreter.

Contracts are written in a strict subset of Python (parsed with ``ast``,
never ``exec``).  The subset is chosen so that execution is *deterministic
across nodes* — the consensus-critical property the paper relies on when it
runs "the identical smart contract code in all the nodes" (section I):

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
whitelist of node types the interpreter dispatches on, and
:func:`scan_contract` checks a parsed module against it.  Both consumers
read the same stream of :class:`Violation`\\ s: :func:`compile_contract`
raises on the first one, and the MED002/MED003/MED009 rules of
``repro.analysis`` report all of them, so the deploy gate rejects exactly
what the VM rejects.

State aliasing: the world state stores values by reference (the
immutable-value convention of ``repro.chain.state``), so the host bridge
copies every container crossing the ``storage_get``/``storage_set``
boundary.  Interpreter code may therefore freely mutate values it read
from storage — the mutation only becomes state once written back.
Authors of new host functions must preserve this isolation: never hand a
reference obtained from ``StateDB`` to contract code, and never store a
reference contract code can still reach.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.errors import ContractError, OutOfGasError
from repro.contracts import gas as G
from repro.obs.tracer import trace_span


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


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


_ALLOWED_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_ALLOWED_COMPARE = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
    ast.Is: lambda a, b: a is b,
    ast.IsNot: lambda a, b: a is not b,
}

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
    """Parsed and statically-checked contract module."""

    source: str
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    constants: Dict[str, Any] = field(default_factory=dict)

    @property
    def methods(self) -> List[str]:
        return sorted(name for name in self.functions if not name.startswith("_"))


# -- front end: the MedScript subset, defined once ---------------------------

#: Every node type a function may contain: what ``Interpreter._exec_stmt``
#: and ``Interpreter._eval`` dispatch on, the operators they apply, and the
#: structural nodes around them.  Anything else is rejected before deploy.
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
        *_ALLOWED_BINOPS, *_ALLOWED_COMPARE, ast.USub, ast.UAdd, ast.Not,
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


def _scan_tree(root: ast.AST, symbol: str) -> Iterator[Violation]:
    """Depth-first check of everything below ``root``, in source order.

    A rejected node is reported once, at the nearest positioned node, and
    its subtree is not searched further.
    """
    stack = [(child, root) for child in reversed(list(ast.iter_child_nodes(root)))]
    while stack:
        node, anchor = stack.pop()
        if hasattr(node, "lineno"):
            anchor = node
        problem = _node_problem(node)
        if problem is not None:
            yield Violation(anchor, problem[0], problem[1], symbol)
        if type(node) in MEDSCRIPT_NODES:
            children = list(ast.iter_child_nodes(node))
            stack.extend((child, anchor) for child in reversed(children))


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


class Interpreter:
    """Evaluates one method call of a compiled contract."""

    def __init__(
        self,
        contract: ContractSource,
        host_functions: Dict[str, Callable[..., Any]],
        meter: GasMeter,
    ):
        self.contract = contract
        self.host_functions = host_functions
        self.meter = meter
        self._depth = 0

    def call(self, method: str, args: Dict[str, Any]) -> Any:
        """Invoke a public method with keyword arguments."""
        func = self.contract.functions.get(method)
        if func is None or method.startswith("_"):
            raise ContractError(f"unknown or private method {method!r}")
        with trace_span("vm.call", method=method) as span:
            gas_before = self.meter.used
            try:
                return self._invoke(func, args)
            finally:
                span.set_attr("gas", self.meter.used - gas_before)

    def _invoke(self, func: ast.FunctionDef, args: Dict[str, Any]) -> Any:
        self._depth += 1
        if self._depth > G.MAX_CALL_DEPTH:
            raise ContractError("max call depth exceeded")
        self.meter.charge(G.GAS_CALL)
        params = [arg.arg for arg in func.args.args]
        defaults = func.args.defaults
        env: Dict[str, Any] = dict(self.contract.constants)
        # Bind defaults right-aligned, then override with provided args.
        for param, default in zip(params[len(params) - len(defaults):], defaults):
            env[param] = _literal(default)
        for param in params:
            if param in args:
                env[param] = _check_value(args[param])
        missing = [p for p in params if p not in env]
        if missing:
            raise ContractError(f"{func.name}: missing arguments {missing}")
        extra = set(args) - set(params)
        if extra:
            raise ContractError(f"{func.name}: unexpected arguments {sorted(extra)}")
        try:
            self._exec_block(func.body, env)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self._depth -= 1
        return None

    # -- statements ----------------------------------------------------------
    def _exec_block(self, body: List[ast.stmt], env: Dict[str, Any]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: Dict[str, Any]) -> None:
        self.meter.charge(G.GAS_STATEMENT)
        if isinstance(stmt, ast.Return):
            raise _ReturnSignal(
                self._eval(stmt.value, env) if stmt.value else None
            )
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env)
            return
        if isinstance(stmt, ast.AugAssign):
            op = type(stmt.op)
            if op not in _ALLOWED_BINOPS:
                raise ContractError(f"disallowed operator {op.__name__}")
            current = self._eval_target(stmt.target, env)
            value = _ALLOWED_BINOPS[op](current, self._eval(stmt.value, env))
            self._assign(stmt.target, _check_value(value), env)
            return
        if isinstance(stmt, ast.If):
            branch = stmt.body if self._eval(stmt.test, env) else stmt.orelse
            self._exec_block(branch, env)
            return
        if isinstance(stmt, ast.While):
            iterations = 0
            while self._eval(stmt.test, env):
                iterations += 1
                if iterations > G.MAX_ITERATIONS_PER_LOOP:
                    raise ContractError("loop iteration limit exceeded")
                self.meter.charge(G.GAS_LOOP_ITERATION)
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            else:
                self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.For):
            iterable = self._eval(stmt.iter, env)
            iterations = 0
            broke = False
            for item in iterable:
                iterations += 1
                if iterations > G.MAX_ITERATIONS_PER_LOOP:
                    raise ContractError("loop iteration limit exceeded")
                self.meter.charge(G.GAS_LOOP_ITERATION)
                self._assign(stmt.target, _check_value(item), env)
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    broke = True
                    break
                except _ContinueSignal:
                    continue
            if not broke:
                self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
            return
        if isinstance(stmt, ast.Pass):
            return
        if isinstance(stmt, ast.Break):
            raise _BreakSignal()
        if isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        if isinstance(stmt, ast.Assert):
            if not self._eval(stmt.test, env):
                message = self._eval(stmt.msg, env) if stmt.msg else "assertion failed"
                raise ContractError(str(message))
            return
        raise ContractError(f"disallowed statement {type(stmt).__name__}")

    def _assign(self, target: ast.expr, value: Any, env: Dict[str, Any]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, ast.Subscript):
            container = self._eval(target.value, env)
            key = self._eval(target.slice, env)
            container[key] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            values = list(value)
            if len(values) != len(target.elts):
                raise ContractError("unpacking arity mismatch")
            for element, item in zip(target.elts, values):
                self._assign(element, _check_value(item), env)
            return
        raise ContractError(f"cannot assign to {type(target).__name__}")

    def _eval_target(self, target: ast.expr, env: Dict[str, Any]) -> Any:
        if isinstance(target, ast.Name):
            if target.id not in env:
                raise ContractError(f"undefined name {target.id!r}")
            return env[target.id]
        if isinstance(target, ast.Subscript):
            container = self._eval(target.value, env)
            return container[self._eval(target.slice, env)]
        raise ContractError("invalid augmented-assignment target")

    # -- expressions ---------------------------------------------------------
    def _eval(self, node: ast.expr, env: Dict[str, Any]) -> Any:
        self.meter.charge(G.GAS_EXPRESSION)
        if isinstance(node, ast.Constant):
            return _check_value(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.host_functions:
                return self.host_functions[node.id]
            if node.id in _PURE_BUILTINS:
                return _PURE_BUILTINS[node.id]
            if node.id in self.contract.functions:
                return self.contract.functions[node.id]
            raise ContractError(f"undefined name {node.id!r}")
        if isinstance(node, ast.BinOp):
            op = type(node.op)
            if op not in _ALLOWED_BINOPS:
                raise ContractError(f"disallowed operator {op.__name__}")
            if op is ast.Pow:
                self.meter.charge(G.GAS_POW)
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            try:
                return _check_value(_ALLOWED_BINOPS[op](left, right))
            except (TypeError, ZeroDivisionError, ValueError) as exc:
                raise ContractError(f"arithmetic error: {exc}") from exc
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                return -operand
            if isinstance(node.op, ast.UAdd):
                return +operand
            if isinstance(node.op, ast.Not):
                return not operand
            raise ContractError("disallowed unary operator")
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                result: Any = True
                for value_node in node.values:
                    result = self._eval(value_node, env)
                    if not result:
                        return result
                return result
            for value_node in node.values:
                result = self._eval(value_node, env)
                if result:
                    return result
            return result
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            for op, comparator in zip(node.ops, node.comparators):
                op_type = type(op)
                if op_type not in _ALLOWED_COMPARE:
                    raise ContractError(f"disallowed comparison {op_type.__name__}")
                right = self._eval(comparator, env)
                if not _ALLOWED_COMPARE[op_type](left, right):
                    return False
                left = right
            return True
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Subscript):
            container = self._eval(node.value, env)
            key = self._eval(node.slice, env)
            try:
                return _check_value(container[key])
            except (KeyError, IndexError, TypeError) as exc:
                raise ContractError(f"subscript error: {exc}") from exc
        if isinstance(node, ast.Slice):
            lower = self._eval(node.lower, env) if node.lower else None
            upper = self._eval(node.upper, env) if node.upper else None
            step = self._eval(node.step, env) if node.step else None
            return slice(lower, upper, step)
        if isinstance(node, ast.List):
            return [self._eval(element, env) for element in node.elts]
        if isinstance(node, ast.Tuple):
            return tuple(self._eval(element, env) for element in node.elts)
        if isinstance(node, ast.Dict):
            out = {}
            for key_node, value_node in zip(node.keys, node.values):
                if key_node is None:
                    raise ContractError("dict unpacking is not allowed")
                out[self._eval(key_node, env)] = self._eval(value_node, env)
            return out
        if isinstance(node, ast.IfExp):
            if self._eval(node.test, env):
                return self._eval(node.body, env)
            return self._eval(node.orelse, env)
        if isinstance(node, ast.JoinedStr):
            parts = []
            for value_node in node.values:
                if isinstance(value_node, ast.Constant):
                    parts.append(str(value_node.value))
                elif isinstance(value_node, ast.FormattedValue):
                    parts.append(str(self._eval(value_node.value, env)))
            return "".join(parts)
        raise ContractError(f"disallowed expression {type(node).__name__}")

    def _eval_call(self, node: ast.Call, env: Dict[str, Any]) -> Any:
        func = self._eval(node.func, env)
        args = [self._eval(arg, env) for arg in node.args]
        kwargs = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                raise ContractError("**kwargs calls are not allowed")
            kwargs[keyword.arg] = self._eval(keyword.value, env)
        if isinstance(func, ast.FunctionDef):
            if kwargs:
                bound = dict(kwargs)
                params = [a.arg for a in func.args.args]
                for param, value in zip(params, args):
                    bound[param] = value
                return self._invoke(func, bound)
            params = [a.arg for a in func.args.args]
            return self._invoke(func, dict(zip(params, args)))
        if callable(func):
            self.meter.charge(G.GAS_CALL)
            try:
                return _check_value(func(*args, **kwargs))
            except ContractError:
                raise
            except (TypeError, ValueError, KeyError, IndexError) as exc:
                raise ContractError(f"call error: {exc}") from exc
        raise ContractError("attempt to call a non-function")
