"""MedScript back end: each validated function compiled once to gas-exact Python.

``_FunctionCodegen`` lowers a validated function to three-address Python:
every operation that can raise (a subscript, an arithmetic operator, a
comparison, a call, ...) becomes its own statement, so the gas the oracle
charges before it is known exactly.  The static charges between two such
points are folded into one ``g += k`` followed by one limit test; if the
test trips, ``_out_of_gas`` replays the run's charge list to report the
first crossing, as ``GasMeter.charge`` would.  ``g`` is a local copy of
``meter.used``: written back before every call out and on return, read
back after every call out (hosts charge the real meter), and on an error
the larger of the two is kept, so a stale local never hides a host charge.

Values held by compiled code are never inexact: tx arguments, host and
builtin results, container elements read out and unpacked or iterated
items are checked on the way in, exactly where the oracle checks them,
and arithmetic on exact values is exact except ``int ** negative``.  So
only ``**`` results (and ``op=`` on a subscript, whose current value is
read unchecked) carry a float check; the oracle's other checks can never
fire and are not emitted.

The front end (subset, validation, :class:`~repro.contracts.vm.ContractSource`)
is ``repro.contracts.vm``, which imports this module after its own names.
"""

from __future__ import annotations

import ast
import copy
from hashlib import sha256
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.common.errors import ContractError, OutOfGasError
from repro.contracts import gas as G
from repro.contracts.vm import (
    _INEXACT,
    _PURE_BUILTINS,
    ContractSource,
    GasMeter,
    _check_value,
    _literal,
)


class _Unbound:
    """The value of a local that may still be unbound: a read that finds it
    falls back to the next scope, as the oracle's ``env`` lookup does."""

    def __repr__(self) -> str:
        return "<unbound>"


_NA = _Unbound()


def _out_of_gas(meter: GasMeter, used: int, charges: Tuple[int, ...]) -> None:
    """Raise at the first crossing inside a folded run that ended at ``used``."""
    used -= sum(charges)
    for amount in charges:
        used += amount
        if used > meter.limit:
            break
    meter.used = used
    raise OutOfGasError(f"out of gas: used {used} > limit {meter.limit}")


def _arithmetic_error(exc: Exception) -> None:
    raise ContractError(f"arithmetic error: {exc}") from exc


def _subscript_error(exc: Exception) -> None:
    raise ContractError(f"subscript error: {exc}") from exc


def _call_error(exc: Exception) -> None:
    raise ContractError(f"call error: {exc}") from exc


def _signature(func: ast.FunctionDef) -> Tuple[List[str], Dict[str, Any]]:
    """Parameter names, and the literal default of each defaulted one."""
    params = [a.arg for a in func.args.args]
    defaulted = params[len(params) - len(func.args.defaults):]
    return params, dict(zip(defaulted, map(_literal, func.args.defaults)))


class _Execution:
    """State shared by the compiled functions of one top-level call."""

    __slots__ = ("meter", "depth", "bodies", "signatures")

    def __init__(self, meter: GasMeter, signatures: Dict[str, Any]):
        self.meter = meter
        self.depth = 0
        self.bodies: Dict[str, Callable[..., Any]] = {}
        self.signatures = signatures

    def invoke(self, func: ast.FunctionDef, args: Dict[str, Any]) -> Any:
        """Bind keyword ``args`` and run ``func`` (the oracle's ``_invoke``)."""
        self.depth += 1
        if self.depth > G.MAX_CALL_DEPTH:
            raise ContractError("max call depth exceeded")
        self.meter.charge(G.GAS_CALL)
        params, defaults = self.signatures[func.name]
        env = {param: copy.deepcopy(value) for param, value in defaults.items()}
        for param in params:
            if param in args:
                env[param] = _check_value(args[param])
        missing = [p for p in params if p not in env]
        if missing:
            raise ContractError(f"{func.name}: missing arguments {missing}")
        extra = set(args) - set(params)
        if extra:
            raise ContractError(f"{func.name}: unexpected arguments {sorted(extra)}")
        result = self.bodies[func.name](*[env[p] for p in params])
        self.depth -= 1
        return result

    def call(self, func: Any, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
        """Every call in compiled code: a contract function through
        :meth:`invoke`, a host function or builtin directly."""
        if isinstance(func, ast.FunctionDef):
            bound = dict(kwargs)
            bound.update(zip([a.arg for a in func.args.args], args))
            return self.invoke(func, bound)
        if callable(func):
            self.meter.charge(G.GAS_CALL)
            try:
                return _check_value(func(*args, **kwargs))
            except (TypeError, ValueError, KeyError, IndexError) as exc:
                _call_error(exc)
        raise ContractError("attempt to call a non-function")


class Program:
    """One contract compiled against one set of host-function names."""

    def __init__(self, contract: ContractSource, host_names: FrozenSet[str]):
        self.signatures = {
            name: _signature(func) for name, func in contract.functions.items()
        }
        module = _ModuleCodegen(contract, host_names).module()
        digest = sha256(contract.source.encode("utf-8")).hexdigest()[:16]
        code = compile(module, f"<medscript {digest}>", "exec")
        namespace = dict(_RUNTIME)
        namespace.update(
            ("f_" + name, func) for name, func in contract.functions.items()
        )
        exec(code, namespace)  # generated from the validated AST only
        self._bind = namespace["_bind"]

    def run(
        self,
        func: ast.FunctionDef,
        args: Dict[str, Any],
        host_functions: Dict[str, Callable[..., Any]],
        meter: GasMeter,
    ) -> Any:
        execution = _Execution(meter, self.signatures)
        execution.bodies = self._bind(meter, execution, host_functions)
        return execution.invoke(func, args)


#: The whole global namespace of compiled code: ``__builtins__`` is empty,
#: and contract names are prefixed (``u_`` locals, ``c_`` constants, ``h_``
#: hosts, ``k_`` compiled functions, ``f_`` function values) so they cannot
#: reach these.  Pure builtins are bound as ``b_<name>``.
_RUNTIME: Dict[str, Any] = {
    "__builtins__": {},
    "_NA": _NA,
    "_oog": _out_of_gas,
    "_arith": _arithmetic_error,
    "_suberr": _subscript_error,
    "_cv": _check_value,
    "_type": type,
    "_FC": frozenset(_INEXACT),
    "_CE": ContractError,
    "_OOG": OutOfGasError,
    "_BE": BaseException,
    "_TE": TypeError,
    "_VE": ValueError,
    "_KE": KeyError,
    "_IE": IndexError,
    "_ZE": ZeroDivisionError,
    "_list": list,
    "_len": len,
    "_str": str,
    "_slice": slice,
    **{"b_" + name: func for name, func in _PURE_BUILTINS.items()},
}


# -- AST construction shorthands ---------------------------------------------

def _load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


def _store(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Store())


def _set(name: str, value: ast.expr) -> ast.stmt:
    return ast.Assign(targets=[_store(name)], value=value)


def _call(func: str, *args: ast.expr) -> ast.Call:
    return ast.Call(func=_load(func), args=list(args), keywords=[])


def _compare(left: ast.expr, op: ast.cmpop, right: ast.expr) -> ast.Compare:
    return ast.Compare(left=left, ops=[type(op)()], comparators=[right])


def _attr(obj: str, name: str, ctx: ast.expr_context) -> ast.Attribute:
    return ast.Attribute(value=_load(obj), attr=name, ctx=ctx)


def _raise(message: str) -> ast.stmt:
    return ast.Raise(exc=_call("_CE", ast.Constant(message)), cause=None)


def _try(body: List[ast.stmt], errors: Tuple[str, ...], handler: str) -> ast.stmt:
    """``try: body`` / ``except errors as e: handler(e)``."""
    return ast.Try(
        body=body,
        handlers=[
            ast.ExceptHandler(
                type=ast.Tuple(elts=[_load(e) for e in errors], ctx=ast.Load()),
                name="e",
                body=[ast.Expr(_call(handler, _load("e")))],
            )
        ],
        orelse=[],
        finalbody=[],
    )


def _function(name: str, params: List[str], body: List[ast.stmt]) -> ast.FunctionDef:
    return ast.FunctionDef(
        name=name,
        args=ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg=p) for p in params],
            kwonlyargs=[],
            kw_defaults=[],
            defaults=[],
        ),
        body=body,
        decorator_list=[],
    )


def _sync_out() -> ast.stmt:
    """``m.used = g``: publish the local gas count to the meter."""
    return ast.Assign(targets=[_attr("m", "used", ast.Store())], value=_load("g"))


def _value_node(value: Any) -> ast.expr:
    """An expression that builds a fresh copy of a literal ``value``."""
    if isinstance(value, list):
        return ast.List(elts=[_value_node(v) for v in value], ctx=ast.Load())
    if isinstance(value, tuple):
        return ast.Tuple(elts=[_value_node(v) for v in value], ctx=ast.Load())
    if isinstance(value, dict):
        return ast.Dict(
            keys=[_value_node(k) for k in value],
            values=[_value_node(v) for v in value.values()],
        )
    return ast.Constant(value)


def _locate(tree: ast.Module) -> ast.Module:
    """Put every generated node on line 1 (``compile`` needs a position).

    Does what ``ast.fix_missing_locations`` does for a tree with no
    positions, several times faster; that pass dominated compile time.
    """
    stack: List[Any] = [tree]
    while stack:
        node = stack.pop()
        if node._attributes:  # the positioned kinds: stmt, expr, arg, ...
            node.lineno = node.end_lineno = 1
            node.col_offset = node.end_col_offset = 0
        for name in node._fields:
            value = getattr(node, name)
            if value.__class__ is list:
                stack += value  # generated lists hold nodes only
            elif isinstance(value, ast.AST):
                stack.append(value)
    return tree


def _stored_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _stored_names(element)


class _ModuleCodegen:
    """Emits ``_bind(m, _x, hosts)``, which defines every function per call.

    ``m`` is the call's meter and ``_x`` its :class:`_Execution`; constants
    are rebuilt and host functions looked up once per call, then closed over.
    """

    def __init__(self, contract: ContractSource, host_names: FrozenSet[str]):
        self.contract = contract
        self.host_names = host_names

    def kind(self, name: str) -> Optional[str]:
        """Where a name that is not a local resolves, in the oracle's order."""
        if name in self.contract.constants:
            return "c_"
        if name in self.host_names:
            return "h_"
        if name in _PURE_BUILTINS:
            return "b_"
        if name in self.contract.functions:
            return "f_"
        return None

    def module(self) -> ast.Module:
        body: List[ast.stmt] = [
            _set("c_" + name, _value_node(value))
            for name, value in self.contract.constants.items()
        ]
        hosts = sorted(
            {
                node.id
                for func in self.contract.functions.values()
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and self.kind(node.id) == "h_"
            }
        )
        body += [
            _set(
                "h_" + name,
                ast.Subscript(
                    value=_load("hosts"), slice=ast.Constant(name), ctx=ast.Load()
                ),
            )
            for name in hosts
        ]
        body += [
            _FunctionCodegen(self, func).function()
            for func in self.contract.functions.values()
        ]
        body.append(
            ast.Return(
                ast.Dict(
                    keys=[ast.Constant(name) for name in self.contract.functions],
                    values=[_load("k_" + name) for name in self.contract.functions],
                )
            )
        )
        bind = _function("_bind", ["m", "_x", "hosts"], body)
        return _locate(ast.Module(body=[bind], type_ignores=[]))


class _FunctionCodegen:
    """Lowers one validated ``FunctionDef`` to a gas-exact Python function."""

    def __init__(self, module: _ModuleCodegen, func: ast.FunctionDef):
        self.module = module
        self.func = func
        self.params = [a.arg for a in func.args.args]
        assigned = {
            name
            for node in ast.walk(func)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.For))
            for target in (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for name in _stored_names(target)
        }
        self.locals = set(self.params) | assigned
        # Locals that are constants start bound to the (per-call) constant.
        self.from_constants = sorted(
            (assigned - set(self.params)) & set(module.contract.constants)
        )
        self.unbound_reads: set = set()  # ids of Name reads that may see _NA
        bound = set(self.params) | set(self.from_constants)
        self._definite(func.body, bound)
        self.pending: List[int] = []
        self.block: List[ast.stmt] = []
        self.temps = 0
        self.loop_flags: List[Optional[str]] = []

    # -- definite assignment -------------------------------------------------
    def _reads(self, node: Optional[ast.AST], bound: set) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in self.locals
                and sub.id not in bound
            ):
                self.unbound_reads.add(id(sub))

    def _definite(self, body: List[ast.stmt], bound: set) -> set:
        """Names surely bound after ``body``; marks reads that may not be."""
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                self._reads(stmt.value, bound)
                for target in stmt.targets:
                    self._reads(target, bound)
                    bound = bound | set(_stored_names(target))
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in bound:
                        self.unbound_reads.add(id(stmt.target))
                    bound = bound | {stmt.target.id}
                self._reads(stmt.target, bound)
                self._reads(stmt.value, bound)
            elif isinstance(stmt, ast.If):
                self._reads(stmt.test, bound)
                bound = self._definite(stmt.body, bound) & self._definite(
                    stmt.orelse, bound
                )
            elif isinstance(stmt, ast.While):
                self._reads(stmt.test, bound)
                self._definite(stmt.body, bound)
                self._definite(stmt.orelse, bound)
            elif isinstance(stmt, ast.For):
                self._reads(stmt.iter, bound)
                inner = bound | set(_stored_names(stmt.target))
                self._reads(stmt.target, inner)
                self._definite(stmt.body, inner)
                self._definite(stmt.orelse, bound)
            else:  # Return, Expr, Assert, Pass, Break, Continue
                for child in ast.iter_child_nodes(stmt):
                    self._reads(child, bound)
        return bound

    # -- emission helpers ----------------------------------------------------
    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def emit(self, stmt: ast.stmt) -> None:
        self.block.append(stmt)

    def charge_code(self) -> List[ast.stmt]:
        """Add the pending charges to ``g`` and test the limit."""
        if not self.pending:
            return []
        return [
            ast.AugAssign(
                target=_store("g"), op=ast.Add(), value=ast.Constant(sum(self.pending))
            ),
            ast.If(
                test=_compare(_load("g"), ast.Gt(), _load("L")),
                body=[
                    ast.Expr(
                        _call(
                            "_oog",
                            _load("m"),
                            _load("g"),
                            ast.Constant(tuple(self.pending)),
                        )
                    )
                ],
                orelse=[],
            ),
        ]

    def flush(self) -> None:
        """Settle pending gas before an operation that may raise or call out."""
        self.block += self.charge_code()
        self.pending = []

    def raise_if(self, test: ast.expr, stmt: ast.stmt) -> None:
        """``if test: raise`` that settles gas only on the raising path."""
        self.emit(ast.If(test=test, body=self.charge_code() + [stmt], orelse=[]))

    def check_exact(self, atom: ast.expr) -> None:
        if not isinstance(atom, ast.Constant):
            self.raise_if(
                _compare(_call("_type", atom), ast.In(), _load("_FC")),
                ast.Expr(_call("_cv", atom)),
            )

    def sync_out(self) -> None:
        self.emit(_sync_out())

    def sync_in(self) -> None:
        self.emit(_set("g", _attr("m", "used", ast.Load())))

    def branch(
        self,
        test: ast.expr,
        then: Callable[[], None],
        orelse: Optional[Callable[[], None]] = None,
    ) -> None:
        """An ``if`` whose arms inherit the pending gas and settle it at the end."""
        outer, pending = self.block, self.pending
        arms = []
        for arm in (then, orelse):
            self.block, self.pending = [], list(pending)
            if arm is not None:
                arm()
            self.flush()
            arms.append(self.block)
        self.block, self.pending = outer, []
        self.emit(ast.If(test=test, body=arms[0] or [ast.Pass()], orelse=arms[1]))

    def into_temp(self, value: ast.expr) -> ast.expr:
        name = self.temp()
        self.emit(_set(name, value))
        return _load(name)

    # -- function ------------------------------------------------------------
    def function(self) -> ast.FunctionDef:
        for name in self.from_constants:
            self.emit(_set("u_" + name, _load("c_" + name)))
        unbound = sorted(
            {
                node.id
                for node in ast.walk(self.func)
                if id(node) in self.unbound_reads
            }
        )
        for name in unbound:
            self.emit(_set("u_" + name, _load("_NA")))
        self.statements(self.func.body)
        self.flush()
        self.sync_out()
        self.emit(ast.Return(ast.Constant(None)))
        keep_larger = ast.If(
            test=_compare(_load("g"), ast.Gt(), _attr("m", "used", ast.Load())),
            body=[_sync_out()],
            orelse=[],
        )
        body = [
            _set("g", _attr("m", "used", ast.Load())),
            _set("L", _attr("m", "limit", ast.Load())),
            ast.Try(
                body=self.block,
                handlers=[
                    ast.ExceptHandler(type=_load("_OOG"), name=None, body=[ast.Raise()]),
                    ast.ExceptHandler(
                        type=_load("_BE"), name=None, body=[keep_larger, ast.Raise()]
                    ),
                ],
                orelse=[],
                finalbody=[],
            ),
        ]
        return _function("k_" + self.func.name, ["u_" + p for p in self.params], body)

    # -- statements ----------------------------------------------------------
    def statements(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.pending.append(G.GAS_STATEMENT)
            getattr(self, "stmt_" + type(stmt).__name__)(stmt)

    def stmt_Return(self, stmt: ast.Return) -> None:
        value = self.expr(stmt.value) if stmt.value else ast.Constant(None)
        self.flush()
        self.sync_out()
        self.emit(ast.Return(value))

    def stmt_Assign(self, stmt: ast.Assign) -> None:
        value = self.expr(stmt.value)
        if len(stmt.targets) > 1 and isinstance(value, ast.Name):
            value = self.into_temp(value)  # an earlier target may rebind it
        for target in stmt.targets:
            self.assign(target, value)

    def stmt_AugAssign(self, stmt: ast.AugAssign) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            current: ast.expr = _load("u_" + target.id)
            if id(target) in self.unbound_reads:
                self.raise_if(
                    _compare(current, ast.Is(), _load("_NA")),
                    _raise(f"undefined name {target.id!r}"),
                )
        else:
            container = self.expr(target.value)
            key = self.subscript_key(target.slice)
            self.flush()
            current = self.into_temp(
                ast.Subscript(value=container, slice=key, ctx=ast.Load())
            )
        operand = self.expr(stmt.value)
        self.flush()
        result = self.into_temp(ast.BinOp(left=current, op=type(stmt.op)(), right=operand))
        if isinstance(target, ast.Subscript) or isinstance(stmt.op, ast.Pow):
            self.check_exact(result)
        self.assign(target, result)

    def stmt_If(self, stmt: ast.If) -> None:
        test = self.expr(stmt.test)
        self.branch(
            test,
            lambda: self.statements(stmt.body),
            (lambda: self.statements(stmt.orelse)) if stmt.orelse else None,
        )

    def loop_head(self) -> str:
        """Iteration counter check and charge at the top of each iteration."""
        counter = self.temp()
        self.emit(
            ast.AugAssign(target=_store(counter), op=ast.Add(), value=ast.Constant(1))
        )
        self.raise_if(
            _compare(_load(counter), ast.Gt(), ast.Constant(G.MAX_ITERATIONS_PER_LOOP)),
            _raise("loop iteration limit exceeded"),
        )
        self.pending.append(G.GAS_LOOP_ITERATION)
        return counter

    def loop_body(self, body: List[ast.stmt], flag: Optional[str]) -> None:
        self.loop_flags.append(flag)
        self.statements(body)
        self.loop_flags.pop()
        self.flush()

    def stmt_While(self, stmt: ast.While) -> None:
        self.flush()
        flag = self.temp() if stmt.orelse else None
        if flag:
            self.emit(_set(flag, ast.Constant(False)))
        outer, self.block = self.block, []
        test = self.expr(stmt.test)
        self.emit(
            ast.If(
                test=ast.UnaryOp(op=ast.Not(), operand=test),
                body=self.charge_code() + [ast.Break()],
                orelse=[],
            )
        )
        counter = self.loop_head()
        self.loop_body(stmt.body, flag)
        loop = ast.While(test=ast.Constant(True), body=self.block, orelse=[])
        self.block = outer
        self.emit(_set(counter, ast.Constant(0)))
        self.emit(loop)
        if flag:
            self.branch(
                ast.UnaryOp(op=ast.Not(), operand=_load(flag)),
                lambda: self.statements(stmt.orelse),
            )

    def stmt_For(self, stmt: ast.For) -> None:
        iterable = self.expr(stmt.iter)
        self.flush()
        item = self.temp()
        outer, self.block = self.block, []
        counter = self.loop_head()
        self.check_exact(_load(item))
        self.assign(stmt.target, _load(item))
        self.loop_body(stmt.body, None)
        body, self.block = self.block, []
        self.statements(stmt.orelse)
        self.flush()
        orelse, self.block = self.block, outer
        self.emit(_set(counter, ast.Constant(0)))
        self.emit(ast.For(target=_store(item), iter=iterable, body=body, orelse=orelse))

    def stmt_Expr(self, stmt: ast.Expr) -> None:
        self.expr(stmt.value)

    def stmt_Pass(self, stmt: ast.Pass) -> None:
        pass

    def stmt_Break(self, stmt: ast.Break) -> None:
        self.flush()
        if self.loop_flags[-1]:
            self.emit(_set(self.loop_flags[-1], ast.Constant(True)))
        self.emit(ast.Break())

    def stmt_Continue(self, stmt: ast.Continue) -> None:
        self.flush()
        self.emit(ast.Continue())

    def stmt_Assert(self, stmt: ast.Assert) -> None:
        test = self.expr(stmt.test)
        outer, pending = self.block, self.pending
        self.block, self.pending = [], list(pending)
        message = self.expr(stmt.msg) if stmt.msg else ast.Constant("assertion failed")
        self.flush()
        self.emit(ast.Raise(exc=_call("_CE", _call("_str", message)), cause=None))
        failing, self.block, self.pending = self.block, outer, pending
        self.emit(ast.If(test=ast.UnaryOp(op=ast.Not(), operand=test), body=failing, orelse=[]))

    def assign(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.emit(_set("u_" + target.id, value))
        elif isinstance(target, ast.Subscript):
            container = self.expr(target.value)
            key = self.subscript_key(target.slice)
            self.flush()
            self.emit(
                ast.Assign(
                    targets=[ast.Subscript(value=container, slice=key, ctx=ast.Store())],
                    value=value,
                )
            )
        else:  # Tuple / List
            self.flush()
            values = self.into_temp(_call("_list", value))
            self.raise_if(
                _compare(_call("_len", values), ast.NotEq(), ast.Constant(len(target.elts))),
                _raise("unpacking arity mismatch"),
            )
            for index, element in enumerate(target.elts):
                item = self.into_temp(
                    ast.Subscript(value=values, slice=ast.Constant(index), ctx=ast.Load())
                )
                self.check_exact(item)
                self.assign(element, item)

    # -- expressions: each returns an atom (a Name or a Constant) -------------
    def expr(self, node: ast.expr) -> ast.expr:
        self.pending.append(G.GAS_EXPRESSION)
        return getattr(self, "expr_" + type(node).__name__)(node)

    def expr_Constant(self, node: ast.Constant) -> ast.expr:
        return ast.Constant(node.value)

    def expr_Name(self, node: ast.Name) -> ast.expr:
        name = node.id
        if name in self.locals:
            if id(node) not in self.unbound_reads:
                return _load("u_" + name)
            value = self.into_temp(_load("u_" + name))
            is_unbound = _compare(value, ast.Is(), _load("_NA"))
            fallback = self.module.kind(name)
            if fallback is None:
                self.raise_if(is_unbound, _raise(f"undefined name {name!r}"))
            else:
                fall_back = _set(value.id, _load(fallback + name))
                self.emit(ast.If(test=is_unbound, body=[fall_back], orelse=[]))
            return value
        prefix = self.module.kind(name)
        if prefix is None:
            self.flush()
            self.emit(_raise(f"undefined name {name!r}"))
            return ast.Constant(None)
        return _load(prefix + name)

    def expr_BinOp(self, node: ast.BinOp) -> ast.expr:
        if isinstance(node.op, ast.Pow):
            self.pending.append(G.GAS_POW)
        left = self.expr(node.left)
        right = self.expr(node.right)
        self.flush()
        result = self.temp()
        self.emit(
            _try(
                [_set(result, ast.BinOp(left=left, op=type(node.op)(), right=right))],
                ("_TE", "_ZE", "_VE"),
                "_arith",
            )
        )
        if isinstance(node.op, ast.Pow):
            self.check_exact(_load(result))
        return _load(result)

    def expr_UnaryOp(self, node: ast.UnaryOp) -> ast.expr:
        operand = self.expr(node.operand)
        if not isinstance(node.op, ast.Not):
            self.flush()
        return self.into_temp(ast.UnaryOp(op=type(node.op)(), operand=operand))

    # Short-circuit chains are flat: once ``result`` decides the chain, every
    # later ``if`` on it is skipped, so a long chain never nests.
    def expr_BoolOp(self, node: ast.BoolOp) -> ast.expr:
        result = self.temp()
        self.emit(_set(result, self.expr(node.values[0])))
        for value in node.values[1:]:
            test: ast.expr = _load(result)
            if isinstance(node.op, ast.Or):
                test = ast.UnaryOp(op=ast.Not(), operand=test)
            self.branch(test, lambda value=value: self.emit(_set(result, self.expr(value))))
        return _load(result)

    def expr_Compare(self, node: ast.Compare) -> ast.expr:
        result = self.temp()
        operands = [self.expr(node.left)]

        def compare(op: ast.cmpop, comparator: ast.expr) -> None:
            operands.append(self.expr(comparator))
            left, right = operands[-2:]
            if isinstance(op, (ast.Is, ast.IsNot)):
                # A literal operand of `is` makes CPython warn at compile time.
                left, right = (
                    self.into_temp(a) if isinstance(a, ast.Constant) else a
                    for a in (left, right)
                )
            else:
                self.flush()
            self.emit(_set(result, _compare(left, op, right)))

        compare(node.ops[0], node.comparators[0])
        for op, comparator in zip(node.ops[1:], node.comparators[1:]):
            self.branch(_load(result), lambda op=op, c=comparator: compare(op, c))
        return _load(result)

    def expr_Subscript(self, node: ast.Subscript) -> ast.expr:
        container = self.expr(node.value)
        if isinstance(container, ast.Constant):
            container = self.into_temp(container)  # CPython warns on `2[0]`
        key = self.subscript_key(node.slice)
        self.flush()
        result = self.temp()
        self.emit(
            _try(
                [_set(result, ast.Subscript(value=container, slice=key, ctx=ast.Load()))],
                ("_KE", "_IE", "_TE"),
                "_suberr",
            )
        )
        self.check_exact(_load(result))
        return _load(result)

    def subscript_key(self, node: ast.expr) -> ast.expr:
        if not isinstance(node, ast.Slice):
            return self.expr(node)
        self.pending.append(G.GAS_EXPRESSION)
        return ast.Slice(*self.slice_parts(node))

    def slice_parts(self, node: ast.Slice) -> List[Optional[ast.expr]]:
        return [
            self.expr(part) if part is not None else None
            for part in (node.lower, node.upper, node.step)
        ]

    def expr_Slice(self, node: ast.Slice) -> ast.expr:
        parts = [p or ast.Constant(None) for p in self.slice_parts(node)]
        return self.into_temp(_call("_slice", *parts))

    def expr_List(self, node: ast.List) -> ast.expr:
        return self.into_temp(
            ast.List(elts=[self.expr(e) for e in node.elts], ctx=ast.Load())
        )

    def expr_Tuple(self, node: ast.Tuple) -> ast.expr:
        return self.into_temp(
            ast.Tuple(elts=[self.expr(e) for e in node.elts], ctx=ast.Load())
        )

    def expr_Dict(self, node: ast.Dict) -> ast.expr:
        # The oracle runs ``out[eval(key)] = eval(value)``: CPython evaluates
        # the value first.
        if all(isinstance(key, ast.Constant) for key in node.keys):
            keys, values = [], []
            for key, value in zip(node.keys, node.values):
                values.append(self.expr(value))
                keys.append(self.expr(key))
            return self.into_temp(ast.Dict(keys=keys, values=values))
        # A key may be unhashable: insert one pair at a time, in order.
        result = self.into_temp(ast.Dict(keys=[], values=[]))
        for key_node, value_node in zip(node.keys, node.values):
            value = self.expr(value_node)
            key = self.expr(key_node)
            self.flush()
            self.emit(
                ast.Assign(
                    targets=[ast.Subscript(value=result, slice=key, ctx=ast.Store())],
                    value=value,
                )
            )
        return result

    def expr_IfExp(self, node: ast.IfExp) -> ast.expr:
        result = self.temp()
        test = self.expr(node.test)
        self.branch(
            test,
            lambda: self.emit(_set(result, self.expr(node.body))),
            lambda: self.emit(_set(result, self.expr(node.orelse))),
        )
        return _load(result)

    def expr_JoinedStr(self, node: ast.JoinedStr) -> ast.expr:
        parts: List[ast.expr] = []
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                parts.append(
                    ast.FormattedValue(
                        value=self.expr(value.value), conversion=ord("s"), format_spec=None
                    )
                )
            else:
                parts.append(ast.Constant(str(value.value)))
        self.flush()
        return self.into_temp(ast.JoinedStr(values=parts))

    # -- calls ---------------------------------------------------------------
    def expr_Call(self, node: ast.Call) -> ast.expr:
        """Every call goes through ``_x.call``, which charges and binds it."""
        callee = self.expr(node.func)
        args = [self.expr(arg) for arg in node.args]
        kwargs = [(kw.arg, self.expr(kw.value)) for kw in node.keywords]
        self.flush()
        self.sync_out()
        result = self.into_temp(
            ast.Call(
                func=_attr("_x", "call", ast.Load()),
                args=[
                    callee,
                    ast.Tuple(elts=args, ctx=ast.Load()),
                    ast.Dict(
                        keys=[ast.Constant(k) for k, _ in kwargs],
                        values=[v for _, v in kwargs],
                    ),
                ],
                keywords=[],
            )
        )
        self.sync_in()
        return result
