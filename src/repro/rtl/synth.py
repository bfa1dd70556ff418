"""Synthesis: elaborated RTL + SVA -> :class:`TransitionSystem`.

This is the stand-in for the RTL frontend of a commercial formal tool.  It
flattens the module hierarchy (including ``bind``-attached property modules),
lowers all logic to an and-inverter graph, turns ``always_ff`` blocks into
latches with reset-derived initial values, and compiles SVA items:

* ``assert/assume/cover property`` without ``s_eventually`` — safety literals;
* ``A |-> s_eventually B`` — liveness via a pending-obligation monitor
  (asserted: justice obligation; assumed: fairness constraint);
* ``$past/$stable/$rose/$fell`` — shadow registers;
* ``$isunknown`` — constant 0 (formal is two-valued, paper Section III-B).

Reset handling follows standard formal-setup practice: reset inputs named in
``always_ff`` sensitivity lists (or matched by ``if (!rst)`` guards) are tied
to their inactive level and the reset branch supplies latch initial values,
so cycle 0 of every trace is the freshly-reset state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..formal.aig import FALSE, TRUE
from ..formal.transition import Latch, TransitionSystem
from . import ast
from .elaborate import ElabError, array_size, const_eval, range_width
from .parser import parse_design
from .preprocess import strip_ifdefs

__all__ = ["SynthError", "Synthesizer", "synthesize", "expr_key"]


class SynthError(ElabError):
    """Design or property construct outside the supported subset."""


# ---------------------------------------------------------------------------
# Expression fingerprinting (for $past shadow-register sharing and naming)
# ---------------------------------------------------------------------------
def expr_key(expr: ast.Expr) -> str:
    """A stable, readable fingerprint of an expression tree."""
    if isinstance(expr, ast.Num):
        return str(expr.value)
    if isinstance(expr, ast.Id):
        return expr.name
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{expr_key(expr.operand)})"
    if isinstance(expr, ast.Binary):
        return f"({expr_key(expr.lhs)}{expr.op}{expr_key(expr.rhs)})"
    if isinstance(expr, ast.Ternary):
        return (f"({expr_key(expr.cond)}?{expr_key(expr.then_expr)}"
                f":{expr_key(expr.else_expr)})")
    if isinstance(expr, ast.Concat):
        return "{" + ",".join(expr_key(p) for p in expr.parts) + "}"
    if isinstance(expr, ast.Repl):
        return ("{" + expr_key(expr.count) + "{" + expr_key(expr.value)
                + "}}")
    if isinstance(expr, ast.Index):
        return f"{expr_key(expr.base)}[{expr_key(expr.index)}]"
    if isinstance(expr, ast.RangeSelect):
        return (f"{expr_key(expr.base)}[{expr_key(expr.msb)}"
                f":{expr_key(expr.lsb)}]")
    if isinstance(expr, ast.SysCall):
        return expr.name + "(" + ",".join(expr_key(a) for a in expr.args) + ")"
    if isinstance(expr, ast.SEventually):
        return f"s_eventually({expr_key(expr.expr)})"
    if isinstance(expr, ast.Implication):
        return (f"({expr_key(expr.antecedent)}{expr.op}"
                f"{expr_key(expr.consequent)})")
    if isinstance(expr, ast.Delay):
        return f"##{expr.cycles} {expr_key(expr.expr)}"
    raise SynthError(f"cannot fingerprint {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Scope model
# ---------------------------------------------------------------------------
@dataclass
class Signal:
    name: str
    qualified: str
    width: int
    is_array: bool = False
    size: int = 0
    bits: Optional[List[int]] = None            # resolved AIG literals
    elem_bits: Optional[List[List[int]]] = None  # arrays
    latches: Optional[List[Latch]] = None        # registers
    elem_latches: Optional[List[List[Latch]]] = None
    resolving: bool = False


@dataclass
class Driver:
    kind: str                      # input|tied|assign|comb|reg|instout|conn|symbolic
    expr: Optional[ast.Expr] = None
    scope: Optional["Scope"] = None  # for conn (parent scope) / instout (child)
    port: str = ""
    block: Optional[object] = None   # AlwaysComb for comb
    tied_value: int = 0


@dataclass
class Scope:
    module: ast.Module
    prefix: str                    # "" for top, else "inst." chains
    params: Dict[str, int]
    signals: Dict[str, Signal] = field(default_factory=dict)
    drivers: Dict[str, Driver] = field(default_factory=dict)
    children: List["Scope"] = field(default_factory=list)
    ff_blocks: List[ast.AlwaysFF] = field(default_factory=list)
    comb_results: Dict[int, Dict[str, object]] = field(default_factory=dict)
    comb_running: Set[int] = field(default_factory=set)

    def qualify(self, name: str) -> str:
        return f"{self.prefix}{name}"


# ---------------------------------------------------------------------------
# Synthesizer
# ---------------------------------------------------------------------------
class Synthesizer:
    """Builds a fresh :class:`TransitionSystem` from a parsed design."""

    def __init__(self, design: ast.Design, top: str,
                 param_overrides: Optional[Dict[str, int]] = None,
                 tie_resets: bool = True,
                 observe_all: bool = True) -> None:
        self.design = design
        self.top_name = top
        self.param_overrides = dict(param_overrides or {})
        self.tie_resets = tie_resets
        self.observe_all = observe_all
        self.warnings: List[str] = []
        self.ts = TransitionSystem(top)
        self._g = self.ts.aig
        self._reset_names: Dict[str, bool] = {}   # name -> active_low
        self._past_cache: Dict[Tuple[str, str], List[Latch]] = {}
        self._first_cycle: Optional[Latch] = None
        self._scopes: List[Scope] = []

    # -- public ------------------------------------------------------------
    def build(self) -> TransitionSystem:
        top_module = self.design.module(self.top_name)
        self._collect_reset_names()
        top_scope = self._elaborate(top_module, prefix="",
                                    overrides=self.param_overrides,
                                    is_top=True)
        # Elaborate every output port eagerly so design errors (latch
        # inference, combinational loops) surface even when nothing else
        # consumes the signal.
        for port in top_module.ports:
            if port.direction == "output":
                self.signal_bits(top_scope, port.name)
        # Resolve every latch's next function, then compile assertions.
        for scope in self._scopes:
            for block in scope.ff_blocks:
                self._process_ff(scope, block)
        for scope in self._scopes:
            for item in scope.module.assertions:
                self._compile_assertion(scope, item)
        if self.observe_all:
            self._register_observables(top_scope)
        return self.ts

    # -- reset discovery -----------------------------------------------------
    def _collect_reset_names(self) -> None:
        for module in self.design.modules:
            for block in module.always_ffs:
                if block.reset_name:
                    self._reset_names[block.reset_name] = \
                        block.reset_active_low

    def _is_reset(self, name: str) -> bool:
        return self.tie_resets and name in self._reset_names

    # -- elaboration -----------------------------------------------------------
    def _elaborate(self, module: ast.Module, prefix: str,
                   overrides: Dict[str, int], is_top: bool) -> Scope:
        params: Dict[str, int] = {}
        for decl in module.params:
            if not decl.is_local and decl.name in overrides:
                params[decl.name] = overrides[decl.name]
            else:
                params[decl.name] = const_eval(decl.default, params)
        for name in overrides:
            if name not in params:
                raise SynthError(f"{module.name}: unknown parameter {name!r}")
        scope = Scope(module=module, prefix=prefix, params=params)
        self._scopes.append(scope)

        # Declare ports.
        for port in module.ports:
            width = range_width(port.packed, params)
            self._declare(scope, port.name, width)
        # Declare nets.
        for net in module.nets:
            width = range_width(net.packed, params)
            size = array_size(net.unpacked, params)
            self._declare(scope, net.name, width, is_array=size > 0,
                          size=size)
            if net.init is not None:
                self._set_driver(scope, net.name, Driver(
                    kind="assign", expr=net.init, scope=scope))
        # Continuous assigns.
        for assign in module.assigns:
            target = assign.target
            if not isinstance(target, ast.Id):
                raise SynthError(f"{module.name} line {assign.line}: assign "
                                 f"targets must be whole signals")
            self._set_driver(scope, target.name, Driver(
                kind="assign", expr=assign.value, scope=scope))
        # always_comb blocks: each is one driver shared by all its targets.
        for comb in module.always_combs:
            for name in sorted(self._targets_of(comb.body)):
                self._set_driver(scope, name, Driver(kind="comb",
                                                     block=comb))
        # always_ff blocks: targets become latches.
        for ff in module.always_ffs:
            scope.ff_blocks.append(ff)
            for name in sorted(self._targets_of(ff.body)):
                signal = self._lookup(scope, name, ff.line)
                self._set_driver(scope, name, Driver(kind="reg", block=ff))
                self._make_latches(scope, signal)
        # Ports: top-level inputs are free; outputs must be driven inside.
        for port in module.ports:
            if port.direction == "input" and port.name not in scope.drivers:
                if is_top:
                    kind = "tied" if self._is_reset(port.name) else "input"
                    tied = (1 if self._reset_names.get(port.name, True)
                            else 0)
                    self._set_driver(scope, port.name, Driver(
                        kind=kind, tied_value=tied))
                # Non-top input ports get their "conn" driver from the parent.
        # Instances.
        for inst in module.instances:
            self._elaborate_instance(scope, inst)
        # Binds targeting this module type.
        for bind in self.design.binds:
            if bind.target_module == module.name:
                inst = ast.Instance(module_name=bind.checker_module,
                                    instance_name=bind.instance_name,
                                    param_overrides=bind.param_overrides,
                                    connections=bind.connections,
                                    line=bind.line)
                self._elaborate_instance(scope, inst)
        return scope

    def _elaborate_instance(self, scope: Scope, inst: ast.Instance) -> None:
        child_module = self.design.module(inst.module_name)
        overrides: Dict[str, int] = {}
        for name, expr in inst.param_overrides:
            overrides[name] = const_eval(expr, scope.params)
        child_prefix = f"{scope.prefix}{inst.instance_name}."
        child = self._elaborate(child_module, prefix=child_prefix,
                                overrides=overrides, is_top=False)
        scope.children.append(child)

        # Expand .* into by-name connections for unconnected ports.
        explicit = {name for name, _ in inst.connections if name != "*"}
        connections = [(n, e) for n, e in inst.connections if n != "*"]
        if any(name == "*" for name, _ in inst.connections):
            for port in child_module.ports:
                if port.name not in explicit:
                    connections.append((port.name, ast.Id(name=port.name)))

        for port_name, expr in connections:
            port = child_module.port(port_name)
            if port.direction == "input":
                if expr is None:
                    self.warnings.append(
                        f"{child_prefix}{port_name}: open input -> symbolic")
                    continue
                self._set_driver(child, port_name, Driver(
                    kind="conn", expr=expr, scope=scope))
            else:
                if expr is None:
                    continue  # open output
                if not isinstance(expr, ast.Id):
                    raise SynthError(
                        f"line {inst.line}: output port {port_name} must "
                        f"connect to a plain signal")
                self._set_driver(scope, expr.name, Driver(
                    kind="instout", scope=child, port=port_name))

    # -- scope helpers -----------------------------------------------------
    def _declare(self, scope: Scope, name: str, width: int,
                 is_array: bool = False, size: int = 0) -> Signal:
        if name in scope.signals:
            raise SynthError(f"{scope.qualify(name)}: duplicate declaration")
        if name in scope.params:
            raise SynthError(f"{scope.qualify(name)}: shadows a parameter")
        signal = Signal(name=name, qualified=scope.qualify(name),
                        width=width, is_array=is_array, size=size)
        scope.signals[name] = signal
        return signal

    def _lookup(self, scope: Scope, name: str, line: int = 0) -> Signal:
        signal = scope.signals.get(name)
        if signal is None:
            raise SynthError(f"line {line}: undeclared signal "
                             f"{scope.qualify(name)}")
        return signal

    def _set_driver(self, scope: Scope, name: str, driver: Driver) -> None:
        signal = self._lookup(scope, name)
        existing = scope.drivers.get(name)
        if existing is not None:
            raise SynthError(f"{signal.qualified}: multiple drivers "
                             f"({existing.kind} and {driver.kind})")
        scope.drivers[name] = driver

    def _make_latches(self, scope: Scope, signal: Signal) -> None:
        if signal.is_array:
            signal.elem_latches = []
            signal.elem_bits = []
            for idx in range(signal.size):
                lats = self.ts.add_latch_vec(
                    f"{signal.qualified}[{idx}]", signal.width, init=0)
                signal.elem_latches.append(lats)
                signal.elem_bits.append([lat.node for lat in lats])
        else:
            signal.latches = self.ts.add_latch_vec(signal.qualified,
                                                   signal.width, init=0)
            signal.bits = [lat.node for lat in signal.latches]

    @staticmethod
    def _targets_of(stmt: ast.Stmt) -> Set[str]:
        targets: Set[str] = set()

        def visit(node: ast.Stmt) -> None:
            if isinstance(node, ast.Block):
                for child in node.stmts:
                    visit(child)
            elif isinstance(node, ast.If):
                visit(node.then_stmt)
                if node.else_stmt is not None:
                    visit(node.else_stmt)
            elif isinstance(node, ast.Case):
                for item in node.items:
                    visit(item.stmt)
            elif isinstance(node, (ast.NonBlocking, ast.Blocking)):
                target = node.target
                while isinstance(target, (ast.Index, ast.RangeSelect)):
                    target = target.base
                if not isinstance(target, ast.Id):
                    raise SynthError(f"line {node.line}: unsupported "
                                     f"assignment target")
                targets.add(target.name)

        visit(stmt)
        return targets

    # -- signal resolution ----------------------------------------------------
    def signal_bits(self, scope: Scope, name: str, line: int = 0) -> List[int]:
        signal = self._lookup(scope, name, line)
        if signal.is_array:
            raise SynthError(f"{signal.qualified}: array used as a vector")
        if signal.bits is not None:
            return signal.bits
        if signal.resolving:
            raise SynthError(f"{signal.qualified}: combinational loop")
        signal.resolving = True
        try:
            signal.bits = self._resolve(scope, signal)
        finally:
            signal.resolving = False
        return signal.bits

    def array_elem_bits(self, scope: Scope, name: str,
                        line: int = 0) -> List[List[int]]:
        signal = self._lookup(scope, name, line)
        if not signal.is_array:
            raise SynthError(f"{signal.qualified}: not an array")
        if signal.elem_bits is None:
            raise SynthError(f"{signal.qualified}: arrays must be registers")
        return signal.elem_bits

    def _resolve(self, scope: Scope, signal: Signal) -> List[int]:
        driver = scope.drivers.get(signal.name)
        if driver is None:
            # Undriven: a symbolic free variable (AutoSVA symbolics).
            self.warnings.append(f"{signal.qualified}: undriven -> symbolic")
            return self.ts.add_input_vec(signal.qualified, signal.width)
        if driver.kind == "input":
            return self.ts.add_input_vec(signal.qualified, signal.width)
        if driver.kind == "tied":
            return self._g.const_vec(driver.tied_value, signal.width)
        if driver.kind == "assign":
            bits = self._eval(driver.scope or scope, driver.expr)
            return self._fit(bits, signal.width)
        if driver.kind == "conn":
            bits = self._eval(driver.scope, driver.expr)
            return self._fit(bits, signal.width)
        if driver.kind == "instout":
            bits = self.signal_bits(driver.scope, driver.port)
            return self._fit(bits, signal.width)
        if driver.kind == "comb":
            env = self._run_comb(scope, driver.block)
            if signal.name not in env:
                raise SynthError(f"{signal.qualified}: not assigned on all "
                                 f"paths of always_comb (latch inferred)")
            value = env[signal.name]
            return self._fit(value, signal.width)
        raise SynthError(f"{signal.qualified}: unexpected driver "
                         f"{driver.kind}")

    def _run_comb(self, scope: Scope, comb: ast.AlwaysComb) -> Dict[str, List[int]]:
        key = id(comb)
        if key in scope.comb_results:
            return scope.comb_results[key]
        if key in scope.comb_running:
            raise SynthError(f"{scope.prefix or 'top'}: always_comb "
                             f"combinational loop")
        scope.comb_running.add(key)
        try:
            targets = self._targets_of(comb.body)
            env: Dict[str, object] = {}
            self._exec_stmt(scope, comb.body, env, targets, is_ff=False)
            result = {name: value for name, value in env.items()
                      if isinstance(value, list)}
            scope.comb_results[key] = result
            return result
        finally:
            scope.comb_running.discard(key)

    # -- always_ff processing ---------------------------------------------------
    def _process_ff(self, scope: Scope, block: ast.AlwaysFF) -> None:
        body = block.body
        reset_stmt: Optional[ast.Stmt] = None
        main_stmt: ast.Stmt = body
        if isinstance(body, ast.Block) and len(body.stmts) == 1:
            body = body.stmts[0]
            main_stmt = body
        if isinstance(body, ast.If) and self._is_reset_cond(body.cond,
                                                            block):
            reset_stmt = body.then_stmt
            main_stmt = body.else_stmt or ast.Block(stmts=[])
        elif block.reset_name:
            raise SynthError(
                f"line {block.line}: always_ff with reset "
                f"{block.reset_name!r} must start with its reset if")

        targets = self._targets_of(block.body)
        # Reset branch: constant init values.
        if reset_stmt is not None:
            init_env: Dict[str, object] = {}
            self._exec_stmt(scope, reset_stmt, init_env, targets, is_ff=True)
            for name, value in init_env.items():
                self._apply_init(scope, name, value)
        # Main branch: next-state functions (default: hold).
        env: Dict[str, object] = {}
        self._exec_stmt(scope, main_stmt, env, targets, is_ff=True)
        for name in sorted(targets):
            signal = self._lookup(scope, name, block.line)
            value = env.get(name)
            if signal.is_array:
                current = signal.elem_bits
                nexts = value if value is not None else current
                for idx in range(signal.size):
                    elem_next = nexts[idx] if value is not None else \
                        current[idx]
                    for lat, bit in zip(signal.elem_latches[idx],
                                        self._fit(list(elem_next),
                                                  signal.width)):
                        self.ts.set_next(lat, bit)
            else:
                nxt = value if value is not None else signal.bits
                for lat, bit in zip(signal.latches,
                                    self._fit(list(nxt), signal.width)):
                    self.ts.set_next(lat, bit)

    def _is_reset_cond(self, cond: ast.Expr, block: ast.AlwaysFF) -> bool:
        """Match ``!rst_n`` / ``~rst_n`` (active-low) or ``rst`` patterns."""
        name: Optional[str] = None
        active_low = False
        if isinstance(cond, ast.Unary) and cond.op in ("!", "~") and \
                isinstance(cond.operand, ast.Id):
            name = cond.operand.name
            active_low = True
        elif isinstance(cond, ast.Id):
            name = cond.name
            active_low = False
        if name is None:
            return False
        if block.reset_name:
            return name == block.reset_name and \
                active_low == block.reset_active_low
        # Sync reset: accept conventional names.
        if name in self._reset_names:
            return True
        lowered = name.lower()
        if lowered.startswith("rst") or lowered.startswith("reset") or \
                lowered.endswith("rst_n") or lowered.endswith("rst_ni"):
            self._reset_names.setdefault(name, active_low)
            return True
        return False

    def _apply_init(self, scope: Scope, name: str, value: object) -> None:
        signal = self._lookup(scope, name)

        def to_const(bits: List[int], where: str) -> List[bool]:
            out = []
            for bit in self._fit(list(bits), signal.width):
                if bit == TRUE:
                    out.append(True)
                elif bit == FALSE:
                    out.append(False)
                else:
                    raise SynthError(f"{where}: reset value must be constant")
            return out

        if signal.is_array:
            for idx in range(signal.size):
                consts = to_const(value[idx], f"{signal.qualified}[{idx}]")
                for lat, const in zip(signal.elem_latches[idx], consts):
                    lat.init = const
        else:
            consts = to_const(value, signal.qualified)
            for lat, const in zip(signal.latches, consts):
                lat.init = const

    # -- statement execution (symbolic) -------------------------------------
    def _exec_stmt(self, scope: Scope, stmt: ast.Stmt, env: Dict[str, object],
                   targets: Set[str], is_ff: bool) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self._exec_stmt(scope, child, env, targets, is_ff)
            return
        if isinstance(stmt, ast.If):
            cond = self._to_bool(self._eval(scope, stmt.cond,
                                            env=None if is_ff else env,
                                            comb_targets=targets if not is_ff
                                            else None))
            then_env = dict(env)
            self._exec_stmt(scope, stmt.then_stmt, then_env, targets, is_ff)
            else_env = dict(env)
            if stmt.else_stmt is not None:
                self._exec_stmt(scope, stmt.else_stmt, else_env, targets,
                                is_ff)
            self._merge_env(scope, env, cond, then_env, else_env, targets,
                            is_ff)
            return
        if isinstance(stmt, ast.Case):
            self._exec_case(scope, stmt, env, targets, is_ff)
            return
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            self._exec_assign(scope, stmt, env, targets, is_ff)
            return
        raise SynthError(f"line {stmt.line}: unsupported statement")

    def _exec_case(self, scope: Scope, stmt: ast.Case, env: Dict[str, object],
                   targets: Set[str], is_ff: bool) -> None:
        read_env = None if is_ff else env
        comb_targets = None if is_ff else targets
        subject = self._eval(scope, stmt.subject, env=read_env,
                             comb_targets=comb_targets)
        # Lower to an if-else chain, last item first.
        chain: List[Tuple[Optional[int], ast.Stmt]] = []
        default_stmt: Optional[ast.Stmt] = None
        for item in stmt.items:
            if not item.labels:
                default_stmt = item.stmt
                continue
            conds = []
            for label in item.labels:
                label_bits = self._fit(
                    self._eval(scope, label, env=read_env,
                               comb_targets=comb_targets), len(subject))
                conds.append(self._g.eq_vec(subject, label_bits))
            chain.append((self._g.or_many(conds), item.stmt))

        # Execute from the default up, merging under each condition.
        merged = dict(env)
        if default_stmt is not None:
            self._exec_stmt(scope, default_stmt, merged, targets, is_ff)
        for cond, item_stmt in reversed(chain):
            item_env = dict(env)
            self._exec_stmt(scope, item_stmt, item_env, targets, is_ff)
            out = dict(env)
            self._merge_env(scope, out, cond, item_env, merged, targets,
                            is_ff)
            merged = out
        env.clear()
        env.update(merged)

    def _exec_assign(self, scope: Scope, stmt, env: Dict[str, object],
                     targets: Set[str], is_ff: bool) -> None:
        read_env = None if is_ff else env
        comb_targets = None if is_ff else targets
        value = self._eval(scope, stmt.value, env=read_env,
                           comb_targets=comb_targets)
        target = stmt.target
        # Whole-signal assignment.
        if isinstance(target, ast.Id):
            signal = self._lookup(scope, target.name, stmt.line)
            if signal.is_array:
                raise SynthError(f"{signal.qualified}: whole-array "
                                 f"assignment unsupported")
            env[target.name] = self._fit(value, signal.width)
            return
        # Indexed assignment: array element or bit select.
        if isinstance(target, ast.Index) and isinstance(target.base, ast.Id):
            name = target.base.name
            signal = self._lookup(scope, name, stmt.line)
            index_bits = self._eval(scope, target.index, env=read_env,
                                    comb_targets=comb_targets)
            if signal.is_array:
                if not is_ff:
                    raise SynthError(f"{signal.qualified}: arrays must be "
                                     f"written in always_ff")
                current = env.get(name)
                if current is None:
                    current = [list(bits) for bits in signal.elem_bits]
                value_fit = self._fit(value, signal.width)
                new_elems = []
                for idx in range(signal.size):
                    hit = self._index_equals(index_bits, idx)
                    new_elems.append(self._g.mux_vec(hit, value_fit,
                                                     list(current[idx])))
                env[name] = new_elems
                return
            # Bit select on a vector.
            current_bits = self._current_value(scope, signal, env, is_ff)
            value_bit = self._fit(value, 1)[0]
            new_bits = []
            for idx in range(signal.width):
                hit = self._index_equals(index_bits, idx)
                new_bits.append(self._g.MUX(hit, value_bit,
                                            current_bits[idx]))
            env[name] = new_bits
            return
        if isinstance(target, ast.RangeSelect) and \
                isinstance(target.base, ast.Id):
            name = target.base.name
            signal = self._lookup(scope, name, stmt.line)
            msb = const_eval(target.msb, scope.params)
            lsb = const_eval(target.lsb, scope.params)
            current_bits = self._current_value(scope, signal, env, is_ff)
            value_fit = self._fit(value, msb - lsb + 1)
            new_bits = list(current_bits)
            new_bits[lsb:msb + 1] = value_fit
            env[name] = new_bits
            return
        raise SynthError(f"line {stmt.line}: unsupported assignment target")

    def _current_value(self, scope: Scope, signal: Signal,
                       env: Dict[str, object], is_ff: bool) -> List[int]:
        if signal.name in env:
            return list(env[signal.name])
        if is_ff:
            return list(signal.bits)
        raise SynthError(f"{signal.qualified}: partial comb assignment "
                         f"before full initialization")

    def _merge_env(self, scope: Scope, env: Dict[str, object], cond: int,
                   then_env: Dict[str, object], else_env: Dict[str, object],
                   targets: Set[str], is_ff: bool) -> None:
        # Sorted, not set order: mux creation order must not follow
        # PYTHONHASHSEED, or the AIG (and every solver counter) would.
        for name in sorted(targets):
            in_then = name in then_env
            in_else = name in else_env
            if not in_then and not in_else:
                continue
            signal = self._lookup(scope, name)
            if signal.is_array:
                base = env.get(name)
                if base is None:
                    base = [list(bits) for bits in signal.elem_bits]
                then_val = then_env.get(name, base)
                else_val = else_env.get(name, base)
                merged = [self._g.mux_vec(cond, list(t), list(e))
                          for t, e in zip(then_val, else_val)]
                env[name] = merged
                continue
            if is_ff:
                fallback = list(signal.bits)
            else:
                fallback = env.get(name)
            then_val = then_env.get(name, fallback)
            else_val = else_env.get(name, fallback)
            if then_val is None or else_val is None:
                raise SynthError(f"{signal.qualified}: not assigned on all "
                                 f"paths of always_comb (latch inferred)")
            env[name] = self._g.mux_vec(cond, list(then_val), list(else_val))

    def _index_equals(self, index_bits: List[int], value: int) -> int:
        width = max(len(index_bits), value.bit_length() or 1)
        return self._g.eq_vec(self._fit(list(index_bits), width),
                              self._g.const_vec(value, width))

    # -- expression evaluation --------------------------------------------------
    def _fit(self, bits: List[int], width: int) -> List[int]:
        if len(bits) >= width:
            return bits[:width]
        return bits + [FALSE] * (width - len(bits))

    def _to_bool(self, bits: List[int]) -> int:
        return self._g.or_many(bits)

    def _eval(self, scope: Scope, expr: ast.Expr,
              env: Optional[Dict[str, object]] = None,
              comb_targets: Optional[Set[str]] = None) -> List[int]:
        g = self._g

        def recurse(node: ast.Expr) -> List[int]:
            return self._eval(scope, node, env=env, comb_targets=comb_targets)

        if isinstance(expr, ast.Num):
            width = expr.width or 32
            return g.const_vec(expr.value, width)
        if isinstance(expr, ast.Id):
            name = expr.name
            if name in scope.params:
                return g.const_vec(scope.params[name], 32)
            if env is not None and name in env:
                value = env[name]
                if not isinstance(value, list) or (value and
                                                   isinstance(value[0], list)):
                    raise SynthError(f"{scope.qualify(name)}: array read "
                                     f"without index")
                return list(value)
            if comb_targets is not None and name in comb_targets:
                raise SynthError(f"{scope.qualify(name)}: read before "
                                 f"assignment in always_comb")
            return list(self.signal_bits(scope, name, expr.line))
        if isinstance(expr, ast.Unary):
            return self._eval_unary(scope, expr, recurse)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(scope, expr, recurse)
        if isinstance(expr, ast.Ternary):
            cond = self._to_bool(recurse(expr.cond))
            then_bits = recurse(expr.then_expr)
            else_bits = recurse(expr.else_expr)
            width = max(len(then_bits), len(else_bits))
            return g.mux_vec(cond, self._fit(then_bits, width),
                             self._fit(else_bits, width))
        if isinstance(expr, ast.Concat):
            bits: List[int] = []
            for part in reversed(expr.parts):
                bits.extend(recurse(part))
            return bits
        if isinstance(expr, ast.Repl):
            count = const_eval(expr.count, scope.params)
            unit = recurse(expr.value)
            return list(unit) * count
        if isinstance(expr, ast.Index):
            return self._eval_index(scope, expr, recurse, env, comb_targets)
        if isinstance(expr, ast.RangeSelect):
            base = recurse(expr.base)
            msb = const_eval(expr.msb, scope.params)
            lsb = const_eval(expr.lsb, scope.params)
            if lsb < 0 or msb >= len(base) or msb < lsb:
                raise SynthError(f"line {expr.line}: slice [{msb}:{lsb}] out "
                                 f"of range for width {len(base)}")
            return base[lsb:msb + 1]
        if isinstance(expr, ast.SysCall):
            return self._eval_syscall(scope, expr, recurse)
        raise SynthError(f"line {getattr(expr, 'line', 0)}: expression "
                         f"{type(expr).__name__} not allowed here")

    def _eval_index(self, scope: Scope, expr: ast.Index, recurse,
                    env, comb_targets) -> List[int]:
        if isinstance(expr.base, ast.Id):
            name = expr.base.name
            signal = scope.signals.get(name)
            if signal is not None and signal.is_array:
                elems = None
                if env is not None and name in env:
                    elems = env[name]
                if elems is None:
                    elems = self.array_elem_bits(scope, name, expr.line)
                index_bits = recurse(expr.index)
                out = []
                for bit_idx in range(signal.width):
                    terms = []
                    for idx in range(signal.size):
                        hit = self._index_equals(index_bits, idx)
                        terms.append(self._g.AND(hit, elems[idx][bit_idx]))
                    out.append(self._g.or_many(terms))
                return out
        base = recurse(expr.base)
        try:
            const_idx = const_eval(expr.index, scope.params)
        except ElabError:
            const_idx = None
        if const_idx is not None:
            if const_idx < 0 or const_idx >= len(base):
                raise SynthError(f"line {expr.line}: bit index {const_idx} "
                                 f"out of range")
            return [base[const_idx]]
        index_bits = recurse(expr.index)
        terms = []
        for idx, bit in enumerate(base):
            hit = self._index_equals(index_bits, idx)
            terms.append(self._g.AND(hit, bit))
        return [self._g.or_many(terms)]

    def _eval_unary(self, scope: Scope, expr: ast.Unary, recurse) -> List[int]:
        g = self._g
        bits = recurse(expr.operand)
        if expr.op == "!":
            return [g.NOT(self._to_bool(bits))]
        if expr.op == "~":
            return [b ^ 1 for b in bits]
        if expr.op == "&":
            return [g.and_many(bits)]
        if expr.op == "|":
            return [g.or_many(bits)]
        if expr.op == "^":
            out = FALSE
            for bit in bits:
                out = g.XOR(out, bit)
            return [out]
        if expr.op == "+":
            return bits
        if expr.op == "-":
            zero = g.const_vec(0, len(bits))
            return g.sub_vec(zero, bits)
        raise SynthError(f"line {expr.line}: unary {expr.op!r} unsupported")

    def _eval_binary(self, scope: Scope, expr: ast.Binary, recurse) -> List[int]:
        g = self._g
        op = expr.op
        if op == "&&":
            return [g.AND(self._to_bool(recurse(expr.lhs)),
                          self._to_bool(recurse(expr.rhs)))]
        if op == "||":
            return [g.OR(self._to_bool(recurse(expr.lhs)),
                         self._to_bool(recurse(expr.rhs)))]
        lhs = recurse(expr.lhs)
        rhs = recurse(expr.rhs)
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._eval_shift(scope, expr, lhs, rhs)
        if op in ("*", "/", "%"):
            try:
                rhs_const = const_eval(expr.rhs, scope.params)
            except ElabError:
                raise SynthError(f"line {expr.line}: {op} requires a "
                                 f"constant right operand")
            return self._eval_mult_div(expr, lhs, rhs_const)
        width = max(len(lhs), len(rhs))
        lhs = self._fit(list(lhs), width)
        rhs = self._fit(list(rhs), width)
        if op in ("==", "==="):
            return [g.eq_vec(lhs, rhs)]
        if op in ("!=", "!=="):
            return [g.NOT(g.eq_vec(lhs, rhs))]
        if op == "<":
            return [g.ult_vec(lhs, rhs)]
        if op == ">":
            return [g.ult_vec(rhs, lhs)]
        if op == "<=":
            return [g.NOT(g.ult_vec(rhs, lhs))]
        if op == ">=":
            return [g.NOT(g.ult_vec(lhs, rhs))]
        if op == "&":
            return [g.AND(a, b) for a, b in zip(lhs, rhs)]
        if op == "|":
            return [g.OR(a, b) for a, b in zip(lhs, rhs)]
        if op == "^":
            return [g.XOR(a, b) for a, b in zip(lhs, rhs)]
        if op == "+":
            return g.add_vec(lhs, rhs)
        if op == "-":
            return g.sub_vec(lhs, rhs)
        raise SynthError(f"line {expr.line}: binary {op!r} unsupported")

    def _eval_shift(self, scope: Scope, expr: ast.Binary, lhs: List[int],
                    rhs: List[int]) -> List[int]:
        g = self._g
        width = len(lhs)
        left = expr.op in ("<<", "<<<")
        try:
            amount = const_eval(expr.rhs, scope.params)
        except ElabError:
            amount = None
        if amount is not None:
            if left:
                return ([FALSE] * min(amount, width) + list(lhs))[:width]
            return (list(lhs[amount:]) + [FALSE] * min(amount, width))[:width]
        # Dynamic barrel shifter.
        bits = list(lhs)
        for stage, sel in enumerate(rhs):
            shift = 1 << stage
            if shift >= width and stage >= width.bit_length():
                # Larger shifts zero everything when sel is set.
                bits = [g.MUX(sel, FALSE, b) for b in bits]
                continue
            if left:
                shifted = [FALSE] * min(shift, width) + bits
                shifted = shifted[:width]
            else:
                shifted = bits[shift:] + [FALSE] * min(shift, width)
                shifted = shifted[:width]
            bits = g.mux_vec(sel, shifted, bits)
        return bits

    def _eval_mult_div(self, expr: ast.Binary, lhs: List[int],
                       rhs_const: int) -> List[int]:
        g = self._g
        if expr.op == "*":
            width = len(lhs)
            acc = g.const_vec(0, width)
            shifted = list(lhs)
            value = rhs_const
            pos = 0
            while value:
                if value & 1:
                    addend = ([FALSE] * pos + list(lhs))[:width]
                    acc = g.add_vec(acc, addend)
                value >>= 1
                pos += 1
            return acc
        if expr.op == "%":
            if rhs_const <= 0 or rhs_const & (rhs_const - 1):
                raise SynthError(f"line {expr.line}: % only by powers of 2")
            keep = rhs_const.bit_length() - 1
            return list(lhs[:keep]) or [FALSE]
        # division by power of two = right shift
        if rhs_const <= 0 or rhs_const & (rhs_const - 1):
            raise SynthError(f"line {expr.line}: / only by powers of 2")
        shift = rhs_const.bit_length() - 1
        return list(lhs[shift:]) + [FALSE] * shift

    # -- $system calls ------------------------------------------------------
    def _eval_syscall(self, scope: Scope, expr: ast.SysCall,
                      recurse) -> List[int]:
        g = self._g
        name = expr.name
        if name == "$clog2":
            return g.const_vec(const_eval(expr, scope.params), 32)
        if name == "$past":
            if not expr.args:
                raise SynthError(f"line {expr.line}: $past needs an argument")
            cycles = 1
            if len(expr.args) > 1:
                cycles = const_eval(expr.args[1], scope.params)
            return self._past_bits(scope, expr.args[0], cycles, recurse)
        if name == "$stable":
            bits = recurse(expr.args[0])
            past = self._past_bits(scope, expr.args[0], 1, recurse)
            return [g.eq_vec(bits, past)]
        if name == "$rose":
            bits = recurse(expr.args[0])
            past = self._past_bits(scope, expr.args[0], 1, recurse)
            return [g.AND(bits[0], g.NOT(past[0]))]
        if name == "$fell":
            bits = recurse(expr.args[0])
            past = self._past_bits(scope, expr.args[0], 1, recurse)
            return [g.AND(g.NOT(bits[0]), past[0])]
        if name == "$isunknown":
            return [FALSE]  # formal is two-valued
        if name == "$initstate":
            return [self._first_cycle_node()]
        if name == "$countones":
            bits = recurse(expr.args[0])
            width = max(1, len(bits).bit_length())
            acc = g.const_vec(0, width)
            for bit in bits:
                acc = g.add_vec(acc, self._fit([bit], width))
            return acc
        if name == "$onehot":
            count = self._eval_syscall(
                scope, ast.SysCall(name="$countones", args=expr.args,
                                   line=expr.line), recurse)
            return [g.eq_vec(count, g.const_vec(1, len(count)))]
        if name == "$onehot0":
            count = self._eval_syscall(
                scope, ast.SysCall(name="$countones", args=expr.args,
                                   line=expr.line), recurse)
            one_or_less = g.NOT(g.ult_vec(g.const_vec(1, len(count)), count))
            return [one_or_less]
        if name in ("$signed", "$unsigned"):
            return recurse(expr.args[0])
        raise SynthError(f"line {expr.line}: {name} unsupported")

    def _past_bits(self, scope: Scope, arg: ast.Expr, cycles: int,
                   recurse) -> List[int]:
        key = (scope.prefix, f"{expr_key(arg)}#{cycles}")
        cached = self._past_cache.get(key)
        if cached is not None:
            return [lat.node for lat in cached]
        bits = recurse(arg)
        stage_bits = bits
        latches: List[Latch] = []
        for cycle in range(cycles):
            stage_key = (scope.prefix, f"{expr_key(arg)}#{cycle + 1}")
            if stage_key in self._past_cache:
                latches = self._past_cache[stage_key]
            else:
                latches = [
                    self.ts.add_latch(
                        f"{scope.prefix}$past{cycle + 1}({expr_key(arg)})"
                        f"[{i}]", init=False)
                    for i in range(len(bits))
                ]
                for lat, bit in zip(latches, stage_bits):
                    self.ts.set_next(lat, bit)
                self._past_cache[stage_key] = latches
            stage_bits = [lat.node for lat in latches]
        return stage_bits

    def _first_cycle_node(self) -> int:
        if self._first_cycle is None:
            self._first_cycle = self.ts.add_latch("$initstate", init=True)
            self.ts.set_next(self._first_cycle, FALSE)
        return self._first_cycle.node

    # -- assertion compilation ------------------------------------------------
    def _compile_assertion(self, scope: Scope, item: ast.AssertionItem) -> None:
        label = item.label or f"{item.directive}_{item.line}"
        qualified = f"{scope.prefix}{label}"
        g = self._g
        disable_lit = FALSE
        if item.disable_iff is not None:
            disable_lit = self._to_bool(self._eval(scope, item.disable_iff))

        kind, payload = self._compile_property(scope, item.prop, label)
        if kind == "safety":
            lit = payload
            if disable_lit != FALSE:
                lit = g.OR(disable_lit, lit)
            if item.directive == "assert":
                self.ts.add_assert(qualified, lit)
            elif item.directive in ("assume", "restrict"):
                self.ts.add_constraint(qualified, lit)
            elif item.directive == "cover":
                cover_lit = lit if disable_lit == FALSE else \
                    g.AND(g.NOT(disable_lit), payload)
                self.ts.add_cover(qualified, cover_lit)
            return
        # Liveness: payload = (trigger, discharge, same_cycle)
        trigger, discharge, same_cycle = payload
        if disable_lit != FALSE:
            discharge = g.OR(discharge, disable_lit)
        if item.directive == "cover":
            raise SynthError(f"{qualified}: cover of liveness unsupported")
        pending = self.ts.pending_monitor(qualified, trigger, discharge,
                                          same_cycle=same_cycle)
        justice = g.NOT(pending)
        if item.directive == "assert":
            self.ts.add_liveness(qualified, justice)
        else:
            self.ts.add_fairness(qualified, justice)

    def _compile_property(self, scope: Scope, prop: ast.Expr, label: str):
        g = self._g
        if isinstance(prop, ast.Delay):
            kind, payload = self._compile_property(scope, prop.expr, label)
            guard = self._delay_guard(prop.cycles)
            if kind == "safety":
                return "safety", g.OR(guard, payload)
            trigger, discharge, same_cycle = payload
            return "liveness", (g.AND(g.NOT(guard), trigger), discharge,
                                same_cycle)
        if isinstance(prop, ast.Implication):
            ante = self._to_bool(self._eval(scope, prop.antecedent))
            consequent = prop.consequent
            if isinstance(consequent, ast.SEventually):
                discharge = self._to_bool(self._eval(scope, consequent.expr))
                same_cycle = prop.op == "|->"
                return "liveness", (ante, discharge, same_cycle)
            if isinstance(consequent, (ast.Implication, ast.Delay)):
                raise SynthError(f"{label}: nested implication/delay in "
                                 f"consequent unsupported")
            cons = self._to_bool(self._eval(scope, consequent))
            if prop.op == "|->":
                return "safety", g.IMPLIES(ante, cons)
            # |=>: check the consequent one cycle after the antecedent.
            ante_latch = self.ts.add_latch(
                f"{scope.prefix}{label}__ante_past", init=False)
            self.ts.set_next(ante_latch, ante)
            return "safety", g.IMPLIES(ante_latch.node, cons)
        if isinstance(prop, ast.SEventually):
            raise SynthError(f"{label}: bare s_eventually without a "
                             f"triggering antecedent is unsupported")
        lit = self._to_bool(self._eval(scope, prop))
        return "safety", lit

    def _delay_guard(self, cycles: int) -> int:
        """A literal that is TRUE during the first ``cycles`` cycles."""
        guard = self._first_cycle_node()
        nodes = [guard]
        previous = self._first_cycle
        for stage in range(1, cycles):
            lat = self.ts.add_latch(f"$initstage{stage}", init=False)
            self.ts.set_next(lat, previous.node)
            nodes.append(lat.node)
            previous = lat
        return self._g.or_many(nodes)

    # -- observables --------------------------------------------------------
    def _register_observables(self, top_scope: Scope) -> None:
        seen_bits = set()

        def add(qualified: str, bits: List[int]) -> None:
            key = tuple(bits)
            if key in seen_bits:
                return  # alias of an already-registered signal
            seen_bits.add(key)
            self.ts.add_observable(qualified, bits)

        for port in top_scope.module.ports:
            signal = top_scope.signals[port.name]
            try:
                bits = self.signal_bits(top_scope, port.name)
            except SynthError:
                continue
            add(signal.qualified, bits)
        # Internal and checker-scope signals complete the waveform.
        for scope in self._scopes:
            for name, signal in scope.signals.items():
                if signal.is_array:
                    continue
                try:
                    bits = self.signal_bits(scope, name)
                except SynthError:
                    continue
                add(signal.qualified, bits)


def synthesize(source: str, top: str,
               param_overrides: Optional[Dict[str, int]] = None,
               defines: Tuple[str, ...] = (),
               extra_sources: Tuple[str, ...] = (),
               tie_resets: bool = True) -> TransitionSystem:
    """One-call helper: preprocess, parse, merge and synthesize sources."""
    design = parse_design(strip_ifdefs(source, defines))
    for extra in extra_sources:
        design = design.merge(parse_design(strip_ifdefs(extra, defines)))
    return Synthesizer(design, top, param_overrides=param_overrides,
                       tie_resets=tie_resets).build()
