"""A structural parser for the Verilog subset ``verilog.py`` emits.

The equivalence engine refuses to trust the emitter: the RTL stage of
``repro equiv`` re-reads the *emitted text* and rebuilds a symbolic
machine from it (:mod:`repro.analysis.equiv.netlist`), so a bug in
expression printing, staging references or register initialization shows
up as a miter counterexample instead of silently shipping.

The grammar is exactly the emitter's output language — ports, ``wire``
declarations with one expression each, behavioral memory arrays,
register chains with initializers inside a single ``always`` block,
continuous ``assign``s and the ``valid_sr`` fill tracker. Anything else
raises :class:`RtlParseError`; the validator reports that as the rtl
stage's ``error`` verdict (detail ``rtl-parse: ...``) rather than
guessing at semantics.

Expression evaluation (with Verilog-2001 context sizing rules) lives
with the machine, not here: the parser produces a plain AST so the lint
pass can reuse it for width checking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import RTLError

__all__ = [
    "RtlParseError", "parse_module",
    "Expr", "Num", "Ref", "Part", "Index", "Concat", "Unary", "Binary",
    "Ternary", "Signed",
    "Port", "WireDef", "RegDef", "MemoryDef", "RegUpdate", "MemWrite",
    "ContAssign", "VerilogModule",
]


class RtlParseError(RTLError):
    """The text falls outside the emitter's subset (or is malformed)."""


# ----------------------------------------------------------------------
# Expression AST
# ----------------------------------------------------------------------

class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Num(Expr):
    value: int
    width: int | None  # None for bare (unsized) literals


@dataclass(frozen=True)
class Ref(Expr):
    name: str


@dataclass(frozen=True)
class Part(Expr):
    """``name[hi:lo]`` — part-select of an identifier."""

    name: str
    hi: int
    lo: int


@dataclass(frozen=True)
class Index(Expr):
    """``name[expr]`` — bit-select or memory word read."""

    name: str
    index: Expr


@dataclass(frozen=True)
class Concat(Expr):
    """``{a, b, ...}`` — parts listed most-significant first."""

    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "~" | "-"
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass(frozen=True)
class Signed(Expr):
    """``$signed(expr)``."""

    arg: Expr


# ----------------------------------------------------------------------
# Module items
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Port:
    direction: str  # "input" | "output"
    name: str
    width: int


@dataclass(frozen=True)
class WireDef:
    name: str
    width: int
    expr: Expr


@dataclass(frozen=True)
class RegDef:
    name: str
    width: int
    init: int


@dataclass(frozen=True)
class MemoryDef:
    name: str
    width: int
    size: int


@dataclass(frozen=True)
class RegUpdate:
    """``target <= expr;`` inside ``always @(posedge clk)``."""

    target: str
    expr: Expr


@dataclass(frozen=True)
class MemWrite:
    """``mem[addr] <= data;`` inside ``always @(posedge clk)``."""

    mem: str
    addr: Expr
    data: Expr


@dataclass(frozen=True)
class ContAssign:
    target: str
    expr: Expr


@dataclass
class VerilogModule:
    name: str
    ports: list[Port] = field(default_factory=list)
    wires: list[WireDef] = field(default_factory=list)
    regs: list[RegDef] = field(default_factory=list)
    memories: list[MemoryDef] = field(default_factory=list)
    updates: list[RegUpdate] = field(default_factory=list)
    mem_writes: list[MemWrite] = field(default_factory=list)
    assigns: list[ContAssign] = field(default_factory=list)

    def port(self, name: str) -> Port | None:
        for p in self.ports:
            if p.name == name:
                return p
        return None


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<sized>(\d+)'(?:d\d+|b[01]+|h[0-9a-fA-F]+))
  | (?P<num>\d+)
  | (?P<ident>\$?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><<|>>|==|!=|<=|>=|[()\[\]{},;:?+\-*/%&|^~<>=@.])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos:pos + 20]
            raise RtlParseError(f"unexpected character at {snippet!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group()))
    return tokens


class _Tokens:
    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> tuple[str, str]:
        idx = self.pos + offset
        if idx >= len(self.tokens):
            return ("eof", "")
        return self.tokens[idx]

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str) -> str:
        kind, got = self.next()
        if got != value:
            raise RtlParseError(f"expected {value!r}, got {got!r} "
                                f"(token {self.pos - 1})")
        return got

    def expect_kind(self, kind: str) -> str:
        got_kind, got = self.next()
        if got_kind != kind:
            raise RtlParseError(f"expected {kind}, got {got!r}")
        return got

    def accept(self, value: str) -> bool:
        if self.peek()[1] == value:
            self.pos += 1
            return True
        return False


# ----------------------------------------------------------------------
# Expression parsing (precedence climbing).
# ----------------------------------------------------------------------

# Binary operators by descending precedence tier (Verilog-2001 order for
# the operators the emitter uses).
_BINARY_TIERS: tuple[tuple[str, ...], ...] = (
    ("*", "/", "%"),
    ("+", "-"),
    ("<<", ">>"),
    ("<", ">=", "<=", ">"),
    ("==", "!="),
    ("&",),
    ("^",),
    ("|",),
)


def _parse_expr(ts: _Tokens) -> Expr:
    return _parse_ternary(ts)


def _parse_ternary(ts: _Tokens) -> Expr:
    cond = _parse_binary(ts, 0)
    if ts.accept("?"):
        if_true = _parse_ternary(ts)
        ts.expect(":")
        if_false = _parse_ternary(ts)
        return Ternary(cond, if_true, if_false)
    return cond


def _parse_binary(ts: _Tokens, tier: int) -> Expr:
    if tier >= len(_BINARY_TIERS):
        return _parse_unary(ts)
    # Tiers are ordered highest-precedence first, so parse tightest last.
    left = _parse_binary(ts, tier + 1)
    ops = _BINARY_TIERS[tier]
    while ts.peek()[1] in ops:
        op = ts.next()[1]
        right = _parse_binary(ts, tier + 1)
        left = Binary(op, left, right)
    return left


def _parse_unary(ts: _Tokens) -> Expr:
    kind, value = ts.peek()
    if value == "~":
        ts.next()
        return Unary("~", _parse_unary(ts))
    if value == "-":
        ts.next()
        return Unary("-", _parse_unary(ts))
    return _parse_primary(ts)


def _parse_primary(ts: _Tokens) -> Expr:
    kind, value = ts.next()
    if kind == "sized":
        width_s, _, rest = value.partition("'")
        base = {"d": 10, "b": 2, "h": 16}[rest[0]]
        return Num(int(rest[1:], base), int(width_s))
    if kind == "num":
        return Num(int(value), None)
    if value == "(":
        inner = _parse_expr(ts)
        ts.expect(")")
        return inner
    if value == "{":
        parts = [_parse_expr(ts)]
        while ts.accept(","):
            parts.append(_parse_expr(ts))
        ts.expect("}")
        return Concat(tuple(parts))
    if value == "$signed":
        ts.expect("(")
        inner = _parse_expr(ts)
        ts.expect(")")
        return Signed(inner)
    if kind == "ident":
        name = value
        if ts.peek()[1] == "[":
            ts.next()
            first = _parse_expr(ts)
            if ts.accept(":"):
                second = _parse_expr(ts)
                ts.expect("]")
                hi = _const_value(first, "part-select bound")
                lo = _const_value(second, "part-select bound")
                if lo > hi:
                    raise RtlParseError(
                        f"descending part-select {name}[{hi}:{lo}]")
                return Part(name, hi, lo)
            ts.expect("]")
            return Index(name, first)
        return Ref(name)
    raise RtlParseError(f"unexpected token {value!r} in expression")


def _const_value(expr: Expr, what: str) -> int:
    if isinstance(expr, Num):
        return expr.value
    raise RtlParseError(f"{what} must be a literal, got {expr!r}")


# ----------------------------------------------------------------------
# Module parsing
# ----------------------------------------------------------------------

def _parse_range(ts: _Tokens) -> int:
    """``[hi:lo]`` → declared width; the emitter always uses ``lo == 0``."""
    ts.expect("[")
    hi = _const_value(_parse_expr(ts), "range bound")
    ts.expect(":")
    lo = _const_value(_parse_expr(ts), "range bound")
    ts.expect("]")
    if lo != 0:
        raise RtlParseError(f"declaration range [{hi}:{lo}] must end at 0")
    return hi + 1


def _parse_port(ts: _Tokens) -> Port:
    kind, direction = ts.next()
    if direction not in ("input", "output"):
        raise RtlParseError(f"expected port direction, got {direction!r}")
    ts.expect("wire")
    width = 1
    if ts.peek()[1] == "[":
        width = _parse_range(ts)
    name = ts.expect_kind("ident")
    return Port(direction, name, width)


def _parse_always(ts: _Tokens, module: VerilogModule) -> None:
    ts.expect("@")
    ts.expect("(")
    ts.expect("posedge")
    ts.expect("clk")
    ts.expect(")")
    ts.expect("begin")
    while not ts.accept("end"):
        name = ts.expect_kind("ident")
        if ts.peek()[1] == "[":
            ts.next()
            addr = _parse_expr(ts)
            ts.expect("]")
            ts.expect("<=")
            data = _parse_expr(ts)
            ts.expect(";")
            module.mem_writes.append(MemWrite(name, addr, data))
            continue
        ts.expect("<=")
        expr = _parse_expr(ts)
        ts.expect(";")
        module.updates.append(RegUpdate(name, expr))


def parse_module(text: str) -> VerilogModule:
    """Parse one emitted module; raises :class:`RtlParseError` outside
    the subset."""
    ts = _Tokens(_tokenize(text))
    ts.expect("module")
    module = VerilogModule(name=ts.expect_kind("ident"))
    ts.expect("(")
    if ts.peek()[1] != ")":
        module.ports.append(_parse_port(ts))
        while ts.accept(","):
            module.ports.append(_parse_port(ts))
    ts.expect(")")
    ts.expect(";")

    while True:
        kind, value = ts.peek()
        if value == "endmodule":
            ts.next()
            break
        if kind == "eof":
            raise RtlParseError("missing endmodule")
        if value == "wire":
            ts.next()
            width = 1
            if ts.peek()[1] == "[":
                width = _parse_range(ts)
            name = ts.expect_kind("ident")
            ts.expect("=")
            expr = _parse_expr(ts)
            ts.expect(";")
            module.wires.append(WireDef(name, width, expr))
        elif value == "reg":
            ts.next()
            width = 1
            if ts.peek()[1] == "[":
                width = _parse_range(ts)
            name = ts.expect_kind("ident")
            if ts.peek()[1] == "[":
                # Memory: reg [W-1:0] name [0:SIZE-1];
                ts.expect("[")
                lo = _const_value(_parse_expr(ts), "memory bound")
                ts.expect(":")
                hi = _const_value(_parse_expr(ts), "memory bound")
                ts.expect("]")
                ts.expect(";")
                if lo != 0:
                    raise RtlParseError("memory range must start at 0")
                module.memories.append(MemoryDef(name, width, hi + 1))
            else:
                ts.expect("=")
                init = _parse_expr(ts)
                ts.expect(";")
                module.regs.append(
                    RegDef(name, width, _const_value(init, "reg initializer")))
        elif value == "always":
            ts.next()
            _parse_always(ts, module)
        elif value == "assign":
            ts.next()
            target = ts.expect_kind("ident")
            ts.expect("=")
            expr = _parse_expr(ts)
            ts.expect(";")
            module.assigns.append(ContAssign(target, expr))
        else:
            raise RtlParseError(f"unsupported construct at {value!r}")
    return module
