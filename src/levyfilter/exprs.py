"""Tiny arithmetic expression language for coefficients in config files.

Grammar: +, -, *, / over floating literals, the variables t, x[i], z[j], u[k],
the constants pi and e, and the unary functions sin, cos, exp, arctan, tanh.
Expressions are parsed with the ast module against a strict whitelist.  Each
coefficient field compiles once into straight-line numpy that writes every
component into its slot of the (..., k) or (..., r, c) ``out=`` array (None
allocates), a root function call directly, reading x[i] as x[..., i]: it
broadcasts over the batch axes of its arguments (``t`` has no coordinate
axis).  Variable-free parts are evaluated once at compile time, so a constant
component is only filled.  The code keeps the source's ufuncs, operand order
and literals, so it is bitwise the expression evaluated as written.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ConfigError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "arctan": np.arctan, "tanh": np.tanh}
_CONSTS = {"pi": math.pi, "e": math.e}
_VARS = ("t", "x", "z", "u")
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_UNARYOPS = (ast.USub, ast.UAdd)


def _validate(node: ast.AST, source: str) -> None:
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _validate(node.left, source)
        _validate(node.right, source)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
        _validate(node.operand, source)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS):
            raise ConfigError(f"unknown function in expression {source!r}")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"functions take exactly one argument: {source!r}")
        _validate(node.args[0], source)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ConfigError(f"only numeric literals allowed: {source!r}")
    elif isinstance(node, ast.Name):
        if node.id not in _CONSTS and node.id != "t":
            raise ConfigError(f"unknown name {node.id!r} in expression {source!r}")
    elif isinstance(node, ast.Subscript):
        if not (isinstance(node.value, ast.Name) and node.value.id in ("x", "z", "u")):
            raise ConfigError(f"only x[i], z[j], u[k] may be indexed: {source!r}")
        idx = node.slice
        if not (isinstance(idx, ast.Constant) and isinstance(idx.value, int)):
            raise ConfigError(f"indices must be integer literals: {source!r}")
    else:
        raise ConfigError(f"disallowed construct {type(node).__name__} in expression {source!r}")


def _parse(source: str) -> ast.expr:
    """The validated expression tree of ``source``."""
    if not isinstance(source, str):
        raise ConfigError(f"expression must be a string, got {type(source).__name__}")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"unparseable expression {source!r}: {exc}") from exc
    _validate(tree.body, source)
    return tree.body


def _variables(node: ast.AST) -> frozenset:
    return frozenset(n.id for n in ast.walk(node) if isinstance(n, ast.Name)) & set(_VARS)


class _Lower(ast.NodeTransformer):
    """A validated tree as generated code: x[i] reads x[..., i], and each
    variable-free operation is evaluated now into a constant of ``namespace``."""

    def __init__(self, source: str, namespace: dict):
        self.source, self.namespace = source, namespace

    def visit(self, node):
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)) and not _variables(node):
            part, name = ast.unparse(node), f"_k{len(self.namespace)}"
            try:
                self.namespace[name] = eval(part, self.namespace)  # noqa: S307 - whitelisted AST
            except (ArithmeticError, TypeError) as exc:
                raise ConfigError(f"{part!r} in expression {self.source!r}: {exc}") from exc
            return ast.Name(name)
        return super().visit(node)

    def visit_Subscript(self, node):
        return ast.Subscript(node.value, ast.Tuple([ast.Constant(...), node.slice]))


def _compile(sources: list[str], argnames: tuple[str, ...], tail: tuple):
    """fn(*argnames, out=None) -> (batch + tail) ``out`` (None allocates), component i of
    ``sources`` (C order) at the i-th index of ``tail``; ``fn.variables`` are those read."""
    trees = [_parse(src) for src in sources]
    used = frozenset().union(*map(_variables, trees))
    if not used <= set(argnames) <= set(_VARS):
        raise ConfigError(f"{sources} use {sorted(used)}, not within {argnames} of {_VARS}")
    namespace = {"__builtins__": {}, "_asarray": np.asarray, "_empty": np.empty, "_float": float,
                 "_broadcast_shapes": np.broadcast_shapes, **_FUNCS, **_CONSTS}
    lines = [f"def field({', '.join([*argnames, 'out=None'])}):"]
    coords = [a for a in argnames if a in used and a != "t"]
    lines += [f"    {a} = _asarray({a}, dtype=_float)" for a in coords]
    lines.append("    if out is None:")
    for a in argnames:
        array = a if a in coords else f"_asarray({a})"
        lines.append(f"        _{a} = {array}.shape{'' if a == 't' else '[:-1]'}")
    shapes = [f"_{a}" for a in argnames] or ["()"]
    lines += [f"        batch = {shapes[0]} if {' == '.join(shapes)} "
              f"else _broadcast_shapes({', '.join(shapes)})",
              f"        out = _empty(batch + {tail!r})"]
    for index, src, tree in zip(np.ndindex(tail), sources, trees):
        slot, node = ", ".join(["...", *map(str, index)]), _Lower(src, namespace).visit(tree)
        if isinstance(node, ast.Call):      # a ufunc: out= writes into the slot
            node.keywords = [ast.keyword("out", ast.parse(f"out[{slot}]", mode="eval").body)]
            lines.append(f"    {ast.unparse(node)}")
        else:
            lines.append(f"    out[{slot}] = {ast.unparse(node)}")
    code = compile("\n".join(lines + ["    return out"]), f"<field {sources!r}>", "exec")
    exec(code, namespace)  # noqa: S102 - whitelisted AST
    namespace["field"].variables = used
    return namespace["field"]


class Expr:
    """A validated, compiled coefficient expression.

    Call with keyword arrays, e.g. ``expr(x=x, z=z, t=0.3)``; variables the
    expression does not mention may be omitted.  Returns a float array over
    the batch axes of the variables it uses."""

    def __init__(self, source: str):
        self.source = source
        self.variables = _variables(_parse(source))
        self._argnames = tuple(v for v in _VARS if v in self.variables)
        self._fn = _compile([source], self._argnames, ())

    def __call__(self, *, t=None, x=None, z=None, u=None):
        args = {"t": t, "x": x, "z": z, "u": u}
        if missing := sorted(v for v in self._argnames if args[v] is None):
            raise ValueError(f"expression {self.source!r} needs {missing}")
        return self._fn(*(args[v] for v in self._argnames))


def vector_field(components: list[str], argnames: tuple[str, ...]):
    """Compile a list of component expressions into fn(*arrays) -> (..., len)."""
    return _compile(list(components), argnames, (len(components),))


def matrix_field(rows: list[list[str]], argnames: tuple[str, ...]):
    """Compile a nested list of expressions into fn(*arrays) -> (..., r, c)."""
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError("matrix coefficient must be a non-empty rectangular list of lists")
    return _compile([src for row in rows for src in row], argnames, (len(rows), len(rows[0])))
