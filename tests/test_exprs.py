import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import PRESETS
from levyfilter.errors import ConfigError
from levyfilter.exprs import Expr, matrix_field, vector_field

# ---------------------------------------------------------------------------
# reference: the expression interpreter that compiled fields replace.  Each
# call evaluates every component's tree in a fresh scope with x, z and u
# presented under plain integer indexing as arr[..., i], broadcasts each value
# to the arguments' common batch shape and assembles the output.

_REF_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "arctan": np.arctan, "tanh": np.tanh}


class _CoordView:
    __slots__ = ("arr",)

    def __init__(self, arr):
        self.arr = np.asarray(arr, dtype=float)

    def __getitem__(self, index):
        return self.arr[..., index]


def _reference_eval(source, kwargs):
    scope = dict(_REF_FUNCS, pi=math.pi, e=math.e)
    for name, val in kwargs.items():
        if val is not None:
            scope[name] = val if name == "t" else _CoordView(val)
    code = compile(ast.parse(source, mode="eval"), "<reference>", "eval")
    return eval(code, {"__builtins__": {}}, scope)  # noqa: S307 - whitelisted AST


def _batch_shape(kwargs):
    shapes = [np.asarray(v).shape if k == "t" else np.asarray(v).shape[:-1]
              for k, v in kwargs.items() if v is not None]
    return np.broadcast_shapes(*shapes) if shapes else ()


def _reference_vector_field(components, argnames):
    def fn(*args):
        kwargs = dict(zip(argnames, args))
        batch = _batch_shape(kwargs)
        parts = [np.broadcast_to(np.asarray(_reference_eval(src, kwargs), dtype=float), batch)
                 for src in components]
        return np.stack(parts, axis=-1)

    return fn


def _reference_matrix_field(rows, argnames):
    def fn(*args):
        kwargs = dict(zip(argnames, args))
        out = np.empty(_batch_shape(kwargs) + (len(rows), len(rows[0])), dtype=float)
        for i, row in enumerate(rows):
            for j, src in enumerate(row):
                out[..., i, j] = np.asarray(_reference_eval(src, kwargs), dtype=float)
        return out

    return fn


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_expr_scalar_eval():
    e = Expr("sin(z[0]) + 2*t")
    assert e(t=0.5, z=np.array([0.0])) == pytest.approx(1.0)
    assert e(t=0.0, z=np.array([math.pi / 2])) == pytest.approx(1.0)


def test_expr_constants_and_unary():
    assert Expr("-pi/2")() == pytest.approx(-math.pi / 2)
    assert Expr("exp(1.0) - e")() == pytest.approx(0.0)


def test_expr_batch_broadcast():
    e = Expr("x[0] * z[0]")
    x = np.array([[1.0], [2.0], [3.0]])
    z = np.array([[4.0], [5.0], [6.0]])
    np.testing.assert_allclose(e(x=x, z=z), [4.0, 10.0, 18.0])


def test_expr_rejects_non_whitelisted():
    for bad in [
        "__import__('os')",
        "x[0] ** 2",
        "foo(x[0])",
        "x[i]",
        "x[0]; x[1]",
        "lambda v: v",
        "y[0]",
    ]:
        with pytest.raises(ValueError):
            Expr(bad)


def test_expr_missing_variable_at_call():
    e = Expr("x[0] + z[0]")
    with pytest.raises(ValueError):
        e(x=np.array([1.0]))


def test_expr_variables_tracked():
    assert Expr("sin(x[0]) + t").variables == frozenset({"x", "t"})


@given(
    c0=st.floats(-10, 10, allow_nan=False),
    c1=st.floats(-10, 10, allow_nan=False),
    v=st.floats(-100, 100, allow_nan=False),
)
def test_expr_affine_matches_python(c0, c1, v):
    e = Expr(f"{c0!r} + {c1!r}*x[0]")
    got = float(e(x=np.array([v])))
    assert got == pytest.approx(c0 + c1 * v, rel=1e-12, abs=1e-12)


def test_vector_field_broadcasts_constant_components():
    f = vector_field(["1.0", "x[0]"], ("x", "z"))
    x = np.arange(8.0).reshape(4, 2)
    z = np.zeros((4, 1))
    out = f(x, z)
    assert out.shape == (4, 2)
    np.testing.assert_allclose(out[:, 0], 1.0)
    np.testing.assert_allclose(out[:, 1], x[:, 0])


def test_vector_field_multi_axis_batch():
    f = vector_field(["sin(z[0])"], ("x", "z"))
    z = np.zeros((3, 5, 1))
    out = f(np.zeros((3, 5, 1)), z)
    assert out.shape == (3, 5, 1)


def test_matrix_field_shape_and_values():
    g = matrix_field([["1.0", "0.0"], ["x[0]", "2.0"]], ("x", "z"))
    out = g(np.array([[3.0]]), np.zeros((1, 1)))
    assert out.shape == (1, 2, 2)
    np.testing.assert_allclose(out[0], [[1.0, 0.0], [3.0, 2.0]])


@pytest.mark.parametrize("argnames", [("z",), ("x", "y"), ("x):\n    pass\n#",)])
def test_fields_check_their_argnames(argnames):
    with pytest.raises(ConfigError):
        vector_field(["x[0]"], argnames)


def test_matrix_field_rejects_ragged_rows():
    with pytest.raises(ValueError):
        matrix_field([["1.0", "0.0"], ["x[0]"]], ("x", "z"))


# ---------------------------------------------------------------------------
# compiled fields are bitwise the reference

_DIM = 2
_VARIABLES = st.sampled_from(["t"] + [f"{v}[{i}]" for v in "xzu" for i in range(_DIM)])
# variables twice, so that most operations round
_LEAVES = st.one_of(
    _VARIABLES,
    st.integers(0, 3).map(str),
    _VARIABLES,
    st.floats(-10, 10, allow_nan=False).map(repr),
    st.sampled_from(["pi", "e"]),
)


def _compound(children):
    binop = st.tuples(children, st.sampled_from("+-*/"), children, st.booleans()).map(
        lambda p: f"({p[0]} {p[1]} {p[2]})" if p[3] else f"{p[0]} {p[1]} {p[2]}")
    unary = st.tuples(st.sampled_from("-+"), children).map(lambda p: f"{p[0]}({p[1]})")
    call = st.tuples(st.sampled_from(sorted(_REF_FUNCS)), children).map(lambda p: f"{p[0]}({p[1]})")
    return st.one_of(binop, binop, unary, binop, call)


_EXPRS = st.recursive(_LEAVES, _compound, max_leaves=12)


@st.composite
def _arguments(draw):
    """t, x, z, u over 0-3 leading axes; each argument broadcasts to the batch.
    Values are generic floats, whose sums and products round."""
    batch = draw(st.lists(st.integers(1, 4), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def shape():
        axes = [draw(st.sampled_from([k, 1])) for k in batch]
        return tuple(axes[draw(st.integers(0, len(axes))):])

    coords = [rng.uniform(-5.0, 5.0, shape() + (_DIM,)) for _ in "xzu"]
    t = draw(st.sampled_from([float, np.float64, shape]))
    t = rng.uniform(-5.0, 5.0, t()) if t is shape else t(rng.uniform(-5.0, 5.0))
    return (t, *coords)


def _outcome(build, sources, args):
    try:
        with np.errstate(all="ignore"):
            return build(sources, ("t", "x", "z", "u"))(*args)
    except (ConfigError, ArithmeticError, TypeError) as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        # a failing constant part is a ConfigError when the field compiles
        assert isinstance(got, (type(want), ConfigError)), (got, want)
    else:
        assert not isinstance(got, Exception), got
        _assert_bitwise(got, want)


@settings(max_examples=300)
@given(sources=st.lists(_EXPRS, min_size=1, max_size=3), args=_arguments())
def test_compiled_vector_field_is_bitwise_the_reference(sources, args):
    _assert_same_outcome(_outcome(vector_field, sources, args),
                         _outcome(_reference_vector_field, sources, args))


@settings(max_examples=150)
@given(entries=st.lists(_EXPRS, min_size=4, max_size=4), rows=st.sampled_from([1, 2, 4]),
       args=_arguments())
def test_compiled_matrix_field_is_bitwise_the_reference(entries, rows, args):
    nested = [entries[i: i + 4 // rows] for i in range(0, 4, 4 // rows)]
    _assert_same_outcome(_outcome(matrix_field, nested, args),
                         _outcome(_reference_matrix_field, nested, args))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_fields_are_bitwise_the_reference_on_a_stack(name):
    """Every coefficient of the preset on a (200, 2000) stack of states."""
    preset = PRESETS[name]()
    model, obs, cfg = preset.model, preset.observation, preset.config
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2000, model.n))
    z = rng.normal(size=(200, 2000, model.m))
    u = rng.uniform(-2.0, 2.0, size=(200, 2000, obs.nu3_small.mark_dim))
    fields = [
        (model.b1, cfg["model"]["b1"], ("x", "z"), (x, z)),
        (model.sigma1, cfg["model"]["sigma1"], ("x", "z"), (x, z)),
        (model.b2, cfg["model"]["b2"], ("x", "z"), (x, z)),
        (model.sigma2, cfg["model"]["sigma2"], ("x", "z"), (x, z)),
        (obs.h, cfg["observation"]["h"], ("x", "z"), (x, z)),
        (obs.f3, cfg["observation"]["f3"], ("t", "u"), (0.3, u)),
        (obs.g3, cfg["observation"]["g3"], ("t", "u"), (0.3, u)),
    ]
    if preset.closed_form is not None:
        fields.append((preset.closed_form.hbar, cfg["model"]["closed_form"]["hbar"], ("x",), (x,)))
    for field, sources, argnames, args in fields:
        nested = isinstance(sources[0], list)
        reference = (_reference_matrix_field if nested else _reference_vector_field)(sources, argnames)
        _assert_bitwise(field(*args), reference(*args))


def test_constant_components_fold_once_and_fill():
    f = vector_field(["2*pi - 1/3", "x[0] * (1/3)"], ("x",))
    x = np.arange(6.0).reshape(3, 2)
    _assert_bitwise(f(x), np.stack([np.full(3, 2 * math.pi - 1 / 3), x[:, 0] * (1 / 3)], axis=-1))


def test_failing_constant_part_is_a_config_error_naming_the_source():
    with pytest.raises(ConfigError, match=r"1 / \(1 - 1\).*-z\[0\] \+ 1/\(1-1\)"):
        vector_field(["-z[0] + 1/(1-1)"], ("x", "z"))


def test_division_by_zero_in_a_variable_part_keeps_numpy_semantics():
    f = vector_field(["x[0] / 0"], ("x",))
    with np.errstate(divide="ignore"):
        assert np.all(np.isinf(f(np.ones((2, 1)))))
