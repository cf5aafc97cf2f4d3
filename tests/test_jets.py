"""Jet algebra against hand-differentiated oracles and the FD oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from minvar import jets
from minvar.errors import DimensionMismatch, DomainError, SpecError
from minvar.jets import Jet2, StepPolicy, fd_jet, jet_eval, variables


def assert_close(actual, expected, tol):
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol)


def test_square_at_three_exact():
    out = jet_eval(lambda u: u * u, np.array([3.0]))
    assert out.value == 9.0
    assert out.grad.tolist() == [6.0]
    assert out.hess.tolist() == [[2.0]]


def test_sin_cos_at_origin_exact():
    out = jet_eval(lambda u, v: jets.sin(u) * jets.cos(v), np.zeros(2))
    assert out.value == 0.0
    assert out.grad.tolist() == [1.0, 0.0]
    assert out.hess.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_sin_cos_generic_point_closed_form():
    u, v = 0.7, -0.3
    out = jet_eval(lambda a, b: jets.sin(a) * jets.cos(b), np.array([u, v]))
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    assert_close(out.value, su * cv, 1e-15)
    assert_close(out.grad, [cu * cv, -su * sv], 1e-14)
    assert_close(out.hess, [[-su * cv, -cu * sv], [-cu * sv, -su * cv]], 1e-14)


def test_exp_of_sin_plus_square_closed_form():
    u = 0.4
    out = jet_eval(lambda a: jets.exp(jets.sin(a) + a * a), np.array([u]))
    g = np.sin(u) + u * u
    dg = np.cos(u) + 2 * u
    ddg = -np.sin(u) + 2.0
    f = np.exp(g)
    assert_close(out.value, f, 1e-14)
    assert_close(out.grad, [f * dg], 1e-13)
    assert_close(out.hess, [[f * (dg * dg + ddg)]], 1e-13)


def test_quotient_closed_form():
    u, v = 2.0, 0.5
    out = jet_eval(lambda a, b: (a + 2.0 * b) / (a - b), np.array([u, v]))
    d = u - v
    assert_close(out.value, (u + 2 * v) / d, 1e-14)
    assert_close(out.grad, [-3 * v / d**2, 3 * u / d**2], 1e-13)
    expect_hess = [
        [6 * v / d**3, (-3 * u - 3 * v) / d**3],
        [(-3 * u - 3 * v) / d**3, 6 * u / d**3],
    ]
    assert_close(out.hess, expect_hess, 1e-13)


def test_powers():
    out = jet_eval(lambda u: u**3, np.array([2.0]))
    assert (out.value, out.grad[0], out.hess[0, 0]) == (8.0, 12.0, 12.0)
    out = jet_eval(lambda u: u**-2, np.array([2.0]))
    assert_close([out.value, out.grad[0], out.hess[0, 0]],
                 [0.25, -0.25, 0.375], 1e-15)
    a = jet_eval(lambda u: u**0.5, np.array([1.7]))
    b = jet_eval(jets.sqrt, np.array([1.7]))
    assert_close(a.grad, b.grad, 1e-15)
    assert_close(a.hess, b.hess, 1e-15)
    zeroth = jet_eval(lambda u: u**0, np.array([2.0]))
    assert zeroth.value == 1.0 and zeroth.grad[0] == 0.0


def test_atan2_matches_fd_oracle():
    f = lambda u, v: jets.atan2(2.0 * u * v, u * u - v * v)
    p = np.array([1.0, 0.3])
    j = jet_eval(f, p)
    o = fd_jet(f, p, StepPolicy(base_step=1e-4, richardson_levels=2))
    assert_close(j.grad, o.grad, 1e-6)
    assert_close(j.hess, o.hess, 1e-6)


def test_atan2_matches_atan_in_right_half_plane():
    p = np.array([0.8, 0.55])
    a = jet_eval(lambda x, y: jets.atan2(y, x), p)
    b = jet_eval(lambda x, y: jets.atan(y / x), p)
    assert_close(a.value, b.value, 1e-14)
    assert_close(a.grad, b.grad, 1e-13)
    assert_close(a.hess, b.hess, 1e-13)


def test_atan2_constant_arguments():
    p = np.array([0.6])
    a = jet_eval(lambda u: jets.atan2(u, 2.0), p)
    assert_close(a.grad, [2.0 / (4.0 + 0.36)], 1e-14)
    b = jet_eval(lambda u: jets.atan2(-1.5, u), p)
    assert_close(b.grad, [1.5 / (0.36 + 2.25)], 1e-14)
    assert jets.atan2(1.0, 1.0) == pytest.approx(np.pi / 4)


def test_hessian_exactly_symmetric():
    f = lambda u, v, w: jets.atan2(u * v, w) * jets.exp(u - v * w)
    j = jet_eval(f, np.array([0.9, -0.4, 1.2]))
    assert np.array_equal(j.hess, j.hess.T)


coef = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                 allow_infinity=False)


@given(a=coef, b=coef, c=coef, d=coef, u=coef, v=coef)
@settings(max_examples=100, deadline=None)
def test_product_rule_on_random_cubics(a, b, c, d, u, v):
    def p(x, y):
        return a * x * x * y + b * y + 1.0

    def q(x, y):
        return c * x * y * y + d * x + 2.0

    pt = np.array([u, v])
    jp, jq = jet_eval(p, pt), jet_eval(q, pt)
    prod = jet_eval(lambda x, y: p(x, y) * q(x, y), pt)
    leib_grad = jp.value * jq.grad + jq.value * jp.grad
    outer = np.outer(jp.grad, jq.grad)
    leib_hess = jp.value * jq.hess + jq.value * jp.hess + outer + outer.T
    scale = 1.0 + np.abs(leib_grad).max() + np.abs(leib_hess).max()
    assert np.abs(prod.grad - leib_grad).max() <= 1e-13 * scale
    assert np.abs(prod.hess - leib_hess).max() <= 1e-13 * scale


@given(u=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       v=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_chain_rule_battery(u, v):
    # inner polynomial f = 1 + u^2 + uv with hand derivatives
    pt = np.array([u, v])
    fval = 1.0 + u * u + u * v
    fgrad = np.array([2 * u + v, u])
    fhess = np.array([[2.0, 1.0], [1.0, 0.0]])

    def inner(x, y):
        return 1.0 + x * x + x * y

    for h, dh, ddh in [
        (np.sin, np.cos, lambda t: -np.sin(t)),
        (np.exp, np.exp, np.exp),
        (np.sqrt, lambda t: 0.5 / np.sqrt(t),
         lambda t: -0.25 / np.sqrt(t) ** 3),
    ]:
        lift = {np.sin: jets.sin, np.exp: jets.exp, np.sqrt: jets.sqrt}[h]
        shift = 4.0 if h is np.sqrt else 0.0  # keep sqrt argument positive
        out = jet_eval(lambda x, y: lift(inner(x, y) + shift), pt)
        t = fval + shift
        grad = dh(t) * fgrad
        hess = ddh(t) * np.outer(fgrad, fgrad) + dh(t) * fhess
        scale = 1.0 + np.abs(grad).max() + np.abs(hess).max()
        assert np.abs(out.grad - grad).max() <= 1e-12 * scale
        assert np.abs(out.hess - hess).max() <= 1e-12 * scale


def test_fd_cubic_gradient_accuracy():
    out = fd_jet(lambda u: u**3, np.array([2.0]),
                 StepPolicy(base_step=1e-3, richardson_levels=2))
    assert abs(out.grad[0] - 12.0) <= 1e-8


def test_fd_exp_at_zero():
    out = fd_jet(jets.exp, np.array([0.0]), StepPolicy())
    assert abs(out.grad[0] - 1.0) <= 1e-6
    assert abs(out.hess[0, 0] - 1.0) <= 1e-6


def test_richardson_extrapolation_improves_order():
    f = lambda u: jets.exp(jets.sin(3.0 * u))
    p = np.array([0.3])
    exact = jet_eval(f, p)
    coarse = fd_jet(f, p, StepPolicy(base_step=0.05, richardson_levels=1))
    fine = fd_jet(f, p, StepPolicy(base_step=0.05, richardson_levels=3))
    err1 = abs(coarse.grad[0] - exact.grad[0])
    err3 = abs(fine.grad[0] - exact.grad[0])
    assert err3 < err1 * 1e-2


def _battery(seed_coef):
    a, b, c = seed_coef

    def f(u, v):
        trig = jets.sin(a * u + b * v) * jets.cos(u - c * v)
        soft = jets.sqrt(4.0 + u * u + v * v)
        return trig + jets.exp(0.3 * c * u * v) / soft \
            + jets.atan2(v + 3.0, u + 4.0) + jets.atan(0.5 * a * u) \
            + jets.log(soft)

    return f


def test_jet_vs_fd_on_random_battery():
    rng = np.random.default_rng(7)
    policy = StepPolicy()
    worst = 0.0
    for _ in range(100):
        f = _battery(rng.uniform(-1.5, 1.5, size=3))
        p = rng.uniform(-1.0, 1.0, size=2)
        j, o = jet_eval(f, p), fd_jet(f, p, policy)
        scale = 1.0 + np.abs(o.grad).max() + np.abs(o.hess).max()
        worst = max(worst,
                    np.abs(j.grad - o.grad).max() / scale,
                    np.abs(j.hess - o.hess).max() / scale)
    assert worst <= 1e-5


def test_batched_evaluation_matches_pointwise():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(17, 2))
    f = _battery((0.7, -1.1, 0.4))
    batch = jet_eval(f, pts)
    for k, p in enumerate(pts):
        single = jet_eval(f, p)
        assert np.array_equal(batch.value[k], single.value)
        assert np.array_equal(batch.grad[k], single.grad)
        assert np.array_equal(batch.hess[k], single.hess)


def test_variables_shapes():
    seeds = variables(np.zeros((5, 3)))
    assert len(seeds) == 3
    assert seeds[0].value.shape == (5,)
    assert seeds[0].grad.shape == (5, 3)
    assert seeds[0].hess.shape == (5, 3, 3)
    assert seeds[1].grad[0].tolist() == [0.0, 1.0, 0.0]


def test_constant_result_lifts_to_zero_jet():
    out = jet_eval(lambda u, v: 4.25, np.array([1.0, 2.0]))
    assert out.value == 4.25
    assert np.all(out.grad == 0.0) and np.all(out.hess == 0.0)


def test_step_policy_validation():
    with pytest.raises(SpecError):
        StepPolicy(base_step=0.0)
    with pytest.raises(SpecError):
        StepPolicy(richardson_levels=0)


def test_domain_errors():
    p = np.array([0.5])
    with pytest.raises(DomainError):
        jet_eval(lambda u: jets.sqrt(u - 1.0), p)
    with pytest.raises(DomainError):
        jet_eval(lambda u: jets.log(-u), p)
    with pytest.raises(DomainError):
        jet_eval(lambda u: u / (u - 0.5), p)
    with pytest.raises(DomainError):
        jet_eval(lambda u: jets.atan2(u - 0.5, 0.0), p)
    with pytest.raises(DomainError):
        jet_eval(lambda u: (-1.0 + u * 0.0) ** 0.5, p)


def test_scalar_mixing_identities():
    p = np.array([1.3])
    j = jet_eval(lambda u: 2.0 * u + (1.0 - u) - u / 4.0 + 3.0 / u, p)
    # d/du [2u + 1 - u - u/4 + 3/u] = 0.75 - 3/u^2
    assert_close(j.grad, [0.75 - 3.0 / 1.69], 1e-14)
    assert_close(j.hess, [[6.0 / 1.3**3]], 1e-14)


# ---- sparse supports against dense seeding ----------------------------------


def sparse_seeds(p):
    """One-variable seeds, as ``Immersion.eval`` makes them."""
    batch = p.shape[:-1]
    one = np.broadcast_to(1.0, batch + (1,))
    zero = np.broadcast_to(0.0, batch + (1, 1))
    return [Jet2(p[..., i], one, zero, (i,)) for i in range(p.shape[-1])]


def first_order_seeds(p):
    """The seeds of ``sparse_seeds`` as value+gradient jets."""
    one = np.broadcast_to(1.0, p.shape[:-1] + (1,))
    return [jets.Jet1(p[..., i], one, (i,))
            for i in range(p.shape[-1])]


def densified(j, n):
    """(value, grad, hess) of a jet scattered onto all n variables."""
    batch = j.value.shape
    idx = list(j.support)
    grad = np.zeros(batch + (n,))
    grad[..., idx] = j.grad
    hess = np.zeros(batch + (n, n))
    hess[..., np.asarray(idx)[:, None], idx] = j.hess
    return j.value, grad, hess


def assert_sparse_equals_dense(f, p):
    """Sparse seeds give the dense jet; value+gradient seeds, its bytes."""
    sparse = f(*sparse_seeds(p))
    dense = f(*variables(p))
    assert dense.support == tuple(range(p.shape[-1]))
    assert list(sparse.support) == sorted(set(sparse.support))
    for a, b in zip(densified(sparse, p.shape[-1]),
                    (dense.value, dense.grad, dense.hess)):
        assert np.array_equal(a, b)
    # the first-order pass runs the same formulas without the Hessian
    first = f(*first_order_seeds(p))
    assert type(first) is jets.Jet1 and first.hess is None
    assert first.support == sparse.support
    assert first.value.tobytes() == sparse.value.tobytes()
    assert first.grad.tobytes() == sparse.grad.tobytes()
    return sparse


PTS4 = np.random.default_rng(5).uniform(0.3, 1.2, size=(6, 4))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_mixed_support_arithmetic_equals_dense(op):
    def f(a, b, c, d):
        left = a * jets.sin(c)          # support {0, 2}
        right = jets.exp(b) - d         # support {1, 3}
        return {"add": left + right, "sub": left - right,
                "mul": left * right, "div": left / right}[op]
    out = assert_sparse_equals_dense(f, PTS4)
    assert out.support == (0, 1, 2, 3)
    # a subset support widens one side only
    out = assert_sparse_equals_dense(lambda a, b, c, d: f(a, b, c, d) * a,
                                     PTS4)
    assert out.support == (0, 1, 2, 3)


def test_atan2_with_one_plain_argument_keeps_support():
    out = assert_sparse_equals_dense(
        lambda a, b, c, d: jets.atan2(b * d, 2.0), PTS4)
    assert out.support == (1, 3)
    out = assert_sparse_equals_dense(
        lambda a, b, c, d: jets.atan2(-1.5, c), PTS4)
    assert out.support == (2,)
    out = assert_sparse_equals_dense(
        lambda a, b, c, d: jets.atan2(a, c * d), PTS4)
    assert out.support == (0, 2, 3)


def test_constant_like_keeps_sparse_support():
    a, b, c, d = sparse_seeds(PTS4)
    x = b * d
    k = jets.constant_like(2.5, x)
    assert k.support == x.support
    assert np.all(k.grad == 0.0) and np.all(k.hess == 0.0)
    assert_sparse_equals_dense(
        lambda a, b, c, d: jets.constant_like(2.5, b * d) * c + b * d, PTS4)


def test_default_support_is_every_variable():
    j = Jet2(np.ones(3), np.zeros((3, 5)), np.zeros((3, 5, 5)))
    assert j.support == (0, 1, 2, 3, 4)
    j = jets.Jet1(np.ones(3), np.zeros((3, 5)))
    assert j.support == (0, 1, 2, 3, 4) and j.hess is None


_UNARY = {
    "sin": jets.sin, "cos": jets.cos, "atan": jets.atan,
    "exp_sin": lambda x: jets.exp(jets.sin(x)),
    "soft": lambda x: jets.sqrt(1.0 + x * x),
    "half": lambda x: 0.5 * x - 0.25,
    # the bases stay bounded, so eight steps cannot overflow a Hessian
    "pow": lambda x: (1.5 + jets.sin(x)) ** -1.5,
    "cube": lambda x: jets.sin(x) ** 3,
    "pow0": lambda x: x ** 0 - x,
    "const": lambda x: jets.constant_like(0.7, x) * x,
    "flip": lambda x: 2.0 - x,
    "neg": lambda x: -x,
    "recip": lambda x: 1.0 / (1.5 + x * x),
}
_BINARY = {
    "add": lambda x, y: x + y, "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / (1.5 + y * y),
    "atan2": lambda x, y: jets.atan2(x, 1.5 + y * y),
}
step = st.one_of(
    st.tuples(st.sampled_from(sorted(_UNARY)), st.integers(0, 63)),
    st.tuples(st.sampled_from(sorted(_BINARY)), st.integers(0, 63),
              st.integers(0, 63)))


@given(leaves=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       program=st.lists(step, min_size=1, max_size=8),
       seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_random_compositions_over_variable_subsets_match_dense(
        leaves, program, seed):
    p = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, 5))

    def f(*seeds):
        stack = [seeds[i] for i in leaves]
        for name, *args in program:
            operands = [stack[a % len(stack)] for a in args]
            fn = _UNARY.get(name) or _BINARY[name]
            stack.append(fn(*operands))
        return stack[-1]

    out = assert_sparse_equals_dense(f, p)
    assert set(out.support) <= set(leaves)


def test_jet2_without_hessian_raises():
    # a None Hessian used to become array(nan) and poison every product
    with pytest.raises(DimensionMismatch, match="Jet1"):
        Jet2(np.ones(2), np.ones((2, 1)), None)


# ---- linear maps against the sequential sum ---------------------------------


def _signed_entries(rng, shape):
    """Normal draws with exact zeros of both signs mixed in."""
    x = rng.standard_normal(shape)
    pick = rng.integers(0, 4, size=shape)
    x[pick == 0] = 0.0
    x[pick == 1] = -0.0
    return x


def _operand(rng, kind, batch, support, order):
    if kind == "float":
        return float(rng.choice([0.0, -0.0, rng.standard_normal()]))
    if kind == "array":
        return _signed_entries(rng, batch)
    m = len(support)
    value = _signed_entries(rng, batch)
    grad = _signed_entries(rng, batch + (m,))
    if order == 1:
        return jets.Jet1(value, grad, support)
    return Jet2(value, grad, _signed_entries(rng, batch + (m, m)), support)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-3.0, 3.0))


@given(kinds=st.lists(st.sampled_from(["jet", "jet", "float", "array"]),
                      min_size=1, max_size=5),
       rows=st.integers(1, 5), order=st.sampled_from([1, 2]),
       batch=st.sampled_from([(), (5,), (3, 4)]),
       coeffs=st.lists(coefficient, min_size=25, max_size=25),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=120, deadline=None)
def test_linear_map_equals_sequential_sum_byte_for_byte(
        kinds, rows, order, batch, coeffs, seed):
    # the reference sum breaks on an array before the first jet: ndarray +
    # jet makes an object array; rotations never order operands that way
    if "jet" in kinds:
        assume("array" not in kinds[:kinds.index("jet")])
    rng = np.random.default_rng(seed)
    comps = []
    for kind in kinds:
        support = tuple(sorted(rng.choice(5, size=rng.integers(1, 4),
                                          replace=False).tolist()))
        comps.append(_operand(rng, kind, batch, support, order))
    mat = np.array(coeffs[:rows * len(comps)]).reshape(rows, len(comps))
    got = jets.linear_map(mat, comps)
    ref = [sum(mat[a, k] * comps[k] for k in range(len(comps)))
           for a in range(rows)]
    assert len(got) == rows
    for out, want in zip(got, ref):
        assert type(out) is type(want)
        if not isinstance(want, Jet2):
            assert _same_bytes(out, want)
            continue
        assert out.support == want.support
        assert _same_bytes(out.value, want.value)
        assert _same_bytes(out.grad, want.grad)
        if want.hess is None:
            assert out.hess is None
        else:
            assert _same_bytes(out.hess, want.hess)
