"""Jet algebra against hand-differentiated oracles and the FD oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from minvar import jets
from minvar.errors import DimensionMismatch, SpecError
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


def test_reciprocal_of_sin_plus_square_closed_form():
    u = 0.4
    out = jet_eval(lambda a: jets.reciprocal(jets.sin(a) + a * a),
                   np.array([u]))
    g = np.sin(u) + u * u
    dg = np.cos(u) + 2 * u
    ddg = -np.sin(u) + 2.0
    assert_close(out.value, 1.0 / g, 1e-14)
    assert_close(out.grad, [-dg / g**2], 1e-13)
    assert_close(out.hess, [[2.0 * dg * dg / g**3 - ddg / g**2]], 1e-13)


def test_quotient_closed_form():
    u, v = 2.0, 0.5
    out = jet_eval(lambda a, b: (a + 2.0 * b) * jets.reciprocal(a - b),
                   np.array([u, v]))
    d = u - v
    assert_close(out.value, (u + 2 * v) / d, 1e-14)
    assert_close(out.grad, [-3 * v / d**2, 3 * u / d**2], 1e-13)
    expect_hess = [
        [6 * v / d**3, (-3 * u - 3 * v) / d**3],
        [(-3 * u - 3 * v) / d**3, 6 * u / d**3],
    ]
    assert_close(out.hess, expect_hess, 1e-13)


def test_atan2_matches_fd_oracle():
    f = lambda u, v: jets.atan2(2.0 * u * v, u * u - v * v)
    p = np.array([1.0, 0.3])
    j = jet_eval(f, p)
    o = fd_jet(f, p, StepPolicy(base_step=1e-4, richardson_levels=2))
    assert_close(j.grad, o.grad, 1e-6)
    assert_close(j.hess, o.hess, 1e-6)


def test_atan2_matches_atan_in_right_half_plane():
    p = np.array([0.8, 0.55])
    # atan(y/x), written as the maps write it: atan2(t, 1), 1/x a reciprocal
    a = jet_eval(lambda x, y: jets.atan2(y, x), p)
    b = jet_eval(lambda x, y: jets.atan2(y * jets.reciprocal(x), 1.0), p)
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
    f = lambda u, v, w: jets.atan2(u * v, w) * jets.sin(u - v * w)
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

    # f ≥ 1 − v²/4 > 0.4 on the box, so its reciprocal is well defined
    for lift, dh, ddh in [
        (jets.sin, np.cos, lambda t: -np.sin(t)),
        (jets.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)),
        (jets.reciprocal, lambda t: -1.0 / t**2, lambda t: 2.0 / t**3),
    ]:
        out = jet_eval(lambda x, y: lift(inner(x, y)), pt)
        t = fval
        grad = dh(t) * fgrad
        hess = ddh(t) * np.outer(fgrad, fgrad) + dh(t) * fhess
        scale = 1.0 + np.abs(grad).max() + np.abs(hess).max()
        assert np.abs(out.grad - grad).max() <= 1e-12 * scale
        assert np.abs(out.hess - hess).max() <= 1e-12 * scale


def test_fd_cubic_gradient_accuracy():
    out = fd_jet(lambda u: u * u * u, np.array([2.0]),
                 StepPolicy(base_step=1e-3, richardson_levels=2))
    assert abs(out.grad[0] - 12.0) <= 1e-8


def test_richardson_extrapolation_improves_order():
    f = lambda u: jets.reciprocal(2.0 + jets.sin(3.0 * u))
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
        soft = jets.reciprocal(4.0 + u * u + v * v)
        return trig + jets.cos(0.3 * c * u * v) * soft \
            + jets.atan2(v + 3.0, u + 4.0) + jets.atan2(0.5 * a * u, 1.0) \
            + soft * soft

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
    # an exact zero denominator, or atan2 at the origin, raises nothing:
    # the value is the array path's and the derivatives are non-finite,
    # quietly under np.errstate and with numpy's warnings outside it
    p = np.array([0.5])
    for f, value, warning in [
            (lambda u: u * jets.reciprocal(u - 0.5), np.inf, "divide by zero"),
            (lambda u: jets.atan2(u - 0.5, 0.0), 0.0, "invalid value")]:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = jet_eval(f, p)
        assert out.value == value
        assert not np.isfinite(out.grad).any()
        assert not np.isfinite(out.hess).any()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jet_eval(f, p)
        assert caught and all(w.category is RuntimeWarning for w in caught)
        assert warning in str(caught[0].message)


def test_jets_do_not_divide():
    # a jet would divide through its reciprocal and an array directly, so
    # ``position`` and ``eval`` of a map written with / could round
    # differently; jets define no / or **, and such a map fails at once
    u = variables(np.array([1.3]))[0]
    for quotient in (lambda: u / u, lambda: u / 2.0, lambda: 2.0 / u):
        with pytest.raises(TypeError):
            quotient()
    with pytest.raises(TypeError):
        u ** 2


def test_scalar_mixing_identities():
    p = np.array([1.3])
    j = jet_eval(lambda u: 2.0 * u + (1.0 - u) - 0.25 * u
                 + 3.0 * jets.reciprocal(u), p)
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
        right = jets.cos(b) - d         # support {1, 3}
        return {"add": left + right, "sub": left - right,
                "mul": left * right,
                "div": left * jets.reciprocal(right)}[op]
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
    k = jets._constant_like(2.5, x)
    assert k.support == x.support
    assert np.all(k.grad == 0.0) and np.all(k.hess == 0.0)
    assert_sparse_equals_dense(
        lambda a, b, c, d: jets._constant_like(2.5, b * d) * c + b * d, PTS4)


def test_default_support_is_every_variable():
    j = Jet2(np.ones(3), np.zeros((3, 5)), np.zeros((3, 5, 5)))
    assert j.support == (0, 1, 2, 3, 4)
    j = jets.Jet1(np.ones(3), np.zeros((3, 5)))
    assert j.support == (0, 1, 2, 3, 4) and j.hess is None


_UNARY = {
    "sin": jets.sin, "cos": jets.cos,
    "atan": lambda x: jets.atan2(x, 1.0),
    "sin_sin": lambda x: jets.sin(jets.sin(x)),
    "half": lambda x: 0.5 * x - 0.25,
    # the bases stay bounded, so eight steps cannot overflow a Hessian
    "recip_sin": lambda x: jets.reciprocal(1.5 + jets.sin(x)),
    "cube": lambda x: jets.sin(x) * jets.sin(x) * jets.sin(x),
    "const": lambda x: jets._constant_like(0.7, x) * x,
    "flip": lambda x: 2.0 - x,
    "neg": lambda x: -x,
    "recip": lambda x: 1.0 * jets.reciprocal(1.5 + x * x),
}
_BINARY = {
    "add": lambda x, y: x + y, "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x * jets.reciprocal(1.5 + y * y),
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


# ---- unequal supports against widened dense formulas ------------------------


def _support_pair(rng, kind):
    """Two unequal sorted supports over variables 0..7, meeting as ``kind``."""
    variables = rng.permutation(8)
    k1, k2 = (int(k) for k in rng.integers(1, 4, size=2))
    if kind == "disjoint-before":       # every s variable precedes every t
        s, t = range(k1), range(k1, k1 + k2)
    elif kind == "disjoint-after":
        s, t = range(k2, k2 + k1), range(k2)
    elif kind == "interleaved":         # disjoint, in no block order
        s, t = (0, 2, 4)[:k1], (1, 3, 5)[:k2]
    elif kind == "nested":              # t inside s, either way round
        s, t = variables[:k1 + k2], variables[:k2]
        if rng.integers(2):
            s, t = t, s
    else:                               # overlapping: shared and own terms
        s, t = variables[:k1 + 1], variables[k1:k1 + k2 + 1]
    return tuple(sorted(int(v) for v in s)), tuple(sorted(int(v) for v in t))


def _widened_reference(a, b, op):
    """op on both operands zero-filled onto the union, by the dense rules."""
    union = tuple(sorted(set(a.support) | set(b.support)))
    m = len(union)

    def widen(j):
        pos = [union.index(v) for v in j.support]
        grad = np.zeros(j.grad.shape[:-1] + (m,))
        grad[..., pos] = j.grad
        if j.hess is None:
            return grad, None
        hess = np.zeros(j.hess.shape[:-2] + (m, m))
        hess[(...,) + np.ix_(pos, pos)] = j.hess
        return grad, hess
    (ag, ah), (bg, bh) = widen(a), widen(b)
    av, bv = a.value, b.value
    if op == "mul":
        grad = av[..., None] * bg + bv[..., None] * ag
        outer = ag[..., :, None] * bg[..., None, :]
        hess = None if ah is None else (
            av[..., None, None] * bh + bv[..., None, None] * ah
            + (outer + np.swapaxes(outer, -1, -2)))
        return union, av * bv, grad, hess
    sign = 1.0 if op == "add" else -1.0
    return (union, av + sign * bv, ag + sign * bg,
            None if ah is None else ah + sign * bh)


@given(kind=st.sampled_from(["disjoint-before", "disjoint-after",
                             "interleaved", "nested", "overlapping"]),
       op=st.sampled_from(["mul", "add", "sub"]),
       order=st.sampled_from([1, 2]),
       batch=st.sampled_from([(), (5,), (3, 4)]), broadcast=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None)
def test_unequal_support_products_and_sums_match_widened_formulas(
        kind, op, order, batch, broadcast, seed):
    rng = np.random.default_rng(seed)
    s, t = _support_pair(rng, kind)
    assert s != t
    # a symmetric Hessian per operand, as every jet carries one
    a = _operand(rng, "jet", batch, s, order)
    b = _operand(rng, "jet", () if broadcast else batch, t, order)
    if order == 2:
        a.hess = a.hess + np.swapaxes(a.hess, -1, -2)
        b.hess = b.hess + np.swapaxes(b.hess, -1, -2)
    out = {"mul": a * b, "add": a + b, "sub": a - b}[op]
    union, value, grad, hess = _widened_reference(a, b, op)
    assert type(out) is type(a)
    assert out.support == union
    assert out.grad.shape == batch + (len(union),)
    assert np.array_equal(out.value, value)
    assert np.array_equal(out.grad, grad)
    if order == 1:
        assert out.hess is None
        return
    assert out.hess.shape == batch + (len(union),) * 2
    assert np.array_equal(out.hess, hess)
    assert np.array_equal(out.hess, np.swapaxes(out.hess, -1, -2))


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


def _components(v):
    """The components of a vector on its whole support, sliced directly."""
    if not isinstance(v, Jet2):
        return [v[..., k] for k in range(v.shape[-1])]
    if v.hess is None:
        return [jets.Jet1(v.value[..., k], v.grad[..., k, :], v.support)
                for k in range(v.value.shape[-1])]
    return [Jet2(v.value[..., k], v.grad[..., k, :], v.hess[..., k, :, :],
                 v.support) for k in range(v.value.shape[-1])]


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-3.0, 3.0))


# up to 10 components: past numpy's 8-term pairwise block, so a map
# that regrouped its sums pairwise would show
@given(kinds=st.lists(st.sampled_from(["jet", "jet", "float", "array"]),
                      min_size=1, max_size=10),
       rows=st.integers(1, 5), order=st.sampled_from([1, 2]),
       batch=st.sampled_from([(), (5,), (3, 4)]),
       coeffs=st.lists(coefficient, min_size=50, max_size=50),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=120, deadline=None)
def test_linear_map_equals_sequential_sum_byte_for_byte(
        kinds, rows, order, batch, coeffs, seed):
    # a vector stacked from jets on mixed supports, floats and arrays;
    # each output must be the sequential sum of scalar jet products over
    # the vector's own components, signed zeros included
    rng = np.random.default_rng(seed)
    comps = []
    for kind in kinds:
        support = tuple(sorted(rng.choice(5, size=rng.integers(1, 4),
                                          replace=False).tolist()))
        comps.append(_operand(rng, kind, batch, support, order))
    vector = jets.concat([jets.lift(c) for c in comps])
    mat = np.array(coeffs[:rows * len(comps)]).reshape(rows, len(comps))
    got = _components(jets.linear_map(mat, vector))
    parts = _components(vector)
    ref = [sum(mat[a, k] * parts[k] for k in range(len(comps)))
           for a in range(rows)]
    assert len(got) == rows
    for out, want in zip(got, ref):
        if not isinstance(want, Jet2):
            assert not isinstance(out, Jet2)
            assert _same_bytes(out, want)
            continue
        assert type(out) is type(want)
        assert out.support == want.support
        assert _same_bytes(out.value, want.value)
        assert _same_bytes(out.grad, want.grad)
        if want.hess is None:
            assert out.hess is None
        else:
            assert _same_bytes(out.hess, want.hess)


def _slot_bytes(x):
    """The type and bytes of an array, or of a jet's support and slots."""
    if not isinstance(x, Jet2):
        return [type(x), x.shape, x.tobytes()]
    return [type(x), x.support] + [
        None if a is None else (a.shape, a.tobytes())
        for a in (x.value, x.grad, x.hess)]


@pytest.mark.parametrize("batch", [(), (1,), (3, 4)])
def test_linear_maps_equal_one_map_per_vector(batch):
    # several vectors in one pass: each keeps the bits of its own map
    rng = np.random.default_rng(11)
    mat = _signed_entries(rng, (3, 4))
    second = Jet2(*(_signed_entries(rng, batch + shape)
                    for shape in ((4,), (4, 2), (4, 2, 2))), (1, 3))
    first = jets.Jet1(_signed_entries(rng, batch + (4,)),
                      _signed_entries(rng, batch + (4, 3)), (0, 2, 5))
    plain = _signed_entries(rng, batch + (4,))
    vectors = (second, plain, first, second)
    mapped = jets.linear_maps(mat, vectors)
    assert len(mapped) == 4
    for v, got in zip(vectors, mapped):
        assert type(got) is type(v)           # a Jet1 stays a Jet1
        assert _slot_bytes(got) == _slot_bytes(jets.linear_map(mat, v))
        if isinstance(got, Jet2):
            slots = [got.value, got.grad] + [got.hess] * (got.hess is not None)
            assert all(a.flags.c_contiguous for a in slots)


def test_linear_map_checks_its_matrix():
    v = _vector_jet([1.0, 2.0, 3.0])
    for mat in (np.eye(2), np.ones((3, 4)), np.ones(3), np.ones((1, 3, 3)),
                np.ones((3, 0))):
        for vector in (v, v.value):
            with pytest.raises(DimensionMismatch, match="linear map"):
                jets.linear_map(mat, vector)
    with pytest.raises(DimensionMismatch, match="linear map"):
        jets.linear_map(np.ones((1, 1)), np.float64(2.0))
    with pytest.raises(DimensionMismatch, match="linear map"):
        jets.linear_maps(np.eye(3), (v, np.ones(2)))
    assert jets.linear_map(np.ones((2, 3)), v.value).tolist() == [6.0, 6.0]


# ---- concat against widening onto the union ---------------------------------


def _part_supports(rng, kind, count):
    """``count`` supports within 0..7 that are disjoint, nested or
    interleaved, or adjacent runs as the halves of a Clifford block."""
    if kind == "adjacent":
        cuts = np.sort(rng.choice(np.arange(1, 8), count, replace=False))
        starts = np.concatenate([[0], cuts[:-1]])
        return [tuple(range(lo, hi)) for lo, hi in zip(starts, cuts)]
    if kind == "disjoint":
        pool = rng.permutation(8)[:rng.integers(count, 9)]
        cuts = np.sort(rng.choice(np.arange(1, len(pool)), count - 1,
                                  replace=False))
        return [tuple(sorted(part.tolist())) for part in np.split(pool, cuts)]
    if kind == "nested":
        supports = [tuple(sorted(rng.choice(8, rng.integers(1, 9),
                                            replace=False).tolist()))]
        for _ in range(count - 1):
            last = supports[-1]
            supports.append(tuple(sorted(rng.choice(
                last, rng.integers(1, len(last) + 1), replace=False)
                .tolist())))
        return [supports[k] for k in rng.permutation(count)]
    shift = int(rng.integers(0, 2))        # interleaved
    return [tuple(range((k + shift) % count, 8, count)) for k in range(count)]


def _widened_concat(parts, batch):
    """The reference join: every part widened onto the union with +0.0."""
    jets_ = [x for x in parts if isinstance(x, Jet2)]
    union = sorted(set().union(*(x.support for x in jets_)))
    m, second = len(union), jets_[0].hess is not None
    values, grads, hesses = [], [], []
    for x in parts:
        value = x.value if isinstance(x, Jet2) else x
        width = value.shape[-1]
        values.append(np.broadcast_to(value, batch + (width,)))
        grad = np.zeros(batch + (width, m))
        hess = np.zeros(batch + (width, m, m))
        if isinstance(x, Jet2):
            for i, a in enumerate(x.support):
                grad[..., union.index(a)] = x.grad[..., i]
                for j, b in enumerate(x.support):
                    if second:
                        hess[..., union.index(a), union.index(b)] = \
                            x.hess[..., i, j]
        grads.append(grad)
        hesses.append(hess)
    value = np.concatenate(values, -1)
    grad = np.concatenate(grads, -2)
    if not second:
        return jets.Jet1(value, grad, tuple(union))
    return Jet2(value, grad, np.concatenate(hesses, -3), tuple(union))


@given(kind=st.sampled_from(["adjacent", "disjoint", "nested", "interleaved"]),
       kinds=st.lists(st.sampled_from(["jet", "jet", "float", "array"]),
                      min_size=1, max_size=5).filter(lambda k: "jet" in k),
       order=st.sampled_from([1, 2]),
       batch=st.sampled_from([(), (1,), (3, 4)]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=200, deadline=None)
def test_concat_equals_widening_each_part_onto_the_union(
        kind, kinds, order, batch, seed):
    rng = np.random.default_rng(seed)
    supports = iter(_part_supports(rng, kind, kinds.count("jet")))
    parts = []
    for part in kinds:
        width = int(rng.integers(1, 4))
        if part == "float":
            parts.append(jets.lift(float(rng.choice([0.0, -0.0, 1.5]))))
        elif part == "array":
            parts.append(_signed_entries(rng, batch + (width,)))
        else:
            support = next(supports)
            s = len(support)
            slots = [_signed_entries(rng, batch + (width,) + (s,) * k)
                     for k in range(order + 1)]
            parts.append(Jet2(*slots, support) if order == 2
                         else jets.Jet1(*slots, support))
    got = jets.concat(parts)
    assert _slot_bytes(got) == _slot_bytes(_widened_concat(parts, batch))


# ---- component-axis vectors and parameter columns ---------------------------


def _vector_jet(values, support=(0, 1)):
    """A vector whose slots all repeat ``values`` on the component axis."""
    values = np.asarray(values, dtype=float)
    m = len(support)
    grad = values[:, None] * np.ones(m)
    hess = values[:, None, None] * np.ones((m, m))
    return Jet2(values, grad, hess, support)


@pytest.mark.parametrize("order", [1, 2])
def test_component_sums_run_left_to_right(order):
    # (1e16 + 1) + 1 rounds to 1e16 twice; any other grouping gives 1e16 + 2
    values = [1e16, 1.0, 1.0]
    v = _vector_jet(values)
    if order == 1:
        v = jets.Jet1(v.value, v.grad, v.support)
    total = jets.component_sum(v)
    assert total.value.tolist() == [1e16]
    assert np.all(total.grad == 1e16)
    if order == 2:
        assert np.all(total.hess == 1e16)
    assert jets.component_sum(np.array(values)).tolist() == [1e16]
    ones = np.ones((1, 3))
    mapped = jets.linear_map(ones, v)
    assert mapped.value.tolist() == [1e16]
    assert np.all(mapped.grad == 1e16)
    assert jets.linear_map(ones, np.array(values)).tolist() == [1e16]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_ten_term_linear_map_runs_left_to_right(order):
    # nine ones after 1e16 each round away; a pairwise sum of the ten
    # terms (numpy's reduction past 8 terms) adds them up to 1e16 + 8
    v = _vector_jet([1e16] + [1.0] * 9)
    if order < 2:
        v = v.value if order == 0 else jets.Jet1(v.value, v.grad, v.support)
    mapped = jets.linear_map(np.ones((1, 10)), v)
    slots = [mapped] if order == 0 else [mapped.value, mapped.grad]
    if order == 2:
        slots.append(mapped.hess)
    for slot in slots:
        assert np.all(slot == 1e16)


def test_lift_and_take_keep_the_component_axis():
    v = _vector_jet([1.0, 2.0, 3.0])
    parts = _components(v)
    assert [p.value.shape for p in parts] == [(), (), ()]
    assert [float(p.value) for p in parts] == [1.0, 2.0, 3.0]
    lifted = jets.lift(parts[1])
    assert lifted.value.shape == (1,) and lifted.grad.shape == (1, 2)
    assert lifted.hess.shape == (1, 2, 2)
    middle = jets.take(v, 1, 3)
    assert middle.value.tolist() == [2.0, 3.0] and middle.support == (0, 1)
    assert jets.lift(np.array([4.0, 5.0])).shape == (2, 1)


def test_concat_lays_parts_onto_the_union_with_zero_fill():
    x = Jet2(np.array([1.0, 2.0]), np.array([[3.0], [4.0]]),
             np.array([[[5.0]], [[6.0]]]), (2,))
    y = jets.Jet2(np.array([7.0]), np.array([[8.0, 9.0]]),
                  np.array([[[1.0, 2.0], [2.0, 3.0]]]), (0, 4))
    out = jets.concat([x, np.array([0.5]), y])
    assert out.support == (0, 2, 4)
    assert out.value.tolist() == [1.0, 2.0, 0.5, 7.0]
    assert out.grad.tolist() == [[0.0, 3.0, 0.0], [0.0, 4.0, 0.0],
                                 [0.0, 0.0, 0.0], [8.0, 0.0, 9.0]]
    assert out.hess[0].tolist() == [[0.0, 0.0, 0.0], [0.0, 5.0, 0.0],
                                    [0.0, 0.0, 0.0]]
    assert out.hess[3].tolist() == [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0],
                                    [2.0, 0.0, 3.0]]
    assert not np.any(np.signbit(out.grad))
    assert jets.concat([np.array([1.0]), np.array([2.0, 3.0])]).tolist() \
        == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("batch", [(), (1,), (3, 5), (4,)])
def test_columns_seed_ranges_as_one_jet(batch):
    rng = np.random.default_rng(3)
    p = rng.standard_normal(batch + (4,))
    cols = jets.Columns(p, 2)
    assert len(cols) == 4
    one = cols[2]
    assert one is cols[2] and one.support == (2,)
    assert np.array_equal(one.value, p[..., 2])
    assert one.grad.shape == batch + (1,) and np.all(one.grad == 1.0)
    part = cols[1:4]
    assert len(part) == 3 and part[0] is cols[1]
    u0, u1, u2 = part
    assert u2 is cols[3]
    seed = part.joint()
    assert type(seed) is Jet2 and seed.support == (1, 2, 3)
    assert np.array_equal(seed.value, p[..., 1:4])
    assert np.array_equal(seed.grad, np.broadcast_to(np.eye(3),
                                                     batch + (3, 3)))
    assert seed.hess.shape == batch + (3, 3, 3) and not np.any(seed.hess)
    first = jets.Columns(p, 1)[0:2].joint()
    assert type(first) is jets.Jet1 and first.hess is None
    plain = jets.Columns(p, 0)
    assert np.array_equal(plain[1:3].joint(), p[..., 1:3])
    assert np.array_equal(plain[-1], p[..., 3])
    with pytest.raises(DimensionMismatch):
        jets.Columns(np.float64(1.0), 2)


class _TaggedColumns(jets.Columns):
    """Columns that mark every seed they make, to trace where one came from."""

    __slots__ = ()

    def _range(self, lo, hi, scalar):
        return ("tagged", lo, hi, scalar)


def test_columns_slices_keep_their_type_and_refuse_steps():
    p = np.arange(10.0).reshape(2, 5)
    cols = _TaggedColumns(p, 2)
    part = cols[1:4]
    assert type(part) is _TaggedColumns and part.batch == (2,)
    assert part.joint() == ("tagged", 1, 4, False)
    assert part[1:][0] == ("tagged", 2, 3, True)
    assert type(part[1:][:1]) is _TaggedColumns
    assert cols[-1] == ("tagged", 4, 5, True)
    for columns in (cols, jets.Columns(p, 0)):
        with pytest.raises(DimensionMismatch, match="step 2"):
            columns[::2]
        with pytest.raises(DimensionMismatch, match="step -1"):
            columns[3:0:-1]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("batch", [(), (1,), (3, 5)])
def test_column_stacks_split_onto_their_members(batch, order):
    rng = np.random.default_rng(8)
    p = rng.standard_normal(batch + (7,))
    cols = jets.Columns(p, order)
    ranges = (cols[4:6], cols[0:2], cols[1:3])
    stack = jets.Columns.stack(ranges)
    assert type(stack) is jets.Columns and len(stack) == 2
    assert stack.batch == (3,) + batch and stack.order == order
    seed = stack.joint()
    # a formula on the stack, split: each member is the formula on its
    # own range, its support relabelled onto the range's columns
    out = stack.split(jets.sin(seed) * seed)
    assert len(out) == 3
    for member, x in zip(ranges, out):
        want = jets.sin(member.joint()) * member.joint()
        assert type(x) is type(want)
        if order == 0:
            assert x.tobytes() == want.tobytes()
            continue
        assert x.support == want.support == tuple(range(member._lo,
                                                        member._hi))
        for a, b in ((x.value, want.value), (x.grad, want.grad),
                     (x.hess, want.hess)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    if order:
        # a range of a stack keeps its members: column 1 of the third
        # member is column 2 of the batch
        assert stack.split(stack[1])[2].support == (2,)


def test_column_stacks_keep_their_type_and_check_their_ranges():
    p = np.arange(12.0).reshape(2, 6)
    stack = jets.Columns.stack((_TaggedColumns(p, 2)[0:2],
                                _TaggedColumns(p, 2)[3:5]))
    assert type(stack) is _TaggedColumns
    assert stack.joint() == ("tagged", 0, 2, False)
    assert np.array_equal(stack.p, [p[:, 0:2], p[:, 3:5]])
    cols = jets.Columns(p, 2)
    for ranges in ((cols[0:2], cols[2:5]),
                   (cols[0:2], jets.Columns(p, 1)[2:4]),
                   (cols[0:2], jets.Columns(p[0], 2)[2:4])):
        with pytest.raises(DimensionMismatch, match="one width"):
            jets.Columns.stack(ranges)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("shape", [(), (1,), (4,), (2, 3)])
def test_place_lays_out_vectors_only(order, shape):
    # numbers, scalar arrays, scalar jets and vectors: every placed part is
    # a vector on a row slice, and each scalar is its lift, byte for byte
    p = np.linspace(0.1, 0.9, int(np.prod(shape)) * 3).reshape(shape + (3,))
    cols = jets.Columns(p, order)
    u, v = cols[0], cols[1]
    # (part, whether it is a scalar)
    cases = [(2.5, True), (u * v, True), (p[..., 2], True),
             (cols[1:3].joint(), False), (jets.sin(u), True), (0.0, True),
             (jets.lift(v), False)]
    placed, count = jets.place([part for part, _ in cases], cols.batch)
    assert count == 8
    row = 0
    for (part, scalar), (got, rows) in zip(cases, placed):
        want = jets.lift(part) if scalar else part
        m = np.shape(want.value if isinstance(want, Jet2) else want)[-1]
        assert rows == slice(row, row + m)
        row += m
        assert _slot_bytes(got) == _slot_bytes(want)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("shape", [(), (5,)])
def test_sincos_equals_sin_and_cos_byte_for_byte(order, shape):
    # one sine and one cosine of the value serve both results, which keep
    # the bits of sin and cos, on scalars and component-axis vectors
    p = np.linspace(-2.0, 3.0, int(np.prod(shape)) * 3).reshape(shape + (3,))
    cols = jets.Columns(p, order)
    u, v = cols[0], cols[1:3].joint()
    for x in (u, 1.7 * u * cols[2], v, v * v + 0.3, p[..., 0], 0.4):
        sin, cos = jets.sincos(x)
        assert _slot_bytes(sin) == _slot_bytes(jets.sin(x))
        assert _slot_bytes(cos) == _slot_bytes(jets.cos(x))
