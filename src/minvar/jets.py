"""Second-order forward-mode differentiation (jets) and a finite-difference oracle.

A ``Jet2`` carries a scalar field together with its gradient and Hessian with
respect to the seed variables it depends on, its ``support``: a sorted tuple
of variable indices.  The derivative slots are stored on the support only, and
all three slots share a leading batch shape::

    value : (...,)        grad : (..., m)        hess : (..., m, m)

with m = len(support), so one jet evaluation differentiates a whole batch of
points at once.  The algebra implemented here is exact (to floating-point
rounding):

    (f + g)'' = f'' + g''
    (f g)''   = f'' g + 2 sym(f' ⊗ g') + f g''
    (h ∘ f)'' = h''(f) f' ⊗ f' + h'(f) f''

Hessians are symmetrized on write, so the symmetry invariant holds exactly.

Supports follow the forward-mode sparsity propagation of Griewank & Walther
(*Evaluating Derivatives*, 2nd ed., ch. 7): unary maps and scalar operations
keep their operand's support, and a binary operation on equal supports runs
the dense formulas above.  On unequal supports each operand's terms are
computed on its own support and written straight into the union-sized
result, with layouts memoized per support pair:

* a sum or difference scatters each operand onto the union; a position
  neither operand covers holds −0.0;
* a product on disjoint supports S, T is the block matrix
  [[b H_a, g_a ⊗ g_b], [g_b ⊗ g_a, a H_b]] with gradient [b g_a, a g_b];
  when every variable of one support precedes every variable of the
  other, as in the helicoid layout, the blocks are plain slices;
* a product on nested or overlapping supports (and ``atan2``) widens the
  operands onto the union with −0.0 and runs the dense formulas.

``variables`` seeds every jet on the full support, so ``jet_eval`` and
``fd_jet`` return dense (..., n) and (..., n, n) derivatives;
``Immersion.eval`` seeds one-variable jets and scatters each output into
dense arrays once.  A derivative entry outside a support is a structural
zero that the dense formulas would have computed as ±0.0 from zero
operands, so sparse and dense seeding agree exactly up to the sign of zero
entries.

A value+gradient jet, ``Jet1``, is a ``Jet2`` with ``hess`` None.  Every
operation propagates that: it runs the same gradient formulas and skips the
Hessian, so a first-order evaluation gives bit-identical values and
gradients for the cost of the first-order terms alone.  Callers that need
only a Jacobian, such as the metric-floor mask ``Immersion.excluded``, seed
``Jet1`` variables.

``linear_map(mat, comps)`` applies a constant matrix to a list of jets and
plain values, as chart rotations and block unitaries do: one numpy product
and sum per jet slot and matrix column instead of two jet operations per
entry, bit-identical to the sequential sum of jet products, signed zeros
included.

The primitives ``sin``/``cos``/``exp``/``log``/``sqrt``/``atan``/``atan2``
accept jets or plain numbers/arrays and dispatch accordingly; a map written
once in these primitives can therefore be evaluated three ways: as fast plain
numpy (positions only), as jets (exact derivatives), or through ``fd_jet``
(central differences with Richardson extrapolation, the independent oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, SpecError

__all__ = [
    "Jet2",
    "Jet1",
    "StepPolicy",
    "variables",
    "constant_like",
    "linear_map",
    "jet_eval",
    "fd_jet",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "atan",
    "atan2",
]

_Scalar = (int, float, np.integer, np.floating, np.ndarray)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


class _Union(NamedTuple):
    """Where two unequal supports s and t sit in their sorted union."""

    support: tuple      # the union
    disjoint: bool
    grad: tuple         # gradient indices of s and of t
    hess: tuple         # Hessian block indices s×s, t×t, s×t and t×s


@lru_cache(maxsize=4096)
def _union_plan(s: tuple, t: tuple) -> _Union:
    """The layout of s and t in their union, memoized per support pair.

    An operand's variables are a slice of the union when both supports
    are contiguous runs of it, as in the helicoid layout (chart
    parameters, then Θ, then the radii), else intp positions.
    """
    union = tuple(sorted(set(s) | set(t)))
    where = {v: k for k, v in enumerate(union)}
    ps, pt = ([where[v] for v in support] for support in (s, t))
    if all(p[-1] - p[0] + 1 == len(p) for p in (ps, pt)):
        ps, pt = (slice(p[0], p[-1] + 1) for p in (ps, pt))
        rs, rt = ps, pt
    else:
        ps, pt = (np.array(p, dtype=np.intp) for p in (ps, pt))
        rs, rt = ps[:, None], pt[:, None]
    return _Union(support=union, disjoint=len(union) == len(s) + len(t),
                  grad=((..., ps), (..., pt)),
                  hess=((..., rs, ps), (..., rt, pt),
                        (..., rs, pt), (..., rt, ps)))


def _batch(*shapes) -> tuple:
    """The broadcast of batch shapes; the common case is one shape."""
    if all(shape == shapes[0] for shape in shapes):
        return shapes[0]
    return np.broadcast_shapes(*shapes)


def _scatter(a, b, index_a, index_b, shape, op) -> np.ndarray:
    """op(a, b) of two union-indexed slots, each on its own positions.

    Every position starts as −0.0, the additive identity (x + −0.0 = x
    and −0.0 − x = −x exactly), so a position only a covers holds a, one
    only b covers holds op(−0.0, b), shared ones op(a, b), and positions
    neither covers −0.0: the bytes of widening both operands with −0.0
    and applying op.
    """
    out = np.full(shape, -0.0)
    out[index_a] = a
    out[index_b] = op(out[index_b], b)
    return out


def _widen(grad: np.ndarray, hess, m: int, grad_index, hess_index):
    """grad and hess (or None) filled with −0.0 onto an m-variable union."""
    batch = grad.shape[:-1]
    wide = np.full(batch + (m,), -0.0)
    wide[grad_index] = grad
    if hess is None:
        return wide, None
    wide_h = np.full(batch + (m, m), -0.0)
    wide_h[hess_index] = hess
    return wide, wide_h


def _aligned(a: "Jet2", b: "Jet2", plan: _Union | None = None):
    """(support, a.grad, a.hess, b.grad, b.hess) on a common support."""
    if a.support is b.support or a.support == b.support:
        return a.support, a.grad, a.hess, b.grad, b.hess
    if plan is None:
        plan = _union_plan(a.support, b.support)
    m = len(plan.support)
    a_wide, b_wide = ((j.grad, j.hess) if j.support == plan.support
                      else _widen(j.grad, j.hess, m, plan.grad[k],
                                  plan.hess[k])
                      for k, j in enumerate((a, b)))
    return (plan.support,) + a_wide + b_wide


def _sum(a: "Jet2", b: "Jet2", op) -> "Jet2":
    """a + b or a − b (op is np.add or np.subtract) of two jets.

    Unequal supports scatter each operand onto the union (``_scatter``).
    """
    value = op(a.value, b.value)
    if a.support is b.support or a.support == b.support:
        if a.hess is None:
            return Jet1(value, op(a.grad, b.grad), a.support)
        return Jet2(value, op(a.grad, b.grad), op(a.hess, b.hess), a.support)
    plan = _union_plan(a.support, b.support)
    m = len(plan.support)
    batch = _batch(a.grad.shape[:-1], b.grad.shape[:-1])
    grad = _scatter(a.grad, b.grad, *plan.grad, batch + (m,), op)
    if a.hess is None:
        return Jet1(value, grad, plan.support)
    hess = _scatter(a.hess, b.hess, *plan.hess[:2], batch + (m, m), op)
    return Jet2(value, grad, hess, plan.support)


def _disjoint_product(a: "Jet2", b: "Jet2", plan: _Union) -> "Jet2":
    """a·b on disjoint supports, each term written on its own block.

    The gradient is [b g_a, a g_b] and the Hessian the block matrix
    [[b H_a, g_a ⊗ g_b], [g_b ⊗ g_a, a H_b]]: the dense Leibniz rule's
    nonzero entries, without its zero operands.
    """
    av, bv = a.value, b.value
    m = len(plan.support)
    batch = _batch(av.shape, bv.shape, a.grad.shape[:-1], b.grad.shape[:-1])
    grad = np.empty(batch + (m,))
    grad[plan.grad[0]] = bv[..., None] * a.grad
    grad[plan.grad[1]] = av[..., None] * b.grad
    if a.hess is None:
        return Jet1(av * bv, grad, plan.support)
    ss, tt, st, ts = plan.hess
    hess = np.empty(batch + (m, m))
    hess[ss] = bv[..., None, None] * a.hess
    hess[tt] = av[..., None, None] * b.hess
    outer = a.grad[..., :, None] * b.grad[..., None, :]
    hess[st] = outer
    hess[ts] = np.swapaxes(outer, -1, -2)
    return Jet2(av * bv, grad, hess, plan.support)


class Jet2:
    """Value, gradient and Hessian of a scalar field over a point batch.

    ``grad`` and ``hess`` are taken with respect to the variables listed in
    ``support`` (sorted indices); the default support is every variable,
    range(grad.shape[-1]).  ``hess`` is None on a value+gradient jet
    (``Jet1``).
    """

    __slots__ = ("value", "grad", "hess", "support")

    def __init__(self, value, grad, hess, support: tuple | None = None):
        if hess is None:
            raise DimensionMismatch("Jet2 needs a Hessian; build a "
                                    "value+gradient jet with Jet1")
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.asarray(grad, dtype=np.float64)
        self.hess = np.asarray(hess, dtype=np.float64)
        self.support = tuple(range(self.grad.shape[-1])) \
            if support is None else support

    @property
    def nvars(self) -> int:
        """Number of variables stored, len(support)."""
        return self.grad.shape[-1]

    def __repr__(self) -> str:  # debugging aid only
        return f"{type(self).__name__}(value={self.value!r})"

    # ---- linear structure -------------------------------------------------

    def __neg__(self) -> "Jet2":
        if self.hess is None:
            return Jet1(-self.value, -self.grad, self.support)
        return Jet2(-self.value, -self.grad, -self.hess, self.support)

    def __add__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return _sum(self, other, np.add)
        if isinstance(other, _Scalar):
            if self.hess is None:
                return Jet1(self.value + other, self.grad, self.support)
            return Jet2(self.value + other, self.grad, self.hess, self.support)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return _sum(self, other, np.subtract)
        if isinstance(other, _Scalar):
            if self.hess is None:
                return Jet1(self.value - other, self.grad, self.support)
            return Jet2(self.value - other, self.grad, self.hess, self.support)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _Scalar):
            if self.hess is None:
                return Jet1(other - self.value, -self.grad, self.support)
            return Jet2(other - self.value, -self.grad, -self.hess,
                        self.support)
        return NotImplemented

    # ---- Leibniz rule -----------------------------------------------------

    def __mul__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            plan = None
            if self.support is not other.support \
                    and self.support != other.support:
                plan = _union_plan(self.support, other.support)
                if plan.disjoint:
                    return _disjoint_product(self, other, plan)
            # equal, nested or overlapping supports: the dense rule
            sup, ag, ah, bg, bh = _aligned(self, other, plan)
            av, bv = self.value, other.value
            grad = av[..., None] * bg + bv[..., None] * ag
            if ah is None:
                return Jet1(av * bv, grad, sup)
            outer = ag[..., :, None] * bg[..., None, :]
            # symmetrize the rank-one part first: addition is commutative but
            # not associative, so this grouping keeps hess exactly symmetric
            hess = (av[..., None, None] * bh
                    + bv[..., None, None] * ah
                    + (outer + np.swapaxes(outer, -1, -2)))
            return Jet2(av * bv, grad, hess, sup)
        if isinstance(other, _Scalar):
            c = np.asarray(other, dtype=np.float64)
            if self.hess is None:
                return Jet1(self.value * c, self.grad * c[..., None],
                            self.support)
            return Jet2(self.value * c, self.grad * c[..., None],
                        self.hess * c[..., None, None], self.support)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return self * _reciprocal(other)
        if isinstance(other, _Scalar):
            return self * (1.0 / np.asarray(other, dtype=np.float64))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _Scalar):
            return _reciprocal(self) * other
        return NotImplemented

    def __pow__(self, k) -> "Jet2":
        if not isinstance(k, (int, float, np.integer, np.floating)):
            return NotImplemented
        kf = float(k)
        if kf == 0.0:
            return constant_like(np.ones_like(self.value), self)
        if kf == 1.0:
            return self
        v = self.value
        if kf != int(kf) and np.any(v <= 0.0):
            raise DomainError("non-integer power of a non-positive value")
        if kf < 0.0 and np.any(v == 0.0):
            raise DomainError("negative power of zero")
        return _chain(self, v ** kf, kf * v ** (kf - 1.0),
                      None if self.hess is None
                      else kf * (kf - 1.0) * v ** (kf - 2.0))


class Jet1(Jet2):
    """A value+gradient jet: a ``Jet2`` whose ``hess`` is None.

    Every operation on it runs the gradient formulas of ``Jet2`` unchanged
    and skips the Hessian, so its values and gradients are bit-identical to
    those of the full jet.  Results are ``Jet1`` again, so first-order
    seeds keep a whole evaluation first order; the operands of one binary
    operation must share one order.  Code that reads Hessians can tell the
    orders apart by type (perfbench's Hessian byte count takes only
    ``type(j) is Jet2``).
    """

    __slots__ = ()

    def __init__(self, value, grad, support: tuple | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.asarray(grad, dtype=np.float64)
        self.hess = None
        self.support = tuple(range(self.grad.shape[-1])) \
            if support is None else support


def _chain(x: Jet2, f0: np.ndarray, f1: np.ndarray, f2) -> Jet2:
    """Lift h(x) through x's jet given h, h', h'' at x.value.

    A value+gradient operand reads no h'', so the primitives pass None
    for it instead of computing it.
    """
    grad = f1[..., None] * x.grad
    if x.hess is None:
        return Jet1(f0, grad, x.support)
    outer = x.grad[..., :, None] * x.grad[..., None, :]
    hess = f1[..., None, None] * x.hess + f2[..., None, None] * outer
    return Jet2(f0, grad, hess, x.support)


def _reciprocal(x: Jet2) -> Jet2:
    v = x.value
    if np.any(v == 0.0):
        raise DomainError("division by zero")
    inv = 1.0 / v
    return _chain(x, inv, -inv * inv,
                  None if x.hess is None else 2.0 * inv * inv * inv)


def constant_like(c, like: Jet2) -> Jet2:
    """A jet with value c and vanishing derivatives, shaped like ``like``.

    It keeps ``like``'s support and order, so it aligns with ``like``
    without widening.
    """
    value = np.broadcast_to(np.asarray(c, dtype=np.float64),
                            np.broadcast_shapes(np.shape(c), like.value.shape))
    zero = np.zeros((), dtype=np.float64)
    grad = np.broadcast_to(zero, value.shape + (like.nvars,))
    if like.hess is None:
        return Jet1(value, grad, like.support)
    hess = np.broadcast_to(zero, value.shape + (like.nvars, like.nvars))
    return Jet2(value, grad, hess, like.support)


def linear_map(mat, comps) -> list:
    """Row sums Σ_k mat[a, k] comps[k], one output per row a of ``mat``.

    ``comps`` mixes jets of one order with plain numbers or arrays.  Each
    column scales its operand for every row in one numpy product, which is
    filled with −0.0 onto the union support and summed in column order.
    A jet sum scatters each operand onto the union and leaves −0.0 where
    neither covers, and −0.0 is the additive identity, so these are the
    elementwise products and sums of ``sum(mat[a, k] * comps[k] for k
    ...)`` and the outputs are bit-identical to it: a value starts from
    0 + its first term and a derivative from the first jet's term.
    """
    mat = np.asarray(mat, dtype=np.float64)
    rows = mat.shape[0]
    values = [c.value if isinstance(c, Jet2)
              else np.asarray(c, dtype=np.float64) for c in comps]
    col_shape = (rows,) + (1,) * max(v.ndim for v in values)
    value = 0
    for k, v in enumerate(values):
        value = value + mat[:, k].reshape(col_shape) * v
    jet_terms = [(k, c) for k, c in enumerate(comps) if isinstance(c, Jet2)]
    if not jet_terms:
        return list(value)
    supports = {c.support for _, c in jet_terms}
    support = supports.pop() if len(supports) == 1 \
        else tuple(sorted(set().union(*supports)))
    m = len(support)
    grad = hess = None
    for k, c in jet_terms:
        col = mat[:, k].reshape((rows,) + (1,) * c.grad.ndim)
        g = col * c.grad
        h = None if c.hess is None else col[..., None] * c.hess
        if c.support != support:
            plan = _union_plan(c.support, support)
            g, h = _widen(g, h, m, plan.grad[0], plan.hess[0])
        if grad is None:
            grad, hess = g, h
        else:
            grad = grad + g
            hess = None if h is None else hess + h
    if hess is None:
        return [Jet1(value[a], grad[a], support) for a in range(rows)]
    return [Jet2(value[a], grad[a], hess[a], support) for a in range(rows)]


# ---- primitives (dual dispatch: Jet2 or plain arrays) ----------------------


def sin(x):
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        return _chain(x, s, c, None if x.hess is None else -s)
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        return _chain(x, c, -s, None if x.hess is None else -c)
    return np.cos(x)


def exp(x):
    if isinstance(x, Jet2):
        e = np.exp(x.value)
        return _chain(x, e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Jet2):
        v = x.value
        if np.any(v <= 0.0):
            raise DomainError("log of a non-positive value")
        return _chain(x, np.log(v), 1.0 / v,
                      None if x.hess is None else -1.0 / (v * v))
    if np.any(np.asarray(x) <= 0.0):
        raise DomainError("log of a non-positive value")
    return np.log(x)


def sqrt(x):
    if isinstance(x, Jet2):
        v = x.value
        if np.any(v <= 0.0):
            raise DomainError("sqrt requires values bounded away from zero")
        r = np.sqrt(v)
        return _chain(x, r, 0.5 / r,
                      None if x.hess is None else -0.25 / (r * v))
    if np.any(np.asarray(x) < 0.0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(x)


def atan(x):
    if isinstance(x, Jet2):
        v = x.value
        d = 1.0 / (1.0 + v * v)
        return _chain(x, np.arctan(v), d,
                      None if x.hess is None else -2.0 * v * d * d)
    return np.arctan(x)


def atan2(y, x):
    """Two-argument arctangent; branch-free away from the origin.

    The gradient and Hessian are assembled from the closed-form partials of
    θ = atan2(y, x) (first order: ∂θ = (x ∂y − y ∂x)/(x²+y²)) and the Hessian
    is symmetrized on write.
    """
    if not isinstance(y, Jet2) and not isinstance(x, Jet2):
        return np.arctan2(y, x)
    ref = y if isinstance(y, Jet2) else x
    if not isinstance(y, Jet2):
        y = constant_like(y, ref)
    if not isinstance(x, Jet2):
        x = constant_like(x, ref)
    sup, xg, xh, yg, yh = _aligned(x, y)
    xv, yv = x.value, y.value
    s = xv * xv + yv * yv
    if np.any(s == 0.0):
        raise DomainError("atan2 at the origin")
    num = xv[..., None] * yg - yv[..., None] * xg
    grad = num / s[..., None]
    if xh is None:
        return Jet1(np.arctan2(yv, xv), grad, sup)
    ds = 2.0 * (xv[..., None] * xg + yv[..., None] * yg)
    cross = xg[..., :, None] * yg[..., None, :]
    raw = (cross - np.swapaxes(cross, -1, -2)
           + xv[..., None, None] * yh - yv[..., None, None] * xh) \
        / s[..., None, None] \
        - num[..., :, None] * ds[..., None, :] / (s * s)[..., None, None]
    return Jet2(np.arctan2(yv, xv), grad, _sym(raw), sup)


# ---- seeding and evaluation -------------------------------------------------


def variables(p) -> list[Jet2]:
    """Seed jets for the coordinates of p, shape (..., n) → n unit-seeded jets.

    Every seed carries the full support, so derived jets are dense.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 0:
        raise DomainError("variables() needs a trailing coordinate axis")
    n = p.shape[-1]
    batch = p.shape[:-1]
    eye = np.eye(n)
    zero = np.zeros((), dtype=np.float64)
    full = tuple(range(n))
    out = []
    for i in range(n):
        grad = np.broadcast_to(eye[i], batch + (n,))
        hess = np.broadcast_to(zero, batch + (n, n))
        out.append(Jet2(p[..., i], grad, hess, full))
    return out


def jet_eval(f, p) -> Jet2:
    """Evaluate f(u₁,…,uₙ) with jet arithmetic at p, returning value/grad/hess."""
    seeds = variables(p)
    out = f(*seeds)
    if isinstance(out, Jet2):
        return out
    return constant_like(out, seeds[0])


@dataclass(frozen=True)
class StepPolicy:
    """Central-difference controls: step h·max(1,|xᵢ|), Richardson depth ≥ 1."""

    base_step: float = 1e-4
    richardson_levels: int = 2

    def __post_init__(self):
        if not (self.base_step > 0.0):
            raise SpecError("base_step must be positive")
        if int(self.richardson_levels) != self.richardson_levels \
                or self.richardson_levels < 1:
            raise SpecError("richardson_levels must be an integer >= 1")


def _fd_once(ev, p: np.ndarray, h: np.ndarray, val: np.ndarray):
    """One central-difference pass at steps h: gradient and Hessian estimates."""
    n = p.shape[-1]
    batch = p.shape[:-1]
    grad = np.empty(batch + (n,))
    hess = np.empty(batch + (n, n))
    shifted = {}
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        step = h[..., i, None] * ei
        fp, fm = ev(p + step), ev(p - step)
        shifted[i] = (fp, fm)
        grad[..., i] = (fp - fm) / (2.0 * h[..., i])
        hess[..., i, i] = (fp - 2.0 * val + fm) / (h[..., i] ** 2)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = 1.0
            si = h[..., i, None] * ei
            sj = h[..., j, None] * ej
            quad = (ev(p + si + sj) - ev(p + si - sj)
                    - ev(p - si + sj) + ev(p - si - sj))
            hess[..., i, j] = hess[..., j, i] = \
                quad / (4.0 * h[..., i] * h[..., j])
    return grad, hess


def fd_jet(f, p, policy: StepPolicy | None = None) -> Jet2:
    """Finite-difference Jet2 oracle: error O(h^(2·richardson_levels))."""
    policy = policy or StepPolicy()
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 0:
        raise DomainError("fd_jet needs a trailing coordinate axis")
    n = p.shape[-1]

    def ev(q):
        return np.asarray(f(*[q[..., i] for i in range(n)]), dtype=np.float64)

    val = ev(p)
    h0 = policy.base_step * np.maximum(1.0, np.abs(p))
    levels = int(policy.richardson_levels)
    rows = [_fd_once(ev, p, h0 / (2.0 ** k), val) for k in range(levels)]
    # Richardson table over the halved-step ladder; each stage cancels the
    # next even-order error term of the central-difference estimates.
    for m in range(1, levels):
        w = 4.0 ** m
        rows = [
            (
                (w * rows[k][0] - rows[k - 1][0]) / (w - 1.0),
                (w * rows[k][1] - rows[k - 1][1]) / (w - 1.0),
            )
            for k in range(m, levels)
        ]
        rows = [None] * m + rows
    grad, hess = rows[-1]
    return Jet2(val, grad, _sym(hess))
