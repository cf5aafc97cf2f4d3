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
keep their operand's support; a binary operation on equal supports runs the
dense formulas above, and on unequal supports it first widens both operands
to the union (zero-filled, plans memoized per support pair).  ``variables``
seeds every jet on the full support, so ``jet_eval`` and ``fd_jet`` return
dense (..., n) and (..., n, n) derivatives; ``Immersion.eval`` seeds
one-variable jets and scatters each output into dense arrays once.  A
derivative entry outside a support is a structural zero that the dense
formulas would have computed as ±0.0 from zero operands, so sparse and dense
seeding agree exactly up to the sign of zero entries.

The primitives ``sin``/``cos``/``exp``/``log``/``sqrt``/``atan``/``atan2``
accept jets or plain numbers/arrays and dispatch accordingly; a map written
once in these primitives can therefore be evaluated three ways: as fast plain
numpy (positions only), as jets (exact derivatives), or through ``fd_jet``
(central differences with Richardson extrapolation, the independent oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SpecError

__all__ = [
    "Jet2",
    "StepPolicy",
    "variables",
    "constant_like",
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


@lru_cache(maxsize=4096)
def _union_plan(s: tuple, t: tuple):
    """(union support, widening of s, widening of t) for unequal supports.

    A widening is None when the operand's support already is the union,
    else (gradient positions, flat Hessian positions) inside the union.
    """
    union = tuple(sorted(set(s) | set(t)))
    m = len(union)
    where = {v: k for k, v in enumerate(union)}

    def widening(support):
        if support == union:
            return None
        pos = np.array([where[v] for v in support], dtype=np.intp)
        return pos, (pos[:, None] * m + pos).ravel()
    return union, widening(s), widening(t)


def _widen(x: "Jet2", m: int, widening):
    """x's gradient and Hessian zero-filled onto an m-variable union."""
    if widening is None:
        return x.grad, x.hess
    pos, flat = widening
    batch = x.grad.shape[:-1]
    grad = np.zeros(batch + (m,))
    grad[..., pos] = x.grad
    hess = np.zeros(batch + (m * m,))
    hess[..., flat] = x.hess.reshape(batch + (-1,))
    return grad, hess.reshape(batch + (m, m))


def _aligned(a: "Jet2", b: "Jet2"):
    """(support, a.grad, a.hess, b.grad, b.hess) on a common support."""
    if a.support is b.support or a.support == b.support:
        return a.support, a.grad, a.hess, b.grad, b.hess
    union, wa, wb = _union_plan(a.support, b.support)
    m = len(union)
    return (union,) + _widen(a, m, wa) + _widen(b, m, wb)


class Jet2:
    """Value, gradient and Hessian of a scalar field over a point batch.

    ``grad`` and ``hess`` are taken with respect to the variables listed in
    ``support`` (sorted indices); the default support is every variable,
    range(grad.shape[-1]).
    """

    __slots__ = ("value", "grad", "hess", "support")

    def __init__(self, value, grad, hess, support: tuple | None = None):
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
        return f"Jet2(value={self.value!r})"

    # ---- linear structure -------------------------------------------------

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess, self.support)

    def __add__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            sup, ag, ah, bg, bh = _aligned(self, other)
            return Jet2(self.value + other.value, ag + bg, ah + bh, sup)
        if isinstance(other, _Scalar):
            return Jet2(self.value + other, self.grad, self.hess, self.support)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            sup, ag, ah, bg, bh = _aligned(self, other)
            return Jet2(self.value - other.value, ag - bg, ah - bh, sup)
        if isinstance(other, _Scalar):
            return Jet2(self.value - other, self.grad, self.hess, self.support)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _Scalar):
            return Jet2(other - self.value, -self.grad, -self.hess,
                        self.support)
        return NotImplemented

    # ---- Leibniz rule -----------------------------------------------------

    def __mul__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            sup, ag, ah, bg, bh = _aligned(self, other)
            av, bv = self.value, other.value
            outer = ag[..., :, None] * bg[..., None, :]
            # symmetrize the rank-one part first: addition is commutative but
            # not associative, so this grouping keeps hess exactly symmetric
            hess = (av[..., None, None] * bh
                    + bv[..., None, None] * ah
                    + (outer + np.swapaxes(outer, -1, -2)))
            return Jet2(av * bv, av[..., None] * bg + bv[..., None] * ag,
                        hess, sup)
        if isinstance(other, _Scalar):
            c = np.asarray(other, dtype=np.float64)
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
                      kf * (kf - 1.0) * v ** (kf - 2.0))


def _chain(x: Jet2, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> Jet2:
    """Lift h(x) through x's jet given h, h', h'' at x.value."""
    outer = x.grad[..., :, None] * x.grad[..., None, :]
    hess = f1[..., None, None] * x.hess + f2[..., None, None] * outer
    return Jet2(f0, f1[..., None] * x.grad, hess, x.support)


def _reciprocal(x: Jet2) -> Jet2:
    v = x.value
    if np.any(v == 0.0):
        raise DomainError("division by zero")
    inv = 1.0 / v
    return _chain(x, inv, -inv * inv, 2.0 * inv * inv * inv)


def constant_like(c, like: Jet2) -> Jet2:
    """A jet with value c and vanishing derivatives, shaped like ``like``.

    It keeps ``like``'s support, so it aligns with ``like`` without widening.
    """
    value = np.broadcast_to(np.asarray(c, dtype=np.float64),
                            np.broadcast_shapes(np.shape(c), like.value.shape))
    zero = np.zeros((), dtype=np.float64)
    grad = np.broadcast_to(zero, value.shape + (like.nvars,))
    hess = np.broadcast_to(zero, value.shape + (like.nvars, like.nvars))
    return Jet2(value, grad, hess, like.support)


# ---- primitives (dual dispatch: Jet2 or plain arrays) ----------------------


def sin(x):
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        return _chain(x, s, c, -s)
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        return _chain(x, c, -s, -c)
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
        return _chain(x, np.log(v), 1.0 / v, -1.0 / (v * v))
    if np.any(np.asarray(x) <= 0.0):
        raise DomainError("log of a non-positive value")
    return np.log(x)


def sqrt(x):
    if isinstance(x, Jet2):
        v = x.value
        if np.any(v <= 0.0):
            raise DomainError("sqrt requires values bounded away from zero")
        r = np.sqrt(v)
        return _chain(x, r, 0.5 / r, -0.25 / (r * v))
    if np.any(np.asarray(x) < 0.0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(x)


def atan(x):
    if isinstance(x, Jet2):
        v = x.value
        d = 1.0 / (1.0 + v * v)
        return _chain(x, np.arctan(v), d, -2.0 * v * d * d)
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
