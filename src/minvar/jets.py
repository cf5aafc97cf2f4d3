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
the dense formulas above.  On unequal supports the result lies on the
union of the supports, with layouts memoized per support pair:

* a product on disjoint supports S, T writes each operand's terms on its
  own block of the union: the block matrix
  [[b H_a, g_a ⊗ g_b], [g_b ⊗ g_a, a H_b]] with gradient [b g_a, a g_b];
  when every variable of one support precedes every variable of the
  other, as in the helicoid layout, the blocks are plain slices;
* every other binary operation (a sum or difference, a product on nested
  or overlapping supports, ``atan2``) widens the operands onto the union
  with −0.0, the additive identity (``_aligned``), and runs the dense
  formulas.

``variables`` seeds every jet on the full support, so ``jet_eval`` and
``fd_jet`` return dense (..., n) and (..., n, n) derivatives;
``Immersion.eval`` hands its component map ``Columns``, which seed on
demand, writes each output's value and gradient into dense arrays and
keeps its Hessian on its support (``geometry.Block``).  A derivative
entry outside a support is a structural zero that the dense formulas would
have computed as ±0.0 from zero operands, so sparse and dense seeding agree
exactly up to the sign of zero entries.

A value+gradient jet, ``Jet1``, is a ``Jet2`` with ``hess`` None.  Every
operation propagates that: it runs the same gradient formulas and skips the
Hessian, so a first-order evaluation gives bit-identical values and
gradients for the cost of the first-order terms alone.  Callers that need
only a Jacobian, such as the metric-floor mask ``Immersion.excluded``, seed
``Jet1`` variables.

**The component axis.**  A jet whose value has a trailing axis of m
components is a vector of m scalar fields on one support::

    value : (..., m)      grad : (..., m, s)     hess : (..., m, s, s)

It is the batch axis nearest the slots, so every operation above acts on
it componentwise; a sphere chart or a Clifford block is one such jet
instead of m.  ``Columns(p, order)[lo:hi].joint()`` seeds a parameter
range as one vector (the identity as gradient on the support lo..hi−1, a
zero Hessian), while ``Columns(p, order)[i]`` is still a one-variable seed.
``Columns.stack`` puts k ranges of one width on a new leading batch axis,
so one formula runs for all of them, and ``split`` hands member k the
slices [k] of the result, its support relabelled from the stack's
columns 0..d−1 onto the member's own columns lo_k..lo_k+d−1.
The rule where the two meet: a scalar jet that meets a vector is lifted
explicitly (``lift``: value[..., None], grad[..., None, :],
hess[..., None, :, :]), never left to numpy's broadcasting, which pairs a
batch whose length equals m with the component axis silently and wrongly.
``take`` and ``concat`` slice and join vectors (joined jets lie on the
union of their supports, with +0.0 where a part carries no derivative,
in a layout memoized per tuple of part supports); ``component_sum`` adds
the components left to right into one component, and
``linear_map(mat, v)`` applies a constant matrix, as chart rotations and
block unitaries do: it packs the vector's slots on one trailing axis
and adds the matrix columns in order, one product and one in-place sum
per column for every slot at once (``linear_maps`` maps several vectors
in that one pass).  Both keep the order of the sequential scalar sums,
so a vector has the bits of its scalar jets up to the sign of zero
entries.  Plain (..., m) arrays take the same helpers, for
position-only evaluation.  Numpy arrays and scalars defer to a jet's
reflected operators (``__array_ufunc__`` is None), so an array times a jet
is the jet's scalar product.

**Parts.**  A component map returns a list of parts, each a scalar (jet,
array or number) or a component-axis vector that carries the whole batch;
a lone vector stands for a list of one.  ``place`` lifts each scalar to
a vector of one component and lays the vectors out row after row, and
``Immersion.assemble`` writes each straight into its rows, without
joining them first.  A layout that alternates two vectors' components
lists them one component at a time (``take``).  A component map takes
``Columns`` only: the batch of points (..., n) it is evaluated at, seeded
to the order the caller asks for.

The primitives ``sin``/``cos``/``sincos``/``reciprocal``/``atan2`` accept
jets or plain numbers/arrays and dispatch accordingly (``sincos(x)`` is
the pair (sin x, cos x) from one sine and one cosine of the value); with
sums and products they are all the algebra the maps use.  A map written once in them can
therefore be evaluated two ways, as fast plain numpy (positions only) or
as jets (exact derivatives).  Jets have no ``/`` (nor ``**``): a map
divides by multiplying with ``reciprocal(d)``, which computes 1.0 / d
both ways, so ``position`` keeps the bits of ``eval`` (``x / d`` would
divide an array directly but a jet through its reciprocal, and round
differently).
``fd_jet`` (central differences with Richardson extrapolation) is the
independent oracle: run over a position-only evaluation,
``Immersion.position`` say, it reads values alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SpecError

__all__ = [
    "Jet2",
    "Jet1",
    "StepPolicy",
    "variables",
    "Columns",
    "place",
    "lift",
    "take",
    "concat",
    "component_sum",
    "linear_map",
    "linear_maps",
    "jet_eval",
    "fd_jet",
    "sin",
    "cos",
    "sincos",
    "reciprocal",
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
    if shapes.count(shapes[0]) == len(shapes):
        return shapes[0]
    return np.broadcast_shapes(*shapes)


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


def _jet(value, grad, hess, support) -> "Jet2":
    """The jet of these slots: a ``Jet1`` when ``hess`` is None.

    Every operation builds its result here (and so does
    ``charts.apply_complex_structure``), so a result has its operands'
    order without a test of its own.
    """
    if hess is None:
        return Jet1(value, grad, support)
    return Jet2(value, grad, hess, support)


def _sum(a: "Jet2", b: "Jet2", op) -> "Jet2":
    """a + b or a − b (op is np.add or np.subtract) of two jets.

    Unequal supports are widened onto their union (``_aligned``).
    """
    support, ag, ah, bg, bh = _aligned(a, b)
    return _jet(op(a.value, b.value), op(ag, bg),
                None if ah is None else op(ah, bh), support)


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
    hess = None
    if a.hess is not None:
        ss, tt, st, ts = plan.hess
        hess = np.empty(batch + (m, m))
        hess[ss] = bv[..., None, None] * a.hess
        hess[tt] = av[..., None, None] * b.hess
        outer = a.grad[..., :, None] * b.grad[..., None, :]
        hess[st] = outer
        hess[ts] = np.swapaxes(outer, -1, -2)
    return _jet(av * bv, grad, hess, plan.support)


class Jet2:
    """Value, gradient and Hessian of a scalar field over a point batch.

    ``grad`` and ``hess`` are taken with respect to the variables listed in
    ``support`` (sorted indices); the default support is every variable,
    range(grad.shape[-1]).  ``hess`` is None on a value+gradient jet
    (``Jet1``).
    """

    __slots__ = ("value", "grad", "hess", "support")

    # numpy defers to the reflected operators, so an array or numpy scalar
    # times a jet is the jet's scalar product, not an object array
    __array_ufunc__ = None

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
        return _jet(-self.value, -self.grad,
                    None if self.hess is None else -self.hess, self.support)

    def __add__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return _sum(self, other, np.add)
        if isinstance(other, _Scalar):
            return _jet(self.value + other, self.grad, self.hess, self.support)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return _sum(self, other, np.subtract)
        if isinstance(other, _Scalar):
            return _jet(self.value - other, self.grad, self.hess, self.support)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _Scalar):
            return _jet(other - self.value, -self.grad,
                        None if self.hess is None else -self.hess,
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
            hess = None
            if ah is not None:
                outer = ag[..., :, None] * bg[..., None, :]
                # symmetrize the rank-one part first: addition is
                # commutative but not associative, so this grouping keeps
                # hess exactly symmetric
                hess = (av[..., None, None] * bh
                        + bv[..., None, None] * ah
                        + (outer + np.swapaxes(outer, -1, -2)))
            return _jet(av * bv, grad, hess, sup)
        if isinstance(other, _Scalar):
            c = np.asarray(other, dtype=np.float64)
            return _jet(self.value * c, self.grad * c[..., None],
                        None if self.hess is None
                        else self.hess * c[..., None, None], self.support)
        return NotImplemented

    __rmul__ = __mul__


class Jet1(Jet2):
    """A value+gradient jet: a ``Jet2`` whose ``hess`` is None.

    Every operation on it runs the gradient formulas of ``Jet2`` unchanged
    and skips the Hessian, so its values and gradients are bit-identical to
    those of the full jet.  Results are ``Jet1`` again, because every
    operation builds its result with ``_jet``, which picks the order from
    the Hessian slot, so first-order seeds keep a whole evaluation first
    order; the operands of one binary operation must share one order.
    Code that reads Hessians can tell the orders apart by type
    (perfbench's Hessian byte count takes only ``type(j) is Jet2``).
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
    hess = None if x.hess is None else \
        f1[..., None, None] * x.hess \
        + f2[..., None, None] * (x.grad[..., :, None] * x.grad[..., None, :])
    return _jet(f0, f1[..., None] * x.grad, hess, x.support)


def _constant_like(c, like: Jet2) -> Jet2:
    """A jet with value c and vanishing derivatives, shaped like ``like``.

    It keeps ``like``'s support and order, so it aligns with ``like``
    without widening.
    """
    value = np.broadcast_to(np.asarray(c, dtype=np.float64),
                            np.broadcast_shapes(np.shape(c), like.value.shape))
    zero = np.zeros((), dtype=np.float64)
    grad = np.broadcast_to(zero, value.shape + (like.nvars,))
    hess = None if like.hess is None else \
        np.broadcast_to(zero, value.shape + (like.nvars, like.nvars))
    return _jet(value, grad, hess, like.support)


# ---- component-axis vectors ------------------------------------------------


def _slots(v):
    """(value, grad, hess) of a vector; grad and hess are None for an array."""
    if isinstance(v, Jet2):
        return v.value, v.grad, v.hess
    return np.asarray(v, dtype=np.float64), None, None


def lift(x):
    """A scalar jet or array as a vector of one component.

    value[..., None], grad[..., None, :] and hess[..., None, :, :]: a
    scalar that meets a vector is lifted explicitly, because numpy would
    broadcast a batch whose length equals the component count silently
    and wrongly.
    """
    if not isinstance(x, Jet2):
        return np.asarray(x, dtype=np.float64)[..., None]
    return _jet(x.value[..., None], x.grad[..., None, :],
                None if x.hess is None else x.hess[..., None, :, :], x.support)


def take(v, lo: int, hi: int):
    """Components lo..hi−1 of a vector, as a vector of views."""
    if not isinstance(v, Jet2):
        return v[..., lo:hi]
    return _jet(v.value[..., lo:hi], v.grad[..., lo:hi, :],
                None if v.hess is None else v.hess[..., lo:hi, :, :],
                v.support)


@lru_cache(maxsize=1024)
def _concat_plan(layout: tuple) -> tuple:
    """(union support, writes, first jet) of parts laid out as ``layout``.

    ``layout`` gives each part's (support, width), the support None for
    a plain array; the first jet part (None without one) sets the order.
    A write (k, grad index, hess index) puts part k's slots on its rows
    and on its variables' positions in the union: slices when those
    positions are a contiguous run of it, as for the two halves of a
    Clifford block, else intp positions.  Memoized per layout, so a join
    costs one zero fill per derivative slot and one write per part and
    slot.
    """
    support = tuple(sorted(set().union(*(s for s, _ in layout if s))))
    where = {v: j for j, v in enumerate(support)}
    writes, row = [], 0
    first = next((k for k, (part, _) in enumerate(layout)
                  if part is not None), None)
    for k, (part, width) in enumerate(layout):
        rows, row = slice(row, row + width), row + width
        if not part:
            continue
        cols = [where[v] for v in part]
        if cols[-1] - cols[0] + 1 == len(cols):
            cols = block = slice(cols[0], cols[-1] + 1)
        else:
            block = np.array(cols, dtype=np.intp)
            cols = block[:, None]
        writes.append((k, (..., rows, block), (..., rows, cols, block)))
    return support, tuple(writes), first


def concat(parts):
    """Vectors (jets or arrays) joined along the component axis.

    Jets are laid onto the union of their supports, and a derivative a
    part does not carry (a plain array, or a variable outside its
    support) is a structural +0.0, as in ``Immersion.eval``'s dense
    arrays.  The result is an array when no part is a jet.
    """
    first = parts[0]
    if isinstance(first, Jet2) and all(
            isinstance(x, Jet2) and x.support == first.support
            and x.value.shape[:-1] == first.value.shape[:-1]
            for x in parts[1:]):
        # one support and one batch: the slots join as they are
        return _jet(np.concatenate([x.value for x in parts], -1),
                    np.concatenate([x.grad for x in parts], -2),
                    None if first.hess is None else
                    np.concatenate([x.hess for x in parts], -3), first.support)
    values, layout = [], []
    for x in parts:
        jet = isinstance(x, Jet2)
        v = x.value if jet else np.asarray(x, dtype=np.float64)
        values.append(v)
        layout.append((x.support if jet else None, v.shape[-1]))
    batch = _batch(*(v.shape[:-1] for v in values))
    value = np.concatenate([v if v.shape[:-1] == batch
                            else np.broadcast_to(v, batch + v.shape[-1:])
                            for v in values], axis=-1)
    support, writes, first = _concat_plan(tuple(layout))
    if first is None:
        return value
    m, rows = len(support), value.shape[-1]
    grad = np.zeros(batch + (rows, m))
    hess = None if parts[first].hess is None \
        else np.zeros(batch + (rows, m, m))
    for k, grad_index, hess_index in writes:
        grad[grad_index] = parts[k].grad
        if hess is not None:
            hess[hess_index] = parts[k].hess
    return _jet(value, grad, hess, support)


def component_sum(v):
    """Σ_k v[..., k] as a vector of one component, added left to right."""
    total = take(v, 0, 1)
    for k in range(1, _slots(v)[0].shape[-1]):
        total = total + take(v, k, k + 1)
    return total


def linear_map(mat, v):
    """Σ_k mat[:, k] v[..., k]: a constant matrix applied to a vector.

    Every output component has the bits of the sequential sum of scalar
    jet products ``sum(mat[a, k] * v_k for k ...)`` over the components
    v_k of ``v``, signed zeros included (``linear_maps``).
    """
    return linear_maps(mat, (v,))[0]


def linear_maps(mat, vectors) -> list:
    """``linear_map`` of each vector, in one pass over the matrix columns.

    The vectors share their batch shape and component count.  Their
    slots are packed side by side on one trailing axis (each vector's
    value, gradient and flattened Hessian in turn), and the columns are
    added in order, one product and one in-place sum per column, so each
    output has the bits of the sequential sum of scalar jet products.
    That sum starts from the int 0, which changes only a −0.0 value to
    +0.0, so each value slot gets + 0.0 at the end.  No einsum, matmul
    or ``np.add.reduce``: BLAS, fused multiply-adds and pairwise
    reduction regroup the sums.  The slots come back as C-ordered
    arrays, because einsum's bits depend on the layout of its operands.
    """
    mat = np.asarray(mat, dtype=np.float64)
    slots, layout, width = [], [], 0
    for v in vectors:
        value, grad, hess = _slots(v)
        m = value.shape[-1] if value.ndim else 0
        if mat.ndim != 2 or mat.shape[1] != m or not m:
            raise DimensionMismatch(f"linear map: a matrix of shape "
                                    f"{mat.shape} cannot act on {m} "
                                    f"components")
        s = 0 if grad is None else grad.shape[-1]
        layout.append((v, width, s))
        slots.append(value[..., None])
        width += 1
        if grad is not None:
            slots.append(grad)
            width += s
        if hess is not None:
            slots.append(hess.reshape(hess.shape[:-2] + (s * s,)))
            width += s * s
    packed = np.concatenate(slots, axis=-1)[..., None, :]
    cols = mat.T[:, :, None]
    out = packed[..., 0, :, :] * cols[0]
    for k in range(1, mat.shape[1]):
        out += packed[..., k, :, :] * cols[k]
    mapped = []
    for v, lo, s in layout:
        value = out[..., lo] + 0.0
        if isinstance(v, Jet2):
            hess = None if v.hess is None else \
                out[..., lo + 1 + s:lo + 1 + s + s * s].reshape(
                    out.shape[:-1] + (s, s)).copy()
            value = _jet(value, out[..., lo + 1:lo + 1 + s].copy(), hess,
                         v.support)
        mapped.append(value)
    return mapped


@lru_cache(maxsize=256)
def _seed_slots(batch: tuple, d: int) -> tuple:
    """Identity gradient (..., d, d) and zero Hessian (..., d, d, d).

    Read-only broadcast views of a d-variable seed, memoized per batch
    shape and d: at a batch of one, building them took about a fifth of
    a dim-1 chart's time.
    """
    return (np.broadcast_to(np.eye(d), batch + (d, d)),
            np.broadcast_to(0.0, batch + (d, d, d)))


class Columns(Sequence):
    """The parameter columns a component map receives, seeded on demand.

    ``Columns(p, order)`` holds a point batch p (..., n); order 0 gives
    plain arrays, 1 value+gradient and 2 second-order seeds.  ``cols[i]``
    is one column: p[..., i], or a seed on the single variable i, made
    once per batch.  ``cols[lo:hi]`` is the Columns of that range, and
    its ``joint()`` is the whole range as one vector: the array
    p[..., lo:hi], or one component-axis jet seeded on it, with value
    (..., d), the identity as grad (..., d, d) on the support lo..hi−1
    and a zero Hessian (..., d, d, d).  ``batch`` is p's leading shape,
    the one a vector part of the map's output carries (``place``).
    A slice keeps the type, so a subclass that seeds differently (its own
    ``_range``) holds for every range taken from it.

    ``Columns.stack(ranges)`` puts k ranges of one width d, order and
    batch on a new leading batch axis: its p is their values stacked,
    (k, ..., d), with columns 0..d−1 of its own, and it has the first
    range's type, so a stack is seeded once, as that subclass seeds.
    ``stack.split(out)`` hands a formula's output on the stack back to
    the members: out[k] for arrays, and for jets the views value[k],
    grad[k] and hess[k] on a relabelled support (``_relabel``), where
    the stack's column j is member k's column lo_k + j.  Every operation
    acts on the batch elementwise, so each member has the bits of the
    formula run on its own range.  A subclass whose seeds already lie on
    one support of the whole batch keeps that support (its own
    ``_relabel``).
    """

    __slots__ = ("p", "order", "batch", "_lo", "_hi", "_seeds", "_members")

    def __init__(self, p, order: int):
        self.p = np.asarray(p, dtype=np.float64)
        if self.p.ndim == 0:
            raise DimensionMismatch("columns need a trailing coordinate axis")
        self.order = order
        self.batch = self.p.shape[:-1]
        self._lo, self._hi = 0, self.p.shape[-1]
        # the seeds made so far, shared with every range of the batch
        self._seeds = [None] * self._hi
        # the stacked ranges, None unless made by ``stack``
        self._members = None

    @staticmethod
    def stack(ranges) -> "Columns":
        """The ranges on a new leading batch axis, as one ``Columns``."""
        first = ranges[0]
        width = len(first)
        if any(len(r) != width or r.order != first.order
               or r.batch != first.batch for r in ranges):
            raise DimensionMismatch("stacked column ranges need one width, "
                                    "order and batch")
        part = object.__new__(type(first))
        part.p = np.concatenate([r.p[None, ..., r._lo:r._hi] for r in ranges])
        part.order, part.batch = first.order, part.p.shape[:-1]
        part._lo, part._hi = 0, width
        part._seeds, part._members = [None] * width, tuple(ranges)
        return part

    def split(self, out) -> list:
        """A stack's output ``out`` as one output per member, in order."""
        if not isinstance(out, Jet2):
            return list(out)
        return [_jet(out.value[k], out.grad[k],
                     None if out.hess is None else out.hess[k],
                     self._relabel(out.support, k))
                for k in range(len(self._members))]

    def _relabel(self, support: tuple, k: int) -> tuple:
        """Member k's labels of the stack's ``support``: j ↦ lo_k + j."""
        lo = self._members[k]._lo
        return tuple(lo + j for j in support)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self._hi - self._lo)
            if step != 1:
                raise DimensionMismatch("columns slice into contiguous "
                                        f"ranges only, got step {step}")
            part = object.__new__(type(self))
            part.p, part.order, part._seeds = self.p, self.order, self._seeds
            part.batch, part._members = self.batch, self._members
            part._lo, part._hi = self._lo + start, self._lo + max(start, stop)
            return part
        k = (self._lo if i >= 0 else self._hi) + i
        if not self._lo <= k < self._hi:
            raise IndexError(f"column {i} outside a range of {len(self)}")
        seed = self._seeds[k]
        if seed is None:
            seed = self._seeds[k] = self._range(k, k + 1, scalar=True)
        return seed

    def __iter__(self):
        return (self[i] for i in range(self._hi - self._lo))

    def joint(self):
        """This range as one component-axis jet or (..., d) array."""
        return self._range(self._lo, self._hi, scalar=False)

    def _range(self, lo: int, hi: int, scalar: bool):
        value = self.p[..., lo if scalar else slice(lo, hi)]
        if self.order == 0:
            return value
        grad, hess = _seed_slots(self.batch, hi - lo)
        if scalar:
            grad, hess = grad[..., 0, :], hess[..., 0, :, :]
        return _jet(value, grad, hess if self.order == 2 else None,
                    tuple(range(lo, hi)))


def place(outs, batch: tuple) -> tuple[list, int]:
    """([(vector, rows), ...], component count) of a component map's output.

    The output is a list of parts, or one vector standing for a list of
    one.  A part whose value has an axis beyond ``batch`` is a
    component-axis vector of m components and fills the rows
    slice(k, k + m); any other part (a scalar jet, array or number) is
    ``lift``ed to a vector of one component and fills slice(k, k + 1).
    A vector part carries the whole batch, as every vector made from
    ``Columns`` does.
    """
    if isinstance(outs, (Jet2, np.ndarray)):
        outs = (outs,)
    placed, k = [], 0
    for part in outs:
        value = part.value if isinstance(part, Jet2) else part
        if np.ndim(value) > len(batch):
            m = np.shape(value)[-1]
        else:
            part, m = lift(part), 1
        placed.append((part, slice(k, k + m)))
        k += m
    return placed, k


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


def sincos(x) -> tuple:
    """(sin x, cos x) from one ``np.sin`` and one ``np.cos`` of the value.

    Each has the bits of ``sin(x)`` and ``cos(x)``, which evaluate both
    to take their derivatives, so a map that needs both halves the
    transcendental passes.
    """
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        second = x.hess is not None
        return (_chain(x, s, c, -s if second else None),
                _chain(x, c, -s, -c if second else None))
    return np.sin(x), np.cos(x)


def reciprocal(x):
    """1/x: a jet through its reciprocal rule, an array by one division.

    Both ways compute the same value 1.0 / x, so a map that multiplies by
    ``reciprocal(d)`` gives ``position`` the bits of ``eval``.  It is the
    only way a map divides: jets have no ``/``.  At an exact zero it
    raises nothing: the value is ±inf and the slopes inf or NaN, as the
    array's are, and the guards exclude that point.
    """
    if not isinstance(x, Jet2):
        return 1.0 / x
    inv = 1.0 / x.value
    return _chain(x, inv, -inv * inv,
                  None if x.hess is None else 2.0 * inv * inv * inv)


def atan2(y, x):
    """Two-argument arctangent; branch-free away from the origin.

    The gradient and Hessian are assembled from the closed-form partials of
    θ = atan2(y, x) (first order: ∂θ = (x ∂y − y ∂x)/(x²+y²)) and the Hessian
    is symmetrized on write.  At the origin it raises nothing: the value is
    ``np.arctan2``'s and the derivatives NaN, which the guards exclude.
    """
    if not isinstance(y, Jet2) and not isinstance(x, Jet2):
        return np.arctan2(y, x)
    ref = y if isinstance(y, Jet2) else x
    if not isinstance(y, Jet2):
        y = _constant_like(y, ref)
    if not isinstance(x, Jet2):
        x = _constant_like(x, ref)
    sup, xg, xh, yg, yh = _aligned(x, y)
    xv, yv = x.value, y.value
    s = xv * xv + yv * yv
    num = xv[..., None] * yg - yv[..., None] * xg
    grad = num / s[..., None]
    hess = None
    if xh is not None:
        ds = 2.0 * (xv[..., None] * xg + yv[..., None] * yg)
        cross = xg[..., :, None] * yg[..., None, :]
        hess = _sym((cross - np.swapaxes(cross, -1, -2)
                     + xv[..., None, None] * yh - yv[..., None, None] * xh)
                    / s[..., None, None]
                    - num[..., :, None] * ds[..., None, :]
                    / (s * s)[..., None, None])
    return _jet(np.arctan2(yv, xv), grad, hess, sup)


# ---- seeding and evaluation -------------------------------------------------


def variables(p) -> list[Jet2]:
    """Seed jets for the coordinates of p, shape (..., n) → n unit-seeded jets.

    Every seed carries the full support, so derived jets are dense.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 0:
        raise DimensionMismatch("variables() needs a trailing coordinate axis")
    n = p.shape[-1]
    grad, hess = _seed_slots(p.shape[:-1], n)
    return [Jet2(p[..., i], grad[..., i, :], hess[..., i, :, :],
                 tuple(range(n))) for i in range(n)]


def jet_eval(f, p) -> Jet2:
    """Evaluate f(u₁,…,uₙ) with jet arithmetic at p, returning value/grad/hess."""
    seeds = variables(p)
    out = f(*seeds)
    if isinstance(out, Jet2):
        return out
    return _constant_like(out, seeds[0])


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
    steps = h[..., :, None] * np.eye(n)     # [..., i, :] is h_i along e_i
    for i in range(n):
        fp, fm = ev(p + steps[..., i, :]), ev(p - steps[..., i, :])
        grad[..., i] = (fp - fm) / (2.0 * h[..., i])
        hess[..., i, i] = (fp - 2.0 * val + fm) / (h[..., i] ** 2)
    for i in range(n):
        si = steps[..., i, :]
        for j in range(i + 1, n):
            sj = steps[..., j, :]
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
        raise DimensionMismatch("fd_jet needs a trailing coordinate axis")
    n = p.shape[-1]

    def ev(q):
        return np.asarray(f(*[q[..., i] for i in range(n)]), dtype=np.float64)

    val = ev(p)
    h0 = policy.base_step * np.maximum(1.0, np.abs(p))
    levels = int(policy.richardson_levels)
    rows = [_fd_once(ev, p, h0 / (2.0 ** k), val) for k in range(levels)]
    # Richardson table over the halved-step ladder; each stage combines
    # neighbouring rows and cancels the next even-order error term of the
    # central-difference estimates.
    for m in range(1, levels):
        w = 4.0 ** m
        rows = [tuple((w * fine - coarse) / (w - 1.0)
                      for coarse, fine in zip(a, b))
                for a, b in zip(rows, rows[1:])]
    grad, hess = rows[-1]
    return Jet2(val, grad, _sym(hess))
