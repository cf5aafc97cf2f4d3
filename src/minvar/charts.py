"""Charts on round spheres and the Clifford-block construction.

A ``SphereChart`` parametrizes a patch of the unit sphere S^N ⊂ ℝ^{N+1}:

* ``stereographic``: u ∈ ℝ^N ↦ (2u, 1 − ‖u‖²)/(1 + ‖u‖²), covers S^N minus
  one pole, nowhere degenerate;
* ``trigonometric``: nested polar angles, X₁ = cos φ₁,
  X_k = sin φ₁ ⋯ sin φ_{k−1} cos φ_k, degenerate where an interior sine
  vanishes (guarded);
* ``point``: the two-point sphere S⁰, one branch ±1, no parameters.

A ``CliffordBlock`` pairs two charts of the same dimension into the
minimal torus map C = (X(u); Y(v))/√2 ⊂ S^{2N+1} together with its dual
field D = (X; −Y)/√2.  The ambient ℝ^{2N+2} carries the complex structure
J(a; b) = (−b; a); an optional real orthogonal matrix commuting with J may
rotate the block.  ``apply_complex_structure`` applies J to an array or,
slot by slot, to a component-axis jet, whose derivatives J maps as it
maps the values: ``rotate_block`` rotates a block by e^{iθ} with it, and
``pair_frame`` reads JC and J∂C from one J of C.

Each chart kind has one formula and the block one, written on a vector
with a trailing component axis (see ``jets``): the chart's parameter
range arrives as one component-axis jet seeded on it (or one (..., d)
array for positions), the chart returns its dim+1 coordinates as one
vector, and the block joins X/√2 and ±Y/√2 into C and D and applies its
unitary to both in one packed pass over its columns
(``jets.linear_maps``).  Like charts run as one: ``embed_charts``
groups the charts a map embeds by spec and evaluates each group once,
on the members' parameter ranges stacked on a new leading batch axis
(``jets.Columns.stack``), then splits the result back, each member with
the bits of its own ``embed``.  ``block_charts`` sends every chart of a
map's blocks through it, so L standard blocks embed their 2L charts in
one pass.  ``embed_pair`` gives C and a first-order D from that pass;
``pair_frame`` builds the frame from them, and ``Immersion.eval`` reads
the same C.  The maps take ``jets.Columns`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .errors import ChartDomainError, DimensionMismatch, DomainError, SpecError
from .geometry import Block, Immersion, MetricEval, PointEval, metric

__all__ = [
    "SphereChart",
    "CliffordBlock",
    "embed_charts",
    "block_charts",
    "CliffordFrame",
    "apply_complex_structure",
    "clifford_frame",
    "pair_frame",
    "rotate_block",
    "matrix_tuple",
]

CHART_KINDS = ("stereographic", "trigonometric", "point")
ORTHO_TOL = 1e-12
SIN_GUARD = 1e-8
ANGLE_MARGIN = 0.2


def matrix_tuple(a) -> tuple:
    """Nested-tuple form of a 2-D array (hashable, JSON-friendly)."""
    try:
        a = np.asarray(a, dtype=np.float64)
    except ValueError:
        raise SpecError("matrix must be a 2-D array of numbers") from None
    if a.ndim != 2:
        raise SpecError(f"matrix must be 2-D, got shape {a.shape}")
    return tuple(tuple(float(x) for x in row) for row in a)


def _matrix(rows: tuple | None) -> np.ndarray | None:
    """A nested-tuple matrix as a read-only array (None stays None).

    The spec classes cache it per instance (``cached_property``, which
    equality and hashing do not see), and it is shared, so it is frozen.
    """
    if rows is None:
        return None
    mat = np.asarray(rows, dtype=np.float64)
    mat.flags.writeable = False
    return mat


def _check_orthogonal(mat: np.ndarray, size: int, label: str) -> None:
    if mat.shape != (size, size):
        raise SpecError(f"{label} must be {size}x{size}, got {mat.shape}")
    defect = float(np.max(np.abs(mat.T @ mat - np.eye(size))))
    if not defect <= ORTHO_TOL:   # NaN fails too
        raise SpecError(f"{label} is not orthogonal (defect {defect:.3e})")


def _swap_halves(slot: np.ndarray, axis: int) -> np.ndarray:
    """(−b; a) of a slot whose ``axis`` holds the components (a; b)."""
    m = slot.shape[axis]
    if m % 2:
        raise SpecError(f"a complex block needs an even component count, "
                        f"got {m}")
    rest = (slice(None),) * (-1 - axis)
    return np.concatenate([-slot[(..., slice(m // 2, None)) + rest],
                           slot[(..., slice(None, m // 2)) + rest]], axis=axis)


def apply_complex_structure(vec):
    """J(a; b) = (−b; a) on the component axis, which must be even.

    ``vec`` is an array, its last axis the components, or a
    component-axis jet.  J is constant and linear, so on a jet it acts
    slot by slot, on the component axis of the value, the gradient and
    the Hessian alike, and keeps the jet's support and order.
    """
    if not isinstance(vec, jets.Jet2):
        return _swap_halves(np.asarray(vec), -1)
    return jets._jet(_swap_halves(vec.value, -1), _swap_halves(vec.grad, -2),
                     None if vec.hess is None else _swap_halves(vec.hess, -3),
                     vec.support)


def rotate_block(vec, angle):
    """e^{i·angle} on a complex block: lift(cos)·v + lift(sin)·Jv.

    ``vec`` holds the block on its last axis, a component-axis jet or an
    array; ``angle`` is a scalar jet, array or number over its batch.
    """
    jv = apply_complex_structure(vec)
    return jets.lift(jets.cos(angle)) * vec + jets.lift(jets.sin(angle)) * jv


def _first_order(x):
    """A jet's value and gradient as a ``Jet1``; an array as it is."""
    if isinstance(x, jets.Jet2):
        return jets.Jet1(x.value, x.grad, x.support)
    return x


def _join(x, y, unitary):
    """(x; y) as one vector, then the block unitary if there is one."""
    f = jets.concat([x, y])
    return f if unitary is None else jets.linear_map(unitary, f)


def _jet_values(x):
    return x.value if isinstance(x, jets.Jet2) else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class SphereChart:
    """A parametrized patch of S^dim, optionally rotated inside ℝ^{dim+1}."""

    dim: int
    kind: str = "stereographic"
    rotation: tuple | None = None
    branch: int = 1

    # as the base of a cone or a join, a chart is a spherical family
    spherical = True
    control = False

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 0:
            raise SpecError(f"chart dimension must be a non-negative integer, "
                            f"got {self.dim!r}")
        if self.kind not in CHART_KINDS:
            raise SpecError(f"unknown chart kind {self.kind!r}")
        if self.kind == "point":
            if self.dim != 0:
                raise SpecError("point charts are only defined on S^0")
            if self.branch not in (1, -1):
                raise SpecError(f"point-chart branch must be +1 or -1, "
                                f"got {self.branch!r}")
        elif self.dim == 0:
            raise SpecError(f"{self.kind} charts need dim >= 1")
        elif self.branch != 1:
            raise SpecError(f"only point charts take a branch, got "
                            f"{self.branch!r} on a {self.kind} chart")
        if self.rotation is not None:
            _check_orthogonal(self.rotation_matrix, self.dim + 1,
                              "chart rotation")

    @property
    def param_dim(self) -> int:
        return 0 if self.kind == "point" else self.dim

    @cached_property
    def rotation_matrix(self) -> np.ndarray | None:
        """``rotation`` as a read-only array, converted once per chart."""
        return _matrix(self.rotation)

    def domain_box(self) -> tuple[tuple[float, float], ...]:
        if self.kind == "point":
            return ()
        if self.kind == "stereographic":
            return ((-1.5, 1.5),) * self.dim
        guarded = ((ANGLE_MARGIN, np.pi - ANGLE_MARGIN),) * (self.dim - 1)
        return guarded + ((-np.pi, np.pi),)

    def embed(self, cols):
        """Sphere coordinates at the chart parameters ``cols`` (``Columns``).

        The range is seeded as one jet, so the result is one
        component-axis jet, or a (..., dim+1) array for positions.
        """
        if len(cols) != self.param_dim:
            raise SpecError(f"chart expects {self.param_dim} parameters, "
                            f"got {len(cols)}")
        u = cols.joint()
        if self.kind == "point":
            out = np.full(cols.batch + (1,), float(self.branch))
        elif self.kind == "stereographic":
            s = jets.component_sum(u * u)
            # one reciprocal of 1 + |u|² serves every coordinate, for
            # jets and arrays alike, so positions have eval's bits
            out = jets.concat([2.0 * u, 1.0 - s]) * jets.reciprocal(1.0 + s)
        else:
            interior = _jet_values(u)[..., :-1]
            if (np.abs(np.sin(interior)) < SIN_GUARD).any():
                raise ChartDomainError(
                    "trigonometric chart degenerates where an interior "
                    "sine vanishes")
            # X_k = P_{k-1} cos φ_k and X_{dim+1} = P_{dim-1} sin φ_dim,
            # with prefix products P_k = sin φ_1 ⋯ sin φ_k (P_0 = 1)
            # formed left to right
            d = self.dim
            sin = jets.sin(u)
            factors = jets.concat([jets.cos(u), jets.take(sin, d - 1, d)])
            out = factors
            if d > 1:
                prefix = [jets.take(sin, 0, 1)]
                for k in range(1, d - 1):
                    prefix.append(prefix[-1] * jets.take(sin, k, k + 1))
                out = jets.concat([jets.take(factors, 0, 1),
                                   jets.concat(prefix + prefix[-1:])
                                   * jets.take(factors, 1, d + 1)])
        rot = self.rotation_matrix
        if rot is not None:
            out = jets.linear_map(rot, out)
        return out

    def build(self) -> Immersion:
        """The chart as an immersion into ℝ^{dim+1} (image in S^dim)."""
        return Immersion(param_dim=self.param_dim, ambient_dim=self.dim + 1,
                         components=self.embed,
                         domain=self.domain_box(),
                         name=f"sphere-chart-{self.kind}-S{self.dim}")


def embed_charts(charts, parts, scale: float = 1.0) -> list:
    """Each chart embedded at its ``Columns`` range, times ``scale``.

    Charts of one spec are one group, embedded in one call on their
    ranges stacked (``Columns.stack``), scaled once and split back in
    input order, so each member has the bits of its own
    ``scale * chart.embed(part)`` and a group of k charts costs one pass
    of the formula instead of k.  Charts are grouped by equality, and by
    the signs of their rotations' zero entries, which equality does not
    see but the images' zero entries can.
    """
    groups = {}
    for k, (chart, cols) in enumerate(zip(charts, parts)):
        if len(cols) != chart.param_dim:
            raise SpecError(f"chart expects {chart.param_dim} parameters, "
                            f"got {len(cols)}")
        key = chart if chart.rotation is None \
            else (chart, np.signbit(chart.rotation_matrix).tobytes())
        groups.setdefault(key, (chart, []))[1].append(k)
    out = [None] * len(parts)
    for chart, members in groups.values():
        stack = jets.Columns.stack([parts[k] for k in members])
        image = chart.embed(stack)
        if scale != 1.0:
            image = scale * image
        for k, x in zip(members, stack.split(image)):
            out[k] = x
    return out


def block_charts(blocks, parts) -> list:
    """(X/√2, Y/√2) of each block at its chart ``Columns``, in order.

    Every chart of every block goes through one ``embed_charts`` call,
    so the 2L like charts of L standard blocks are one pass.
    """
    charts, ranges = [], []
    for b, cols in zip(blocks, parts):
        if len(cols) != b.param_dim:
            raise SpecError(f"block expects {b.param_dim} parameters, "
                            f"got {len(cols)}")
        nx = b.chart_x.param_dim
        charts += (b.chart_x, b.chart_y)
        ranges += (cols[:nx], cols[nx:])
    halves = embed_charts(charts, ranges, 1.0 / np.sqrt(2.0))
    return list(zip(halves[::2], halves[1::2]))


@dataclass(frozen=True)
class CliffordBlock:
    """Minimal torus map C = (X; Y)/√2 from two S^N charts, plus dual D."""

    chart_x: SphereChart
    chart_y: SphereChart
    unitary: tuple | None = None

    def __post_init__(self):
        if self.chart_x.dim != self.chart_y.dim:
            raise SpecError(
                f"block charts must parametrize spheres of equal dimension, "
                f"got {self.chart_x.dim} and {self.chart_y.dim}")
        if self.unitary is not None:
            mat = self.unitary_matrix
            size = self.ambient_dim
            _check_orthogonal(mat, size, "block unitary")
            # J applied to U's rows is −U J, to its columns J U
            defect = float(np.max(np.abs(apply_complex_structure(mat)
                                         + apply_complex_structure(mat.T).T)))
            if not defect <= ORTHO_TOL:
                raise SpecError(f"block unitary must commute with the complex "
                                f"structure (defect {defect:.3e})")

    @property
    def sphere_dim(self) -> int:
        return self.chart_x.dim

    @property
    def param_dim(self) -> int:
        return self.chart_x.param_dim + self.chart_y.param_dim

    @property
    def ambient_dim(self) -> int:
        return 2 * self.chart_x.dim + 2

    @cached_property
    def unitary_matrix(self) -> np.ndarray | None:
        """``unitary`` as a read-only array, converted once per block."""
        return _matrix(self.unitary)

    def domain_box(self) -> tuple[tuple[float, float], ...]:
        return self.chart_x.domain_box() + self.chart_y.domain_box()

    def _charts(self, cols) -> tuple:
        """(X/√2, Y/√2) at chart ``Columns``, from ``block_charts``."""
        return block_charts((self,), (cols,))[0]

    def join(self, x, y):
        """C from the halves (X/√2, Y/√2), as one vector."""
        return _join(x, y, self.unitary_matrix)

    def join_pair(self, x, y) -> tuple:
        """(C, D) from the halves (X/√2, Y/√2).

        C has the halves' order; D is first order (value and gradient),
        as ``CliffordFrame`` reads no d²D, so its join and unitary carry
        no Hessian.  The unitary maps both in one pass
        (``jets.linear_maps``).  Both have ``embed``'s and
        ``dual_immersion``'s bits: −Y/√2 is the negation of Y/√2, which
        has the bits of (−1/√2)·Y.
        """
        pair = (jets.concat([x, y]),
                jets.concat([_first_order(x), -_first_order(y)]))
        unitary = self.unitary_matrix
        return pair if unitary is None \
            else tuple(jets.linear_maps(unitary, pair))

    def embed(self, cols):
        """C at chart ``Columns``, as one vector."""
        return self.join(*self._charts(cols))

    def embed_pair(self, cols) -> tuple:
        """(C, D) at chart ``Columns`` (``join_pair``)."""
        return self.join_pair(*self._charts(cols))

    def _dual(self, cols):
        """D = (X; −Y)/√2 at chart ``Columns``, at their order."""
        x, y = self._charts(cols)
        return _join(x, -y, self.unitary_matrix)

    def immersion(self) -> Immersion:
        return Immersion(param_dim=self.param_dim, ambient_dim=self.ambient_dim,
                         components=self.embed,
                         domain=self.domain_box(),
                         name=f"clifford-torus-S{self.sphere_dim}")

    def dual_immersion(self) -> Immersion:
        return Immersion(param_dim=self.param_dim, ambient_dim=self.ambient_dim,
                         components=self._dual,
                         domain=self.domain_box(),
                         name=f"clifford-dual-S{self.sphere_dim}")


@dataclass(frozen=True)
class CliffordFrame:
    """Frame data of a Clifford block at chart points p of shape (..., n).

    Plain numpy arrays whose leading axes are those of p; K = 2N+2 is the
    ambient dimension and n the chart parameter count.
    """

    C: np.ndarray      # (..., K)
    D: np.ndarray      # (..., K)
    JC: np.ndarray     # (..., K)
    JD: np.ndarray     # (..., K)
    dC: np.ndarray     # (..., K, n)
    dD: np.ndarray     # (..., K, n)
    d2C: np.ndarray    # (..., K, n, n)
    w: np.ndarray      # (..., n),       w_j = ∂_j C · JC
    m: np.ndarray      # (...,),         m = D · JC
    metric: MetricEval  # g, g⁻¹, det g and ∂g of C
    dw: np.ndarray     # (..., n, n),    [k, i] = ∂_k w_i
    dm: np.ndarray     # (..., n)
    split: int         # parameter count of the first factor chart


def clifford_frame(block: CliffordBlock, p) -> CliffordFrame:
    """Second-order frame of the torus map at chart points p (..., n).

    C and D come from one ``embed_pair`` on second-order ``Columns``, so
    the block's charts are embedded in one grouped pass (``pair_frame``).
    Their values and derivatives are those of ``block.immersion().eval(p)``
    and ``block.dual_immersion().eval(p)`` byte for byte.  Non-finite
    points raise ``DomainError``.
    """
    p = np.asarray(p, dtype=np.float64)
    n = block.param_dim
    if p.ndim == 0 or p.shape[-1] != n:
        raise DimensionMismatch(f"clifford frame: expected points with {n} "
                                f"coordinates, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("clifford frame: non-finite chart point")
    return pair_frame(block, *block.embed_pair(jets.Columns(p, 2)))


def pair_frame(block: CliffordBlock, c, d) -> CliffordFrame:
    """The frame of ``block`` from its ``embed_pair`` (C, D).

    C is second order and D first order, on the block's contiguous chart
    range wherever it sits among the caller's columns, so C, dC and d²C
    are the jet's own slots in chart order; C's ``PointEval`` is its one
    ``Block``.  An N = 0 block has no parameters and hands back arrays,
    whose derivatives are empty.
    """
    if isinstance(c, jets.Jet2):
        C, dC, d2C, D, dD = c.value, c.grad, c.hess, d.value, d.grad
        j = apply_complex_structure(_first_order(c))
        jc, jdc = j.value, j.grad
    else:
        C, D = c, d
        dC = dD = jdc = np.zeros(C.shape + (0,))
        d2C = np.zeros(C.shape + (0, 0))
        jc = apply_complex_structure(C)
    w = np.einsum("...aj,...a->...j", dC, jc)
    dw = np.einsum("...aik,...a->...ki", d2C, jc) \
        + np.einsum("...ai,...ak->...ki", dC, jdc)
    dm = np.einsum("...ai,...a->...i", dD, jc) \
        + np.einsum("...ai,...a->...i", jdc, D)
    pe_c = PointEval(position=C, jacobian=dC, blocks=(Block.full(d2C),))
    return CliffordFrame(C=C, D=D, JC=jc, JD=apply_complex_structure(D),
                         dC=dC, dD=dD, d2C=d2C, w=w,
                         m=np.einsum("...a,...a->...", D, jc),
                         metric=metric(pe_c), dw=dw, dm=dm,
                         split=block.chart_x.param_dim)
