"""Induced geometry of parametrized immersions.

An ``Immersion`` wraps a component map F: box ⊂ ℝⁿ → ℝᴷ written in the jet
primitives, so one definition supports three evaluation modes: plain numpy
positions, exact first/second derivatives (``eval`` → ``PointEval``), and the
finite-difference oracle.  Everything downstream is assembled from
``PointEval`` alone:

    g_ij      = ∂ᵢF · ∂ⱼF                      (first fundamental form)
    ∂ₖg_ij    = ∂ₖ∂ᵢF · ∂ⱼF + ∂ᵢF · ∂ₖ∂ⱼF
    Δ_g F     = g^{ij}(∂ᵢ∂ⱼF − Γ^k_{ij} ∂ₖF)   (contraction form)
              = (1/√g) ∂ᵢ(√g g^{ij} ∂ⱼF)       (divergence form, cross-check)

A ``PointEval`` keeps the position and the Jacobian dense and the second
derivatives as ``Block``s: rows of F with their Hessians on the parameters
those rows depend on.  The contraction form runs block by block, with g⁻¹
and ∂g restricted to each block's support, so it never forms a dense
(..., K, n, n) or (..., n, n, n) array.  ``PointEval.second`` and
``MetricEval.dg`` are the dense tensors, formed on first read; the
divergence form, the identities and the cross-checks read them.

``metric`` assembles g, g⁻¹ and det g once; every operator below reads
that ``MetricEval``.  The divergence form is g^{ij}∂ᵢ∂ⱼF + Σⱼ(Δ_g u_j)∂ⱼF.
The mean curvature vector H = Δ_g F is normal to the immersion, which
``mean_curvature``'s tangential residual quantifies.  For maps into the unit
sphere, minimality is Δ_g F = −n·F (``sphere_residual_from_pointeval``).

All operations accept batched points (leading axes broadcast through).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, NotSpherical
from .jets import Columns, Jet2, place

__all__ = [
    "RANK_TOL",
    "METRIC_RATIO_FLOOR",
    "SPHERE_TOL",
    "Immersion",
    "Block",
    "PointEval",
    "MetricEval",
    "MeanCurvatureEval",
    "metric",
    "metric_derivative",
    "laplace_from_pointeval",
    "mean_curvature",
    "sphere_residual_from_pointeval",
]

# Scale-invariant rank threshold: for a positive-definite g, Hadamard's
# inequality gives det g ≤ Π g_ii, so det g / Π g_ii ∈ (0, 1] measures
# conditioning independently of the metric's overall scale.  ``metric``
# raises below RANK_TOL; the guards of ``Immersion`` exclude a draw below
# the larger METRIC_RATIO_FLOOR, so an accepted draw never reaches it.
RANK_TOL = 1e-12
METRIC_RATIO_FLOOR = 1e-10
SPHERE_TOL = 1e-12     # how far a sphere residual lets a point leave S^n


class Block(NamedTuple):
    """Second derivatives of a run of rows of F on the rows' support.

    ``rows`` is a slice of the K rows, ``support`` the sorted parameters
    those rows depend on, and ``hess`` (..., r, s, s) their Hessians on
    the support: [a, i, j] = ∂ᵢ∂ⱼF^{rows.start + a} with i, j read as
    ``support[i]``, ``support[j]``.  The Jacobian of the rows is zero off
    the support.
    """

    rows: slice
    support: tuple
    hess: np.ndarray

    @classmethod
    def full(cls, second: np.ndarray) -> "Block":
        """The block of a dense (..., K, n, n) tensor: every row and column."""
        return cls(slice(0, second.shape[-3]), tuple(range(second.shape[-1])),
                   second)


@dataclass(frozen=True)
class PointEval:
    """Position, Jacobian and second derivatives at parameter points.

    ``blocks`` hold the second derivatives (``Block``); rows no block
    covers have none.  ``second`` is the dense tensor, formed on first
    read, with zeros off the blocks; a single block over every row and
    column is returned as is.  ``gram`` is (g = JᵀJ, det g, Π g_ii) of
    ``jacobian`` when ``Immersion.screen`` formed it for its metric-floor
    test, else None (a plain ``eval`` forms none); ``metric`` reads it
    instead of forming g again.
    """

    position: np.ndarray  # (..., K)
    jacobian: np.ndarray  # (..., K, n)
    blocks: tuple         # (Block, ...)
    gram: tuple | None = None

    @cached_property
    def second(self) -> np.ndarray:
        """(..., K, n, n) second derivatives, symmetric in the last pair."""
        K, n = self.jacobian.shape[-2:]
        if len(self.blocks) == 1:
            rows, support, hess = self.blocks[0]
            if rows == slice(0, K) and support == tuple(range(n)):
                return hess
        second = np.zeros(self.jacobian.shape + (n,))
        for rows, support, hess in self.blocks:
            runs = _runs(support)
            for slots_i, cols_i in runs:
                for slots_j, cols_j in runs:
                    second[..., rows, cols_i, cols_j] = \
                        hess[..., slots_i, slots_j]
        return second


@dataclass(frozen=True)
class MetricEval:
    """First fundamental form with inverse and determinant at ``pe``.

    ``dg`` (∂g, from ``pe``) and ``coordinate_laplacians`` are formed on
    first use and shared by every reader of this record.
    """

    g: np.ndarray      # (..., n, n)
    g_inv: np.ndarray  # (..., n, n)
    det_g: np.ndarray  # (...,)
    pe: InitVar[PointEval]

    def __post_init__(self, pe: PointEval) -> None:
        object.__setattr__(self, "_pe", pe)

    @cached_property
    def dg(self) -> np.ndarray:
        """(..., n, n, n), [k, i, j] = ∂ₖ g_ij (``metric_derivative``)."""
        return metric_derivative(self._pe)

    @cached_property
    def coordinate_laplacians(self) -> np.ndarray:
        """Δ_g u_j of every parameter coordinate, shape (..., n).

        For φ = u_j the divergence form collapses to
        Δ_g u_j = Σᵢ [∂ᵢ(log √g) g^{ij} + ∂ᵢ g^{ij}].  Read-only.
        """
        dlogs, dginv = _divergence_parts(self.g_inv, self.dg)
        lap = np.einsum("...i,...ij->...j", dlogs, self.g_inv) \
            + np.einsum("...iij->...j", dginv)
        lap.flags.writeable = False
        return lap


@dataclass(frozen=True)
class MeanCurvatureEval:
    """Mean curvature vector H = Δ_g F with its norm and tangential defect."""

    H: np.ndarray                    # (..., K)
    H_norm: np.ndarray               # (...,)
    tangential_residual: np.ndarray  # (...,)


@dataclass(frozen=True)
class Immersion:
    """A component map over an open box with degeneracy guards.

    ``components`` receives the parameter columns (``jets.Columns``) and
    returns its parts, built from the jet primitives: a list of scalars
    and component-axis vectors (jets, or arrays for positions) with
    ``ambient_dim`` rows in all, or one vector (``SphereChart.embed``,
    ``CliffordBlock.embed``); see ``jets.place``.  ``Columns`` are the
    map's only input; a finite-difference oracle differentiates
    ``position``, which gives ``eval``'s position bits.  ``exclusions`` are
    named predicates mapping a point batch (..., n) to a boolean exclusion
    mask.  Every immersion's guard also excludes points whose induced metric is
    near rank-deficient: det g / Π g_ii at or below METRIC_RATIO_FLOOR
    (``_below_floor``).  ``screen`` runs a second-order ``eval`` and
    returns that ``PointEval``, so sampling and the residuals share one
    evaluation per draw; ``excluded``, for callers that want only the
    mask, runs a first-order pass that gives the same Jacobian bit for bit.
    """

    param_dim: int
    ambient_dim: int
    components: Callable[[Columns], Sequence]
    domain: tuple[tuple[float, float], ...]
    exclusions: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...] = ()
    name: str = ""

    def _check_point_shape(self, p: np.ndarray) -> None:
        if p.ndim == 0 or p.shape[-1] != self.param_dim:
            raise DimensionMismatch(
                f"{self.name or 'immersion'}: expected points with "
                f"{self.param_dim} coordinates, got shape {p.shape}")

    def position(self, p) -> np.ndarray:
        """Fast position-only evaluation, shape (..., n) → (..., K)."""
        p = np.asarray(p, dtype=np.float64)
        self._check_point_shape(p)
        cols = Columns(p, 0)
        position = np.empty(cols.batch + (self.ambient_dim,))
        for part, rows in self._place(self.components(cols), cols.batch):
            position[..., rows] = part
        return position

    def _place(self, outs, batch: tuple) -> list:
        """A component map's output ``outs`` as (part, rows) pairs.

        Raises DimensionMismatch unless the rows add up to ``ambient_dim``
        (``jets.place``).
        """
        placed, count = place(outs, batch)
        if count != self.ambient_dim:
            raise DimensionMismatch(
                f"{self.name or 'immersion'}: component map returned "
                f"{count} coordinates, declared {self.ambient_dim}")
        return placed

    def _jets(self, p, second: bool):
        """(position, jacobian, blocks or None) from one jet pass over p.

        ``components`` receives ``Columns``: a one-variable seed per
        column it reads alone and one component-axis seed per range it
        reads whole, so a part carries derivatives only on its support,
        the parameters it depends on.  Without ``second`` the seeds are
        value+gradient ``Jet1`` jets and no Hessian is formed.
        """
        p = np.asarray(p, dtype=np.float64)
        self._check_point_shape(p)
        cols = Columns(p, 2 if second else 1)
        return self.assemble(self.components(cols), cols)

    def assemble(self, outs, cols: Columns):
        """(position, jacobian, blocks or None) of map output at ``cols``.

        ``outs`` is what ``components(cols)`` returns, or parts built the
        same way from shared jets.  Each part's value and gradient are
        written straight into its rows of the dense (..., K) and
        (..., K, n) arrays by ``_scatter_vector``; at second order its
        Hessian stays on its support, in the ``Block``s of ``_blocks``.
        """
        placed = self._place(outs, cols.batch)
        position = np.empty(cols.batch + (self.ambient_dim,))
        jacobian = np.zeros(cols.batch + (self.ambient_dim, self.param_dim))
        for part, rows in placed:
            _scatter_vector(part, rows, position, jacobian)
        return position, jacobian, _blocks(placed) if cols.order == 2 else None

    def eval(self, p) -> PointEval:
        """Exact first/second derivatives via jets, batched over leading axes.

        The result, its ``second`` densified, equals running
        ``components`` on ``Columns`` whose every seed carries the full
        support 0..n−1, up to the sign of zero entries.
        """
        return PointEval(*self._jets(p, second=True))

    def _predicates(self, p) -> np.ndarray:
        """OR of the named exclusion predicates over a point batch."""
        p = np.asarray(p, dtype=np.float64)
        self._check_point_shape(p)
        mask = np.zeros(p.shape[:-1], dtype=bool)
        for _, predicate in self.exclusions:
            mask |= np.asarray(predicate(p), dtype=bool)
        return mask

    def screen(self, p) -> tuple[np.ndarray, PointEval]:
        """(exclusion mask, PointEval of every point of ``p``).

        The mask ORs the predicates and the metric floor, which is tested
        on the batch's one second-order ``eval``; that PointEval is
        returned so a caller can keep its accepted rows.  It carries the
        floor test's ``gram``, so ``metric`` does not form g again.
        """
        mask = self._predicates(p)
        pe = self.eval(p)
        gram = _gram(pe.jacobian)
        mask |= _below_floor(gram)
        return mask, replace(pe, gram=gram)

    def excluded(self, p) -> np.ndarray:
        """Boolean mask of points rejected by any degeneracy guard.

        The same mask as ``screen``, from first-order work only: the metric
        floor needs the Jacobian, which a value+gradient jet pass gives
        bit for bit.
        """
        mask = self._predicates(p)
        mask |= _below_floor(_gram(self._jets(p, second=False)[1]))
        return mask


def _scatter_vector(out, rows, position: np.ndarray,
                    jacobian: np.ndarray) -> None:
    """Write one output part's value and gradient into its ``rows``.

    ``out`` is a jet or a plain array (or number): a vector with ``rows``
    a slice of its component count, or a scalar with ``rows`` one index.
    Its gradient goes to the columns of its support, and the other
    entries keep what the caller filled in (zeros).  The support is
    written run by run, as slices: a strided copy per run, where fancy
    indexing would gather every entry.
    """
    if not isinstance(out, Jet2):
        position[..., rows] = out
        return
    position[..., rows] = out.value
    for slots, cols in _runs(out.support):
        jacobian[..., rows, cols] = out.grad[..., slots]


def _blocks(placed: list) -> tuple:
    """The second-order jet parts' Hessians as ``Block``s, in row order.

    Adjacent parts on one support merge into one block, so four scalar
    coordinates of one chart make one (..., 4, s, s) block.  A part that
    is no jet has no second derivatives and no block.
    """
    runs = []                           # [start, stop, support, hessians]
    for part, rows in placed:
        if not isinstance(part, Jet2):
            continue
        hess = part.hess
        if isinstance(rows, slice):
            start, stop = rows.start, rows.stop
        else:
            start, stop, hess = rows, rows + 1, hess[..., None, :, :]
        if runs and runs[-1][1] == start and runs[-1][2] == part.support:
            runs[-1][1] = stop
            runs[-1][3].append(hess)
        else:
            runs.append([start, stop, part.support, [hess]])
    return tuple(Block(slice(start, stop), support,
                       hs[0] if len(hs) == 1 else np.concatenate(hs, axis=-3))
                 for start, stop, support, hs in runs)


@lru_cache(maxsize=1024)
def _runs(support: tuple) -> tuple:
    """((slots, columns), ...): the contiguous runs of a sorted support.

    ``slots`` indexes the run in a jet's derivative axes, ``columns`` in
    the dense ones.
    """
    runs, start = [], 0
    for k in range(1, len(support) + 1):
        if k == len(support) or support[k] != support[k - 1] + 1:
            runs.append((slice(start, k),
                         slice(support[start], support[k - 1] + 1)))
            start = k
    return tuple(runs)


def _gram(jacobian: np.ndarray):
    """(g = JᵀJ, det g, Π g_ii), the last being Hadamard's bound on det g."""
    g = np.einsum("...ki,...kj->...ij", jacobian, jacobian)
    return g, np.linalg.det(g), np.prod(np.einsum("...ii->...i", g), axis=-1)


def _below_floor(gram: tuple) -> np.ndarray:
    """Mask of points whose metric g = JᵀJ is close to rank-deficient.

    Flags det g ≤ METRIC_RATIO_FLOOR · Π g_ii (the scale-free Hadamard
    ratio that RANK_TOL also bounds), any non-positive determinant, and a
    NaN one: the mask is the complement of the passing comparisons, which
    a NaN fails, so a Jacobian holding NaN or inf is excluded, not kept.
    """
    _, det, hadamard = gram
    return ~((det > 0.0) & (det > METRIC_RATIO_FLOOR * hadamard))


def metric(pe: PointEval) -> MetricEval:
    """First fundamental form g = JᵀJ with inverse and determinant.

    g and det g come from ``pe.gram`` when ``screen`` carried them; ∂g is
    formed on first read of ``MetricEval.dg``.
    """
    g, det, hadamard = _gram(pe.jacobian) if pe.gram is None else pe.gram
    if not np.all(np.isfinite(det)):
        bad = np.extract(~np.isfinite(det), det)
        raise DegenerateMetric(f"non-finite metric: det g = {bad[0]} at "
                               f"{bad.size} point(s)")
    # a vanishing Jacobian column makes Π g_ii = 0: report the ratio as 0
    ratio = np.divide(det, hadamard, out=np.zeros(np.shape(det)),
                      where=hadamard != 0.0)
    if np.any(det <= 0.0) or np.any(ratio <= RANK_TOL):
        worst = float(np.min(ratio))
        raise DegenerateMetric(
            f"rank-deficient metric: det/Hadamard ratio {worst:.3e} "
            f"<= {RANK_TOL:.1e}")
    return MetricEval(g=g, g_inv=np.linalg.inv(g), det_g=det, pe=pe)


def metric_derivative(pe: PointEval) -> np.ndarray:
    """∂ₖ g_ij assembled from first and second derivatives of F.

    Returns shape (..., n, n, n) indexed [k, i, j] = ∂ₖ(∂ᵢF·∂ⱼF), from
    the dense ``pe.second``.
    """
    return _gram_derivative(pe.second, pe.jacobian)


def _gram_derivative(second: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """Σ_a ∂ₖ∂ᵢF^a ∂ⱼF^a + ∂ᵢF^a ∂ₖ∂ⱼF^a over rows a, shape (..., s, s, s).

    ``second`` is (..., r, s, s) and ``jacobian`` (..., r, s), on any s
    parameters that carry all the rows' derivatives.
    """
    s = second.shape[-1]
    # one batched matmul: (..., s·s, r) @ (..., r, s) -> (..., s·s, s)
    flat = second.reshape(second.shape[:-2] + (s * s,)).swapaxes(-1, -2)
    t = flat @ jacobian
    t = t.reshape(t.shape[:-2] + (s, s, s))
    return t + t.swapaxes(-1, -2)


def _divergence_parts(gi: np.ndarray, dg: np.ndarray):
    """(∂ₖ log √g, ∂ₖ g^{ij}) from g^{-1} and ∂ₖ g_ij.

    ∂ₖ log √g = ½ tr(g⁻¹ ∂ₖ g) and ∂ₖ g^{ij} = −g^{ia} ∂ₖ g_ab g^{bj}.
    """
    dlogs = 0.5 * np.einsum("...ab,...iab->...i", gi, dg)
    gk = gi[..., None, :, :]
    return dlogs, -(gk @ dg @ gk)


def laplace_from_pointeval(pe: PointEval, form: str = "contraction",
                           met: MetricEval | None = None) -> np.ndarray:
    """Δ_g F from a PointEval; ``form`` picks the independent assembly route.

    The contraction form runs block by block on ``pe.blocks``; the
    divergence form reads the dense ``pe.second`` and ``met.dg``.
    """
    if form not in ("contraction", "divergence"):
        raise ValueError(f"unknown Laplace-Beltrami form: {form!r}")
    met = met or metric(pe)
    gi = met.g_inv
    if form == "divergence":
        trace2 = np.einsum("...ij,...aij->...a", gi, pe.second)
        return trace2 + np.einsum("...j,...aj->...a",
                                  met.coordinate_laplacians, pe.jacobian)
    # per block on support S: g^{ij}∂ᵢ∂ⱼF of its rows, and its share of
    # c_k = g^{ij} Γ_{kij} = g^{ij}∂ᵢg_{jk} − ½ g^{ij}∂ₖg_{ij}, whose ∂g
    # terms from these rows lie on S³
    trace2 = np.zeros(pe.position.shape)
    c = np.zeros(gi.shape[:-1])
    for rows, support, hess in pe.blocks:
        square, cols = _support_index(support)
        gs = np.ascontiguousarray(gi[square])   # einsum crawls on views
        trace2[..., rows] = np.einsum("...ij,...aij->...a", gs, hess)
        dg = _gram_derivative(hess, pe.jacobian[..., rows, cols])
        cs = np.einsum("...ij,...ijk->...k", gs, dg) \
            - 0.5 * np.einsum("...ij,...kij->...k", gs, dg)
        for slots, run in _runs(support):
            c[..., run] += cs[..., slots]
    corr = np.einsum("...lk,...k,...al->...a", gi, c, pe.jacobian)
    return trace2 - corr


@lru_cache(maxsize=1024)
def _support_index(support: tuple) -> tuple:
    """(index of the S×S block of an (..., n, n) array, of an n axis).

    Slices when the support S is contiguous, else integer arrays.
    """
    runs = _runs(support)
    if len(runs) == 1:
        return (Ellipsis, runs[0][1], runs[0][1]), runs[0][1]
    cols = np.array(support, dtype=np.intp)
    return (Ellipsis, cols[:, None], cols), cols


def mean_curvature(pe: PointEval) -> MeanCurvatureEval:
    """H = Δ_g F plus its norm and the norm of its tangential projection.

    The tangential part solves the normal equations g·c = Jᵀ H (the Gram
    matrix of the Jacobian columns is g itself) and measures ‖J·c‖.
    """
    met = metric(pe)
    H = laplace_from_pointeval(pe, met=met)
    rhs = np.einsum("...an,...a->...n", pe.jacobian, H)
    coeff = np.linalg.solve(met.g, rhs[..., None])[..., 0]
    tangential = np.einsum("...an,...n->...a", pe.jacobian, coeff)
    return MeanCurvatureEval(
        H=H,
        H_norm=np.linalg.norm(H, axis=-1),
        tangential_residual=np.linalg.norm(tangential, axis=-1),
    )


def sphere_residual_from_pointeval(pe: PointEval, *,
                                   H: np.ndarray) -> np.ndarray:
    """‖n·F + H‖ for H = Δ_g F of ``pe``; raises NotSpherical off the sphere.

    n is the parameter count, the last axis of the Jacobian.
    """
    radius = np.linalg.norm(pe.position, axis=-1)
    off = float(np.max(np.abs(radius - 1.0)))
    if off > SPHERE_TOL:
        raise NotSpherical(
            f"image point leaves the unit sphere by {off:.3e} "
            f"(tolerance {SPHERE_TOL:.1e})")
    n = pe.jacobian.shape[-1]
    return np.linalg.norm(n * pe.position + H, axis=-1)
