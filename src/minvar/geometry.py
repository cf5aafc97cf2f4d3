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

One predicate decides that a metric is degenerate: ``_below_floor``, the
det g / Π g_ii ratio at or below a floor, non-finite entries included.
The guard of every ``Immersion`` applies it at METRIC_RATIO_FLOOR and
``metric`` raises by it at RANK_TOL.  ``metric`` assembles g⁻¹ once from
``PointEval.gram``; every operator below reads that ``MetricEval``.  The
divergence form is g^{ij}∂ᵢ∂ⱼF + Σⱼ(Δ_g u_j)∂ⱼF.
The mean curvature vector H = Δ_g F is normal to the immersion, which
``mean_curvature``'s tangential residual quantifies.  For maps into the unit
sphere, minimality is Δ_g F = −n·F (``sphere_residual_from_pointeval``).

All operations accept batched points (leading axes broadcast through).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
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
# raises at or below RANK_TOL; the guards of ``Immersion`` exclude a draw
# at or below the larger METRIC_RATIO_FLOOR, so an accepted draw never
# reaches it.  Both go through ``_below_floor``.
RANK_TOL = 1e-12
METRIC_RATIO_FLOOR = 1e-10
SPHERE_TOL = 1e-12     # how far a sphere residual lets a point leave S^n
# the guards exclude a point whose jets or metric overflow or turn NaN
# (``_below_floor``), so they run without the warnings those raise
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
# from this many points up, ``_gram`` sums over a batch-innermost layout
_GRAM_BATCH_INNER = 100


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
    ``jacobian`` (``_gram``), formed quietly on first read, so the
    metric-floor test of ``Immersion.screen`` and ``metric`` share it.
    """

    position: np.ndarray  # (..., K)
    jacobian: np.ndarray  # (..., K, n)
    blocks: tuple         # (Block, ...)

    @cached_property
    def gram(self) -> tuple:
        """(g, det g, Π g_ii) of ``jacobian``; overflow and NaN are quiet."""
        with np.errstate(**_QUIET):
            return _gram(self.jacobian)

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
    """A component map over an open box with a degeneracy guard.

    ``components`` receives the parameter columns (``jets.Columns``) and
    returns its parts, built from the jet primitives: a list of scalars
    and component-axis vectors (jets, or arrays for positions) with
    ``ambient_dim`` rows in all, or one vector (``SphereChart.embed``,
    ``CliffordBlock.embed``); see ``jets.place``.  ``Columns`` are the
    map's only input.  ``position``, ``excluded``, ``eval`` and ``screen``
    each run one ``assemble`` pass, at order 0, 1, 2 and 2, so
    ``position`` has ``eval``'s position bits.  The guard is the metric
    floor alone: it excludes points whose induced metric is near
    rank-deficient, det g / Π g_ii at or below METRIC_RATIO_FLOOR
    (``_below_floor``), which also excludes a non-finite Jacobian: a
    degenerate point (a chart singularity, an exact zero denominator of
    ``reciprocal`` or ``atan2``) is a NaN or inf row, not a raise.
    ``screen`` runs a second-order ``eval`` and
    returns that ``PointEval``, so sampling and the residuals share one
    evaluation per draw; ``excluded``, for callers that want only the
    mask, runs a first-order pass that gives the same Jacobian bit for bit,
    and ``mesh.tessellate`` takes that pass's positions with its mask.
    """

    param_dim: int
    ambient_dim: int
    components: Callable[[Columns], Sequence]
    domain: tuple[tuple[float, float], ...]
    name: str = ""

    def _assembled(self, p, order: int) -> tuple:
        """``assemble`` of ``components`` on ``Columns(p, order)``.

        p's shape is checked first, before the map runs.
        """
        p = np.asarray(p, dtype=np.float64)
        if p.ndim == 0 or p.shape[-1] != self.param_dim:
            raise DimensionMismatch(
                f"{self.name or 'immersion'}: expected points with "
                f"{self.param_dim} coordinates, got shape {p.shape}")
        cols = Columns(p, order)
        return self.assemble(self.components(cols), cols)

    def position(self, p) -> np.ndarray:
        """Fast position-only evaluation, shape (..., n) → (..., K)."""
        return self._assembled(p, 0)[0]

    def assemble(self, outs, cols: Columns):
        """(position, jacobian, blocks) of map output at ``cols``.

        ``outs`` is what ``components(cols)`` returns, or parts built the
        same way from shared jets, laid out as vectors by ``jets.place``.
        Each part's value and gradient go straight into its rows of the
        dense (..., K) and (..., K, n) arrays (``_write_part``); its
        Hessian stays on its support (``_blocks``).  The Jacobian is None
        at order 0, and the blocks below order 2.
        """
        placed, count = place(outs, cols.batch)
        if count != self.ambient_dim:
            raise DimensionMismatch(
                f"{self.name or 'immersion'}: component map returned "
                f"{count} coordinates, declared {self.ambient_dim}")
        position = np.empty(cols.batch + (self.ambient_dim,))
        jacobian = None if cols.order == 0 else \
            np.zeros(cols.batch + (self.ambient_dim, self.param_dim))
        for part, rows in placed:
            _write_part(part, rows, position, jacobian)
        return position, jacobian, _blocks(placed) if cols.order == 2 else None

    def eval(self, p) -> PointEval:
        """Exact first/second derivatives via jets, batched over leading axes.

        The result, its ``second`` densified, equals running
        ``components`` on ``Columns`` whose every seed carries the full
        support 0..n−1, up to the sign of zero entries.
        """
        return PointEval(*self._assembled(p, 2))

    def screen(self, p) -> tuple[np.ndarray, PointEval]:
        """(exclusion mask, PointEval of every point of ``p``).

        The mask is the metric floor, tested on the batch's one
        second-order ``eval``; that PointEval is returned so a caller can
        keep its accepted rows.  The floor test reads its ``gram``, so
        ``metric`` does not form g again.  Jets that overflow are excluded
        without a warning (``_QUIET``).
        """
        with np.errstate(**_QUIET):
            pe = self.eval(p)
        return _below_floor(pe.gram, METRIC_RATIO_FLOOR), pe

    def excluded(self, p) -> np.ndarray:
        """Boolean mask of points rejected by the metric floor.

        The same mask as ``screen``, from first-order work only: the metric
        floor needs the Jacobian, which a value+gradient jet pass gives
        bit for bit.  Quiet as ``screen`` is.
        """
        return self._guarded(p)[0]

    def _guarded(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(``excluded``'s mask, positions) from one first-order pass.

        A first-order jet's value is the plain evaluation's, so the
        positions have ``position``'s bits; ``mesh.tessellate`` reads both.
        """
        with np.errstate(**_QUIET):
            position, jacobian, _ = self._assembled(p, 1)
            return _below_floor(_gram(jacobian), METRIC_RATIO_FLOOR), position


def _write_part(out, rows: slice, position: np.ndarray,
                jacobian: np.ndarray | None) -> None:
    """Write one placed part's value and gradient into its ``rows``.

    ``out`` is a vector, a jet or a plain array.  Its gradient goes to
    the columns of its support, and the other entries keep what the
    caller filled in (zeros).  The support is written run by run, as
    slices: a strided copy per run, where fancy indexing would gather
    every entry.
    """
    if not isinstance(out, Jet2):
        position[..., rows] = out
        return
    position[..., rows] = out.value
    for slots, cols in _runs(out.support):
        jacobian[..., rows, cols] = out.grad[..., slots]


def _blocks(placed: list) -> tuple:
    """The second-order jet parts' Hessians as ``Block``s, in row order.

    Adjacent parts on one support merge into one block, so four lifted
    scalar coordinates of one chart make one (..., 4, s, s) block.  A
    part that is no jet has no second derivatives and no block.
    """
    runs = []                           # [start, stop, support, hessians]
    for part, rows in placed:
        if not isinstance(part, Jet2):
            continue
        if runs and runs[-1][1] == rows.start and runs[-1][2] == part.support:
            runs[-1][1] = rows.stop
            runs[-1][3].append(part.hess)
        else:
            runs.append([rows.start, rows.stop, part.support, [part.hess]])
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
    """(g = JᵀJ, det g, Π g_ii), the last being Hadamard's bound on det g.

    g comes back C-ordered.  From ``_GRAM_BATCH_INNER`` points up and on
    n ≥ 2 parameters, the sum over the K rows runs on a contiguous
    (K, n, batch) copy of J, so each of einsum's inner loops spans the
    whole batch instead of 2–4 entries.  It adds the rows in the same
    order and gives ``...ki,...kj->...ij``'s bits on a C-ordered J.  At
    n = 1 that einsum reduces a contiguous run of K entries, which it
    groups otherwise, so n = 1 keeps it, and so do small batches, where
    the copies cost more than they save.  Both layouts give the same
    bits, so a point's Gram does not depend on its batch: the Gram of
    rows gathered from several batches equals the gathered Grams.
    """
    *batch, K, n = jacobian.shape
    size = math.prod(batch)
    if n < 2 or size < _GRAM_BATCH_INNER:
        g = np.einsum("...ki,...kj->...ij", jacobian, jacobian)
    else:
        rows = np.ascontiguousarray(jacobian.reshape(size, K * n).T)
        g = np.einsum("ki...,kj...->ij...", rows.reshape(K, n, size),
                      rows.reshape(K, n, size))
        g = np.ascontiguousarray(g.reshape(n * n, size).T)
        g = g.reshape(tuple(batch) + (n, n))
    return g, np.linalg.det(g), np.prod(np.einsum("...ii->...i", g), axis=-1)


def _below_floor(gram: tuple, floor: float) -> np.ndarray:
    """Mask of points whose metric g = JᵀJ is close to rank-deficient.

    This is minvar's one test of a degenerate metric.  It flags
    det g ≤ floor · Π g_ii (the scale-free Hadamard ratio), any
    non-positive determinant, and a NaN one: the mask is the complement
    of the passing comparisons, which a NaN fails, so a Jacobian holding
    NaN or inf is flagged, not kept.
    """
    _, det, hadamard = gram
    return ~((det > 0.0) & (det > floor * hadamard))


def metric(pe: PointEval) -> MetricEval:
    """First fundamental form g = JᵀJ with inverse and determinant.

    g and det g come from ``pe.gram``; ∂g is formed on first read of
    ``MetricEval.dg``.  Where ``_below_floor`` flags a point at RANK_TOL,
    a non-finite Jacobian (a chart singularity, an exact pole) included,
    it raises ``DegenerateMetric``, not a numpy warning.
    """
    g, det, hadamard = pe.gram
    bad = _below_floor(pe.gram, RANK_TOL)
    if np.any(bad):
        nonfinite = np.extract(~np.isfinite(det), det)
        if nonfinite.size:
            raise DegenerateMetric(f"non-finite metric: det g = {nonfinite[0]}"
                                   f" at {nonfinite.size} point(s)")
        # a vanishing Jacobian column makes Π g_ii = 0: report the ratio as 0
        ratio = np.divide(det, hadamard, out=np.zeros(np.shape(det)),
                          where=hadamard != 0.0)
        raise DegenerateMetric(
            f"rank-deficient metric: det/Hadamard ratio "
            f"{np.min(np.extract(bad, ratio)):.3e} <= {RANK_TOL:.1e}")
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
