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

``metric`` assembles g, g⁻¹, det g and ∂g once; every operator below reads
that ``MetricEval``.  The divergence form is g^{ij}∂ᵢ∂ⱼF + Σⱼ(Δ_g u_j)∂ⱼF.
The mean curvature vector H = Δ_g F is normal to the immersion, which
``mean_curvature``'s tangential residual quantifies.  For maps into the unit
sphere, minimality is Δ_g F = −n·F (``sphere_residual_from_pointeval``).

All operations accept batched points (leading axes broadcast through).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, NotSpherical
from .jets import Columns, Jet2, place

__all__ = [
    "RANK_TOL",
    "METRIC_RATIO_FLOOR",
    "SPHERE_TOL",
    "Immersion",
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


@dataclass(frozen=True)
class PointEval:
    """Position, Jacobian and second-derivative tensor at parameter points.

    ``gram`` is (g = JᵀJ, det g, Π g_ii) of ``jacobian`` when
    ``Immersion.screen`` formed it for its metric-floor test, else None
    (a plain ``eval`` forms none); ``metric`` reads it instead of forming
    g again.
    """

    position: np.ndarray  # (..., K)
    jacobian: np.ndarray  # (..., K, n)
    second: np.ndarray    # (..., K, n, n), symmetric in the trailing pair
    gram: tuple | None = None


@dataclass(frozen=True)
class MetricEval:
    """First fundamental form with inverse, determinant and derivative."""

    g: np.ndarray      # (..., n, n)
    g_inv: np.ndarray  # (..., n, n)
    det_g: np.ndarray  # (...,)
    dg: np.ndarray     # (..., n, n, n), [k, i, j] = ∂ₖ g_ij

    @cached_property
    def coordinate_laplacians(self) -> np.ndarray:
        """Δ_g u_j of every parameter coordinate, shape (..., n).

        For φ = u_j the divergence form collapses to
        Δ_g u_j = Σᵢ [∂ᵢ(log √g) g^{ij} + ∂ᵢ g^{ij}].  Formed on first
        use and shared by every reader of this record, so it is read-only.
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
        for part, rows in self._outputs(cols):
            position[..., rows] = part
        return position

    def _outputs(self, cols: Columns) -> list:
        """``components(cols)`` as (part, rows) pairs (``jets.place``).

        Raises DimensionMismatch unless the rows add up to ``ambient_dim``.
        """
        placed, count = place(self.components(cols), cols.batch)
        if count != self.ambient_dim:
            raise DimensionMismatch(
                f"{self.name or 'immersion'}: component map returned "
                f"{count} coordinates, declared {self.ambient_dim}")
        return placed

    def _jets(self, p, second: bool):
        """(position, jacobian, second or None) from one jet pass over p.

        ``components`` receives ``Columns``: a one-variable seed per
        column it reads alone and one component-axis seed per range it
        reads whole, so a part carries derivatives only on its support,
        the parameters it depends on.  Each part is written straight
        into its rows of the dense (..., K, n) and (..., K, n, n) arrays
        by ``_scatter_vector``; the parts are never joined first.
        Without ``second`` the seeds are value+gradient ``Jet1`` jets and
        no Hessian is formed.
        """
        p = np.asarray(p, dtype=np.float64)
        self._check_point_shape(p)
        n, K = self.param_dim, self.ambient_dim
        cols = Columns(p, 2 if second else 1)
        batch = cols.batch
        placed = self._outputs(cols)
        position = np.empty(batch + (K,))
        jacobian = np.zeros(batch + (K, n))
        hessians = np.zeros(batch + (K, n, n)) if second else None
        for part, rows in placed:
            _scatter_vector(part, rows, position, jacobian, hessians)
        return position, jacobian, hessians

    def eval(self, p) -> PointEval:
        """Exact first/second derivatives via jets, batched over leading axes.

        The result equals running ``components`` on ``Columns`` whose
        every seed carries the full support 0..n−1, up to the sign of
        zero entries.
        """
        position, jacobian, second = self._jets(p, second=True)
        return PointEval(position=position, jacobian=jacobian, second=second)

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


def _scatter_vector(out, rows, position: np.ndarray, jacobian: np.ndarray,
                    hessians: np.ndarray | None) -> None:
    """Write one output part into its ``rows`` of dense arrays.

    ``out`` is a jet or a plain array (or number): a vector with ``rows``
    a slice of its component count, or a scalar with ``rows`` one index.
    Its derivatives go to the columns of its support, and the other
    entries keep what the caller filled in (zeros).  ``hessians`` None
    skips the Hessian.  The support is written run by run, the Hessian
    run pair by run pair, as slices: a strided copy per run, where fancy
    indexing would gather every entry.
    """
    if not isinstance(out, Jet2):
        position[..., rows] = out
        return
    position[..., rows] = out.value
    runs = _runs(out.support)
    for slots, cols in runs:
        jacobian[..., rows, cols] = out.grad[..., slots]
    if hessians is not None:
        for slots_i, cols_i in runs:
            for slots_j, cols_j in runs:
                hessians[..., rows, cols_i, cols_j] = \
                    out.hess[..., slots_i, slots_j]


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
    ratio that RANK_TOL also bounds) and any non-positive determinant.
    """
    _, det, hadamard = gram
    return (det <= 0.0) | (det <= METRIC_RATIO_FLOOR * hadamard)


def metric(pe: PointEval) -> MetricEval:
    """First fundamental form g = JᵀJ with inverse, determinant and ∂g.

    g and det g come from ``pe.gram`` when ``screen`` carried them.
    """
    g, det, hadamard = _gram(pe.jacobian) if pe.gram is None else pe.gram
    # a vanishing Jacobian column makes Π g_ii = 0: report the ratio as 0
    ratio = np.divide(det, hadamard, out=np.zeros(np.shape(det)),
                      where=hadamard != 0.0)
    if np.any(det <= 0.0) or np.any(ratio <= RANK_TOL):
        worst = float(np.min(ratio))
        raise DegenerateMetric(
            f"rank-deficient metric: det/Hadamard ratio {worst:.3e} "
            f"<= {RANK_TOL:.1e}")
    return MetricEval(g=g, g_inv=np.linalg.inv(g), det_g=det,
                      dg=metric_derivative(pe))


def metric_derivative(pe: PointEval) -> np.ndarray:
    """∂ₖ g_ij assembled from first and second derivatives of F.

    Returns shape (..., n, n, n) indexed [k, i, j] = ∂ₖ(∂ᵢF·∂ⱼF).
    """
    second = pe.second
    n = second.shape[-1]
    # one batched matmul: (..., n·n, K) @ (..., K, n) -> (..., n·n, n)
    flat = np.swapaxes(second.reshape(second.shape[:-2] + (n * n,)), -1, -2)
    t = np.matmul(flat, pe.jacobian)
    t = t.reshape(t.shape[:-2] + (n, n, n))
    return t + np.swapaxes(t, -1, -2)


def _divergence_parts(gi: np.ndarray, dg: np.ndarray):
    """(∂ₖ log √g, ∂ₖ g^{ij}) from g^{-1} and ∂ₖ g_ij.

    ∂ₖ log √g = ½ tr(g⁻¹ ∂ₖ g) and ∂ₖ g^{ij} = −g^{ia} ∂ₖ g_ab g^{bj}.
    """
    dlogs = 0.5 * np.einsum("...ab,...iab->...i", gi, dg)
    gk = gi[..., None, :, :]
    return dlogs, -(gk @ dg @ gk)


def laplace_from_pointeval(pe: PointEval, form: str = "contraction",
                           met: MetricEval | None = None) -> np.ndarray:
    """Δ_g F from a PointEval; ``form`` picks the independent assembly route."""
    met = met or metric(pe)
    gi, dg = met.g_inv, met.dg
    trace2 = np.einsum("...ij,...aij->...a", gi, pe.second)
    if form == "contraction":
        # c_k = g^{ij} Γ_{kij} = g^{ij}∂ᵢg_{jk} − ½ g^{ij}∂ₖg_{ij}
        c = np.einsum("...ij,...ijk->...k", gi, dg) \
            - 0.5 * np.einsum("...ij,...kij->...k", gi, dg)
        corr = np.einsum("...lk,...k,...al->...a", gi, c, pe.jacobian)
        return trace2 - corr
    if form == "divergence":
        return trace2 + np.einsum("...j,...aj->...a",
                                  met.coordinate_laplacians, pe.jacobian)
    raise ValueError(f"unknown Laplace-Beltrami form: {form!r}")


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
