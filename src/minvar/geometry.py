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

The mean curvature vector is H = Δ_g F; it is normal to the immersion, which
the tangential-residual field quantifies.  For maps into the unit sphere,
minimality is equivalent to Δ_g F = −n·F (sphere_minimality_residual, or
sphere_residual_from_pointeval on an existing ``PointEval``).

All operations accept batched points (leading axes broadcast through).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch, NotSpherical
from .jets import Jet1, Jet2

__all__ = [
    "RANK_TOL",
    "Immersion",
    "PointEval",
    "MetricEval",
    "MeanCurvatureEval",
    "metric",
    "metric_below_floor",
    "metric_derivative",
    "laplace_beltrami",
    "laplace_from_pointeval",
    "coordinate_laplacian",
    "coordinate_laplacian_from_pointeval",
    "mean_curvature",
    "sphere_minimality_residual",
    "sphere_residual_from_pointeval",
]

# Scale-invariant rank threshold: for a positive-definite g, Hadamard's
# inequality gives det g ≤ Π g_ii, so det g / Π g_ii ∈ (0, 1] measures
# conditioning independently of the metric's overall scale.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class PointEval:
    """Position, Jacobian and second-derivative tensor at parameter points."""

    position: np.ndarray  # (..., K)
    jacobian: np.ndarray  # (..., K, n)
    second: np.ndarray    # (..., K, n, n), symmetric in the trailing pair


@dataclass(frozen=True)
class MetricEval:
    """First fundamental form with inverse and determinant."""

    g: np.ndarray      # (..., n, n)
    g_inv: np.ndarray  # (..., n, n)
    det_g: np.ndarray  # (...,)


@dataclass(frozen=True)
class MeanCurvatureEval:
    """Mean curvature vector H = Δ_g F with its norm and tangential defect."""

    H: np.ndarray                    # (..., K)
    H_norm: np.ndarray               # (...,)
    tangential_residual: np.ndarray  # (...,)


@dataclass(frozen=True)
class Immersion:
    """A component map over an open box with degeneracy guards.

    ``components`` receives one scalar-like object per parameter (plain
    arrays or jets) and must return a sequence of ``ambient_dim`` scalar-like
    outputs built from the jet primitives.  ``exclusions`` are named
    predicates mapping a point batch (..., n) to a boolean exclusion mask.
    ``metric_floor``, if set, also excludes points whose induced metric is
    near rank-deficient (``metric_below_floor``).  It is data, not a
    predicate, because its test needs a jet pass.  ``screen`` runs a
    second-order ``eval`` and returns that ``PointEval``, so sampling and
    the residuals share one evaluation per draw; ``excluded``, for callers
    that want only the mask, runs a first-order pass that gives the same
    Jacobian bit for bit.
    """

    param_dim: int
    ambient_dim: int
    components: Callable[[Sequence], Sequence]
    domain: tuple[tuple[float, float], ...]
    exclusions: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...] = ()
    name: str = ""
    metric_floor: float | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def _check_point_shape(self, p: np.ndarray) -> None:
        if p.ndim == 0 or p.shape[-1] != self.param_dim:
            raise DimensionMismatch(
                f"{self.name or 'immersion'}: expected points with "
                f"{self.param_dim} coordinates, got shape {p.shape}")

    def position(self, p) -> np.ndarray:
        """Fast position-only evaluation, shape (..., n) → (..., K)."""
        p = np.asarray(p, dtype=np.float64)
        self._check_point_shape(p)
        cols = [p[..., i] for i in range(self.param_dim)]
        outs = self.components(cols)
        batch = p.shape[:-1]
        stacked = [np.broadcast_to(np.asarray(o, dtype=np.float64), batch)
                   for o in outs]
        return np.stack(stacked, axis=-1)

    def _jets(self, p, second: bool):
        """(position, jacobian, second or None) from one jet pass over p.

        Each parameter is seeded as a one-variable jet, so a component
        carries derivatives only on its support, the parameters it depends
        on; each output is scattered into the dense (..., K, n) and
        (..., K, n, n) arrays once.  Without ``second`` the seeds are
        value+gradient ``Jet1`` jets and no Hessian is formed.
        """
        p = np.asarray(p, dtype=np.float64)
        self._check_point_shape(p)
        n = self.param_dim
        batch = p.shape[:-1]
        one = np.broadcast_to(1.0, batch + (1,))
        if second:
            zero = np.broadcast_to(0.0, batch + (1, 1))
            seeds = [Jet2(p[..., i], one, zero, (i,)) for i in range(n)]
        else:
            seeds = [Jet1(p[..., i], one, (i,)) for i in range(n)]
        outs = self.components(seeds)
        if len(outs) != self.ambient_dim:
            raise DimensionMismatch(
                f"{self.name or 'immersion'}: component map returned "
                f"{len(outs)} coordinates, declared {self.ambient_dim}")
        K = self.ambient_dim
        position = np.empty(batch + (K,))
        jacobian = np.zeros(batch + (K, n))
        hessians = np.zeros(batch + (K, n, n)) if second else None
        for k, o in enumerate(outs):
            if isinstance(o, Jet2):
                idx = np.asarray(o.support, dtype=np.intp)
                position[..., k] = o.value
                jacobian[..., k, idx] = o.grad
                if second:
                    hessians[..., k, idx[:, None], idx] = o.hess
            else:
                position[..., k] = o
        return position, jacobian, hessians

    def eval(self, p) -> PointEval:
        """Exact first/second derivatives via jets, batched over leading axes.

        The result equals running ``components`` on the dense seeds
        ``variables(p)`` up to the sign of zero entries.
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

    def screen(self, p) -> tuple[np.ndarray, PointEval | None]:
        """(exclusion mask, PointEval of every point of ``p``).

        The mask ORs the predicates and, if set, the metric floor, which
        is tested on one second-order ``eval`` of the batch; that PointEval
        is returned so a caller can keep its accepted rows.  Without a
        floor nothing is evaluated and the PointEval is None.
        """
        mask = self._predicates(p)
        if self.metric_floor is None:
            return mask, None
        pe = self.eval(p)
        mask |= metric_below_floor(pe.jacobian, self.metric_floor)
        return mask, pe

    def excluded(self, p) -> np.ndarray:
        """Boolean mask of points rejected by any degeneracy guard.

        The same mask as ``screen``, from first-order work only: the metric
        floor needs the Jacobian, which a value+gradient jet pass gives
        bit for bit.
        """
        mask = self._predicates(p)
        if self.metric_floor is not None:
            mask |= metric_below_floor(self._jets(p, second=False)[1],
                                       self.metric_floor)
        return mask


def metric_below_floor(jacobian: np.ndarray, floor: float) -> np.ndarray:
    """Mask of points whose metric g = JᵀJ is close to rank-deficient.

    Flags det g ≤ floor · Π g_ii (the scale-free Hadamard ratio that
    RANK_TOL also bounds) and any non-positive determinant.
    """
    g = np.einsum("...ki,...kj->...ij", jacobian, jacobian)
    det = np.linalg.det(g)
    diag = np.einsum("...ii->...i", g)
    return (det <= 0.0) | (det <= floor * np.prod(diag, axis=-1))


def metric(pe: PointEval, rank_tol: float = RANK_TOL) -> MetricEval:
    """First fundamental form g = JᵀJ with inverse and determinant."""
    g = np.einsum("...ki,...kj->...ij", pe.jacobian, pe.jacobian)
    det = np.linalg.det(g)
    if g.shape[-1] == 0:
        return MetricEval(g=g, g_inv=g, det_g=det)
    diag = np.einsum("...ii->...i", g)
    ratio = det / np.prod(diag, axis=-1)
    if np.any(det <= 0.0) or np.any(ratio <= rank_tol):
        worst = float(np.min(ratio))
        raise DegenerateMetric(
            f"rank-deficient metric: det/Hadamard ratio {worst:.3e} "
            f"<= {rank_tol:.1e}")
    return MetricEval(g=g, g_inv=np.linalg.inv(g), det_g=det)


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
    gi = met.g_inv
    dg = metric_derivative(pe)
    trace2 = np.einsum("...ij,...aij->...a", gi, pe.second)
    if form == "contraction":
        # c_k = g^{ij} Γ_{kij} = g^{ij}∂ᵢg_{jk} − ½ g^{ij}∂ₖg_{ij}
        c = np.einsum("...ij,...ijk->...k", gi, dg) \
            - 0.5 * np.einsum("...ij,...kij->...k", gi, dg)
        corr = np.einsum("...lk,...k,...al->...a", gi, c, pe.jacobian)
        return trace2 - corr
    if form == "divergence":
        dlogs, dginv = _divergence_parts(gi, dg)
        v = np.einsum("...i,...ij->...j", dlogs, gi) \
            + np.einsum("...iij->...j", dginv)
        return trace2 + np.einsum("...j,...aj->...a", v, pe.jacobian)
    raise ValueError(f"unknown Laplace-Beltrami form: {form!r}")


def laplace_beltrami(imm: Immersion, p, form: str = "contraction") -> np.ndarray:
    """Mean curvature vector field Δ_g F at p (shape (..., K))."""
    return laplace_from_pointeval(imm.eval(p), form=form)


def coordinate_laplacian(imm: Immersion, p, index: int) -> np.ndarray:
    """Δ_g of the parameter coordinate u_index, via the divergence form."""
    return coordinate_laplacian_from_pointeval(imm.eval(p), index)


def coordinate_laplacian_from_pointeval(pe: PointEval, index: int,
                                        met: MetricEval | None = None
                                        ) -> np.ndarray:
    """Δ_g u_index from a PointEval, via the divergence form.

    For φ = u_c the divergence form collapses to
    Δφ = Σᵢ [∂ᵢ(log √g) g^{ic} + ∂ᵢ g^{ic}].  ``met``, if given, is the
    metric already assembled from ``pe``.
    """
    gi = (met or metric(pe)).g_inv
    dlogs, dginv = _divergence_parts(gi, metric_derivative(pe))
    return np.einsum("...i,...i->...", dlogs, gi[..., :, index]) \
        + np.einsum("...ii->...", dginv[..., :, :, index])


def mean_curvature(imm: Immersion, p) -> MeanCurvatureEval:
    """H = Δ_g F plus its norm and the norm of its tangential projection.

    The tangential part solves the normal equations g·c = Jᵀ H (the Gram
    matrix of the Jacobian columns is g itself) and measures ‖J·c‖.
    """
    pe = imm.eval(p)
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


def sphere_minimality_residual(imm: Immersion, p,
                               intrinsic_dim: int | None = None,
                               sphere_tol: float = 1e-12) -> np.ndarray:
    """‖n·F + Δ_g F‖ for immersions into the unit sphere (0 ⟺ minimal there)."""
    n = imm.param_dim if intrinsic_dim is None else intrinsic_dim
    return sphere_residual_from_pointeval(imm.eval(p), n,
                                          sphere_tol=sphere_tol)


def sphere_residual_from_pointeval(pe: PointEval, n: int,
                                   H: np.ndarray | None = None,
                                   sphere_tol: float = 1e-12) -> np.ndarray:
    """‖n·F + Δ_g F‖ from a PointEval; raises NotSpherical off the sphere.

    ``H``, if given, is Δ_g F already assembled from ``pe``.
    """
    radius = np.linalg.norm(pe.position, axis=-1)
    off = float(np.max(np.abs(radius - 1.0)))
    if off > sphere_tol:
        raise NotSpherical(
            f"image point leaves the unit sphere by {off:.3e} "
            f"(tolerance {sphere_tol:.1e})")
    if H is None:
        H = laplace_from_pointeval(pe)
    return np.linalg.norm(n * pe.position + H, axis=-1)
