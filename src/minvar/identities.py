"""Batched checks of the structural identities behind helicoid minimality.

The paired torus maps C and D interact with the complex structure J
through five frame identities.  Those identities drive a factorization
of the helicoid metric determinant, the harmonicity of the axial
coordinate, and a six-term cancellation in the Laplacian of each
rotating block.  Every function in this module evaluates one of these
statements at a batch of parameter points of shape (..., n) and reports
defect norms of shape (...), normalized by the largest participating
term so a pass is meaningful at any scale.  A single point of shape
(n,) is a batch of one and gives shape-() values.  A point with a NaN or
infinite coordinate raises ``DomainError`` instead of giving NaN defects:
``clifford_frame`` and the helicoid record, which every check reads,
refuse it; a point where a chart degenerates raises ``DegenerateMetric``
from their ``metric``.

All frame data comes from ``CliffordBlock.join_pair`` on the halves
``charts.block_charts`` embeds, one pass per chart spec and batch,
through ``charts.pair_frame``.  The three helicoid checks
(``helicoid_algebra``, ``theta_harmonicity`` and ``proof_terms`` for
each block) read one shared record of a batch: per block C, JD, m, w,
∂m, g⁻¹, det g and the divergence summands, and for the whole helicoid
its metric, Δ_G Θ and the divergence-form Δ_G F.  Each block's C feeds
both its frame and the helicoid's parts (``_shared_pass``): one chart
embedding per distinct chart spec and batch (one for L standard blocks,
which have 2L like charts) and no ``Immersion.eval``, while the two
proof routes share nothing downstream of C.  The record keeps no
second-derivative arrays, and its arrays are read-only.  Only the last
batch's record is memoized, keyed by the spec and the points' shape and
bytes, so running every helicoid check on one batch costs one
evaluation, while a different batch in between evicts it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import reduce

import numpy as np

from .charts import (
    CliffordBlock,
    CliffordFrame,
    block_charts,
    clifford_frame,
    pair_frame,
    rotate_block,
)
from .errors import DimensionMismatch, DomainError, SpecError
from .families import GenHelicoidA, _block_spans, build_immersion
from .geometry import (
    PointEval,
    _divergence_parts,
    laplace_from_pointeval,
    metric,
)
from .jets import Columns

__all__ = [
    "LemmaResiduals",
    "HelicoidAlgebra",
    "AxialHarmonicity",
    "ProofTerms",
    "lemma_magic_residuals",
    "pairing_derivative_defect",
    "helicoid_algebra",
    "theta_harmonicity",
    "proof_terms",
]


def _rel(defect: np.ndarray, *scales: np.ndarray) -> np.ndarray:
    """Defect divided by the largest term magnitude, floored at 1.

    Terms in the frame identities are O(1) by construction (C and D are
    unit vectors), so the floor makes the ratio behave like an absolute
    defect near degeneracies instead of dividing by noise.
    """
    return defect / reduce(np.maximum, scales, 1.0)


def _sum_defect(terms: np.ndarray) -> np.ndarray:
    """Relative defect of a vanishing sum over the last axis of ``terms``."""
    return _rel(np.abs(np.sum(terms, axis=-1)),
                np.max(np.abs(terms), axis=-1, initial=0.0))


def _norm(v: np.ndarray) -> np.ndarray:
    """‖v‖ over the last axis: ``np.linalg.norm``'s own operations on a
    real axis, without its wrapper's overhead."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product over the trailing axes."""
    return (a @ v[..., None])[..., 0]


def _divergence_terms(fr: CliffordFrame) -> np.ndarray:
    """Per-index summands ∂_i(√g Σ_j g^{ij} w_j), shape (..., n).

    Their total vanishes identically on the torus; individual summands
    do not, which makes them the right normalization scale.
    """
    gi = fr.metric.g_inv
    sqrtg = np.sqrt(fr.metric.det_g)[..., None]
    dlogs, dginv = _divergence_parts(gi, fr.metric.dg)
    dsqrtg = sqrtg * dlogs      # ∂_k √g = √g ∂_k log √g
    return (dsqrtg * _mv(gi, fr.w)
            + sqrtg * np.einsum("...iij,...j->...i", dginv, fr.w)
            + sqrtg * np.einsum("...ij,...ij->...i", gi, fr.dw))


@dataclass(frozen=True)
class LemmaResiduals:
    """Relative defects of the five frame identities at chart points.

    Each field has the leading shape of the chart points.

    a1: JC equals m D plus the tangential lift of w through C.
    a2: -JD equals m C plus the tangential lift of w through D.
    b:  1 - m² equals the squared metric norm of w.
    c:  the weighted divergence Σ_i ∂_i(√g g^{ij} w_j) vanishes.
    d:  the derivative of m is metric-orthogonal to w.
    e:  the tangential gradient of m equals -2(JD + m C).
    """

    res_a1: np.ndarray
    res_a2: np.ndarray
    res_b: np.ndarray
    res_c: np.ndarray
    res_d: np.ndarray
    res_e: np.ndarray

    @property
    def max_residual(self) -> np.ndarray:
        return reduce(np.maximum, (self.res_a1, self.res_a2, self.res_b,
                                   self.res_c, self.res_d, self.res_e))


def lemma_magic_residuals(block: CliffordBlock, u) -> LemmaResiduals:
    """Evaluate both sides of the five frame identities at chart points u.

    ``u`` has shape (..., n).  All derivatives come from second-order
    jets of the torus maps; no finite differences are involved.
    Residuals are norms of LHS - RHS divided by the largest term in the
    identity (floored at 1).
    """
    fr = clifford_frame(block, u)
    m = fr.m[..., None]
    giw = _mv(fr.metric.g_inv, fr.w)

    lift_c = _mv(fr.dC, giw)
    res_a1 = _rel(_norm(fr.JC - (m * fr.D + lift_c)),
                  _norm(fr.JC), np.abs(fr.m), _norm(lift_c))

    lift_d = _mv(fr.dD, giw)
    res_a2 = _rel(_norm(-fr.JD - (m * fr.C + lift_d)),
                  _norm(fr.JD), np.abs(fr.m), _norm(lift_d))

    wnorm2 = np.einsum("...i,...i->...", fr.w, giw)
    res_b = _rel(np.abs((1.0 - fr.m ** 2) - wnorm2), fr.m ** 2,
                 np.abs(wnorm2))

    grad_m = _mv(fr.dC, _mv(fr.metric.g_inv, fr.dm))
    rhs_e = -2.0 * (fr.JD + m * fr.C)
    res_e = _rel(_norm(grad_m - rhs_e), _norm(grad_m), _norm(rhs_e))

    return LemmaResiduals(res_a1=res_a1, res_a2=res_a2, res_b=res_b,
                          res_c=_sum_defect(_divergence_terms(fr)),
                          res_d=_sum_defect(giw * fr.dm), res_e=res_e)


def pairing_derivative_defect(block: CliffordBlock, u) -> np.ndarray:
    """Defect of the split-sign derivative rule ∂_i m = ±2 w_i, shape (...).

    The sign is + on parameters of the first factor chart and - on the
    second; the rule presumes that coordinate split, so it is checked
    separately from the identities that consume it.
    """
    fr = clifford_frame(block, u)
    sign = np.where(np.arange(fr.w.shape[-1]) < fr.split, 1.0, -1.0)
    expected = 2.0 * sign * fr.w
    return _rel(np.max(np.abs(fr.dm - expected), axis=-1, initial=0.0),
                np.max(np.abs(expected), axis=-1, initial=0.0))


# ---------------------------------------------------------------------------
# Helicoid metric algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BlockData:
    """First-order frame data of one block at the helicoid points.

    The fields the helicoid checks read, with the ``_divergence_terms``
    summands in place of the second derivatives they come from.
    """

    C: np.ndarray
    JD: np.ndarray
    m: np.ndarray
    w: np.ndarray
    dm: np.ndarray
    g_inv: np.ndarray
    det_g: np.ndarray
    div_terms: np.ndarray


@dataclass(frozen=True)
class _HelicoidEval:
    """Everything the helicoid checks read at one batch of points.

    P = λ₀² + Σ_s λ_s² r_s² m_s² is the reduced squared angular speed;
    ``g`` and ``det_g`` are the assembled helicoid metric and its
    determinant, ``theta_laplacian`` Δ_G Θ and ``laplacian`` the
    divergence-form Δ_G F.  Arrays are read-only, because the record is
    shared between calls.
    """

    blocks: tuple[_BlockData, ...]
    theta: np.ndarray
    radii: np.ndarray
    P: np.ndarray
    g: np.ndarray
    det_g: np.ndarray
    theta_laplacian: np.ndarray
    laplacian: np.ndarray


def _read_only(obj) -> None:
    """Mark every array under a record (dataclasses, tuples) read-only."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, tuple):
        for item in obj:
            _read_only(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            _read_only(getattr(obj, f.name))


# (key, record) of the last batch: key is (spec, point shape, point bytes)
_last_eval: tuple | None = None


def _shared_pass(spec: GenHelicoidA, params, spans) -> tuple:
    """(block frames, helicoid ``PointEval``) from one jet pass per chart spec.

    ``block_charts`` embeds the charts of every block on their ranges of
    one second-order ``Columns``, like charts in one call; each block's
    ``join_pair`` of its halves gives its frame and its C.  The helicoid's
    parts are built from those C's and assembled as ``Immersion.eval``
    assembles them, so both have the bits of ``clifford_frame`` and
    ``Immersion.eval``.
    """
    cols = Columns(params, 2)
    halves = block_charts(spec.blocks, [cols[lo:hi] for lo, hi in spans])
    pairs = [b.join_pair(x, y) for b, (x, y) in zip(spec.blocks, halves)]
    frames = [pair_frame(b, c, d) for b, (c, d) in zip(spec.blocks, pairs)]
    outs = spec.components(cols, [c for c, _ in pairs])
    return frames, PointEval(*build_immersion(spec).assemble(outs, cols))


def _helicoid_eval(spec: GenHelicoidA, params) -> _HelicoidEval:
    """The shared record at helicoid points (..., n), memoized for one batch.

    One ``_shared_pass`` feeds every helicoid check.  Only the last batch
    is kept, so a caller running all checks on one batch pays for the jet
    work once, and nothing older than the last call stays alive.
    """
    global _last_eval
    if not isinstance(spec, GenHelicoidA):
        raise SpecError(f"helicoid identities need a GenHelicoidA, "
                        f"got {type(spec).__name__}")
    # a private copy: the record keeps views of it (theta, radii)
    params = np.array(params, dtype=float)
    spans = _block_spans(spec.blocks)
    n_u = spans[-1][1]
    L = len(spec.blocks)
    if params.ndim == 0 or params.shape[-1] != n_u + 1 + L:
        raise DimensionMismatch(f"expected points with {n_u + 1 + L} "
                                f"parameters, got shape {params.shape}")
    if not np.all(np.isfinite(params)):
        raise DomainError("helicoid identities: non-finite parameter point")
    key = (spec, params.shape, params.tobytes())
    last = _last_eval
    if last is not None and last[0] == key:
        return last[1]

    frames, pe = _shared_pass(spec, params, spans)
    radii = params[..., n_u + 1:]
    lams = spec.pitch.lambdas
    P = spec.pitch.lambda0 ** 2 + sum(lams[s] ** 2 * radii[..., s] ** 2
                                      * frames[s].m ** 2 for s in range(L))
    met = metric(pe)
    record = _HelicoidEval(
        blocks=tuple(_BlockData(C=fr.C, JD=fr.JD, m=fr.m, w=fr.w, dm=fr.dm,
                                g_inv=fr.metric.g_inv,
                                det_g=fr.metric.det_g,
                                div_terms=_divergence_terms(fr))
                     for fr in frames),
        theta=params[..., n_u], radii=radii, P=P, g=met.g, det_g=met.det_g,
        theta_laplacian=met.coordinate_laplacians[..., n_u],
        laplacian=laplace_from_pointeval(pe, form="divergence", met=met))
    _read_only(record)
    _last_eval = (key, record)
    return record


@dataclass(frozen=True)
class HelicoidAlgebra:
    """Direct vs. factored metric data of a rotating-block immersion.

    R is the squared angular speed, P its reduction by the tangential
    part of the rotation field, d the per-block weight vectors entering
    the inverse metric.  det_direct comes from the assembled Jacobian;
    det_factored and sqrtG_factored from the block formula.
    inverse_defect is ‖G · G_formula⁻¹ - I‖_max.  Scalars have the
    leading shape of the parameter points; d[s] adds the block's chart
    axis.
    """

    R: np.ndarray
    P: np.ndarray
    det_direct: np.ndarray
    det_factored: np.ndarray
    d: tuple[np.ndarray, ...]
    sqrtG_factored: np.ndarray
    det_defect: np.ndarray
    inverse_defect: np.ndarray


def helicoid_algebra(spec: GenHelicoidA, params) -> HelicoidAlgebra:
    """Assemble the helicoid metric two ways and compare.

    The direct route squares the full Jacobian.  The factored route
    multiplies per-block torus determinants with the scalar P, and
    builds the inverse from per-block data alone:

        G^{u^s_i u^{s'}_j} = δ_{ss'} g_s^{ij}/r_s² + d^s_i d^{s'}_j / P
        G^{u^s_i Θ}        = -d^s_i / P
        G^{ΘΘ}             = 1 / P,   G^{r_t r_t} = 1

    where d^s = λ_s g_s⁻¹ w^s.  The u-u coupling between distinct
    blocks is a genuine rank-one term; dropping it breaks G·G⁻¹ = I
    whenever two blocks carry nonzero w.
    """
    rec = _helicoid_eval(spec, params)
    radii, P = rec.radii, rec.P
    lam0 = spec.pitch.lambda0
    lams = spec.pitch.lambdas
    L = len(spec.blocks)
    n = rec.g.shape[-1]

    R = lam0 ** 2 + sum(lams[s] ** 2 * radii[..., s] ** 2 for s in range(L))
    det_factored = P
    sqrt_factored = np.sqrt(P)
    for s, blk in enumerate(rec.blocks):
        pd = spec.blocks[s].param_dim
        det_g = blk.det_g
        det_factored = det_factored * (radii[..., s] ** (2 * pd) * det_g)
        sqrt_factored = sqrt_factored * (radii[..., s] ** pd
                                         * np.sqrt(det_g))

    d = tuple(lams[s] * _mv(blk.g_inv, blk.w)
              for s, blk in enumerate(rec.blocks))

    spans = _block_spans(spec.blocks)
    theta_idx = spans[-1][1]
    dvec = np.concatenate(d, axis=-1)
    Pc = P[..., None]
    ginv = np.zeros(rec.g.shape)
    for s, (lo, hi) in enumerate(spans):
        ginv[..., lo:hi, lo:hi] = (rec.blocks[s].g_inv
                                   / (radii[..., s] ** 2)[..., None, None])
    ginv[..., :theta_idx, :theta_idx] += (dvec[..., :, None]
                                          * dvec[..., None, :]) / Pc[..., None]
    ginv[..., :theta_idx, theta_idx] = -dvec / Pc
    ginv[..., theta_idx, :theta_idx] = -dvec / Pc
    ginv[..., theta_idx, theta_idx] = 1.0 / P
    radial = np.arange(theta_idx + 1, n)
    ginv[..., radial, radial] = 1.0

    det_defect = np.abs(rec.det_g - det_factored) / np.maximum(
        np.abs(rec.det_g), np.abs(det_factored))
    inverse_defect = np.max(np.abs(rec.g @ ginv - np.eye(n)), axis=(-2, -1))

    return HelicoidAlgebra(R=R, P=P, det_direct=rec.det_g,
                           det_factored=det_factored, d=d,
                           sqrtG_factored=sqrt_factored,
                           det_defect=det_defect,
                           inverse_defect=inverse_defect)


@dataclass(frozen=True)
class AxialHarmonicity:
    """Harmonicity data of the axial coordinate on a helicoid.

    axial_laplacian is |Δ_G(λ₀ Θ)|; theta_laplacian is |Δ_G Θ| itself.
    block_divergence is the largest per-block defect of the weighted
    flux sum Σ_i ∂_i(P^{-1/2} √g g^{ij} w_j), whose vanishing is what
    collapses the mixed Laplacian terms.  Each field has the leading
    shape of the parameter points.
    """

    axial_laplacian: np.ndarray
    theta_laplacian: np.ndarray
    block_divergence: np.ndarray


def theta_harmonicity(spec: GenHelicoidA, params) -> AxialHarmonicity:
    """Check that the angle coordinate is harmonic, by two routes.

    The operator route applies the divergence-form Laplacian of the
    fully assembled metric to the coordinate Θ.  The block route
    differentiates the closed-form flux of each block through P and the
    block metric, which is the step that makes the operator route true.
    """
    rec = _helicoid_eval(spec, params)
    radii, P, theta_lap = rec.radii, rec.P, rec.theta_laplacian
    lam0 = spec.pitch.lambda0
    lams = spec.pitch.lambdas

    worst = np.zeros(P.shape)
    for s, blk in enumerate(rec.blocks):
        sqrtg = np.sqrt(blk.det_g)[..., None]
        # ∂_i P^{-1/2} = -λ_s² r_s² m (∂_i m) P^{-3/2}
        dinv_sqrt_p = ((-lams[s] ** 2 * radii[..., s] ** 2 * blk.m)[..., None]
                       * blk.dm * (P ** -1.5)[..., None])
        terms = (blk.div_terms / np.sqrt(P)[..., None]
                 + dinv_sqrt_p * sqrtg * _mv(blk.g_inv, blk.w))
        worst = np.maximum(worst, _sum_defect(terms))

    return AxialHarmonicity(axial_laplacian=np.abs(lam0 * theta_lap),
                            theta_laplacian=np.abs(theta_lap),
                            block_divergence=worst)


# ---------------------------------------------------------------------------
# Six-term cancellation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofTerms:
    """Closed-form pieces of √G Δ_G applied to one rotating block.

    S1/S2 collect the pure chart-direction derivatives, S3/S4 the mixed
    chart-angle ones, S5 the pure angle term, S6 the radial term.  Their
    sum vanishes identically; operator_defect compares the sum against
    √G times the generic Laplacian of the same ambient components.  The
    terms have shape (..., K) for the block's ambient dimension K; the
    scalars have the leading shape of the parameter points.
    """

    S1: np.ndarray
    S2: np.ndarray
    S3: np.ndarray
    S4: np.ndarray
    S5: np.ndarray
    S6: np.ndarray
    sum_norm: np.ndarray
    scale: np.ndarray
    operator_defect: np.ndarray

    @property
    def terms(self) -> tuple[np.ndarray, ...]:
        return (self.S1, self.S2, self.S3, self.S4, self.S5, self.S6)


def proof_terms(spec: GenHelicoidA, t: int, params) -> ProofTerms:
    """Evaluate the six cancellation terms for block t (1-based).

    ``t`` must be an integer (not a bool) in 1..L.

    Each term is assembled from frame values only: with m = D·JC,
    E[v] = cos(λ_t Θ) v + sin(λ_t Θ) Jv, k = λ_t² r^{2N+1} Q √g/√P and
    c = 2N r^{2N-1} Q √P √g,

        S1 = -c E[C] - 2 k m E[JD + m C]      S2 = -k (1-m²) E[C]
        S3 = S4 = k E[C + m JD]               S5 = -k E[C]
        S6 = +c E[C] + k m² E[C]

    Q is the square root of the other blocks' r^{4N} det g product.
    """
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise DimensionMismatch(f"block index must be an integer, got {t!r}")
    rec = _helicoid_eval(spec, params)
    theta, radii, P = rec.theta, rec.radii, rec.P
    L = len(spec.blocks)
    if not 1 <= t <= L:
        raise DimensionMismatch(f"block index {t} outside 1..{L}")
    ti = t - 1

    q_sq = 1.0
    for s, blk in enumerate(rec.blocks):
        if s != ti:
            pd = spec.blocks[s].param_dim
            q_sq = q_sq * (radii[..., s] ** (2 * pd) * blk.det_g)
    Q = np.sqrt(q_sq)

    fr = rec.blocks[ti]
    pd = spec.blocks[ti].param_dim
    r, lam = radii[..., ti], spec.pitch.lambdas[ti]
    sqrtg = np.sqrt(fr.det_g)
    m = fr.m[..., None]

    k = (lam ** 2 * r ** (pd + 1) * Q * sqrtg / np.sqrt(P))[..., None]
    c = (pd * r ** (pd - 1) * Q * np.sqrt(P) * sqrtg)[..., None]

    phase = lam * theta
    rot_c = rotate_block(fr.C, phase)

    S1 = -c * rot_c - 2.0 * k * m * rotate_block(fr.JD + m * fr.C, phase)
    S2 = -k * (1.0 - m ** 2) * rot_c
    S3 = k * rotate_block(fr.C + m * fr.JD, phase)
    S4 = S3.copy()
    S5 = -k * rot_c
    S6 = c * rot_c + k * m ** 2 * rot_c

    total = S1 + S2 + S3 + S4 + S5 + S6
    scale = reduce(np.maximum, (_norm(x) for x in (S1, S2, S3, S4, S5, S6)))

    amb_lo = sum(b.ambient_dim for b in spec.blocks[:ti])
    block_lap = (np.sqrt(rec.det_g)[..., None]
                 * rec.laplacian[..., amb_lo:amb_lo
                                 + spec.blocks[ti].ambient_dim])

    return ProofTerms(S1=S1, S2=S2, S3=S3, S4=S4, S5=S5, S6=S6,
                      sum_norm=_norm(total), scale=scale,
                      operator_defect=_norm(total - block_lap))
