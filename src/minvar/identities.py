"""Pointwise checks of the structural identities behind helicoid minimality.

The paired torus maps C and D interact with the complex structure J
through five frame identities.  Those identities drive a factorization
of the helicoid metric determinant, the harmonicity of the axial
coordinate, and a six-term cancellation in the Laplacian of each
rotating block.  Every function in this module evaluates one of these
statements at a single parameter point and reports defect norms,
normalized by the largest participating term so a pass is meaningful at
any scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import CliffordBlock, apply_complex_structure, clifford_frame
from .errors import DimensionMismatch
from .families import GenHelicoidA, build_immersion
from .geometry import (
    _divergence_parts,
    coordinate_laplacian,
    laplace_from_pointeval,
    metric,
    metric_derivative,
)

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


def _rel(defect: float, *scales: float) -> float:
    """Defect divided by the largest term magnitude, floored at 1.

    Terms in the frame identities are O(1) by construction (C and D are
    unit vectors), so the floor makes the ratio behave like an absolute
    defect near degeneracies instead of dividing by noise.
    """
    return float(defect) / max(1.0, *(float(s) for s in scales))


def _j_cols(a: np.ndarray) -> np.ndarray:
    """Apply the complex structure along the leading (component) axis."""
    return np.moveaxis(apply_complex_structure(np.moveaxis(a, 0, -1)), -1, 0)


@dataclass(frozen=True)
class _FrameJets:
    """Second-order data of one block frame at a single chart point."""

    C: np.ndarray        # (K,)
    D: np.ndarray        # (K,)
    JC: np.ndarray       # (K,)
    JD: np.ndarray       # (K,)
    dC: np.ndarray       # (K, n)
    dD: np.ndarray       # (K, n)
    g: np.ndarray        # (n, n)
    g_inv: np.ndarray    # (n, n)
    det_g: float
    dg: np.ndarray       # (n, n, n), [k, i, j] = ∂_k g_ij
    w: np.ndarray        # (n,),      w_i = ∂_i C · JC
    dw: np.ndarray       # (n, n),    [k, i] = ∂_k w_i
    m: float             # D · JC
    dm: np.ndarray       # (n,)
    split: int           # parameter count of the first factor chart


def _frame_jets(block: CliffordBlock, u) -> _FrameJets:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DimensionMismatch(f"expected a single chart point, got shape "
                                f"{u.shape}")
    pe_c = block.immersion().eval(u)
    pe_d = block.dual_immersion().eval(u)
    C, dC, d2C = pe_c.position, pe_c.jacobian, pe_c.second
    D, dD = pe_d.position, pe_d.jacobian
    JC = apply_complex_structure(C)
    JD = apply_complex_structure(D)
    JdC = _j_cols(dC)
    met = metric(pe_c)
    dg = metric_derivative(pe_c)
    w = dC.T @ JC
    dw = np.einsum("aik,a->ki", d2C, JC) + np.einsum("ai,ak->ki", dC, JdC)
    m = float(D @ JC)
    dm = dD.T @ JC + JdC.T @ D
    return _FrameJets(C=C, D=D, JC=JC, JD=JD, dC=dC, dD=dD,
                      g=met.g, g_inv=met.g_inv, det_g=float(met.det_g),
                      dg=dg, w=w, dw=dw, m=m, dm=dm,
                      split=block.chart_x.param_dim)


def _divergence_terms(fr: _FrameJets) -> np.ndarray:
    """Per-index summands ∂_i(√g Σ_j g^{ij} w_j), shape (n,).

    Their total vanishes identically on the torus; individual summands
    do not, which makes them the right normalization scale.
    """
    sqrtg = np.sqrt(fr.det_g)
    dlogs, dginv = _divergence_parts(fr.g_inv, fr.dg)
    dsqrtg = sqrtg * dlogs      # ∂_k √g = √g ∂_k log √g
    giw = fr.g_inv @ fr.w
    return (dsqrtg * giw
            + sqrtg * np.einsum("iij,j->i", dginv, fr.w)
            + sqrtg * np.einsum("ij,ij->i", fr.g_inv, fr.dw))


@dataclass(frozen=True)
class LemmaResiduals:
    """Relative defects of the five frame identities at one chart point.

    a1: JC equals m D plus the tangential lift of w through C.
    a2: -JD equals m C plus the tangential lift of w through D.
    b:  1 - m² equals the squared metric norm of w.
    c:  the weighted divergence Σ_i ∂_i(√g g^{ij} w_j) vanishes.
    d:  the derivative of m is metric-orthogonal to w.
    e:  the tangential gradient of m equals -2(JD + m C).
    """

    res_a1: float
    res_a2: float
    res_b: float
    res_c: float
    res_d: float
    res_e: float

    @property
    def max_residual(self) -> float:
        return max(self.res_a1, self.res_a2, self.res_b,
                   self.res_c, self.res_d, self.res_e)


def lemma_magic_residuals(block: CliffordBlock, u) -> LemmaResiduals:
    """Evaluate both sides of the five frame identities at chart point u.

    All derivatives come from second-order jets of the torus maps; no
    finite differences are involved.  Residuals are norms of LHS - RHS
    divided by the largest term in the identity (floored at 1).
    """
    fr = _frame_jets(block, u)

    lift_c = np.einsum("ij,j,ai->a", fr.g_inv, fr.w, fr.dC)
    rhs_a1 = fr.m * fr.D + lift_c
    res_a1 = _rel(np.linalg.norm(fr.JC - rhs_a1),
                  np.linalg.norm(fr.JC), abs(fr.m),
                  np.linalg.norm(lift_c))

    lift_d = np.einsum("ij,j,ai->a", fr.g_inv, fr.w, fr.dD)
    rhs_a2 = fr.m * fr.C + lift_d
    res_a2 = _rel(np.linalg.norm(-fr.JD - rhs_a2),
                  np.linalg.norm(fr.JD), abs(fr.m),
                  np.linalg.norm(lift_d))

    wnorm2 = float(fr.w @ fr.g_inv @ fr.w)
    res_b = _rel(abs((1.0 - fr.m ** 2) - wnorm2), fr.m ** 2, abs(wnorm2))

    div_terms = _divergence_terms(fr)
    res_c = _rel(abs(float(np.sum(div_terms))),
                 *(np.abs(div_terms) if div_terms.size else (0.0,)))

    pair_terms = (fr.g_inv @ fr.w) * fr.dm
    res_d = _rel(abs(float(np.sum(pair_terms))),
                 *(np.abs(pair_terms) if pair_terms.size else (0.0,)))

    grad_m = np.einsum("ij,i,aj->a", fr.g_inv, fr.dm, fr.dC)
    rhs_e = -2.0 * (fr.JD + fr.m * fr.C)
    res_e = _rel(np.linalg.norm(grad_m - rhs_e),
                 np.linalg.norm(grad_m), np.linalg.norm(rhs_e))

    return LemmaResiduals(res_a1=res_a1, res_a2=res_a2, res_b=res_b,
                          res_c=res_c, res_d=res_d, res_e=res_e)


def pairing_derivative_defect(block: CliffordBlock, u) -> float:
    """Defect of the split-sign derivative rule ∂_i m = ±2 w_i.

    The sign is + on parameters of the first factor chart and - on the
    second; the rule presumes that coordinate split, so it is checked
    separately from the identities that consume it.
    """
    fr = _frame_jets(block, u)
    sign = np.ones(fr.w.shape)
    sign[fr.split:] = -1.0
    expected = 2.0 * sign * fr.w
    defect = np.abs(fr.dm - expected)
    scales = np.abs(expected) if expected.size else (0.0,)
    return _rel(float(np.max(defect)) if defect.size else 0.0, *scales)


# ---------------------------------------------------------------------------
# Helicoid metric algebra
# ---------------------------------------------------------------------------


def _block_spans(spec: GenHelicoidA) -> list[tuple[int, int]]:
    spans, start = [], 0
    for b in spec.blocks:
        spans.append((start, start + b.param_dim))
        start += b.param_dim
    return spans


def _split_params(spec: GenHelicoidA, params):
    """(u-slices per block, theta, radii) from the flat parameter vector."""
    params = np.asarray(params, dtype=float)
    spans = _block_spans(spec)
    n_u = spans[-1][1]
    L = len(spec.blocks)
    if params.shape != (n_u + 1 + L,):
        raise DimensionMismatch(
            f"expected {n_u + 1 + L} parameters, got shape {params.shape}")
    us = [params[lo:hi] for lo, hi in spans]
    theta = float(params[n_u])
    radii = params[n_u + 1:]
    return us, theta, radii


@dataclass(frozen=True)
class HelicoidAlgebra:
    """Direct vs. factored metric data of a rotating-block immersion.

    R is the squared angular speed, P its reduction by the tangential
    part of the rotation field, d the per-block weight vectors entering
    the inverse metric.  det_direct comes from the assembled Jacobian;
    det_factored and sqrtG_factored from the block formula.
    inverse_defect is ‖G · G_formula⁻¹ - I‖_max.
    """

    R: float
    P: float
    det_direct: float
    det_factored: float
    d: tuple[np.ndarray, ...]
    sqrtG_factored: float
    det_defect: float
    inverse_defect: float


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
    us, _, radii = _split_params(spec, params)
    lam0 = spec.pitch.lambda0
    lams = spec.pitch.lambdas
    L = len(spec.blocks)

    imm = build_immersion(spec)
    met = metric(imm.eval(params))
    g_direct = met.g
    det_direct = float(met.det_g)
    n = g_direct.shape[0]

    frames = [clifford_frame(b, u) for b, u in zip(spec.blocks, us)]

    R = lam0 ** 2 + float(sum(lams[s] ** 2 * radii[s] ** 2
                              for s in range(L)))
    P = lam0 ** 2 + float(sum(lams[s] ** 2 * radii[s] ** 2
                              * frames[s].m ** 2 for s in range(L)))
    det_factored = P
    sqrt_factored = np.sqrt(P)
    for s, fr in enumerate(frames):
        pd = spec.blocks[s].param_dim
        det_factored *= radii[s] ** (2 * pd) * float(fr.metric.det_g)
        sqrt_factored *= radii[s] ** pd * np.sqrt(float(fr.metric.det_g))

    d = tuple(lams[s] * (frames[s].metric.g_inv @ frames[s].w)
              for s in range(L))

    spans = _block_spans(spec)
    theta_idx = spans[-1][1]
    ginv = np.zeros((n, n))
    for s, (lo, hi) in enumerate(spans):
        ginv[lo:hi, lo:hi] = frames[s].metric.g_inv / radii[s] ** 2
        ginv[lo:hi, theta_idx] = -d[s] / P
        ginv[theta_idx, lo:hi] = -d[s] / P
        for s2, (lo2, hi2) in enumerate(spans):
            ginv[lo:hi, lo2:hi2] += np.outer(d[s], d[s2]) / P
    ginv[theta_idx, theta_idx] = 1.0 / P
    for t in range(L):
        ginv[theta_idx + 1 + t, theta_idx + 1 + t] = 1.0

    det_defect = abs(det_direct - det_factored) / max(
        abs(det_direct), abs(det_factored))
    inverse_defect = float(np.max(np.abs(g_direct @ ginv - np.eye(n))))

    return HelicoidAlgebra(R=R, P=P, det_direct=det_direct,
                           det_factored=float(det_factored), d=d,
                           sqrtG_factored=float(sqrt_factored),
                           det_defect=float(det_defect),
                           inverse_defect=inverse_defect)


@dataclass(frozen=True)
class AxialHarmonicity:
    """Harmonicity data of the axial coordinate on a helicoid.

    axial_laplacian is |Δ_G(λ₀ Θ)|; theta_laplacian is |Δ_G Θ| itself.
    block_divergence is the largest per-block defect of the weighted
    flux sum Σ_i ∂_i(P^{-1/2} √g g^{ij} w_j), whose vanishing is what
    collapses the mixed Laplacian terms.
    """

    axial_laplacian: float
    theta_laplacian: float
    block_divergence: float


def theta_harmonicity(spec: GenHelicoidA, params) -> AxialHarmonicity:
    """Check that the angle coordinate is harmonic, by two routes.

    The operator route applies the divergence-form Laplacian of the
    fully assembled metric to the coordinate Θ.  The block route
    differentiates the closed-form flux of each block through P and the
    block metric, which is the step that makes the operator route true.
    """
    us, _, radii = _split_params(spec, params)
    lam0 = spec.pitch.lambda0
    lams = spec.pitch.lambdas

    spans = _block_spans(spec)
    theta_idx = spans[-1][1]
    imm = build_immersion(spec)
    theta_lap = float(coordinate_laplacian(imm, np.asarray(params, float),
                                           theta_idx))

    frames = [_frame_jets(b, u) for b, u in zip(spec.blocks, us)]
    P = lam0 ** 2 + float(sum(lams[s] ** 2 * radii[s] ** 2
                              * frames[s].m ** 2 for s in range(len(us))))

    worst = 0.0
    for s, fr in enumerate(frames):
        if fr.w.size == 0:
            continue
        sqrtg = np.sqrt(fr.det_g)
        giw = fr.g_inv @ fr.w
        # ∂_i P^{-1/2} = -λ_s² r_s² m (∂_i m) P^{-3/2}
        dinv_sqrt_p = (-lams[s] ** 2 * radii[s] ** 2 * fr.m * fr.dm
                       * P ** -1.5)
        terms = (_divergence_terms(fr) / np.sqrt(P)
                 + dinv_sqrt_p * sqrtg * giw)
        worst = max(worst, _rel(abs(float(np.sum(terms))), *np.abs(terms)))

    return AxialHarmonicity(axial_laplacian=abs(lam0 * theta_lap),
                            theta_laplacian=abs(theta_lap),
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
    √G times the generic Laplacian of the same ambient components.
    """

    S1: np.ndarray
    S2: np.ndarray
    S3: np.ndarray
    S4: np.ndarray
    S5: np.ndarray
    S6: np.ndarray
    sum_norm: float
    scale: float
    operator_defect: float

    @property
    def terms(self) -> tuple[np.ndarray, ...]:
        return (self.S1, self.S2, self.S3, self.S4, self.S5, self.S6)


def proof_terms(spec: GenHelicoidA, t: int, params) -> ProofTerms:
    """Evaluate the six cancellation terms for block t (1-based).

    Each term is assembled from frame values only: with m = D·JC,
    E[v] = cos(λ_t Θ) v + sin(λ_t Θ) Jv, k = λ_t² r^{2N+1} Q √g/√P and
    c = 2N r^{2N-1} Q √P √g,

        S1 = -c E[C] - 2 k m E[JD + m C]      S2 = -k (1-m²) E[C]
        S3 = S4 = k E[C + m JD]               S5 = -k E[C]
        S6 = +c E[C] + k m² E[C]

    Q is the square root of the other blocks' r^{4N} det g product.
    """
    L = len(spec.blocks)
    if not 1 <= t <= L:
        raise DimensionMismatch(f"block index {t} outside 1..{L}")
    ti = t - 1
    us, theta, radii = _split_params(spec, params)
    lam0 = spec.pitch.lambda0
    lams = spec.pitch.lambdas

    frames = [clifford_frame(b, u) for b, u in zip(spec.blocks, us)]
    P = lam0 ** 2 + float(sum(lams[s] ** 2 * radii[s] ** 2
                              * frames[s].m ** 2 for s in range(L)))
    q_sq = 1.0
    for s in range(L):
        if s != ti:
            pd = spec.blocks[s].param_dim
            q_sq *= radii[s] ** (2 * pd) * float(frames[s].metric.det_g)
    Q = np.sqrt(q_sq)

    fr = frames[ti]
    pd = spec.blocks[ti].param_dim
    r, lam = float(radii[ti]), lams[ti]
    sqrtg = np.sqrt(float(fr.metric.det_g))
    m = float(fr.m)

    k = lam ** 2 * r ** (pd + 1) * Q * sqrtg / np.sqrt(P)
    c = pd * r ** (pd - 1) * Q * np.sqrt(P) * sqrtg

    phase = lam * theta

    def rot(v):
        return np.cos(phase) * v + np.sin(phase) * apply_complex_structure(v)

    S1 = -c * rot(fr.C) - 2.0 * k * m * rot(fr.JD + m * fr.C)
    S2 = -k * (1.0 - m ** 2) * rot(fr.C)
    S3 = k * rot(fr.C + m * fr.JD)
    S4 = S3.copy()
    S5 = -k * rot(fr.C)
    S6 = c * rot(fr.C) + k * m ** 2 * rot(fr.C)

    total = S1 + S2 + S3 + S4 + S5 + S6
    scale = max(np.linalg.norm(x) for x in (S1, S2, S3, S4, S5, S6))

    imm = build_immersion(spec)
    pe = imm.eval(np.asarray(params, dtype=float))
    met = metric(pe)
    lap = laplace_from_pointeval(pe, form="divergence", met=met)
    sqrtG = np.sqrt(float(met.det_g))
    amb_lo = sum(b.ambient_dim for b in spec.blocks[:ti])
    block_lap = sqrtG * lap[amb_lo:amb_lo + spec.blocks[ti].ambient_dim]
    operator_defect = float(np.linalg.norm(total - block_lap))

    return ProofTerms(S1=S1, S2=S2, S3=S3, S4=S4, S5=S5, S6=S6,
                      sum_norm=float(np.linalg.norm(total)),
                      scale=float(scale),
                      operator_defect=operator_defect)
