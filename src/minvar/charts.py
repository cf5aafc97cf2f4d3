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
rotate the block.  Chart formulas are written in the jet primitives, so a
block evaluates under plain numpy or jets alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jets
from .errors import ChartDomainError, SpecError
from .geometry import (
    Immersion,
    MetricEval,
    PointEval,
    metric,
    metric_derivative,
)

__all__ = [
    "SphereChart",
    "CliffordBlock",
    "CliffordFrame",
    "apply_complex_structure",
    "clifford_frame",
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


def _check_orthogonal(mat: np.ndarray, size: int, label: str) -> None:
    if mat.shape != (size, size):
        raise SpecError(f"{label} must be {size}x{size}, got {mat.shape}")
    defect = float(np.max(np.abs(mat.T @ mat - np.eye(size))))
    if not defect <= ORTHO_TOL:   # NaN fails too
        raise SpecError(f"{label} is not orthogonal (defect {defect:.3e})")


def apply_complex_structure(vec: np.ndarray) -> np.ndarray:
    """J(a; b) = (−b; a) acting on the last axis, which must be even."""
    vec = np.asarray(vec)
    m = vec.shape[-1]
    if m % 2:
        raise SpecError(f"J needs an even ambient dimension, got {m}")
    half = m // 2
    return np.concatenate([-vec[..., half:], vec[..., :half]], axis=-1)


def _jet_values(x):
    return x.value if isinstance(x, jets.Jet2) else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class SphereChart:
    """A parametrized patch of S^dim, optionally rotated inside ℝ^{dim+1}."""

    dim: int
    kind: str = "stereographic"
    rotation: tuple | None = None
    branch: int = 1

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 0:
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
            _check_orthogonal(np.asarray(self.rotation, dtype=np.float64),
                              self.dim + 1, "chart rotation")

    @property
    def param_dim(self) -> int:
        return 0 if self.kind == "point" else self.dim

    @property
    def rotation_matrix(self) -> np.ndarray | None:
        if self.rotation is None:
            return None
        return np.asarray(self.rotation, dtype=np.float64)

    def domain_box(self) -> tuple[tuple[float, float], ...]:
        if self.kind == "point":
            return ()
        if self.kind == "stereographic":
            return ((-1.5, 1.5),) * self.dim
        guarded = ((ANGLE_MARGIN, np.pi - ANGLE_MARGIN),) * (self.dim - 1)
        return guarded + ((-np.pi, np.pi),)

    def embed(self, cols: Sequence) -> list:
        """Map chart parameters (scalars or jets) to dim+1 sphere coordinates."""
        if len(cols) != self.param_dim:
            raise SpecError(f"chart expects {self.param_dim} parameters, "
                            f"got {len(cols)}")
        if self.kind == "point":
            out = [float(self.branch)]
        elif self.kind == "stereographic":
            s = cols[0] * cols[0]
            for c in cols[1:]:
                s = s + c * c
            denom = 1.0 + s
            out = [2.0 * c / denom for c in cols] + [(1.0 - s) / denom]
        else:
            for phi in cols[:-1]:
                bad = np.abs(np.sin(_jet_values(phi))) < SIN_GUARD
                if np.any(bad):
                    raise ChartDomainError(
                        "trigonometric chart degenerates where an interior "
                        "sine vanishes")
            out = []
            prefix = 1.0
            for phi in cols:
                out.append(prefix * jets.cos(phi))
                prefix = prefix * jets.sin(phi)
            out.append(prefix)
        rot = self.rotation_matrix
        if rot is not None:
            out = jets.linear_map(rot, out)
        return out

    def immersion(self) -> Immersion:
        """The chart as an immersion into ℝ^{dim+1} (image in S^dim)."""
        return Immersion(param_dim=self.param_dim, ambient_dim=self.dim + 1,
                         components=lambda cols: self.embed(cols),
                         domain=self.domain_box(),
                         name=f"sphere-chart-{self.kind}-S{self.dim}")


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
            mat = np.asarray(self.unitary, dtype=np.float64)
            size = self.ambient_dim
            _check_orthogonal(mat, size, "block unitary")
            half = size // 2
            j = np.zeros((size, size))
            j[:half, half:] = -np.eye(half)
            j[half:, :half] = np.eye(half)
            defect = float(np.max(np.abs(mat @ j - j @ mat)))
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

    @property
    def unitary_matrix(self) -> np.ndarray | None:
        if self.unitary is None:
            return None
        return np.asarray(self.unitary, dtype=np.float64)

    def domain_box(self) -> tuple[tuple[float, float], ...]:
        return self.chart_x.domain_box() + self.chart_y.domain_box()

    def _fields(self, cols: Sequence, signs: tuple) -> list:
        """(X; ±Y)/√2, one component list per sign, from one chart pass."""
        nx = self.chart_x.param_dim
        if len(cols) != self.param_dim:
            raise SpecError(f"block expects {self.param_dim} parameters, "
                            f"got {len(cols)}")
        x = self.chart_x.embed(cols[:nx])
        y = self.chart_y.embed(cols[nx:])
        inv = 1.0 / np.sqrt(2.0)
        u = self.unitary_matrix
        out = []
        for sign in signs:
            f = [inv * xi for xi in x] + [sign * inv * yi for yi in y]
            out.append(f if u is None else jets.linear_map(u, f))
        return out

    def embed(self, cols: Sequence) -> list:
        """Component list of C at chart parameters (scalars or jets)."""
        return self._fields(cols, (1.0,))[0]

    def embed_pair(self, cols: Sequence) -> tuple[list, list]:
        """Component lists (C, D) at chart parameters (scalars or jets)."""
        c, d = self._fields(cols, (1.0, -1.0))
        return c, d

    def immersion(self) -> Immersion:
        return Immersion(param_dim=self.param_dim, ambient_dim=self.ambient_dim,
                         components=self.embed,
                         domain=self.domain_box(),
                         name=f"clifford-torus-S{self.sphere_dim}")

    def dual_immersion(self) -> Immersion:
        return Immersion(param_dim=self.param_dim, ambient_dim=self.ambient_dim,
                         components=lambda cols: self._fields(cols, (-1.0,))[0],
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
    metric: MetricEval
    dg: np.ndarray     # (..., n, n, n), [k, i, j] = ∂_k g_ij
    dw: np.ndarray     # (..., n, n),    [k, i] = ∂_k w_i
    dm: np.ndarray     # (..., n)
    split: int         # parameter count of the first factor chart


def clifford_frame(block: CliffordBlock, p) -> CliffordFrame:
    """Second-order frame of the torus map at chart points p (..., n).

    C and D come from one jet evaluation of ``embed_pair``, so each chart
    is embedded once; their values and derivatives equal those of
    ``block.immersion().eval(p)`` and ``block.dual_immersion().eval(p)``.
    """
    K = block.ambient_dim
    pair = Immersion(param_dim=block.param_dim, ambient_dim=2 * K,
                     components=lambda cols: [
                         x for f in block.embed_pair(cols) for x in f],
                     domain=block.domain_box(),
                     name=f"clifford-pair-S{block.sphere_dim}")
    pe = pair.eval(p)
    C, D = pe.position[..., :K], pe.position[..., K:]
    dC, dD = pe.jacobian[..., :K, :], pe.jacobian[..., K:, :]
    pe_c = PointEval(position=C, jacobian=dC, second=pe.second[..., :K, :, :])
    jc = apply_complex_structure(C)
    jdc = np.swapaxes(apply_complex_structure(np.swapaxes(dC, -1, -2)),
                      -1, -2)
    w = np.einsum("...aj,...a->...j", dC, jc)
    dw = np.einsum("...aik,...a->...ki", pe_c.second, jc) \
        + np.einsum("...ai,...ak->...ki", dC, jdc)
    dm = np.einsum("...ai,...a->...i", dD, jc) \
        + np.einsum("...ai,...a->...i", jdc, D)
    return CliffordFrame(C=C, D=D, JC=jc, JD=apply_complex_structure(D),
                         dC=dC, dD=dD, d2C=pe_c.second, w=w,
                         m=np.einsum("...a,...a->...", D, jc),
                         metric=metric(pe_c), dg=metric_derivative(pe_c),
                         dw=dw, dm=dm, split=block.chart_x.param_dim)
