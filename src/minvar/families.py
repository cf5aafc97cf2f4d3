"""Catalog of screw-invariant minimal submanifold families.

Every family is a declarative frozen spec that ``build_immersion`` turns into
an ``Immersion`` whose position map matches the family's defining formula:

* ``CliffordTorus`` / ``CliffordCone``: the torus C = (X; Y)/√2 in S^{2N+1}
  and the cone r·C over it;
* ``LRaysCone`` / ``SphericalJoin``: (r₁P, …, r_L P) over a spherical base
  submanifold P, and its unit-sphere section (x₁P, …, x_L P), ‖x‖ = 1;
* ``LRaysCliffordCone``: the rays cone with the Clifford torus as base;
* ``GenHelicoidA``: blocks r_t·e^{i λ_t Θ}C_t(u^t) plus an axial coordinate
  λ₀Θ — one independent torus per block;
* ``GenHelicoidB``: a single torus swept with one angular rate,
  r_t·e^{i λ Θ}C(u) per block, axial λ₀Θ;
* ``ChoeHoppe``: the classical-helicoid generalization in ℝ^{2N+1} over the
  cone Σp_k² = Σq_k², interleaved coordinates
  (p_k cosΘ − q_k sinΘ, q_k cosΘ + p_k sinΘ, λΘ);
* ``BDJ``: the ruled family (r_t cos λ_tΘ, r_t sin λ_tΘ, λ₀Θ);
* ``LawsonSurface``: (cos t · e^{iλ₁Θ}, sin t · e^{iλ₂Θ}) in S³;
* ``HarveyLawsonCone``: (r₁X, r₁Y, r₂X, r₂Y) over unit-sphere factors;
* ``SphericalSlice``: the unit-sphere section of a zero-axial GenHelicoidA,
  radii replaced by a point of S^{L−1};
* ``LatitudeCircle`` / ``Cylinder``: negative controls (non-minimal for
  height ≠ 0, resp. ‖H‖ = 1/radius).

Rotating a complex block by e^{iφ} in real coordinates is
v ↦ cos(φ)·v + sin(φ)·J v with J(a; b) = (−b; a); ``screw_action`` applies
that blockwise plus the axial translation λ₀t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import jets
from .charts import CliffordBlock, SphereChart, matrix_tuple
from .errors import BranchLocusError, DimensionMismatch, SpecError
from .geometry import Immersion
from .jets import jet_eval

__all__ = [
    "PitchVector",
    "CliffordTorus",
    "CliffordCone",
    "LRaysCone",
    "LRaysCliffordCone",
    "SphericalJoin",
    "GenHelicoidA",
    "GenHelicoidB",
    "ChoeHoppe",
    "BDJ",
    "LawsonSurface",
    "HarveyLawsonCone",
    "SphericalSlice",
    "LatitudeCircle",
    "Cylinder",
    "FamilySpec",
    "build_immersion",
    "screw_action",
    "screw_data",
    "scaling_indices",
    "is_negative_control",
    "lands_on_unit_sphere",
    "spec_dimensions",
    "standard_chart",
    "standard_block",
    "choe_hoppe_graph_residual",
    "spec_to_json",
    "spec_from_json",
    "BRANCH_TOL",
]

RADIAL_BOX = (0.3, 1.7)
THETA_BOX = (-np.pi, np.pi)
AXIS_BOX = (-2.0, 2.0)
BRANCH_TOL = 1e-2
METRIC_RATIO_FLOOR = 1e-10


def _float_tuple(xs) -> tuple[float, ...]:
    return tuple(float(x) for x in xs)


@dataclass(frozen=True)
class PitchVector:
    """Axial rate lambda0 plus one angular rate per block."""

    lambda0: float
    lambdas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda0", float(self.lambda0))
        object.__setattr__(self, "lambdas", _float_tuple(self.lambdas))
        if len(self.lambdas) < 1:
            raise SpecError("pitch vector needs at least one angular rate")

    @property
    def blocks(self) -> int:
        return len(self.lambdas)

    @property
    def is_zero(self) -> bool:
        return self.lambda0 == 0.0 and all(l == 0.0 for l in self.lambdas)


@dataclass(frozen=True)
class CliffordTorus:
    block: CliffordBlock


@dataclass(frozen=True)
class CliffordCone:
    block: CliffordBlock


@dataclass(frozen=True)
class LRaysCone:
    rays: int
    base: "BaseSpec"

    def __post_init__(self):
        _check_rays(self.rays)
        _check_spherical_base(self.base)


@dataclass(frozen=True)
class LRaysCliffordCone:
    rays: int
    block: CliffordBlock

    def __post_init__(self):
        _check_rays(self.rays)


@dataclass(frozen=True)
class SphericalJoin:
    xs: SphereChart
    base: "BaseSpec"

    def __post_init__(self):
        _check_spherical_base(self.base)


@dataclass(frozen=True)
class GenHelicoidA:
    pitch: PitchVector
    blocks: tuple[CliffordBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        _check_pitch(self.pitch)
        if not self.blocks:
            raise SpecError("helicoid needs at least one block")
        if self.pitch.blocks != len(self.blocks):
            raise SpecError(
                f"pitch vector has {self.pitch.blocks} angular rates but "
                f"{len(self.blocks)} blocks were given")
        dims = {b.sphere_dim for b in self.blocks}
        if len(dims) != 1:
            raise SpecError(f"blocks must share one sphere dimension, "
                            f"got {sorted(dims)}")


@dataclass(frozen=True)
class GenHelicoidB:
    rays: int
    block: CliffordBlock
    angular_pitch: float
    axial_pitch: float

    def __post_init__(self):
        _check_rays(self.rays)
        object.__setattr__(self, "angular_pitch", float(self.angular_pitch))
        object.__setattr__(self, "axial_pitch", float(self.axial_pitch))


@dataclass(frozen=True)
class ChoeHoppe:
    sphere_dim: int              # N: the cone lives in R^{2N}
    pitch: float
    chart_p: SphereChart | None = None
    chart_q: SphereChart | None = None

    def __post_init__(self):
        if not isinstance(self.sphere_dim, int) or self.sphere_dim < 1:
            raise SpecError("sphere_dim must be an integer >= 1")
        object.__setattr__(self, "pitch", float(self.pitch))
        for label, chart in (("chart_p", self.chart_p),
                             ("chart_q", self.chart_q)):
            if chart is not None and chart.dim != self.sphere_dim - 1:
                raise SpecError(f"{label} must parametrize "
                                f"S^{self.sphere_dim - 1}, got S^{chart.dim}")


@dataclass(frozen=True)
class BDJ:
    pitch: PitchVector

    def __post_init__(self):
        _check_pitch(self.pitch)


@dataclass(frozen=True)
class LawsonSurface:
    lambda1: float
    lambda2: float

    def __post_init__(self):
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))
        if self.lambda1 == 0.0 and self.lambda2 == 0.0:
            raise SpecError("rotation rates must not both vanish")


@dataclass(frozen=True)
class HarveyLawsonCone:
    sphere_dim: int
    chart_x: SphereChart | None = None
    chart_y: SphereChart | None = None

    def __post_init__(self):
        if not isinstance(self.sphere_dim, int) or self.sphere_dim < 0:
            raise SpecError("sphere_dim must be an integer >= 0")
        for label, chart in (("chart_x", self.chart_x),
                             ("chart_y", self.chart_y)):
            if chart is not None and chart.dim != self.sphere_dim:
                raise SpecError(f"{label} must parametrize "
                                f"S^{self.sphere_dim}, got S^{chart.dim}")


@dataclass(frozen=True)
class SphericalSlice:
    inner: GenHelicoidA
    chart: SphereChart | None = None   # point of S^{L-1} replacing the radii

    def __post_init__(self):
        if self.inner.pitch.lambda0 != 0.0:
            raise SpecError("sphere sections need a zero axial rate")
        L = len(self.inner.blocks)
        if self.chart is not None and self.chart.dim != L - 1:
            raise SpecError(f"slice chart must parametrize S^{L - 1}, "
                            f"got S^{self.chart.dim}")


@dataclass(frozen=True)
class LatitudeCircle:
    height: float

    def __post_init__(self):
        object.__setattr__(self, "height", float(self.height))
        if not abs(self.height) < 1.0:
            raise SpecError("latitude height must satisfy |h| < 1")


@dataclass(frozen=True)
class Cylinder:
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0.0:
            raise SpecError("cylinder radius must be positive")


FamilySpec = Union[
    CliffordTorus, CliffordCone, LRaysCone, LRaysCliffordCone, SphericalJoin,
    GenHelicoidA, GenHelicoidB, ChoeHoppe, BDJ, LawsonSurface,
    HarveyLawsonCone, SphericalSlice, LatitudeCircle, Cylinder,
]
BaseSpec = Union[FamilySpec, SphereChart]

SPHERICAL_KINDS = (CliffordTorus, SphericalJoin, SphericalSlice,
                   LawsonSurface, LatitudeCircle)


def _check_rays(rays) -> None:
    if not isinstance(rays, int) or rays < 1:
        raise SpecError(f"ray count must be an integer >= 1, got {rays!r}")


def _check_pitch(pitch) -> None:
    if not isinstance(pitch, PitchVector):
        raise SpecError(f"pitch must be a PitchVector, "
                        f"got {type(pitch).__name__}")


def _check_spherical_base(base) -> None:
    if isinstance(base, SphereChart):
        return
    if not lands_on_unit_sphere(base):
        raise SpecError(f"base {type(base).__name__} does not land on the "
                        f"unit sphere")


def lands_on_unit_sphere(spec: BaseSpec) -> bool:
    """Whether the built image lies in the unit sphere (by construction)."""
    if isinstance(spec, SphereChart):
        return True
    return isinstance(spec, SPHERICAL_KINDS)


def is_negative_control(spec: FamilySpec) -> bool:
    """Controls that must fail minimality checks."""
    if isinstance(spec, LatitudeCircle):
        return spec.height != 0.0
    return isinstance(spec, Cylinder)


def standard_chart(dim: int, kind: str = "stereographic",
                   branch: int = 1) -> SphereChart:
    if dim == 0:
        return SphereChart(dim=0, kind="point", branch=branch)
    return SphereChart(dim=dim, kind=kind)


def standard_block(sphere_dim: int, kind: str = "stereographic",
                   branches: tuple[int, int] = (1, 1),
                   unitary=None) -> CliffordBlock:
    return CliffordBlock(
        chart_x=standard_chart(sphere_dim, kind, branches[0]),
        chart_y=standard_chart(sphere_dim, kind, branches[1]),
        unitary=unitary)


def _apply_j_list(comps: list) -> list:
    half = len(comps) // 2
    return [-c for c in comps[half:]] + list(comps[:half])


def _rotated_block(comps: list, angle) -> list:
    """cos(angle)·v + sin(angle)·Jv for a component list of one block."""
    jcomps = _apply_j_list(comps)
    ca, sa = jets.cos(angle), jets.sin(angle)
    return [ca * c + sa * j for c, j in zip(comps, jcomps)]


def _base_immersion(base: BaseSpec) -> Immersion:
    if isinstance(base, SphereChart):
        return base.immersion()
    return build_immersion(base)


def _sliced_exclusions(base: Immersion, stop: int) -> tuple:
    """Base guards lifted to a longer parameter vector (base params first).

    The base's metric floor becomes a lifted predicate, not the lifted
    immersion's own floor: it guards the base's metric on the base's
    parameters.
    """
    guards = base.exclusions
    if base.metric_floor is not None:
        floor_only = replace(base, exclusions=())
        guards += (("metric-degenerate", floor_only.excluded),)

    def lift(pred):
        return lambda p: pred(np.asarray(p)[..., :stop])
    return tuple((name, lift(pred)) for name, pred in guards)


def _with_degeneracy_guard(imm: Immersion,
                           floor: float = METRIC_RATIO_FLOOR) -> Immersion:
    return replace(imm, metric_floor=floor)


def spec_dimensions(spec: FamilySpec) -> tuple[int, int]:
    """(intrinsic dim n, ambient dim K) of the built immersion."""
    if isinstance(spec, CliffordTorus):
        return spec.block.param_dim, spec.block.ambient_dim
    if isinstance(spec, CliffordCone):
        return spec.block.param_dim + 1, spec.block.ambient_dim
    if isinstance(spec, LRaysCone):
        base = _base_dimensions(spec.base)
        return base[0] + spec.rays, base[1] * spec.rays
    if isinstance(spec, LRaysCliffordCone):
        return (spec.block.param_dim + spec.rays,
                spec.block.ambient_dim * spec.rays)
    if isinstance(spec, SphericalJoin):
        base = _base_dimensions(spec.base)
        rays = spec.xs.dim + 1
        return base[0] + spec.xs.param_dim, base[1] * rays
    if isinstance(spec, GenHelicoidA):
        L = len(spec.blocks)
        nu = sum(b.param_dim for b in spec.blocks)
        return nu + 1 + L, sum(b.ambient_dim for b in spec.blocks) + 1
    if isinstance(spec, GenHelicoidB):
        return (spec.block.param_dim + 1 + spec.rays,
                spec.block.ambient_dim * spec.rays + 1)
    if isinstance(spec, ChoeHoppe):
        return 2 * spec.sphere_dim, 2 * spec.sphere_dim + 1
    if isinstance(spec, BDJ):
        return spec.pitch.blocks + 1, 2 * spec.pitch.blocks + 1
    if isinstance(spec, LawsonSurface):
        return 2, 4
    if isinstance(spec, HarveyLawsonCone):
        chart = spec.chart_x or standard_chart(spec.sphere_dim)
        return 2 * chart.param_dim + 2, 4 * spec.sphere_dim + 4
    if isinstance(spec, SphericalSlice):
        L = len(spec.inner.blocks)
        nu = sum(b.param_dim for b in spec.inner.blocks)
        return nu + 1 + (L - 1), sum(b.ambient_dim for b in spec.inner.blocks)
    if isinstance(spec, LatitudeCircle):
        return 1, 3
    if isinstance(spec, Cylinder):
        return 2, 3
    raise SpecError(f"unknown family spec {type(spec).__name__}")


def _base_dimensions(base: BaseSpec) -> tuple[int, int]:
    if isinstance(base, SphereChart):
        return base.param_dim, base.dim + 1
    return spec_dimensions(base)


def build_immersion(spec: FamilySpec) -> Immersion:
    """Construct the family's immersion; raises SpecError on bad specs."""
    builder = _BUILDERS.get(type(spec))
    if builder is None:
        raise SpecError(f"unknown family spec {type(spec).__name__}")
    imm = builder(spec)
    n, K = spec_dimensions(spec)
    if (imm.param_dim, imm.ambient_dim) != (n, K):
        raise SpecError(
            f"{imm.name}: built dimensions ({imm.param_dim}, "
            f"{imm.ambient_dim}) disagree with declared ({n}, {K})")
    imm.metadata["spec"] = spec
    return imm


def _build_clifford_torus(spec: CliffordTorus) -> Immersion:
    imm = spec.block.immersion()
    return replace(imm, name=f"clifford-torus-N{spec.block.sphere_dim}")


def _build_clifford_cone(spec: CliffordCone) -> Immersion:
    block = spec.block
    nu = block.param_dim

    def comps(cols):
        c = block.embed(cols[:nu])
        r = cols[nu]
        return [r * ci for ci in c]

    return Immersion(
        param_dim=nu + 1, ambient_dim=block.ambient_dim, components=comps,
        domain=block.domain_box() + (RADIAL_BOX,),
        name=f"clifford-cone-N{block.sphere_dim}")


def _build_l_rays_cone(spec: LRaysCone) -> Immersion:
    base = _base_immersion(spec.base)
    nb, L = base.param_dim, spec.rays

    def comps(cols):
        f = base.components(cols[:nb])
        out = []
        for t in range(L):
            r = cols[nb + t]
            out += [r * fa for fa in f]
        return out

    return Immersion(
        param_dim=nb + L, ambient_dim=base.ambient_dim * L, components=comps,
        domain=base.domain + (RADIAL_BOX,) * L,
        exclusions=_sliced_exclusions(base, nb),
        name=f"rays-cone-L{L}-over-{base.name}")


def _build_l_rays_clifford_cone(spec: LRaysCliffordCone) -> Immersion:
    inner = LRaysCone(rays=spec.rays, base=CliffordTorus(block=spec.block))
    imm = _build_l_rays_cone(inner)
    return replace(
        imm, name=f"rays-clifford-cone-L{spec.rays}-N{spec.block.sphere_dim}")


def _build_spherical_join(spec: SphericalJoin) -> Immersion:
    base = _base_immersion(spec.base)
    nb = base.param_dim
    L = spec.xs.dim + 1
    nx = spec.xs.param_dim

    def comps(cols):
        f = base.components(cols[:nb])
        x = spec.xs.embed(cols[nb:nb + nx])
        out = []
        for t in range(L):
            out += [x[t] * fa for fa in f]
        return out

    return Immersion(
        param_dim=nb + nx, ambient_dim=base.ambient_dim * L, components=comps,
        domain=base.domain + spec.xs.domain_box(),
        exclusions=_sliced_exclusions(base, nb),
        name=f"spherical-join-L{L}-over-{base.name}")


def _build_gen_helicoid_a(spec: GenHelicoidA) -> Immersion:
    blocks = spec.blocks
    L = len(blocks)
    spans = []
    start = 0
    for b in blocks:
        spans.append((start, start + b.param_dim))
        start += b.param_dim
    theta_index = start
    lam0 = spec.pitch.lambda0
    lams = spec.pitch.lambdas

    def comps(cols):
        th = cols[theta_index]
        out = []
        for t, b in enumerate(blocks):
            lo, hi = spans[t]
            c = b.embed(cols[lo:hi])
            r = cols[theta_index + 1 + t]
            out += [r * x for x in _rotated_block(c, lams[t] * th)]
        out.append(lam0 * th)
        return out

    domain = tuple(bx for b in blocks for bx in b.domain_box()) \
        + (THETA_BOX,) + (RADIAL_BOX,) * L
    imm = Immersion(
        param_dim=theta_index + 1 + L,
        ambient_dim=sum(b.ambient_dim for b in blocks) + 1,
        components=comps, domain=domain,
        name=f"helicoid-a-L{L}-N{blocks[0].sphere_dim}")
    return _with_degeneracy_guard(imm)


def _build_gen_helicoid_b(spec: GenHelicoidB) -> Immersion:
    block = spec.block
    L = spec.rays
    nu = block.param_dim
    lam, lam0 = spec.angular_pitch, spec.axial_pitch

    def comps(cols):
        c = block.embed(cols[:nu])
        rotated = _rotated_block(c, lam * cols[nu])
        out = []
        for t in range(L):
            r = cols[nu + 1 + t]
            out += [r * x for x in rotated]
        out.append(lam0 * cols[nu])
        return out

    imm = Immersion(
        param_dim=nu + 1 + L, ambient_dim=block.ambient_dim * L + 1,
        components=comps,
        domain=block.domain_box() + (THETA_BOX,) + (RADIAL_BOX,) * L,
        name=f"helicoid-b-L{L}-N{block.sphere_dim}")
    return _with_degeneracy_guard(imm)


def _build_choe_hoppe(spec: ChoeHoppe) -> Immersion:
    N = spec.sphere_dim
    chart_p = spec.chart_p or standard_chart(N - 1)
    chart_q = spec.chart_q or standard_chart(N - 1)
    np_, nq = chart_p.param_dim, chart_q.param_dim
    lam = spec.pitch

    def comps(cols):
        p_dir = chart_p.embed(cols[:np_])
        q_dir = chart_q.embed(cols[np_:np_ + nq])
        th = cols[np_ + nq]
        s = cols[np_ + nq + 1]
        ca, sa = jets.cos(th), jets.sin(th)
        out = []
        for k in range(N):
            p, q = s * p_dir[k], s * q_dir[k]
            out.append(ca * p - sa * q)
            out.append(ca * q + sa * p)
        out.append(lam * th)
        return out

    imm = Immersion(
        param_dim=np_ + nq + 2, ambient_dim=2 * N + 1, components=comps,
        domain=chart_p.domain_box() + chart_q.domain_box()
        + (THETA_BOX, RADIAL_BOX),
        name=f"choe-hoppe-N{N}")
    return _with_degeneracy_guard(imm)


def _build_bdj(spec: BDJ) -> Immersion:
    L = spec.pitch.blocks
    lam0, lams = spec.pitch.lambda0, spec.pitch.lambdas

    def comps(cols):
        th = cols[0]
        out = []
        for t in range(L):
            r = cols[1 + t]
            out.append(r * jets.cos(lams[t] * th))
            out.append(r * jets.sin(lams[t] * th))
        out.append(lam0 * th)
        return out

    imm = Immersion(
        param_dim=L + 1, ambient_dim=2 * L + 1, components=comps,
        domain=(THETA_BOX,) + (RADIAL_BOX,) * L,
        name=f"ruled-helicoid-L{L}")
    return _with_degeneracy_guard(imm)


def _build_lawson(spec: LawsonSurface) -> Immersion:
    l1, l2 = spec.lambda1, spec.lambda2

    def comps(cols):
        t, th = cols
        return [jets.cos(t) * jets.cos(l1 * th),
                jets.cos(t) * jets.sin(l1 * th),
                jets.sin(t) * jets.cos(l2 * th),
                jets.sin(t) * jets.sin(l2 * th)]

    # keep sin t and cos t away from 0 so neither rotation circle collapses
    margin = 0.15
    imm = Immersion(
        param_dim=2, ambient_dim=4, components=comps,
        domain=((margin, np.pi / 2 - margin), THETA_BOX),
        name=f"ruled-sphere-surface-{l1:g}-{l2:g}")
    return _with_degeneracy_guard(imm)


def _build_harvey_lawson(spec: HarveyLawsonCone) -> Immersion:
    chart_x = spec.chart_x or standard_chart(spec.sphere_dim)
    chart_y = spec.chart_y or standard_chart(spec.sphere_dim)
    nx, ny = chart_x.param_dim, chart_y.param_dim

    def comps(cols):
        x = chart_x.embed(cols[:nx])
        y = chart_y.embed(cols[nx:nx + ny])
        r1, r2 = cols[nx + ny], cols[nx + ny + 1]
        out = [r1 * xi for xi in x] + [r1 * yi for yi in y]
        out += [r2 * xi for xi in x] + [r2 * yi for yi in y]
        return out

    return Immersion(
        param_dim=nx + ny + 2, ambient_dim=4 * spec.sphere_dim + 4,
        components=comps,
        domain=chart_x.domain_box() + chart_y.domain_box()
        + (RADIAL_BOX, RADIAL_BOX),
        name=f"twisted-normal-cone-N{spec.sphere_dim}")


def _build_spherical_slice(spec: SphericalSlice) -> Immersion:
    blocks = spec.inner.blocks
    L = len(blocks)
    chart = spec.chart or standard_chart(L - 1)
    lams = spec.inner.pitch.lambdas
    spans = []
    start = 0
    for b in blocks:
        spans.append((start, start + b.param_dim))
        start += b.param_dim
    theta_index = start
    nx = chart.param_dim

    def comps(cols):
        th = cols[theta_index]
        x = chart.embed(cols[theta_index + 1:theta_index + 1 + nx])
        out = []
        for t, b in enumerate(blocks):
            lo, hi = spans[t]
            c = b.embed(cols[lo:hi])
            out += [x[t] * v for v in _rotated_block(c, lams[t] * th)]
        return out

    imm = Immersion(
        param_dim=theta_index + 1 + nx,
        ambient_dim=sum(b.ambient_dim for b in blocks),
        components=comps,
        domain=tuple(bx for b in blocks for bx in b.domain_box())
        + (THETA_BOX,) + chart.domain_box(),
        name=f"sphere-slice-L{L}-N{blocks[0].sphere_dim}")
    return _with_degeneracy_guard(imm)


def _build_latitude(spec: LatitudeCircle) -> Immersion:
    rho = float(np.sqrt(1.0 - spec.height**2))
    h = spec.height

    def comps(cols):
        (u,) = cols
        return [rho * jets.cos(u), rho * jets.sin(u), h]

    return Immersion(param_dim=1, ambient_dim=3, components=comps,
                     domain=(THETA_BOX,), name=f"latitude-circle-h{h:g}")


def _build_cylinder(spec: Cylinder) -> Immersion:
    R = spec.radius

    def comps(cols):
        u, z = cols
        return [R * jets.cos(u), R * jets.sin(u), z]

    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=(THETA_BOX, AXIS_BOX),
                     name=f"cylinder-R{R:g}")


_BUILDERS = {
    CliffordTorus: _build_clifford_torus,
    CliffordCone: _build_clifford_cone,
    LRaysCone: _build_l_rays_cone,
    LRaysCliffordCone: _build_l_rays_clifford_cone,
    SphericalJoin: _build_spherical_join,
    GenHelicoidA: _build_gen_helicoid_a,
    GenHelicoidB: _build_gen_helicoid_b,
    ChoeHoppe: _build_choe_hoppe,
    BDJ: _build_bdj,
    LawsonSurface: _build_lawson,
    HarveyLawsonCone: _build_harvey_lawson,
    SphericalSlice: _build_spherical_slice,
    LatitudeCircle: _build_latitude,
    Cylinder: _build_cylinder,
}


# --- screw motion -----------------------------------------------------------

def screw_action(pitch: PitchVector, t, points,
                 block_dims: tuple[int, ...] | None = None,
                 axial_coordinate: bool = True) -> np.ndarray:
    """Rotate each block by e^{i λ_s t} and translate the axis by λ₀t.

    ``t`` is a scalar or an array of angles that broadcasts against the
    leading (batch) axes of ``points``.  ``block_dims`` gives the (even)
    real size of each block; by default the non-axial coordinates split
    evenly among the pitch's blocks.
    """
    q = np.asarray(points, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    L = pitch.blocks
    width = q.shape[-1] - (1 if axial_coordinate else 0)
    if block_dims is None:
        if width % L:
            raise DimensionMismatch(
                f"cannot split {width} coordinates into {L} equal blocks")
        block_dims = (width // L,) * L
    if len(block_dims) != L or sum(block_dims) != width:
        raise DimensionMismatch(
            f"block sizes {block_dims} do not tile {width} coordinates "
            f"for {L} blocks")
    out = np.array(q, copy=True)
    start = 0
    for s, size in enumerate(block_dims):
        if size % 2:
            raise DimensionMismatch(f"block size {size} is odd")
        half = size // 2
        a = q[..., start:start + half]
        b = q[..., start + half:start + size]
        ang = pitch.lambdas[s] * t[..., None]
        ca, sa = np.cos(ang), np.sin(ang)
        out[..., start:start + half] = ca * a - sa * b
        out[..., start + half:start + size] = ca * b + sa * a
        start += size
    if axial_coordinate:
        out[..., -1] = q[..., -1] + pitch.lambda0 * t
    return out


@dataclass(frozen=True)
class ScrewData:
    """How a family realizes the screw motion in its own parametrization."""

    pitch: PitchVector
    theta_index: int
    block_dims: tuple[int, ...]
    axial_coordinate: bool


def screw_data(spec: FamilySpec) -> ScrewData | None:
    """Screw-invariance data, or None for families without a sweep angle."""
    if isinstance(spec, GenHelicoidA):
        return ScrewData(
            pitch=spec.pitch,
            theta_index=sum(b.param_dim for b in spec.blocks),
            block_dims=tuple(b.ambient_dim for b in spec.blocks),
            axial_coordinate=True)
    if isinstance(spec, GenHelicoidB):
        return ScrewData(
            pitch=PitchVector(lambda0=spec.axial_pitch,
                              lambdas=(spec.angular_pitch,) * spec.rays),
            theta_index=spec.block.param_dim,
            block_dims=(spec.block.ambient_dim,) * spec.rays,
            axial_coordinate=True)
    if isinstance(spec, ChoeHoppe):
        n, _ = spec_dimensions(spec)
        return ScrewData(
            pitch=PitchVector(lambda0=spec.pitch,
                              lambdas=(1.0,) * spec.sphere_dim),
            theta_index=n - 2,
            block_dims=(2,) * spec.sphere_dim,
            axial_coordinate=True)
    if isinstance(spec, BDJ):
        return ScrewData(
            pitch=spec.pitch, theta_index=0,
            block_dims=(2,) * spec.pitch.blocks, axial_coordinate=True)
    if isinstance(spec, LawsonSurface):
        return ScrewData(
            pitch=PitchVector(lambda0=0.0,
                              lambdas=(spec.lambda1, spec.lambda2)),
            theta_index=1, block_dims=(2, 2), axial_coordinate=False)
    if isinstance(spec, SphericalSlice):
        return ScrewData(
            pitch=PitchVector(lambda0=0.0, lambdas=spec.inner.pitch.lambdas),
            theta_index=sum(b.param_dim for b in spec.inner.blocks),
            block_dims=tuple(b.ambient_dim for b in spec.inner.blocks),
            axial_coordinate=False)
    return None


def scaling_indices(spec: FamilySpec) -> tuple[int, ...]:
    """Parameter indices whose joint scaling scales the whole image (cones)."""
    n, _ = spec_dimensions(spec)
    if isinstance(spec, CliffordCone):
        return (n - 1,)
    if isinstance(spec, (LRaysCone, LRaysCliffordCone)):
        return tuple(range(n - spec.rays, n))
    if isinstance(spec, HarveyLawsonCone):
        return (n - 2, n - 1)
    if isinstance(spec, GenHelicoidA) and spec.pitch.lambda0 == 0.0:
        return tuple(range(n - len(spec.blocks), n))
    if isinstance(spec, GenHelicoidB) and spec.axial_pitch == 0.0:
        return tuple(range(n - spec.rays, n))
    if isinstance(spec, ChoeHoppe) and spec.pitch == 0.0:
        return (n - 1,)
    if isinstance(spec, BDJ) and spec.pitch.lambda0 == 0.0:
        return tuple(range(1, n))
    return ()


# --- the graph function of the Choe-Hoppe hypersurface ----------------------

def _graph_value(cols):
    """f = ½·arg Σ (x_k + i y_k)², on interleaved coordinates."""
    num = 2.0 * cols[0] * cols[1]
    den = cols[0] * cols[0] - cols[1] * cols[1]
    for k in range(2, len(cols), 2):
        num = num + 2.0 * cols[k] * cols[k + 1]
        den = den + cols[k] * cols[k] - cols[k + 1] * cols[k + 1]
    return jets.atan2(num, den) * 0.5


def choe_hoppe_graph_function(x) -> np.ndarray:
    """Graph height f(x₁, y₁, …, x_N, y_N); 0-homogeneous."""
    x = np.asarray(x, dtype=np.float64)
    _guard_branch(x)
    cols = [x[..., i] for i in range(x.shape[-1])]
    return np.asarray(_graph_value(cols))


def _guard_branch(x: np.ndarray, branch_tol: float = BRANCH_TOL) -> None:
    if x.shape[-1] % 2 or x.shape[-1] < 2:
        raise DimensionMismatch(
            f"graph function needs 2N interleaved coordinates, "
            f"got {x.shape[-1]}")
    xs = x[..., 0::2]
    ys = x[..., 1::2]
    den = np.sum(xs * xs - ys * ys, axis=-1)
    num = 2.0 * np.sum(xs * ys, axis=-1)
    mag = np.hypot(num, den)
    if np.any(mag <= branch_tol):
        raise BranchLocusError(
            f"point within {branch_tol:g} of the branch locus of the "
            f"graph function")


def choe_hoppe_graph_residual(sphere_dim: int, x,
                              branch_tol: float = BRANCH_TOL) -> np.ndarray:
    """Divergence-form minimal-surface residual Σ_k ∂_k(f_k / W) of f.

    W = sqrt(1 + ‖∇f‖²); expanding the divergence gives
    (tr Hf · W² − ∇fᵀ·Hf·∇f) / W³, assembled from one jet evaluation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2 * sphere_dim:
        raise DimensionMismatch(
            f"expected {2 * sphere_dim} coordinates, got {x.shape[-1]}")
    _guard_branch(x, branch_tol)
    jf = jet_eval(lambda *cols: _graph_value(list(cols)), x)
    grad, hess = jf.grad, jf.hess
    w2 = 1.0 + np.sum(grad * grad, axis=-1)
    tr = np.einsum("...ii->...", hess)
    quad = np.einsum("...i,...ij,...j->...", grad, hess, grad)
    return (tr * w2 - quad) / w2**1.5


# --- JSON encoding -----------------------------------------------------------

def _chart_to_json(ch: SphereChart) -> dict:
    out = {"dim": ch.dim, "chart_kind": ch.kind}
    if ch.rotation is not None:
        out["rotation"] = [list(row) for row in ch.rotation]
    if ch.kind == "point":
        out["branch"] = ch.branch
    return out


def _chart_from_json(d: dict, where: str) -> SphereChart:
    _check_keys(d, {"dim", "chart_kind"}, {"rotation", "branch"}, where)
    rotation = d.get("rotation")
    return SphereChart(
        dim=int(d["dim"]), kind=str(d["chart_kind"]),
        rotation=matrix_tuple(rotation) if rotation is not None else None,
        branch=int(d.get("branch", 1)))


def _block_to_json(b: CliffordBlock) -> dict:
    out = {"chart_x": _chart_to_json(b.chart_x),
           "chart_y": _chart_to_json(b.chart_y)}
    if b.unitary is not None:
        out["unitary"] = [list(row) for row in b.unitary]
    return out


def _block_from_json(d: dict, where: str) -> CliffordBlock:
    _check_keys(d, {"chart_x", "chart_y"}, {"unitary"}, where)
    unitary = d.get("unitary")
    return CliffordBlock(
        chart_x=_chart_from_json(d["chart_x"], where + ".chart_x"),
        chart_y=_chart_from_json(d["chart_y"], where + ".chart_y"),
        unitary=matrix_tuple(unitary) if unitary is not None else None)


def _pitch_to_json(pv: PitchVector) -> dict:
    return {"lambda0": pv.lambda0, "lambdas": list(pv.lambdas)}


def _pitch_from_json(d: dict, where: str) -> PitchVector:
    _check_keys(d, {"lambda0", "lambdas"}, set(), where)
    return PitchVector(lambda0=float(d["lambda0"]),
                       lambdas=_float_tuple(d["lambdas"]))


def _base_to_json(base: BaseSpec) -> dict:
    if isinstance(base, SphereChart):
        return {"kind": "SphereChart", **_chart_to_json(base)}
    return spec_to_json(base)


def _base_from_json(d: dict, where: str) -> BaseSpec:
    if d.get("kind") == "SphereChart":
        inner = {k: v for k, v in d.items() if k != "kind"}
        return _chart_from_json(inner, where)
    return spec_from_json(d)


def _check_keys(d: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(d, dict):
        raise SpecError(f"{where}: expected a JSON object, got {type(d).__name__}")
    missing = required - d.keys()
    if missing:
        raise SpecError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = d.keys() - required - optional
    if unknown:
        raise SpecError(f"{where}: unknown field(s) {sorted(unknown)}")


def spec_to_json(spec: FamilySpec) -> dict:
    """Canonical JSON object with a \"kind\" discriminator."""
    kind = type(spec).__name__
    if isinstance(spec, (CliffordTorus, CliffordCone)):
        return {"kind": kind, "block": _block_to_json(spec.block)}
    if isinstance(spec, LRaysCone):
        return {"kind": kind, "rays": spec.rays,
                "base": _base_to_json(spec.base)}
    if isinstance(spec, LRaysCliffordCone):
        return {"kind": kind, "rays": spec.rays,
                "block": _block_to_json(spec.block)}
    if isinstance(spec, SphericalJoin):
        return {"kind": kind, "xs": _chart_to_json(spec.xs),
                "base": _base_to_json(spec.base)}
    if isinstance(spec, GenHelicoidA):
        return {"kind": kind, "pitch": _pitch_to_json(spec.pitch),
                "blocks": [_block_to_json(b) for b in spec.blocks]}
    if isinstance(spec, GenHelicoidB):
        return {"kind": kind, "rays": spec.rays,
                "block": _block_to_json(spec.block),
                "angular_pitch": spec.angular_pitch,
                "axial_pitch": spec.axial_pitch}
    if isinstance(spec, ChoeHoppe):
        out = {"kind": kind, "sphere_dim": spec.sphere_dim,
               "pitch": spec.pitch}
        if spec.chart_p is not None:
            out["chart_p"] = _chart_to_json(spec.chart_p)
        if spec.chart_q is not None:
            out["chart_q"] = _chart_to_json(spec.chart_q)
        return out
    if isinstance(spec, BDJ):
        return {"kind": kind, "pitch": _pitch_to_json(spec.pitch)}
    if isinstance(spec, LawsonSurface):
        return {"kind": kind, "lambda1": spec.lambda1,
                "lambda2": spec.lambda2}
    if isinstance(spec, HarveyLawsonCone):
        out = {"kind": kind, "sphere_dim": spec.sphere_dim}
        if spec.chart_x is not None:
            out["chart_x"] = _chart_to_json(spec.chart_x)
        if spec.chart_y is not None:
            out["chart_y"] = _chart_to_json(spec.chart_y)
        return out
    if isinstance(spec, SphericalSlice):
        out = {"kind": kind, "inner": spec_to_json(spec.inner)}
        if spec.chart is not None:
            out["chart"] = _chart_to_json(spec.chart)
        return out
    if isinstance(spec, LatitudeCircle):
        return {"kind": kind, "height": spec.height}
    if isinstance(spec, Cylinder):
        return {"kind": kind, "radius": spec.radius}
    raise SpecError(f"unknown family spec {type(spec).__name__}")


def spec_from_json(d) -> FamilySpec:
    """Parse a canonical family object; SpecError on any malformed field."""
    if not isinstance(d, dict):
        raise SpecError(f"family spec must be a JSON object, "
                        f"got {type(d).__name__}")
    kind = d.get("kind")
    if kind is None:
        raise SpecError("family spec is missing the \"kind\" field")
    rest = {k: v for k, v in d.items() if k != "kind"}
    where = f"family {kind}"
    if kind in ("CliffordTorus", "CliffordCone"):
        _check_keys(rest, {"block"}, set(), where)
        cls = CliffordTorus if kind == "CliffordTorus" else CliffordCone
        return cls(block=_block_from_json(rest["block"], where + ".block"))
    if kind == "LRaysCone":
        _check_keys(rest, {"rays", "base"}, set(), where)
        return LRaysCone(rays=int(rest["rays"]),
                         base=_base_from_json(rest["base"], where + ".base"))
    if kind == "LRaysCliffordCone":
        _check_keys(rest, {"rays", "block"}, set(), where)
        return LRaysCliffordCone(
            rays=int(rest["rays"]),
            block=_block_from_json(rest["block"], where + ".block"))
    if kind == "SphericalJoin":
        _check_keys(rest, {"xs", "base"}, set(), where)
        return SphericalJoin(
            xs=_chart_from_json(rest["xs"], where + ".xs"),
            base=_base_from_json(rest["base"], where + ".base"))
    if kind == "GenHelicoidA":
        _check_keys(rest, {"pitch", "blocks"}, set(), where)
        return GenHelicoidA(
            pitch=_pitch_from_json(rest["pitch"], where + ".pitch"),
            blocks=tuple(_block_from_json(b, f"{where}.blocks[{i}]")
                         for i, b in enumerate(rest["blocks"])))
    if kind == "GenHelicoidB":
        _check_keys(rest, {"rays", "block", "angular_pitch", "axial_pitch"},
                    set(), where)
        return GenHelicoidB(
            rays=int(rest["rays"]),
            block=_block_from_json(rest["block"], where + ".block"),
            angular_pitch=float(rest["angular_pitch"]),
            axial_pitch=float(rest["axial_pitch"]))
    if kind == "ChoeHoppe":
        _check_keys(rest, {"sphere_dim", "pitch"}, {"chart_p", "chart_q"},
                    where)
        return ChoeHoppe(
            sphere_dim=int(rest["sphere_dim"]), pitch=float(rest["pitch"]),
            chart_p=_chart_from_json(rest["chart_p"], where + ".chart_p")
            if "chart_p" in rest else None,
            chart_q=_chart_from_json(rest["chart_q"], where + ".chart_q")
            if "chart_q" in rest else None)
    if kind == "BDJ":
        _check_keys(rest, {"pitch"}, set(), where)
        return BDJ(pitch=_pitch_from_json(rest["pitch"], where + ".pitch"))
    if kind == "LawsonSurface":
        _check_keys(rest, {"lambda1", "lambda2"}, set(), where)
        return LawsonSurface(lambda1=float(rest["lambda1"]),
                             lambda2=float(rest["lambda2"]))
    if kind == "HarveyLawsonCone":
        _check_keys(rest, {"sphere_dim"}, {"chart_x", "chart_y"}, where)
        return HarveyLawsonCone(
            sphere_dim=int(rest["sphere_dim"]),
            chart_x=_chart_from_json(rest["chart_x"], where + ".chart_x")
            if "chart_x" in rest else None,
            chart_y=_chart_from_json(rest["chart_y"], where + ".chart_y")
            if "chart_y" in rest else None)
    if kind == "SphericalSlice":
        _check_keys(rest, {"inner"}, {"chart"}, where)
        inner = spec_from_json(rest["inner"])
        if not isinstance(inner, GenHelicoidA):
            raise SpecError(f"{where}: inner spec must be a GenHelicoidA")
        return SphericalSlice(
            inner=inner,
            chart=_chart_from_json(rest["chart"], where + ".chart")
            if "chart" in rest else None)
    if kind == "LatitudeCircle":
        _check_keys(rest, {"height"}, set(), where)
        return LatitudeCircle(height=float(rest["height"]))
    if kind == "Cylinder":
        _check_keys(rest, {"radius"}, set(), where)
        return Cylinder(radius=float(rest["radius"]))
    raise SpecError(f"unknown family kind {kind!r}")
