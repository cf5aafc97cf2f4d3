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

Each family class holds everything that defines it, beside its fields:
``dimensions()`` gives (n, K), ``build()`` the immersion, ``screw()`` the
sweep data or None, ``scaling_indices()`` the cone parameters, and the
flags ``spherical`` (the image lies in the unit sphere) and ``control``
(a negative control).  ``_Family`` supplies the defaults: no sweep, no
cone parameters, Euclidean, not a control.  The JSON codec walks the
dataclass fields and parses each value by its type annotation, so a
malformed value raises a ``SpecError`` that names its JSON path.

Rotating a complex block by e^{iφ} in real coordinates is
v ↦ cos(φ)·v + sin(φ)·J v with J(a; b) = (−b; a); ``screw_action`` applies
that blockwise plus the axial translation λ₀t.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
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


@dataclass(frozen=True)
class PitchVector:
    """Axial rate lambda0 plus one angular rate per block."""

    lambda0: float
    lambdas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda0", float(self.lambda0))
        object.__setattr__(self, "lambdas",
                           tuple(float(x) for x in self.lambdas))
        if len(self.lambdas) < 1:
            raise SpecError("pitch vector needs at least one angular rate")

    @property
    def blocks(self) -> int:
        return len(self.lambdas)


class _Family:
    """Defaults of the family protocol: no sweep angle, not a cone."""

    spherical = False
    control = False

    def screw(self) -> ScrewData | None:
        return None

    def scaling_indices(self) -> tuple[int, ...]:
        return ()


@dataclass(frozen=True)
class CliffordTorus(_Family):
    block: CliffordBlock

    spherical = True

    def dimensions(self) -> tuple[int, int]:
        return self.block.param_dim, self.block.ambient_dim

    def build(self) -> Immersion:
        return replace(self.block.immersion(),
                       name=f"clifford-torus-N{self.block.sphere_dim}")


@dataclass(frozen=True)
class CliffordCone(_Family):
    block: CliffordBlock

    def dimensions(self) -> tuple[int, int]:
        return self.block.param_dim + 1, self.block.ambient_dim

    def scaling_indices(self) -> tuple[int, ...]:
        return (self.dimensions()[0] - 1,)

    def build(self) -> Immersion:
        block = self.block
        nu = block.param_dim

        def comps(cols):
            c = block.embed(cols[:nu])
            r = cols[nu]
            return [r * ci for ci in c]

        return Immersion(
            param_dim=nu + 1, ambient_dim=block.ambient_dim, components=comps,
            domain=block.domain_box() + (RADIAL_BOX,),
            name=f"clifford-cone-N{block.sphere_dim}")


@dataclass(frozen=True)
class LRaysCone(_Family):
    rays: int
    base: BaseSpec

    def __post_init__(self):
        _check_rays(self.rays)
        _check_spherical_base(self.base)

    def dimensions(self) -> tuple[int, int]:
        base = _base_dimensions(self.base)
        return base[0] + self.rays, base[1] * self.rays

    def scaling_indices(self) -> tuple[int, ...]:
        n, _ = self.dimensions()
        return tuple(range(n - self.rays, n))

    def build(self) -> Immersion:
        base = _base_immersion(self.base)
        nb, L = base.param_dim, self.rays

        def comps(cols):
            f = base.components(cols[:nb])
            out = []
            for t in range(L):
                r = cols[nb + t]
                out += [r * fa for fa in f]
            return out

        return Immersion(
            param_dim=nb + L, ambient_dim=base.ambient_dim * L,
            components=comps, domain=base.domain + (RADIAL_BOX,) * L,
            exclusions=_sliced_exclusions(base, nb),
            name=f"rays-cone-L{L}-over-{base.name}")


@dataclass(frozen=True)
class LRaysCliffordCone(_Family):
    rays: int
    block: CliffordBlock

    def __post_init__(self):
        _check_rays(self.rays)

    def dimensions(self) -> tuple[int, int]:
        return (self.block.param_dim + self.rays,
                self.block.ambient_dim * self.rays)

    def scaling_indices(self) -> tuple[int, ...]:
        n, _ = self.dimensions()
        return tuple(range(n - self.rays, n))

    def build(self) -> Immersion:
        cone = LRaysCone(rays=self.rays, base=CliffordTorus(block=self.block))
        return replace(
            cone.build(),
            name=f"rays-clifford-cone-L{self.rays}-N{self.block.sphere_dim}")


@dataclass(frozen=True)
class SphericalJoin(_Family):
    xs: SphereChart
    base: BaseSpec

    spherical = True

    def __post_init__(self):
        _check_spherical_base(self.base)

    def dimensions(self) -> tuple[int, int]:
        base = _base_dimensions(self.base)
        return base[0] + self.xs.param_dim, base[1] * (self.xs.dim + 1)

    def build(self) -> Immersion:
        base = _base_immersion(self.base)
        nb = base.param_dim
        L = self.xs.dim + 1
        nx = self.xs.param_dim

        def comps(cols):
            f = base.components(cols[:nb])
            x = self.xs.embed(cols[nb:nb + nx])
            out = []
            for t in range(L):
                out += [x[t] * fa for fa in f]
            return out

        return Immersion(
            param_dim=nb + nx, ambient_dim=base.ambient_dim * L,
            components=comps, domain=base.domain + self.xs.domain_box(),
            exclusions=_sliced_exclusions(base, nb),
            name=f"spherical-join-L{L}-over-{base.name}")


@dataclass(frozen=True)
class GenHelicoidA(_Family):
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

    def dimensions(self) -> tuple[int, int]:
        nu = sum(b.param_dim for b in self.blocks)
        return (nu + 1 + len(self.blocks),
                sum(b.ambient_dim for b in self.blocks) + 1)

    def screw(self) -> ScrewData:
        return _block_screw(self.pitch, self.blocks, axial=True)

    def scaling_indices(self) -> tuple[int, ...]:
        if self.pitch.lambda0 != 0.0:
            return ()
        n, _ = self.dimensions()
        return tuple(range(n - len(self.blocks), n))

    def build(self) -> Immersion:
        blocks = self.blocks
        L = len(blocks)
        spans = _block_spans(blocks)
        theta_index = spans[-1][1]
        lam0 = self.pitch.lambda0
        lams = self.pitch.lambdas

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


@dataclass(frozen=True)
class GenHelicoidB(_Family):
    rays: int
    block: CliffordBlock
    angular_pitch: float
    axial_pitch: float

    def __post_init__(self):
        _check_rays(self.rays)
        object.__setattr__(self, "angular_pitch", float(self.angular_pitch))
        object.__setattr__(self, "axial_pitch", float(self.axial_pitch))

    def dimensions(self) -> tuple[int, int]:
        return (self.block.param_dim + 1 + self.rays,
                self.block.ambient_dim * self.rays + 1)

    def screw(self) -> ScrewData:
        return ScrewData(
            pitch=PitchVector(lambda0=self.axial_pitch,
                              lambdas=(self.angular_pitch,) * self.rays),
            theta_index=self.block.param_dim,
            block_dims=(self.block.ambient_dim,) * self.rays,
            axial_coordinate=True)

    def scaling_indices(self) -> tuple[int, ...]:
        if self.axial_pitch != 0.0:
            return ()
        n, _ = self.dimensions()
        return tuple(range(n - self.rays, n))

    def build(self) -> Immersion:
        block = self.block
        L = self.rays
        nu = block.param_dim
        lam, lam0 = self.angular_pitch, self.axial_pitch

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


@dataclass(frozen=True)
class ChoeHoppe(_Family):
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

    def dimensions(self) -> tuple[int, int]:
        return 2 * self.sphere_dim, 2 * self.sphere_dim + 1

    def screw(self) -> ScrewData:
        n, _ = self.dimensions()
        return ScrewData(
            pitch=PitchVector(lambda0=self.pitch,
                              lambdas=(1.0,) * self.sphere_dim),
            theta_index=n - 2,
            block_dims=(2,) * self.sphere_dim,
            axial_coordinate=True)

    def scaling_indices(self) -> tuple[int, ...]:
        return () if self.pitch != 0.0 else (self.dimensions()[0] - 1,)

    def build(self) -> Immersion:
        N = self.sphere_dim
        chart_p = self.chart_p or standard_chart(N - 1)
        chart_q = self.chart_q or standard_chart(N - 1)
        np_, nq = chart_p.param_dim, chart_q.param_dim
        lam = self.pitch

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


@dataclass(frozen=True)
class BDJ(_Family):
    pitch: PitchVector

    def __post_init__(self):
        _check_pitch(self.pitch)

    def dimensions(self) -> tuple[int, int]:
        return self.pitch.blocks + 1, 2 * self.pitch.blocks + 1

    def screw(self) -> ScrewData:
        return ScrewData(
            pitch=self.pitch, theta_index=0,
            block_dims=(2,) * self.pitch.blocks, axial_coordinate=True)

    def scaling_indices(self) -> tuple[int, ...]:
        if self.pitch.lambda0 != 0.0:
            return ()
        return tuple(range(1, self.dimensions()[0]))

    def build(self) -> Immersion:
        L = self.pitch.blocks
        lam0, lams = self.pitch.lambda0, self.pitch.lambdas

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


@dataclass(frozen=True)
class LawsonSurface(_Family):
    lambda1: float
    lambda2: float

    spherical = True

    def __post_init__(self):
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))
        if self.lambda1 == 0.0 and self.lambda2 == 0.0:
            raise SpecError("rotation rates must not both vanish")

    def dimensions(self) -> tuple[int, int]:
        return 2, 4

    def screw(self) -> ScrewData:
        return ScrewData(
            pitch=PitchVector(lambda0=0.0,
                              lambdas=(self.lambda1, self.lambda2)),
            theta_index=1, block_dims=(2, 2), axial_coordinate=False)

    def build(self) -> Immersion:
        l1, l2 = self.lambda1, self.lambda2

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


@dataclass(frozen=True)
class HarveyLawsonCone(_Family):
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

    def dimensions(self) -> tuple[int, int]:
        chart = self.chart_x or standard_chart(self.sphere_dim)
        return 2 * chart.param_dim + 2, 4 * self.sphere_dim + 4

    def scaling_indices(self) -> tuple[int, ...]:
        n, _ = self.dimensions()
        return (n - 2, n - 1)

    def build(self) -> Immersion:
        chart_x = self.chart_x or standard_chart(self.sphere_dim)
        chart_y = self.chart_y or standard_chart(self.sphere_dim)
        nx, ny = chart_x.param_dim, chart_y.param_dim

        def comps(cols):
            x = chart_x.embed(cols[:nx])
            y = chart_y.embed(cols[nx:nx + ny])
            r1, r2 = cols[nx + ny], cols[nx + ny + 1]
            out = [r1 * xi for xi in x] + [r1 * yi for yi in y]
            out += [r2 * xi for xi in x] + [r2 * yi for yi in y]
            return out

        return Immersion(
            param_dim=nx + ny + 2, ambient_dim=4 * self.sphere_dim + 4,
            components=comps,
            domain=chart_x.domain_box() + chart_y.domain_box()
            + (RADIAL_BOX, RADIAL_BOX),
            name=f"twisted-normal-cone-N{self.sphere_dim}")


@dataclass(frozen=True)
class SphericalSlice(_Family):
    inner: GenHelicoidA
    chart: SphereChart | None = None   # point of S^{L-1} replacing the radii

    spherical = True

    def __post_init__(self):
        if self.inner.pitch.lambda0 != 0.0:
            raise SpecError("sphere sections need a zero axial rate")
        L = len(self.inner.blocks)
        if self.chart is not None and self.chart.dim != L - 1:
            raise SpecError(f"slice chart must parametrize S^{L - 1}, "
                            f"got S^{self.chart.dim}")

    def dimensions(self) -> tuple[int, int]:
        n, K = self.inner.dimensions()
        return n - 1, K - 1

    def screw(self) -> ScrewData:
        pitch = PitchVector(lambda0=0.0, lambdas=self.inner.pitch.lambdas)
        return _block_screw(pitch, self.inner.blocks, axial=False)

    def build(self) -> Immersion:
        blocks = self.inner.blocks
        L = len(blocks)
        chart = self.chart or standard_chart(L - 1)
        lams = self.inner.pitch.lambdas
        spans = _block_spans(blocks)
        theta_index = spans[-1][1]
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


@dataclass(frozen=True)
class LatitudeCircle(_Family):
    height: float

    spherical = True

    def __post_init__(self):
        object.__setattr__(self, "height", float(self.height))
        if not abs(self.height) < 1.0:
            raise SpecError("latitude height must satisfy |h| < 1")

    @property
    def control(self) -> bool:
        return self.height != 0.0

    def dimensions(self) -> tuple[int, int]:
        return 1, 3

    def build(self) -> Immersion:
        rho = float(np.sqrt(1.0 - self.height**2))
        h = self.height

        def comps(cols):
            (u,) = cols
            return [rho * jets.cos(u), rho * jets.sin(u), h]

        return Immersion(param_dim=1, ambient_dim=3, components=comps,
                         domain=(THETA_BOX,), name=f"latitude-circle-h{h:g}")


@dataclass(frozen=True)
class Cylinder(_Family):
    radius: float

    control = True

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0.0:
            raise SpecError("cylinder radius must be positive")

    def dimensions(self) -> tuple[int, int]:
        return 2, 3

    def build(self) -> Immersion:
        R = self.radius

        def comps(cols):
            u, z = cols
            return [R * jets.cos(u), R * jets.sin(u), z]

        return Immersion(param_dim=2, ambient_dim=3, components=comps,
                         domain=(THETA_BOX, AXIS_BOX),
                         name=f"cylinder-R{R:g}")


FamilySpec = Union[
    CliffordTorus, CliffordCone, LRaysCone, LRaysCliffordCone, SphericalJoin,
    GenHelicoidA, GenHelicoidB, ChoeHoppe, BDJ, LawsonSurface,
    HarveyLawsonCone, SphericalSlice, LatitudeCircle, Cylinder,
]
BaseSpec = Union[FamilySpec, SphereChart]


def _check_rays(rays) -> None:
    if not isinstance(rays, int) or rays < 1:
        raise SpecError(f"ray count must be an integer >= 1, got {rays!r}")


def _check_pitch(pitch) -> None:
    if not isinstance(pitch, PitchVector):
        raise SpecError(f"pitch must be a PitchVector, "
                        f"got {type(pitch).__name__}")


def _check_spherical_base(base) -> None:
    if not lands_on_unit_sphere(base):
        raise SpecError(f"base {type(base).__name__} does not land on the "
                        f"unit sphere")


def lands_on_unit_sphere(spec: BaseSpec) -> bool:
    """Whether the built image lies in the unit sphere (by construction)."""
    if isinstance(spec, SphereChart):
        return True
    return isinstance(spec, _Family) and spec.spherical


def is_negative_control(spec: FamilySpec) -> bool:
    """Controls that must fail minimality checks."""
    return spec.control


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


def _block_spans(blocks) -> list[tuple[int, int]]:
    """(start, stop) of each block's chart parameters, laid end to end."""
    stops = np.cumsum([b.param_dim for b in blocks], dtype=int).tolist()
    return [(hi - b.param_dim, hi) for b, hi in zip(blocks, stops)]


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
    return spec.dimensions()


def _base_dimensions(base: BaseSpec) -> tuple[int, int]:
    if isinstance(base, SphereChart):
        return base.param_dim, base.dim + 1
    return base.dimensions()


def build_immersion(spec: FamilySpec) -> Immersion:
    """Construct the family's immersion; raises SpecError on bad specs."""
    if not isinstance(spec, _Family):
        raise SpecError(f"unknown family spec {type(spec).__name__}")
    imm = spec.build()
    n, K = spec.dimensions()
    if (imm.param_dim, imm.ambient_dim) != (n, K):
        raise SpecError(
            f"{imm.name}: built dimensions ({imm.param_dim}, "
            f"{imm.ambient_dim}) disagree with declared ({n}, {K})")
    imm.metadata["spec"] = spec
    return imm


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


def _block_screw(pitch: PitchVector, blocks, axial: bool) -> ScrewData:
    """Screw data of Clifford blocks laid end to end, Θ after their charts."""
    return ScrewData(
        pitch=pitch, theta_index=sum(b.param_dim for b in blocks),
        block_dims=tuple(b.ambient_dim for b in blocks),
        axial_coordinate=axial)


def screw_data(spec: FamilySpec) -> ScrewData | None:
    """Screw-invariance data, or None for families without a sweep angle."""
    return spec.screw()


def scaling_indices(spec: FamilySpec) -> tuple[int, ...]:
    """Parameter indices whose joint scaling scales the whole image (cones)."""
    return spec.scaling_indices()


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
    return SphereChart(
        dim=_value_from_json(int, d["dim"], where + ".dim"),
        kind=_value_from_json(str, d["chart_kind"], where + ".chart_kind"),
        rotation=_value_from_json(tuple | None, d.get("rotation"),
                                  where + ".rotation"),
        branch=_value_from_json(int, d.get("branch", 1), where + ".branch"))


def _base_to_json(base: BaseSpec) -> dict:
    if isinstance(base, SphereChart):
        return {"kind": "SphereChart", **_chart_to_json(base)}
    return spec_to_json(base)


def _base_from_json(d: dict, where: str) -> BaseSpec:
    if not isinstance(d, dict):
        raise SpecError(f"{where}: expected a JSON object, "
                        f"got {type(d).__name__}")
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


@functools.cache
def _schema(cls) -> tuple[dict, frozenset, frozenset]:
    """(annotation per field, required keys, optional keys) of a spec class.

    A field with a default (always None here) is optional.  Cached because
    resolving the string annotations costs more than decoding a spec.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    types = {f.name: hints[f.name] for f in fields}
    required = frozenset(f.name for f in fields
                         if f.default is dataclasses.MISSING)
    return types, required, frozenset(types) - required


def _value_to_json(value):
    if isinstance(value, _Family):
        return spec_to_json(value)
    if isinstance(value, SphereChart):
        return _chart_to_json(value)
    if dataclasses.is_dataclass(value):
        return _object_to_json(value)
    if isinstance(value, tuple):
        return [_value_to_json(v) for v in value]
    return value


def _object_to_json(obj) -> dict:
    """The fields of a spec dataclass in declaration order; None is omitted."""
    out = {}
    for name, tp in _schema(type(obj))[0].items():
        value = getattr(obj, name)
        if value is not None:
            out[name] = (_base_to_json(value) if tp is BaseSpec
                         else _value_to_json(value))
    return out


def _value_from_json(tp, value, where: str):
    """Parse one JSON value by its type annotation; ``where`` is its path.

    ``float`` takes a finite int or float, ``int`` only an int (never a bool),
    ``tuple[X, ...]`` a JSON array, a bare ``tuple`` a matrix, and a field
    typed with a family class must decode to that class.
    """
    if tp in (int, float, str):
        accepted = (int, float) if tp is float else tp
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise SpecError(f"{where}: expected {tp.__name__}, "
                            f"got {type(value).__name__}")
        if tp is float and not math.isfinite(value):
            raise SpecError(f"{where}: expected a finite number, got {value}")
        return tp(value)
    if tp is BaseSpec:
        return _base_from_json(value, where)
    if tp is SphereChart:
        return _chart_from_json(value, where)
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (inner,) = set(args) - {type(None)}
        return _value_from_json(inner, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise SpecError(f"{where}: expected a JSON array, "
                            f"got {type(value).__name__}")
        return tuple(_value_from_json(args[0], v, f"{where}[{i}]")
                     for i, v in enumerate(value))
    if tp is tuple:
        return matrix_tuple(
            _value_from_json(tuple[tuple[float, ...], ...], value, where))
    if issubclass(tp, _Family):
        spec = spec_from_json(value)
        if type(spec) is not tp:
            head, _, name = where.rpartition(".")
            raise SpecError(f"{head}: {name} spec must be a {tp.__name__}")
        return spec
    return _object_from_json(tp, value, where)


def _object_from_json(cls, d, where: str):
    """Build a spec dataclass from a JSON object, one field at a time."""
    types, required, optional = _schema(cls)
    _check_keys(d, required, optional, where)
    return cls(**{name: _value_from_json(tp, d[name], f"{where}.{name}")
                  for name, tp in types.items() if name in d})


def spec_to_json(spec: FamilySpec) -> dict:
    """Canonical JSON object with a \"kind\" discriminator."""
    if not isinstance(spec, _Family):
        raise SpecError(f"unknown family spec {type(spec).__name__}")
    return {"kind": type(spec).__name__, **_object_to_json(spec)}


_KINDS = {cls.__name__: cls for cls in typing.get_args(FamilySpec)}


def spec_from_json(d) -> FamilySpec:
    """Parse a canonical family object; SpecError on any malformed field."""
    if not isinstance(d, dict):
        raise SpecError(f"family spec must be a JSON object, "
                        f"got {type(d).__name__}")
    kind = d.get("kind")
    if kind is None:
        raise SpecError("family spec is missing the \"kind\" field")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(f"unknown family kind {kind!r}")
    rest = {k: v for k, v in d.items() if k != "kind"}
    return _object_from_json(cls, rest, f"family {kind}")
