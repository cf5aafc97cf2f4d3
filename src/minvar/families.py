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
``build()`` gives the immersion, and with it (n, K); ``screw()`` the sweep
data or None and ``scaling_indices()`` the cone parameters, both computed
from the fields; the flags ``spherical`` (the image lies in the unit
sphere) and ``control`` (a negative control).  ``_Family`` supplies the
defaults: no sweep, no cone parameters, Euclidean, not a control.  The
JSON codec walks the dataclass fields and parses each value by its type
annotation, so a malformed value raises a ``SpecError`` that names its
JSON path.

Rotating a complex block by e^{iφ} in real coordinates is
v ↦ cos(φ)·v + sin(φ)·J v with J(a; b) = (−b; a) (``charts.rotate_block``,
on a block's component-axis jet or on arrays).  ``screw_action`` applies
that blockwise plus the axial translation λ₀t, reading the block layout
from the image width.  The component maps return parts (``jets.place``):
each block r_t·e^{iλ_tΘ}C_t is one vector, weighted by its radius lifted
to one component, Choe–Hoppe lists its pairs (Re_k, Im_k) one component
at a time, and the maps take ``jets.Columns`` only.  ``_section`` builds
each unit-sphere section from its cone by handing the cone's blocks the
chart's components as radii; ``GenHelicoidA._vectors`` embeds the
helicoid's blocks for its map and for ``SphericalSlice``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import jets
from .charts import (
    CliffordBlock,
    SphereChart,
    block_charts,
    embed_charts,
    matrix_tuple,
    rotate_block,
)
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
    "ScrewData",
    "scaling_indices",
    "is_negative_control",
    "lands_on_unit_sphere",
    "spec_dimensions",
    "standard_chart",
    "standard_block",
    "choe_hoppe_graph_function",
    "choe_hoppe_graph_residual",
    "spec_to_json",
    "spec_from_json",
    "BRANCH_TOL",
]

RADIAL_BOX = (0.3, 1.7)
THETA_BOX = (-np.pi, np.pi)
AXIS_BOX = (-2.0, 2.0)
BRANCH_TOL = 1e-2


@dataclass(frozen=True)
class PitchVector:
    """Axial rate lambda0 plus one angular rate per block."""

    lambda0: float
    lambdas: tuple[float, ...]

    def __post_init__(self):
        _finite_fields(self, "lambda0")
        object.__setattr__(self, "lambdas", tuple(
            _finite_float(x, "lambdas") for x in self.lambdas))
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

    def build(self) -> Immersion:
        return replace(self.block.immersion(),
                       name=f"clifford-torus-N{self.block.sphere_dim}")


@dataclass(frozen=True)
class CliffordCone(_Family):
    block: CliffordBlock

    def scaling_indices(self) -> tuple[int, ...]:
        return (self.block.param_dim,)

    def build(self) -> Immersion:
        cone = LRaysCone(rays=1, base=CliffordTorus(block=self.block))
        return replace(cone.build(),
                       name=f"clifford-cone-N{self.block.sphere_dim}")


@dataclass(frozen=True)
class LRaysCone(_Family):
    rays: int
    base: BaseSpec

    def __post_init__(self):
        _check_rays(self.rays)
        _check_spherical_base(self.base)

    def scaling_indices(self) -> tuple[int, ...]:
        nb = self.base.build().param_dim
        return tuple(range(nb, nb + self.rays))

    def build(self) -> Immersion:
        return self._with_parts()[0]

    def _with_parts(self):
        """(the cone, its map (cols, radii) ↦ parts with the radii handed in).

        The parts are r_t·P, ray by ray, the base's parts in order as
        vectors (``jets.place``), so each product is a vector.
        """
        base = self.base.build()
        nb, L = base.param_dim, self.rays

        def parts(cols, radii):
            placed, _ = jets.place(base.components(cols[:nb]), cols.batch)
            return [r * v for r in radii for v, _ in placed]

        # g = diag(|r|² g_P, I), as ∂P·P = 0 for the unit vector P, so
        # the guard's Hadamard ratio is the base's
        return Immersion(
            param_dim=nb + L, ambient_dim=base.ambient_dim * L,
            components=lambda cols: parts(cols, _radii(cols, nb, L)),
            domain=base.domain + (RADIAL_BOX,) * L,
            name=f"rays-cone-L{L}-over-{base.name}"), parts


@dataclass(frozen=True)
class LRaysCliffordCone(_Family):
    rays: int
    block: CliffordBlock

    def __post_init__(self):
        _check_rays(self.rays)

    def scaling_indices(self) -> tuple[int, ...]:
        nb = self.block.param_dim
        return tuple(range(nb, nb + self.rays))

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

    def build(self) -> Immersion:
        cone, parts = LRaysCone(rays=self.xs.dim + 1,
                                base=self.base)._with_parts()
        # g = diag(g_P, g_x) for |x| = |P| = 1, so the guard's Hadamard
        # ratio is the base's times the sphere chart's, which is 1
        return _section(cone, parts, self.xs, cone.ambient_dim,
                        cone.name.replace("rays-cone", "spherical-join", 1))


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

    @property
    def _theta_index(self) -> int:
        """Θ follows the blocks' chart parameters; the radii follow Θ."""
        return sum(b.param_dim for b in self.blocks)

    def screw(self) -> ScrewData:
        return ScrewData(pitch=self.pitch, theta_index=self._theta_index)

    def scaling_indices(self) -> tuple[int, ...]:
        if self.pitch.lambda0 != 0.0:
            return ()
        first = self._theta_index + 1
        return tuple(range(first, first + len(self.blocks)))

    def build(self) -> Immersion:
        blocks = self.blocks
        L = len(blocks)
        domain = tuple(bx for b in blocks for bx in b.domain_box()) \
            + (THETA_BOX,) + (RADIAL_BOX,) * L
        return Immersion(
            param_dim=self._theta_index + 1 + L,
            ambient_dim=sum(b.ambient_dim for b in blocks) + 1,
            components=lambda cols: self.components(cols, self._vectors(cols)),
            domain=domain,
            name=f"helicoid-a-L{L}-N{blocks[0].sphere_dim}")

    def _vectors(self, cols) -> list:
        """Each block's C_t on its chart range of ``cols``.

        One ``block_charts`` pass, then ``CliffordBlock.join`` per block.
        """
        halves = block_charts(self.blocks, [cols[lo:hi] for lo, hi
                                            in _block_spans(self.blocks)])
        return [b.join(x, y) for b, (x, y) in zip(self.blocks, halves)]

    def sweep(self, cols, vectors, radii) -> list:
        """The blocks r_t·e^{iλ_tΘ}C_t from their vectors C_t at ``cols``.

        ``vectors`` are the blocks' C_t, embedded on their chart ranges of
        ``cols``; the radii are handed in.  The axial coordinate λ₀Θ is
        not among the parts.
        """
        th = cols[self._theta_index]
        return [r * rotate_block(c, lam * th)
                for r, c, lam in zip(radii, vectors, self.pitch.lambdas)]

    def components(self, cols, vectors) -> list:
        """The helicoid's parts from its blocks' vectors C_t at ``cols``.

        ``sweep`` with the radius columns, then λ₀Θ: the immersion's map
        when the vectors are ``CliffordBlock.embed``'s.
        """
        theta_index = self._theta_index
        return self.sweep(cols, vectors, _radii(cols, theta_index + 1,
                                                len(self.blocks))) \
            + [self.pitch.lambda0 * cols[theta_index]]


@dataclass(frozen=True)
class GenHelicoidB(_Family):
    rays: int
    block: CliffordBlock
    angular_pitch: float
    axial_pitch: float

    def __post_init__(self):
        _check_rays(self.rays)
        _finite_fields(self, "angular_pitch", "axial_pitch")

    def screw(self) -> ScrewData:
        return ScrewData(
            pitch=PitchVector(lambda0=self.axial_pitch,
                              lambdas=(self.angular_pitch,) * self.rays),
            theta_index=self.block.param_dim)

    def scaling_indices(self) -> tuple[int, ...]:
        if self.axial_pitch != 0.0:
            return ()
        first = self.block.param_dim + 1
        return tuple(range(first, first + self.rays))

    def build(self) -> Immersion:
        block = self.block
        L = self.rays
        nu = block.param_dim
        lam, lam0 = self.angular_pitch, self.axial_pitch

        def comps(cols):
            rotated = rotate_block(block.embed(cols[:nu]), lam * cols[nu])
            return [r * rotated for r in _radii(cols, nu + 1, L)] \
                + [lam0 * cols[nu]]

        return Immersion(
            param_dim=nu + 1 + L, ambient_dim=block.ambient_dim * L + 1,
            components=comps,
            domain=block.domain_box() + (THETA_BOX,) + (RADIAL_BOX,) * L,
            name=f"helicoid-b-L{L}-N{block.sphere_dim}")


@dataclass(frozen=True)
class ChoeHoppe(_Family):
    sphere_dim: int              # N: the cone lives in R^{2N}
    pitch: float
    chart_p: SphereChart | None = None
    chart_q: SphereChart | None = None

    def __post_init__(self):
        if type(self.sphere_dim) is not int or self.sphere_dim < 1:
            raise SpecError("sphere_dim must be an integer >= 1")
        _finite_fields(self, "pitch")
        for label, chart in (("chart_p", self.chart_p),
                             ("chart_q", self.chart_q)):
            if chart is not None and chart.dim != self.sphere_dim - 1:
                raise SpecError(f"{label} must parametrize "
                                f"S^{self.sphere_dim - 1}, got S^{chart.dim}")

    def screw(self) -> ScrewData:
        # Θ follows the two S^{N-1} charts, N - 1 parameters each
        return ScrewData(
            pitch=PitchVector(lambda0=self.pitch,
                              lambdas=(1.0,) * self.sphere_dim),
            theta_index=2 * self.sphere_dim - 2)

    def scaling_indices(self) -> tuple[int, ...]:
        return () if self.pitch != 0.0 else (2 * self.sphere_dim - 1,)

    def build(self) -> Immersion:
        N = self.sphere_dim
        chart_p = self.chart_p or standard_chart(N - 1)
        chart_q = self.chart_q or standard_chart(N - 1)
        np_, nq = chart_p.param_dim, chart_q.param_dim
        lam = self.pitch

        def comps(cols):
            th = cols[np_ + nq]
            s = jets.lift(cols[np_ + nq + 1])
            p, q = (s * v for v in embed_charts(
                (chart_p, chart_q), (cols[:np_], cols[np_:np_ + nq])))
            sa, ca = (jets.lift(x) for x in jets.sincos(th))
            # (p_k + i q_k)·e^{iΘ}: its real and imaginary parts, pair by
            # pair, as one-component parts on one support (one Block)
            re, im = ca * p - sa * q, ca * q + sa * p
            return [jets.take(v, k, k + 1) for k in range(N)
                    for v in (re, im)] + [lam * th]

        return Immersion(
            param_dim=np_ + nq + 2, ambient_dim=2 * N + 1,
            components=comps,
            domain=chart_p.domain_box() + chart_q.domain_box()
            + (THETA_BOX, RADIAL_BOX),
            name=f"choe-hoppe-N{N}")


@dataclass(frozen=True)
class BDJ(_Family):
    pitch: PitchVector

    def __post_init__(self):
        _check_pitch(self.pitch)

    def screw(self) -> ScrewData:
        return ScrewData(pitch=self.pitch, theta_index=0)

    def scaling_indices(self) -> tuple[int, ...]:
        if self.pitch.lambda0 != 0.0:
            return ()
        return tuple(range(1, self.pitch.blocks + 1))

    def build(self) -> Immersion:
        L = self.pitch.blocks
        lam0, lams = self.pitch.lambda0, self.pitch.lambdas

        def comps(cols):
            th = cols[0]
            out = []
            for t in range(L):
                r = cols[1 + t]
                sin, cos = jets.sincos(lams[t] * th)
                out += [r * cos, r * sin]
            out.append(lam0 * th)
            return out

        return Immersion(
            param_dim=L + 1, ambient_dim=2 * L + 1, components=comps,
            domain=(THETA_BOX,) + (RADIAL_BOX,) * L,
            name=f"ruled-helicoid-L{L}")


@dataclass(frozen=True)
class LawsonSurface(_Family):
    lambda1: float
    lambda2: float

    spherical = True

    def __post_init__(self):
        _finite_fields(self, "lambda1", "lambda2")
        if self.lambda1 == 0.0 and self.lambda2 == 0.0:
            raise SpecError("rotation rates must not both vanish")

    def screw(self) -> ScrewData:
        return ScrewData(
            pitch=PitchVector(lambda0=0.0,
                              lambdas=(self.lambda1, self.lambda2)),
            theta_index=1)

    def build(self) -> Immersion:
        l1, l2 = self.lambda1, self.lambda2

        def comps(cols):
            t, th = cols
            sin_t, cos_t = jets.sincos(t)
            sin_1, cos_1 = jets.sincos(l1 * th)
            sin_2, cos_2 = jets.sincos(l2 * th)
            return [cos_t * cos_1, cos_t * sin_1, sin_t * cos_2, sin_t * sin_2]

        # keep sin t and cos t away from 0 so neither rotation circle collapses
        margin = 0.15
        return Immersion(
            param_dim=2, ambient_dim=4, components=comps,
            domain=((margin, np.pi / 2 - margin), THETA_BOX),
            name=f"ruled-sphere-surface-{l1:g}-{l2:g}")


@dataclass(frozen=True)
class HarveyLawsonCone(_Family):
    sphere_dim: int
    chart_x: SphereChart | None = None
    chart_y: SphereChart | None = None

    def __post_init__(self):
        if type(self.sphere_dim) is not int or self.sphere_dim < 0:
            raise SpecError("sphere_dim must be an integer >= 0")
        for label, chart in (("chart_x", self.chart_x),
                             ("chart_y", self.chart_y)):
            if chart is not None and chart.dim != self.sphere_dim:
                raise SpecError(f"{label} must parametrize "
                                f"S^{self.sphere_dim}, got S^{chart.dim}")

    def scaling_indices(self) -> tuple[int, ...]:
        # r₁ and r₂ follow the two S^N charts, N parameters each
        return (2 * self.sphere_dim, 2 * self.sphere_dim + 1)

    def build(self) -> Immersion:
        chart_x = self.chart_x or standard_chart(self.sphere_dim)
        chart_y = self.chart_y or standard_chart(self.sphere_dim)
        nx, ny = chart_x.param_dim, chart_y.param_dim

        def comps(cols):
            x, y = embed_charts((chart_x, chart_y),
                                (cols[:nx], cols[nx:nx + ny]))
            return [r * v for r in _radii(cols, nx + ny, 2) for v in (x, y)]

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

    def screw(self) -> ScrewData:
        return self.inner.screw()

    def build(self) -> Immersion:
        inner = self.inner
        L, N = len(inner.blocks), inner.blocks[0].sphere_dim
        cone = inner.build()

        def parts(cols, radii):
            return inner.sweep(cols, inner._vectors(cols), radii)

        # the section keeps the cone's blocks and drops its zero axis
        return _section(cone, parts, self.chart or standard_chart(L - 1),
                        cone.ambient_dim - 1, f"sphere-slice-L{L}-N{N}")


@dataclass(frozen=True)
class LatitudeCircle(_Family):
    height: float

    spherical = True

    def __post_init__(self):
        _finite_fields(self, "height")
        if not abs(self.height) < 1.0:
            raise SpecError("latitude height must satisfy |h| < 1")

    @property
    def control(self) -> bool:
        return self.height != 0.0

    def build(self) -> Immersion:
        rho = float(np.sqrt(1.0 - self.height**2))
        h = self.height

        def comps(cols):
            (u,) = cols
            sin, cos = jets.sincos(u)
            return [rho * cos, rho * sin, h]

        return Immersion(param_dim=1, ambient_dim=3, components=comps,
                         domain=(THETA_BOX,), name=f"latitude-circle-h{h:g}")


@dataclass(frozen=True)
class Cylinder(_Family):
    radius: float

    control = True

    def __post_init__(self):
        _finite_fields(self, "radius")
        if self.radius <= 0.0:
            raise SpecError("cylinder radius must be positive")

    def build(self) -> Immersion:
        R = self.radius

        def comps(cols):
            u, z = cols
            sin, cos = jets.sincos(u)
            return [R * cos, R * sin, z]

        return Immersion(param_dim=2, ambient_dim=3, components=comps,
                         domain=(THETA_BOX, AXIS_BOX),
                         name=f"cylinder-R{R:g}")


FamilySpec = Union[
    CliffordTorus, CliffordCone, LRaysCone, LRaysCliffordCone, SphericalJoin,
    GenHelicoidA, GenHelicoidB, ChoeHoppe, BDJ, LawsonSurface,
    HarveyLawsonCone, SphericalSlice, LatitudeCircle, Cylinder,
]
BaseSpec = Union[FamilySpec, SphereChart]


def _finite_float(value, name: str) -> float:
    """``value`` as a float; SpecError unless it is a finite number."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise SpecError(f"{name} must be finite, got {x}")
    return x


def _finite_box(box, name: str) -> tuple[tuple[float, float], ...]:
    """``box`` as finite (lo, hi) float pairs; SpecError for any other shape."""
    try:
        pairs = [tuple(pair) for pair in box]
    except TypeError:
        pairs = None
    if pairs is None or any(len(pair) != 2 for pair in pairs):
        raise SpecError(f"{name} must be a (lo, hi) pair per parameter, "
                        f"got {box!r}")
    return tuple((_finite_float(lo, name), _finite_float(hi, name))
                 for lo, hi in pairs)


def _finite_fields(spec, *names: str) -> None:
    """Store the named fields of a frozen spec as finite floats."""
    for name in names:
        object.__setattr__(spec, name, _finite_float(getattr(spec, name), name))


def _check_rays(rays) -> None:
    if type(rays) is not int or rays < 1:
        raise SpecError(f"rays must be an integer >= 1, got {rays!r}")


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
    return isinstance(spec, (_Family, SphereChart)) and spec.spherical


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


def _radii(cols, lo: int, count: int) -> list:
    """The radius columns lo..lo+count−1, each lifted to one component."""
    return [jets.lift(cols[i]) for i in range(lo, lo + count)]


def _section(cone: Immersion, parts, chart: SphereChart, ambient_dim: int,
             name: str) -> Immersion:
    """The cone with its last dim+1 parameters, the radii, set to ``chart``.

    ``parts(cols, radii)`` is the cone's map with its radii handed in:
    the section hands it x_t, the components of the chart's point, so
    each product r_t·v becomes x_t·v.  The parts give the leading
    ``ambient_dim`` coordinates.
    """
    nb = cone.param_dim - (chart.dim + 1)
    dim = chart.dim

    def comps(cols):
        x = chart.embed(cols[nb:])
        return parts(cols, [jets.take(x, t, t + 1) for t in range(dim + 1)])

    return Immersion(param_dim=nb + chart.param_dim, ambient_dim=ambient_dim,
                     components=comps,
                     domain=cone.domain[:nb] + chart.domain_box(), name=name)


def _block_spans(blocks) -> list[tuple[int, int]]:
    """(start, stop) of each block's chart parameters, laid end to end."""
    spans, lo = [], 0
    for b in blocks:
        spans.append((lo, lo + b.param_dim))
        lo = spans[-1][1]
    return spans


def spec_dimensions(spec: FamilySpec) -> tuple[int, int]:
    """(intrinsic dim n, ambient dim K) of the built immersion."""
    imm = build_immersion(spec)
    return imm.param_dim, imm.ambient_dim


def build_immersion(spec: FamilySpec) -> Immersion:
    """Construct the family's immersion; raises SpecError on bad specs."""
    if not isinstance(spec, _Family):
        raise SpecError(f"unknown family spec {type(spec).__name__}")
    return spec.build()


# --- screw motion -----------------------------------------------------------

def screw_action(pitch: PitchVector, t, points) -> np.ndarray:
    """Rotate each block by e^{i λ_s t} and translate the axis by λ₀t.

    ``t`` is a scalar or an array of angles that broadcasts against the
    leading (batch) axes of ``points``.  The width of ``points`` fixes the
    layout: if it is odd, the last coordinate is the axis; the rest split
    evenly into ``pitch.blocks`` complex blocks (a; b) ≅ a + ib, or raise
    ``DimensionMismatch``.
    """
    q = np.asarray(points, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    L = pitch.blocks
    axial = q.shape[-1] % 2
    width = q.shape[-1] - axial
    size, rest = divmod(width, L)
    if rest or size % 2:
        raise DimensionMismatch(
            f"cannot split {width} coordinates into {L} complex blocks "
            f"of one size")
    out = np.array(q, copy=True)
    for s in range(L):
        block = slice(s * size, (s + 1) * size)
        out[..., block] = rotate_block(q[..., block], pitch.lambdas[s] * t)
    if axial:
        out[..., -1] = q[..., -1] + pitch.lambda0 * t
    return out


@dataclass(frozen=True)
class ScrewData:
    """How a family realizes the screw motion in its own parametrization."""

    pitch: PitchVector
    theta_index: int


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


def _guard_branch(x: np.ndarray) -> None:
    if x.shape[-1] % 2 or x.shape[-1] < 2:
        raise DimensionMismatch(
            f"graph function needs 2N interleaved coordinates, "
            f"got {x.shape[-1]}")
    xs = x[..., 0::2]
    ys = x[..., 1::2]
    den = np.sum(xs * xs - ys * ys, axis=-1)
    num = 2.0 * np.sum(xs * ys, axis=-1)
    mag = np.hypot(num, den)
    if np.any(mag <= BRANCH_TOL):
        raise BranchLocusError(
            f"point within {BRANCH_TOL:g} of the branch locus of the "
            f"graph function")


def choe_hoppe_graph_residual(sphere_dim: int, x) -> np.ndarray:
    """Divergence-form minimal-surface residual Σ_k ∂_k(f_k / W) of f.

    W = sqrt(1 + ‖∇f‖²); expanding the divergence gives
    (tr Hf · W² − ∇fᵀ·Hf·∇f) / W³, assembled from one jet evaluation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2 * sphere_dim:
        raise DimensionMismatch(
            f"expected {2 * sphere_dim} coordinates, got {x.shape[-1]}")
    _guard_branch(x)
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
    """(annotation per field, required keys, optional keys) of a record class.

    A field with a default is optional.  Cached because resolving the string
    annotations costs more than decoding a record.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    hinted = {f.name: hints[f.name] for f in fields}
    required = frozenset(f.name for f in fields
                         if f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING)
    return hinted, required, frozenset(hinted) - required


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
    """The fields of a record dataclass in declaration order; None is omitted."""
    out = {}
    for name, tp in _schema(type(obj))[0].items():
        value = getattr(obj, name)
        if value is not None:
            out[name] = (_base_to_json(value) if tp is BaseSpec
                         else _value_to_json(value))
    return out


def _value_from_json(tp, value, where: str):
    """Parse one JSON value by its type annotation; ``where`` is its path.

    ``float`` takes a finite int or float, ``int`` only an int and ``bool``
    only a bool; ``tuple[X, ...]`` takes a JSON array, ``tuple[X, Y]`` one of
    that length, and a bare ``tuple`` a matrix; ``dict`` passes a JSON object
    through and ``dict[int, X]`` takes keys that are decimal integers.  In a
    union, ``null`` selects ``None`` and a JSON array the tuple member.  A
    field typed with a family class must decode to that class.
    """
    if tp in (bool, int, float, str):
        accepted = (int, float) if tp is float else tp
        if (isinstance(value, bool) is not (tp is bool)
                or not isinstance(value, accepted)):
            raise SpecError(f"{where}: expected {tp.__name__}, "
                            f"got {type(value).__name__}")
        if tp is float and not math.isfinite(value):
            raise SpecError(f"{where}: expected a finite number, got {value}")
        return tp(value)
    if tp is FamilySpec:
        return spec_from_json(value)
    if tp is BaseSpec:
        return _base_from_json(value, where)
    if tp is SphereChart:
        return _chart_from_json(value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) > 1:
            members = [a for a in members if isinstance(value, list)
                       == (a is tuple or typing.get_origin(a) is tuple)]
        (inner,) = members
        return _value_from_json(inner, value, where)
    if dict in (tp, origin):
        if not isinstance(value, dict):
            raise SpecError(f"{where}: expected a JSON object, "
                            f"got {type(value).__name__}")
        if tp is dict:
            return value
        for k in value:
            if not (k.isascii() and k.isdigit()):
                raise SpecError(f"{where}: key {k!r} is not a decimal integer")
        return {int(k): _value_from_json(args[1], v, f"{where}.{k}")
                for k, v in value.items()}
    if origin is tuple:
        if not isinstance(value, list):
            raise SpecError(f"{where}: expected a JSON array, "
                            f"got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise SpecError(f"{where}: expected {len(args)} items, "
                            f"got {len(value)}")
        return tuple(_value_from_json(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
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
    """Build a record dataclass from a JSON object, one field at a time."""
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
