"""Parameter-grid tessellation and Wavefront OBJ export.

A mesh samples two parameter axes on a regular grid (remaining
parameters pinned to fixed values), projects the ambient image to three
coordinates, and splits each grid quad into two triangles.  Vertices
that land in an excluded set, or whose coordinates are not finite, are
written at the origin and no face references them.  Finiteness is tested
first, on plain positions, and the guards run on the finite vertices
only, so a singular vertex (where a jet pass would raise a DomainError) is
detached like any other.  The mask comes from ``Immersion.excluded``, a
first-order pass.  Output is a plain v/f OBJ stream with shortest
round-trip decimals, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SpecError
from .families import build_immersion
from .geometry import Immersion

__all__ = ["MeshData", "resolve_projection", "tessellate", "obj_text",
           "write_obj"]

_RENDER_ROWS = 4096


@dataclass(frozen=True)
class MeshData:
    """Projected triangle mesh; faces index vertices from zero."""

    vertices: np.ndarray   # (V, 3)
    faces: np.ndarray      # (F, 3)

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           np.asarray(self.vertices, dtype=np.float64))
        object.__setattr__(self, "faces",
                           np.asarray(self.faces, dtype=np.int64))


def resolve_projection(projection, ambient_dim: int) -> tuple[int, int, int]:
    """Normalize a projection request to three valid coordinate indices."""
    if projection == "last-axis":
        if ambient_dim < 3:
            raise DimensionMismatch(
                f"last-axis projection needs ambient dimension >= 3, "
                f"got {ambient_dim}")
        return (0, 1, ambient_dim - 1)
    try:
        idx = tuple(int(i) for i in projection)
    except TypeError:
        raise SpecError(f"projection must be 'last-axis' or three "
                        f"coordinate indices, got {projection!r}") from None
    if len(idx) != 3:
        raise SpecError(f"projection needs exactly 3 coordinate indices, "
                        f"got {len(idx)}")
    for i in idx:
        if not 0 <= i < ambient_dim:
            raise DimensionMismatch(
                f"projection index {i} out of range for ambient "
                f"dimension {ambient_dim}")
    return idx


def _check_resolution(resolution) -> tuple[int, int]:
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    try:
        nu, nv = (int(n) for n in resolution)
    except (TypeError, ValueError):
        raise SpecError(f"resolution must be an integer or a pair, "
                        f"got {resolution!r}") from None
    if nu < 2 or nv < 2:
        raise SpecError(f"grid needs at least 2 vertices per axis, "
                        f"got {nu}x{nv}")
    return nu, nv


def tessellate(source, resolution=(64, 64), axes=(0, 1), fixed=None,
               box=None, projection=(0, 1, 2)) -> MeshData:
    """Tessellate a family spec or immersion over a 2-axis parameter grid.

    ``axes`` picks the two varying parameters; every other parameter sits
    at the midpoint of its domain interval unless ``fixed`` maps its index
    to a value.  ``resolution`` counts vertices per axis (endpoints
    included).  ``projection`` is three ambient coordinate indices or the
    ``"last-axis"`` preset (coord 0, coord 1, final coordinate as height).
    """
    imm = source if isinstance(source, Immersion) else build_immersion(source)
    nu, nv = _check_resolution(resolution)
    try:
        ax_u, ax_v = (int(a) for a in axes)
    except (TypeError, ValueError):
        raise SpecError(f"axes must be two parameter indices, "
                        f"got {axes!r}") from None
    if ax_u == ax_v:
        raise SpecError(f"grid axes must differ, got ({ax_u}, {ax_v})")
    for a in (ax_u, ax_v):
        if not 0 <= a < imm.param_dim:
            raise DimensionMismatch(
                f"grid axis {a} out of range for {imm.param_dim} parameters")
    proj = resolve_projection(projection, imm.ambient_dim)

    dom = np.asarray(imm.domain if box is None else box, dtype=float)
    if dom.shape != (imm.param_dim, 2):
        raise SpecError(f"parameter box has shape {dom.shape}, expected "
                        f"({imm.param_dim}, 2)")
    base = dom.mean(axis=1)
    for k, val in dict(fixed or {}).items():
        k = int(k)
        if not 0 <= k < imm.param_dim:
            raise SpecError(f"fixed parameter index {k} out of range")
        if k in (ax_u, ax_v):
            raise SpecError(f"parameter {k} is a grid axis and cannot "
                            f"be fixed")
        base[k] = float(val)

    params = np.broadcast_to(base, (nu, nv, imm.param_dim)).copy()
    params[..., ax_u] = np.linspace(dom[ax_u, 0], dom[ax_u, 1], nu)[:, None]
    params[..., ax_v] = np.linspace(dom[ax_v, 0], dom[ax_v, 1], nv)[None, :]
    flat = params.reshape(-1, imm.param_dim)

    with np.errstate(all="ignore"):
        position = imm.position(flat)
    # the guards see finite vertices only: a jet pass raises at a singular
    # point that plain numpy maps to inf or nan
    finite = np.all(np.isfinite(position), axis=-1)
    masked = ~finite
    masked[finite] = imm.excluded(flat[finite])
    vertices = np.where(masked[:, None], 0.0, position[:, list(proj)])

    # corners (a, b, c, d) = (i, j), (i+1, j), (i+1, j+1), (i, j+1) of each
    # quad in row-major order; a kept quad emits (a, b, c) then (a, c, d)
    quads = np.arange(nu * nv).reshape(nu, nv)[:-1, :-1].reshape(-1, 1)
    corners = quads + np.array([0, nv, nv + 1, 1])
    corners = corners[~masked[corners].any(axis=1)]
    return MeshData(vertices=vertices,
                    faces=corners[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


def obj_text(mesh: MeshData) -> str:
    """Render v/f records; floats as shortest round-trip decimals."""
    # rows are converted a block at a time: one tolist() of a large mesh
    # would hold far more memory in Python objects than the text itself;
    # each block is one %-format, and %r of a float is its shortest repr
    blocks = []
    for start in range(0, len(mesh.vertices), _RENDER_ROWS):
        rows = mesh.vertices[start:start + _RENDER_ROWS]
        blocks.append(("v %r %r %r\n" * len(rows))
                      % tuple(rows.ravel().tolist()))
    for start in range(0, len(mesh.faces), _RENDER_ROWS):
        rows = mesh.faces[start:start + _RENDER_ROWS] + 1
        blocks.append(("f %d %d %d\n" * len(rows))
                      % tuple(rows.ravel().tolist()))
    return "".join(blocks) or "\n"        # an empty mesh is one newline


def write_obj(mesh: MeshData, target) -> None:
    """Write the OBJ stream to a path or file-like object."""
    text = obj_text(mesh)
    if hasattr(target, "write"):
        target.write(text)
        return
    with io.open(target, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
