"""Parameter-grid tessellation and Wavefront OBJ export.

A mesh samples two parameter axes on a regular grid (remaining
parameters pinned to fixed values), projects the ambient image to three
coordinates, and splits each grid quad into two triangles.  Vertices
that land in an excluded set, or whose coordinates are not finite, are
written at the origin and no face references them.  Each block of
vertices costs one first-order jet pass, which gives both the positions
and the guards' mask (``Immersion.excluded``'s): the pass always
differentiates the map for the metric floor, so a component map must be
written in the jet primitives, and one that calls numpy functions such as
``np.sin`` on its parameters raises.  A degenerate vertex, at an exact
zero denominator of ``reciprocal`` or ``atan2`` or at a chart
singularity, has a non-finite position or Jacobian, so it is detached.

Output is a plain v/f OBJ stream, so identical inputs produce
byte-identical files.  Its decimals come from a numpy kernel that runs
Ryu's shortest round-trip algorithm (U. Adams, "Ryu: fast float-to-string
conversion", PLDI 2018) on uint64 lanes and lays out the digits as
``repr`` does, byte for byte; ``MeshData`` admits finite vertices and
in-range integral faces only, so the kernel sees finite doubles.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SpecError
from .families import _finite_box, _finite_float, build_immersion
from .geometry import Immersion
from .streams import _mul64

__all__ = ["MeshData", "resolve_projection", "tessellate", "obj_text",
           "write_obj"]

_RENDER_ROWS = 4096


@dataclass(frozen=True)
class MeshData:
    """Projected triangle mesh; faces index vertices from zero.

    Vertices are finite and faces are integral indices of a vertex; an
    empty sequence is no rows.
    """

    vertices: np.ndarray   # (V, 3)
    faces: np.ndarray      # (F, 3)

    def __post_init__(self):
        vertices = _rows(self.vertices, "vertices")
        if not np.isfinite(vertices).all():
            raise SpecError("mesh vertices must be finite")
        faces = _rows(self.faces, "faces")
        if faces.dtype.kind == "f" and not (faces == np.trunc(faces)).all():
            raise SpecError("mesh faces must be integer vertex indices")
        if faces.size and not (0 <= faces.min()
                               and faces.max() < len(vertices)):
            raise SpecError(f"mesh faces must index the {len(vertices)} "
                            f"vertices from zero")
        object.__setattr__(self, "vertices",
                           vertices.astype(np.float64, copy=False))
        object.__setattr__(self, "faces", faces.astype(np.int64, copy=False))


def _rows(values, what: str) -> np.ndarray:
    """``values`` as an (N, 3) array of numbers; ``[]`` is no rows."""
    try:
        rows = np.asarray(values)
    except ValueError:                   # ragged rows
        rows = None
    if rows is not None and rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows is None or rows.ndim != 2 or rows.shape[1] != 3:
        shape = "ragged rows" if rows is None else f"shape {rows.shape}"
        raise DimensionMismatch(f"mesh {what} must have shape (N, 3), "
                                f"got {shape}")
    if rows.dtype.kind not in "fiu":
        raise SpecError(f"mesh {what} must be numbers, got {rows.dtype}")
    return rows


def resolve_projection(projection, ambient_dim: int) -> tuple[int, int, int]:
    """Normalize a projection request to three valid coordinate indices."""
    if isinstance(projection, str) and projection == "last-axis":
        if ambient_dim < 3:
            raise DimensionMismatch(
                f"last-axis projection needs ambient dimension >= 3, "
                f"got {ambient_dim}")
        return (0, 1, ambient_dim - 1)
    try:
        if isinstance(projection, str):
            raise TypeError
        idx = tuple(_integer(i, "projection index") for i in projection)
    except (TypeError, ValueError):
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


def _integer(value, what: str) -> int:
    """``value`` if it is an int, not a bool: sizes and indices never round."""
    if type(value) is not int:
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _check_resolution(resolution) -> tuple[int, int]:
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    try:
        nu, nv = (_integer(n, "resolution") for n in resolution)
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

    The grid runs ``_RENDER_ROWS`` vertices at a time, each block through
    one first-order pass for its positions and mask (``Immersion._guarded``);
    a vertex whose position is not finite is masked too.
    """
    imm = source if isinstance(source, Immersion) else build_immersion(source)
    nu, nv = _check_resolution(resolution)
    try:
        ax_u, ax_v = (_integer(a, "grid axis") for a in axes)
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

    dom = np.asarray(imm.domain if box is None
                     else _finite_box(box, "box interval"), dtype=float)
    if dom.shape != (imm.param_dim, 2):
        raise SpecError(f"parameter box has shape {dom.shape}, expected "
                        f"({imm.param_dim}, 2)")
    base = dom.mean(axis=1)
    try:
        fixed = dict(fixed or {})
    except (TypeError, ValueError):
        raise SpecError(f"fixed must map parameter indices to values, "
                        f"got {fixed!r}") from None
    for k, val in fixed.items():
        k = _integer(k, "fixed parameter index")
        if not 0 <= k < imm.param_dim:
            raise SpecError(f"fixed parameter index {k} out of range")
        if k in (ax_u, ax_v):
            raise SpecError(f"parameter {k} is a grid axis and cannot "
                            f"be fixed")
        base[k] = _finite_float(val, "fixed parameter value")

    params = np.broadcast_to(base, (nu, nv, imm.param_dim)).copy()
    params[..., ax_u] = np.linspace(dom[ax_u, 0], dom[ax_u, 1], nu)[:, None]
    params[..., ax_v] = np.linspace(dom[ax_v, 0], dom[ax_v, 1], nv)[None, :]
    flat = params.reshape(-1, imm.param_dim)

    # positions and the guard a block of vertices at a time, so the jet
    # pass's arrays stay small; a point's mask does not depend on its batch
    vertices = np.empty((len(flat), 3))
    masked = np.empty(len(flat), dtype=bool)
    for start in range(0, len(flat), _RENDER_ROWS):
        rows = slice(start, start + _RENDER_ROWS)
        mask, position = imm._guarded(flat[rows])
        mask |= ~np.all(np.isfinite(position), axis=-1)
        masked[rows] = mask
        vertices[rows] = np.where(mask[:, None], 0.0, position[:, list(proj)])

    # the quad at grid (i, j), number q = i (nv − 1) + j in row-major
    # order, has corners a = i nv + j = q + i, a + nv, a + nv + 1 and
    # a + 1; a quad whose corners are all kept emits (a, a + nv, a + nv + 1)
    # then (a, a + nv + 1, a + 1)
    kept = ~masked.reshape(nu, nv)
    q = np.flatnonzero(kept[:-1, :-1] & kept[1:, :-1] & kept[1:, 1:]
                       & kept[:-1, 1:])
    a = q + q // (nv - 1)
    faces = np.empty((len(a), 6), dtype=np.int64)
    faces[:, 0] = faces[:, 3] = a
    faces[:, 1] = a + nv
    faces[:, 2] = faces[:, 4] = a + nv + 1
    faces[:, 5] = a + 1
    return MeshData(vertices=vertices, faces=faces.reshape(-1, 3))


# Shortest round-trip decimals, Ryu's d2d on uint64 lanes.  Ryu writes a
# positive double as mv 2^e2, with mv = 4 m2 for the significand m2 (its
# hidden bit included) and e2 = max(biased, 1) - 1077; the digits are mv
# times a 5^k multiplier, shifted right.  Every constant depends on the
# biased exponent alone, so one gather by it serves both signs of e2.
_MASK64 = (1 << 64) - 1
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)


def _pow5bits(e: int) -> int:
    """Bit length of 5^e (1 for e = 0), as Ryu computes it."""
    return ((e * 1217359) >> 19) + 1


@functools.cache
def _ryu_constants() -> tuple[np.ndarray, ...]:
    """Per biased exponent: Ryu's multiplier, shift and trailing-zero tests.

    The columns are the multiplier's (lo, hi) words, its shift less 64,
    the mask of the low bits of 4 m2 that must be zero for an exact
    product (every bit when it never is), 5^q for the exact-multiple
    tests of e2 >= 0 (0 when q > 21) and the decimal exponent of the
    digits.  Built on the first render and kept (2047 rows of Python
    integer arithmetic, about 3 ms), so a process that writes no OBJ
    never pays for it.
    """
    rows = []
    for biased in range(2047):
        e2 = max(biased, 1) - 1077
        if e2 >= 0:
            # the inverse table entry, floor(2^(bits + 124) / 5^q) + 1
            q = ((e2 * 78913) >> 18) - (e2 > 3)
            mul = (1 << _pow5bits(q) + 124) // 5 ** q + 1
            shift = _pow5bits(q) + 124 + q - e2
            mask, pow5, e10 = _MASK64, 5 ** q if q <= 21 else 0, q
        else:
            # the forward table entry, 5^i scaled to 125 bits
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)
            i = -e2 - q
            mul = 5 ** i << 125 >> _pow5bits(i)
            shift = q - _pow5bits(i) + 125
            mask = (1 << q) - 1 if q < 63 else _MASK64
            pow5, e10 = 0, q + e2
        rows.append((mul & _MASK64, mul >> 64, shift - 64, mask, pow5, e10))
    *words, e10 = zip(*rows)
    return tuple(np.array(w, dtype=np.uint64) for w in words) \
        + (np.array(e10, dtype=np.intp),)


def _shift_right(mid, hi, shift):
    """The 64 bits of (hi, mid) from bit ``shift`` up."""
    return hi << 64 - shift | mid >> shift


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's (digits, exponent) of positive finite doubles' bit patterns.

    ``digits * 10**exponent`` is the shortest decimal that reads back as
    the double, the closest one when several do, and a tie goes to even
    digits: the decimal that ``repr`` writes.
    """
    biased = (mag >> 52).astype(np.intp)
    mul_lo, mul_hi, shift, zero_mask, pow5, e10 = (
        column[biased] for column in _ryu_constants())
    frac = mag & (1 << 52) - 1
    m2 = np.where(biased == 0, frac, frac | 1 << 52)
    accept = (m2 & 1) == 0               # an even m2 keeps its interval ends
    mm_shift = (frac != 0) | (biased <= 1)   # else the lower gap is half
    mv = m2 << 2
    # (lo, mid, hi) = mv times the multiplier; vr, vp and vm are that
    # product, plus twice the multiplier, less one or two multipliers
    # (the interval's centre and ends), each shifted right
    carry, lo = _mul64(mv, mul_lo)
    hi, mid = _mul64(mv, mul_hi)
    mid += carry
    hi += mid < carry
    vr = _shift_right(mid, hi, shift)
    two_lo, two_hi = mul_lo << 1, mul_hi << 1 | mul_lo >> 63
    lo_p = lo + two_lo
    mid_p = mid + two_hi + (lo_p < lo)
    vp = _shift_right(mid_p, hi + (mid_p < mid), shift)
    lo_m = lo - np.where(mm_shift, two_lo, mul_lo)
    mid_m = mid - np.where(mm_shift, two_hi, mul_hi) - (lo_m > lo)
    vm = _shift_right(mid_m, hi - (mid_m > mid), shift)

    # whether vr and vm are exact, i.e. the digits cut off are all zero;
    # Ryu's corrections for e2 < 0 and q <= 1 are left out: x is an
    # integer there (2^52 <= x < 2^54) with fewer digits than the
    # interval's ends, so whether an end is excluded never matters
    vr_zeros = (mv & zero_mask) == 0
    vm_zeros = np.zeros(len(mv), dtype=bool)
    rare = np.flatnonzero(pow5)       # 0 <= e2 and q <= 21
    if rare.size:
        pow5 = pow5[rare]
        r_mv, r_accept = mv[rare], accept[rare]
        fives = r_mv % 5 == 0
        vr_zeros[rare] = fives & (r_mv % pow5 == 0)
        vm_zeros[rare] = ~fives & r_accept & (
            (r_mv - 1 - mm_shift[rare]) % pow5 == 0)
        vp[rare] -= ~fives & ~r_accept & ((r_mv + 2) % pow5 == 0)

    # drop digits while the interval (vm, vp] still holds a shorter
    # decimal, looping only over the lanes that can drop one more
    cut = np.empty(len(mv), dtype=np.intp)
    live, top, bottom = np.arange(len(mv)), vp, vm
    dropped = 0
    while live.size:
        top, bottom = top // 10, bottom // 10
        more = top > bottom
        if not more.all():
            cut[live[~more]] = dropped
            live, top, bottom = live[more], top[more], bottom[more]
        dropped += 1
    # the last digit cut from vr, and whether the ones before it were zero
    below = _POW10[np.maximum(cut - 1, 0)]
    lead = vr // below
    vr_zeros &= vr == lead * below
    vr = np.where(cut > 0, lead // 10, vr)
    last = (lead - vr * 10) * (cut > 0)
    scale = _POW10[cut]
    bottom = vm // scale
    vm_zeros &= vm == bottom * scale
    vm = bottom
    # an exact vm may drop its trailing zeros too
    live = np.flatnonzero(vm_zeros)
    while live.size:
        live = live[vm[live] % 10 == 0]
        vr_zeros[live] &= last[live] == 0
        last[live] = vr[live] % 10
        vr[live] //= 10
        vm[live] //= 10
        cut[live] += 1
    last[vr_zeros & (last == 5) & (vr & 1 == 0)] = 4     # round half to even
    # vr == vm is inside the interval only when vm is exact, which
    # implies accept; otherwise vr steps up
    digits = vr + (((vr == vm) & ~vm_zeros) | (last >= 5))
    return digits, e10 + cut


def _digit_count(values: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64, one for zero."""
    return np.maximum(np.searchsorted(_POW10, values, side="right"), 1)


def _digits(values: np.ndarray, lengths: np.ndarray,
            width: int) -> np.ndarray:
    """ASCII decimals of uint64 ``values``, as (width, lanes) columns.

    Each lane's last ``lengths`` digits fill the bottom of its column,
    leading zeros included, and the places above them hold NUL bytes.
    """
    text = np.empty((width, len(values)), dtype=np.uint8)
    place = width
    while place:
        # eight digits at a time in uint32, which divides faster
        if place > 8:
            head = values // 100_000_000
            chunk = (values - head * 100_000_000).astype(np.uint32)
            values = head
        else:
            chunk = values.astype(np.uint32)
        for _ in range(min(place, 8)):
            place -= 1
            head = chunk // 10
            text[place] = chunk - head * 10
            chunk = head
    text += ord("0")
    text *= np.arange(width)[:, None] >= width - lengths
    return text


def _float_fields(x: np.ndarray) -> list[np.ndarray]:
    """``repr`` of each double as NUL-padded (width, lanes) columns.

    The fields are the sign, the integer part, the point, the fraction
    and, when a lane needs it, 'e', the exponent's sign and its digits.
    As ``repr`` does, a decimal point position below -3 or above 16 takes
    the exponent form, which has no point for a single digit and at least
    two exponent digits, and an integral value ends in '.0'.
    """
    bits = x.view(np.uint64)
    mag = bits & _MASK64 >> 1
    zero = mag == 0
    digits, exp10 = _shortest(np.where(zero, 1 << 62, mag))
    digits[zero] = 0                    # 1 << 62 is 2.0: one digit, point 1
    count = _digit_count(digits)
    point = count + exp10               # x = 0.d1d2... times 10**point
    sci = (point < -3) | (point > 16)
    after = np.where(sci, count - 1, count - point)   # digits past the point
    scale = _POW10[np.clip(after, 0, 19)]
    whole = digits // scale
    fraction = digits - whole * scale
    whole *= _POW10[np.clip(-after, 0, 16)]
    whole_len = np.where(sci, 1, np.maximum(point, 1))
    fraction_len = np.where(sci, after, np.maximum(after, 1))
    fields = [(bits >> 63)[None] * ord("-"),
              _digits(whole, whole_len, int(whole_len.max())),
              (fraction_len > 0)[None] * ord("."),
              _digits(fraction, fraction_len, int(fraction_len.max()))]
    if sci.any():
        power = point - 1
        size = np.abs(power).astype(np.uint64)
        fields += [sci[None] * ord("e"),
                   np.where(sci, np.where(power < 0, ord("-"), ord("+")),
                            0)[None],
                   _digits(size, sci * np.maximum(_digit_count(size), 2), 3)]
    return fields


def _lines(letter: str, rows: int, fields: list[np.ndarray]) -> str:
    """OBJ lines: the letter, then three lanes per row, each after a space.

    ``fields`` are (width, lanes) uint8 columns in order; NUL bytes drop.
    """
    width = 1 + sum(len(f) for f in fields)
    text = np.zeros((rows, 3 * width + 2), dtype=np.uint8)
    text[:, 0], text[:, -1] = ord(letter), ord("\n")
    lanes = text[:, 1:-1].reshape(rows, 3, width)
    lanes[..., 0] = ord(" ")
    at = 1
    for field in fields:
        lanes[..., at:at + len(field)] = field.T.reshape(rows, 3, -1)
        at += len(field)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _obj_blocks(mesh: MeshData):
    """The OBJ text a block of at most ``_RENDER_ROWS`` rows at a time.

    Each block is decoded as it is made, so that the kernel's arrays stay
    small; an empty mesh is one newline.
    """
    if not len(mesh.vertices):
        yield "\n"
    for start in range(0, len(mesh.vertices), _RENDER_ROWS):
        rows = mesh.vertices[start:start + _RENDER_ROWS]
        yield _lines("v", len(rows), _float_fields(rows.ravel()))
    for start in range(0, len(mesh.faces), _RENDER_ROWS):
        index = (mesh.faces[start:start + _RENDER_ROWS].ravel()
                 + 1).astype(np.uint64)
        yield _lines("f", len(index) // 3, [_digits(
            index, _digit_count(index), len(str(index.max())))])


def obj_text(mesh: MeshData) -> str:
    """Render v/f records; floats as shortest round-trip decimals."""
    return "".join(_obj_blocks(mesh))


def write_obj(mesh: MeshData, target) -> None:
    """Write the OBJ stream to a path or file-like object.

    The text goes out a block at a time (``obj_text``'s blocks), so no
    copy of the whole text is held.
    """
    if not hasattr(target, "write"):
        with io.open(target, "w", encoding="ascii", newline="\n") as fh:
            write_obj(mesh, fh)
        return
    for block in _obj_blocks(mesh):
        target.write(block)
