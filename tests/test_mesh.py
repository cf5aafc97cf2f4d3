"""Grid tessellation and OBJ export tests.

The vertex layout oracle is the immersion itself: vertex (i, j) of an
(nu, nv) grid must equal the projected position at the linspace sample
(u_i, v_j).  Topology oracles are counted by hand: an open grid strip
has (nu-1)(nv-1) quads, twice as many triangles, and every interior
edge shared by exactly two of them.
"""

import hashlib
import io
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from minvar import jets
from minvar import mesh as mesh_module
from minvar.errors import ChartDomainError, DimensionMismatch, DomainError, \
    SpecError
from minvar.families import ChoeHoppe, CliffordTorus, GenHelicoidA, \
    LawsonSurface, PitchVector, build_immersion, standard_block
from minvar.geometry import Immersion
from minvar.harness import default_campaign
from minvar.mesh import _RENDER_ROWS, MeshData, _digit_count, _digits, \
    obj_text, resolve_projection, tessellate, write_obj

HELICOID = ChoeHoppe(sphere_dim=1, pitch=0.5)


def patch(threshold=None, components=None):
    exclusions = ()
    if threshold is not None:
        exclusions = (("low-u", lambda p: p[..., 0] < threshold),)
    comps = components or (lambda cols: [cols[0], cols[1], cols[0] + cols[1]])
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((0.0, 1.0), (0.0, 1.0)),
                     exclusions=exclusions, name="patch")


def reference_obj_text(imm, nu, nv, vertices):
    """Reference renderer: faces and records built one quad at a time."""
    u, v = np.meshgrid(np.linspace(*imm.domain[0], nu),
                       np.linspace(*imm.domain[1], nv), indexing="ij")
    flat = np.stack([u.ravel(), v.ravel()], axis=-1)
    with np.errstate(all="ignore"):
        finite = np.all(np.isfinite(imm.position(flat)), axis=-1)
    # the guards differentiate the map, so they see finite vertices only
    masked = ~finite
    masked[finite] = imm.excluded(flat[finite])
    faces = []
    for i in range(nu - 1):
        row, nxt = i * nv, (i + 1) * nv
        for j in range(nv - 1):
            a, b, c, d = row + j, nxt + j, nxt + j + 1, row + j + 1
            if masked[a] or masked[b] or masked[c] or masked[d]:
                continue
            faces.append((a, b, c))
            faces.append((a, c, d))
    return reference_records(vertices, faces), int(masked.sum())


def reference_records(vertices, faces):
    """Reference v/f records, one f-string per row."""
    parts = []
    for x, y, z in vertices:
        parts.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for a, b, c in faces:
        parts.append(f"f {a + 1} {b + 1} {c + 1}")
    return "\n".join(parts) + "\n"


class TestResolveProjection:
    def test_explicit_and_preset(self):
        assert resolve_projection((0, 1, 2), 5) == (0, 1, 2)
        assert resolve_projection([2, 0, 4], 5) == (2, 0, 4)
        assert resolve_projection("last-axis", 5) == (0, 1, 4)
        assert resolve_projection("last-axis", 3) == (0, 1, 2)

    def test_out_of_range_index(self):
        with pytest.raises(DimensionMismatch, match="9"):
            resolve_projection((0, 1, 9), 5)
        with pytest.raises(DimensionMismatch):
            resolve_projection((-1, 0, 1), 5)
        with pytest.raises(DimensionMismatch):
            resolve_projection("last-axis", 2)

    def test_wrong_arity(self):
        with pytest.raises(SpecError, match="3"):
            resolve_projection((0, 1), 5)
        with pytest.raises(SpecError):
            resolve_projection(7, 5)
        with pytest.raises(SpecError):
            resolve_projection(np.array([0, 1, 2]), 5)


class TestTessellate:
    def test_helicoid_grid_counts(self):
        mesh = tessellate(HELICOID, resolution=(64, 64))
        assert mesh.vertices.shape == (4096, 3)
        assert mesh.faces.shape == (63 * 63 * 2, 3)
        assert mesh.faces.min() == 0 and mesh.faces.max() == 4095

    def test_square_resolution_shorthand(self):
        assert tessellate(HELICOID, resolution=16).vertices.shape == (256, 3)

    def test_vertices_match_immersion(self):
        imm = build_immersion(HELICOID)
        mesh = tessellate(HELICOID, resolution=(5, 7))
        us = np.linspace(*imm.domain[0], 5)
        vs = np.linspace(*imm.domain[1], 7)
        for i in (0, 2, 4):
            for j in (0, 3, 6):
                want = imm.position(np.array([us[i], vs[j]]))[:3]
                assert np.allclose(mesh.vertices[i * 7 + j], want,
                                   atol=1e-15)

    def test_strip_is_watertight(self):
        # every interior edge borders two triangles, boundary edges one
        nu, nv = 9, 6
        mesh = tessellate(HELICOID, resolution=(nu, nv))
        edges = Counter()
        for a, b, c in mesh.faces:
            for e in ((a, b), (b, c), (c, a)):
                edges[tuple(sorted(e))] += 1
        assert set(edges.values()) <= {1, 2}
        boundary = sum(1 for n in edges.values() if n == 1)
        assert boundary == 2 * (nu - 1) + 2 * (nv - 1)

    def test_fixed_parameters_and_axes(self):
        spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2,)),
                            blocks=(standard_block(1),))
        imm = build_immersion(spec)
        assert imm.param_dim == 4
        mesh = tessellate(spec, resolution=(4, 4), fixed={3: 1.3})
        mids = [(lo + hi) / 2 for lo, hi in imm.domain]
        p = np.array([imm.domain[0][0], imm.domain[1][0], mids[2], 1.3])
        assert np.allclose(mesh.vertices[0], imm.position(p)[:3], atol=1e-15)

    def test_axes_pick_other_parameters(self):
        spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2,)),
                            blocks=(standard_block(1),))
        imm = build_immersion(spec)
        mesh = tessellate(spec, resolution=(3, 3), axes=(2, 3))
        p = np.array([(imm.domain[0][0] + imm.domain[0][1]) / 2,
                      (imm.domain[1][0] + imm.domain[1][1]) / 2,
                      imm.domain[2][0], imm.domain[3][0]])
        assert np.allclose(mesh.vertices[0], imm.position(p)[:3], atol=1e-15)

    def test_projection_variants(self):
        spec = ChoeHoppe(sphere_dim=2, pitch=0.5)
        imm = build_immersion(spec)
        assert imm.ambient_dim == 5
        explicit = tessellate(spec, resolution=(6, 6), projection=(0, 1, 4))
        preset = tessellate(spec, resolution=(6, 6), projection="last-axis")
        assert np.array_equal(explicit.vertices, preset.vertices)
        with pytest.raises(DimensionMismatch):
            tessellate(spec, resolution=(6, 6), projection=(0, 1, 9))

    def test_box_override(self):
        imm = patch()
        mesh = tessellate(imm, resolution=(3, 3),
                          box=((0.25, 0.75), (0.5, 1.0)))
        assert np.allclose(mesh.vertices[0], [0.25, 0.5, 0.75])
        assert np.allclose(mesh.vertices[-1], [0.75, 1.0, 1.75])

    def test_excluded_vertices_are_detached(self):
        mesh = tessellate(patch(threshold=0.26), resolution=(5, 5))
        # u-grid is 0, .25, .5, .75, 1: first two rows are excluded
        masked = np.arange(10)
        assert np.array_equal(mesh.vertices[masked],
                              np.zeros((10, 3)))
        assert not np.isin(mesh.faces, masked).any()
        assert mesh.faces.shape == (2 * 2 * 4, 3)

    def test_nonfinite_vertices_are_detached(self):
        comps = lambda cols: [jets.reciprocal(cols[0]), cols[1], cols[0]]
        mesh = tessellate(patch(components=comps), resolution=(3, 3))
        assert np.array_equal(mesh.vertices[:3], np.zeros((3, 3)))
        assert np.isfinite(mesh.vertices).all()
        assert not np.isin(mesh.faces, [0, 1, 2]).any()

    def test_singular_vertices_under_a_metric_floor_are_detached(self):
        # u = 0 maps to inf; the metric floor's jet pass would divide by
        # zero there, but the guard runs on finite vertices only, so that
        # row is detached instead
        comps = lambda cols: [jets.reciprocal(cols[0]), cols[1], cols[0]]
        mesh = tessellate(patch(components=comps), resolution=(3, 3))
        assert np.array_equal(mesh.vertices[:3], np.zeros((3, 3)))
        assert np.isfinite(mesh.vertices).all()
        assert not np.isin(mesh.faces, [0, 1, 2]).any()
        assert mesh.faces.shape == (2 * 2, 3)

    def test_finite_vertices_with_a_nonfinite_jacobian_are_detached(self):
        # at u = 0 the third coordinate is 1e160, finite, but its slope
        # −1/(u + 1e-160)² overflows: the metric floor reads a NaN det g
        # there and detaches the row instead of keeping it
        comps = lambda cols: [cols[0], cols[1],
                              jets.reciprocal(cols[0] + 1e-160)]
        imm = patch(components=comps)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(imm.position(np.zeros(2))).all()
            assert not np.isfinite(imm.eval(np.zeros(2)).jacobian).all()
            mesh = tessellate(imm, resolution=(3, 3), projection=(0, 1, 2))
        assert np.array_equal(mesh.vertices[:3], np.zeros((3, 3)))
        assert not np.isin(mesh.faces, [0, 1, 2]).any()
        assert mesh.faces.shape == (2 * 2, 3)

    @pytest.mark.parametrize("kwargs", [
        {"resolution": (1, 4)}, {"resolution": 0},
        {"resolution": "fine"},
        # non-integers are refused, never truncated
        {"resolution": (2.7, 3.9)}, {"resolution": 3.0},
        {"resolution": True}, {"resolution": (True, 3)},
        {"axes": (0.9, 1.6)}, {"axes": (False, True)},
        {"projection": (0.5, 1.2, 2.9)}, {"projection": (0, True, 2)},
        {"fixed": {2.0: 1.0}}, {"fixed": {True: 1.0}},
        {"axes": (0, 0)}, {"axes": (0,)},
        {"fixed": {0: 1.0}},            # axis 0 is a grid axis
        {"fixed": {7: 1.0}},
        {"box": ((0.0, 1.0),)},
        # non-finite bounds would mask every vertex, not raise
        {"box": ((0.0, 1.0), (0.0, float("nan")))},
        {"box": ((float("-inf"), 1.0), (0.0, 1.0))},
        {"box": ((0.0, 1.0), ("a", 1.0))},
        # malformed shapes, not only bad numbers
        {"box": 5}, {"box": (5, 6)}, {"box": ((0.2, 1.0), (0.0,))},
        {"fixed": 5},
    ])
    def test_rejects_bad_grid_requests(self, kwargs):
        with pytest.raises(SpecError):
            tessellate(patch(), **kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "a", None])
    def test_rejects_bad_fixed_values(self, value):
        # a non-finite pinned value would mask every vertex, and a
        # non-number must not escape as a bare ValueError or TypeError
        spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2,)),
                            blocks=(standard_block(1),))
        with pytest.raises(SpecError, match="fixed parameter value"):
            tessellate(spec, resolution=(3, 3), fixed={2: value})

    def test_rejects_bad_axis_index(self):
        with pytest.raises(DimensionMismatch):
            tessellate(patch(), axes=(0, 5))


def _assemble_orders(monkeypatch):
    """The (order, batch) of every ``Immersion.assemble`` call, in order."""
    calls = []
    assemble = Immersion.assemble

    def counted(self, outs, cols):
        calls.append((cols.order, cols.batch))
        return assemble(self, outs, cols)

    monkeypatch.setattr(Immersion, "assemble", counted)
    return calls


def _two_pass(monkeypatch, source, **kwargs):
    """``tessellate`` with every block on the positions-first fallback."""
    guarded = Immersion._guarded

    def raising(self, p):
        raise DomainError("forced")

    with monkeypatch.context() as m:
        # the fallback's guard is excluded's mask, from the real pass
        m.setattr(Immersion, "excluded", lambda self, p: guarded(self, p)[0])
        m.setattr(Immersion, "_guarded", raising)
        return tessellate(source, **kwargs)


def _pinhole():
    """(1/(u² + v²)) over a grid past one render block, singular at 0.

    The grid is 101 × 101 on [−1, 1]², so vertex (50, 50), index 5100, is
    the origin: only the second of the three blocks meets it.
    """
    comps = lambda cols: [cols[0], cols[1], jets.reciprocal(
        cols[0] * cols[0] + cols[1] * cols[1])]
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((-1.0, 1.0), (-1.0, 1.0)), name="pinhole")


class TestSinglePass:
    @pytest.mark.parametrize("name, spec", [
        (name, spec) for name, spec in default_campaign()
        if build_immersion(spec).param_dim >= 2])
    def test_equals_the_two_pass_route(self, monkeypatch, name, spec):
        # positions from the guard's first-order pass have the bits of the
        # order-0 pass, and the mask is the same on every vertex; 70² spans
        # two render blocks
        got = tessellate(spec, resolution=70)
        want = _two_pass(monkeypatch, spec, resolution=70)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.faces.tobytes() == want.faces.tobytes()

    def test_nonfinite_positions_of_a_passing_jet_pass_are_detached(self):
        # a plain-array part carries no derivative, so the metric floor
        # passes where it is inf: the position's finiteness masks it
        comps = lambda cols: [cols[0], cols[1], np.where(
            cols.p[..., 0] > 0.6, np.inf, 0.0)]
        mesh = tessellate(patch(components=comps), resolution=(5, 5))
        assert np.array_equal(mesh.vertices[15:], np.zeros((10, 3)))
        assert mesh.faces.shape == (2 * 2 * 4, 3)
        assert mesh.faces.max() < 15

    def test_one_first_order_pass_per_block(self, monkeypatch):
        calls = _assemble_orders(monkeypatch)
        mesh = tessellate(LawsonSurface(1.0, 2.0), resolution=100)
        assert len(mesh.vertices) == 10_000 > 2 * _RENDER_ROWS
        assert calls == [(1, (_RENDER_ROWS,)), (1, (_RENDER_ROWS,)),
                         (1, (10_000 - 2 * _RENDER_ROWS,))]

    def test_a_singular_block_falls_back_alone(self, monkeypatch):
        grid = np.linspace(-1.0, 1.0, 101)
        assert grid[50] == 0.0
        calls = _assemble_orders(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = tessellate(_pinhole(), resolution=101)
        # the middle block's jet pass raises in the map at the origin,
        # before it assembles, then runs positions first and the guard on
        # its 4095 finite vertices
        assert calls == [(1, (4096,)), (0, (4096,)), (1, (4095,)),
                         (1, (10201 - 8192,))]
        assert np.array_equal(mesh.vertices[5100], np.zeros(3))
        assert not np.isin(mesh.faces, [5100]).any()
        assert len(mesh.faces) == 2 * (100 * 100 - 4)
        calls.clear()
        want = _two_pass(monkeypatch, _pinhole(), resolution=101)
        assert [order for order, _ in calls] == [0, 1] * 3
        assert mesh.vertices.tobytes() == want.vertices.tobytes()
        assert mesh.faces.tobytes() == want.faces.tobytes()

    def test_a_chart_singularity_raises(self, monkeypatch):
        # the fallback's plain positions raise at a vanishing interior sine
        # as the jet pass does, so the grid raises instead of detaching
        spec = CliffordTorus(standard_block(2, "trigonometric"))
        box = list(build_immersion(spec).domain)
        box[0] = (-0.5, 0.5)                # the grid meets sin φ = 0
        fallbacks = []
        positions_first = mesh_module._positions_first

        def counted(imm, p):
            fallbacks.append(len(p))
            return positions_first(imm, p)
        monkeypatch.setattr(mesh_module, "_positions_first", counted)
        with pytest.raises(ChartDomainError, match="interior sine"):
            tessellate(spec, resolution=5, box=box)
        assert fallbacks == [25]


class TestObjOutput:
    def test_structure_and_indexing(self):
        mesh = tessellate(HELICOID, resolution=(4, 4))
        lines = obj_text(mesh).splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == 16 and len(f_lines) == 18
        assert lines == v_lines + f_lines
        for line in f_lines:
            ids = [int(tok) for tok in line.split()[1:]]
            assert all(1 <= i <= 16 for i in ids)

    def test_floats_round_trip_exactly(self):
        mesh = tessellate(HELICOID, resolution=(3, 3))
        for line, vertex in zip(obj_text(mesh).splitlines(), mesh.vertices):
            got = [float(tok) for tok in line.split()[1:]]
            assert got == [float(x) for x in vertex]

    def test_matches_reference_renderer_byte_for_byte(self):
        # scattered exclusions plus a non-finite column mask interior
        # vertices; a non-square grid catches swapped strides, and more
        # than 4096 vertices and faces span several render blocks
        comps = lambda cols: [jets.sin(3 * cols[0])
                              * jets.reciprocal(cols[1] - 0.5),
                              -cols[1], cols[0] * cols[1] - 0.3]
        imm = Immersion(
            param_dim=2, ambient_dim=3, components=comps,
            domain=((0.0, 1.0), (0.0, 1.0)),
            exclusions=(("speckle", lambda p: np.sin(40 * p[..., 0])
                         * np.cos(31 * p[..., 1]) > 0.8),),
            name="speckled")
        mesh = tessellate(imm, resolution=(83, 61))
        want, masked = reference_obj_text(imm, 83, 61, mesh.vertices)
        assert masked > 0 and 4096 < len(mesh.faces) < 2 * 82 * 60
        assert obj_text(mesh).encode("ascii") == want.encode("ascii")

    def test_edge_values_match_reference_renderer(self):
        # signed zero, the smallest subnormal, exponent switch-overs and the
        # largest double, over two full render blocks and a partial third
        edge = [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308,
                -1e-5, 0.1, -2.5e-17, 123456789.0]
        rows = 2 * 4096 + 321
        rng = np.random.default_rng(11)
        vertices = rng.choice(edge, size=(rows, 3))
        vertices[::7] = rng.standard_normal((len(vertices[::7]), 3))
        vertices[1] = -0.0
        vertices[2] = [5e-324, 1e16, 1.7976931348623157e308]
        faces = rng.integers(0, rows, size=(4096 + 17, 3))
        mesh = MeshData(vertices=vertices, faces=faces)
        text = obj_text(mesh)
        assert text.splitlines()[1:3] == [
            "v -0.0 -0.0 -0.0", "v 5e-324 1e+16 1.7976931348623157e+308"]
        want = reference_records(mesh.vertices, mesh.faces)
        assert text.encode("ascii") == want.encode("ascii")

    def test_byte_identical_across_runs(self):
        a = obj_text(tessellate(HELICOID, resolution=(16, 16)))
        b = obj_text(tessellate(HELICOID, resolution=(16, 16)))
        assert a.encode("ascii") == b.encode("ascii")

    def test_write_to_path_and_stream(self, tmp_path):
        mesh = tessellate(HELICOID, resolution=(3, 3))
        out = tmp_path / "strip.obj"
        write_obj(mesh, out)
        buffer = io.StringIO()
        write_obj(mesh, buffer)
        assert out.read_text() == buffer.getvalue() == obj_text(mesh)

    def test_export_runs_in_bounded_memory(self, tmp_path):
        # positions, guards and text go a block of rows at a time, so no
        # whole-grid jet pass or whole copy of the text is held
        tracemalloc.start()
        try:
            write_obj(tessellate(LawsonSurface(1.0, 2.0), resolution=256),
                      tmp_path / "lawson.obj")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert (tmp_path / "lawson.obj").stat().st_size > 0

    def test_empty_mesh_writes_one_newline(self):
        buffer = io.StringIO()
        write_obj(MeshData(vertices=[], faces=[]), buffer)
        assert buffer.getvalue() == "\n"

    def test_minimal_mesh(self):
        mesh = MeshData(vertices=np.eye(3), faces=[[0, 1, 2]])
        assert obj_text(mesh) == (
            "v 1.0 0.0 0.0\nv 0.0 1.0 0.0\nv 0.0 0.0 1.0\nf 1 2 3\n")


def vertex_text(values):
    """obj_text of the vertices ``values`` (padded to whole rows) alone."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    flat = np.concatenate([flat, np.zeros(-len(flat) % 3)])
    mesh = MeshData(vertices=flat.reshape(-1, 3), faces=[])
    return obj_text(mesh), mesh.vertices


class TestMeshData:
    @pytest.mark.parametrize("vertices", [np.zeros((3, 2)), np.zeros((3, 4)),
                                          np.zeros(9), [[0.0, 1.0], [2.0]]])
    def test_rejects_vertex_shapes(self, vertices):
        with pytest.raises(DimensionMismatch, match="vertices"):
            MeshData(vertices=vertices, faces=[])

    def test_rejects_flat_faces(self):
        with pytest.raises(DimensionMismatch, match="faces"):
            MeshData(vertices=np.eye(3), faces=[0, 1, 2])

    @pytest.mark.parametrize("faces", [[[0, 1, 5]], [[0, 1, 3]]])
    def test_rejects_faces_past_the_last_vertex(self, faces):
        with pytest.raises(SpecError, match="index the 3 vertices"):
            MeshData(vertices=np.eye(3), faces=faces)

    def test_rejects_negative_faces(self):
        # once written 1-based this was the invalid record "f 1 2 0"
        with pytest.raises(SpecError, match="index the 3 vertices"):
            MeshData(vertices=np.eye(3), faces=[[0, 1, -1]])

    @pytest.mark.parametrize("bad", [1.7, float("nan"), float("inf")])
    def test_rejects_non_integral_faces(self, bad):
        # 1.7 was once truncated to "f 1 2 2"
        with pytest.raises(SpecError, match="faces"):
            MeshData(vertices=np.eye(3), faces=[[0.0, 1.0, bad]])

    def test_accepts_integral_float_faces(self):
        mesh = MeshData(vertices=np.eye(3), faces=[[0.0, 1.0, 2.0]])
        assert mesh.faces.dtype == np.int64
        assert obj_text(mesh).endswith("f 1 2 3\n")

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_rejects_nonfinite_vertices(self, bad):
        # these were once written as "v inf -inf nan"
        with pytest.raises(SpecError, match="finite"):
            MeshData(vertices=[[0.0, bad, 1.0]], faces=[])

    @pytest.mark.parametrize("vertices, faces", [
        ([["a", "b", "c"]], []), ([[True, False, True]], []),
        (np.eye(3), [[True, False, True]]), (np.eye(3), [["0", "1", "2"]])])
    def test_rejects_non_numbers(self, vertices, faces):
        with pytest.raises(SpecError, match="numbers"):
            MeshData(vertices=vertices, faces=faces)

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 3))])
    def test_empty_mesh_renders_one_newline(self, empty):
        mesh = MeshData(vertices=empty, faces=empty)
        assert mesh.vertices.shape == mesh.faces.shape == (0, 3)
        assert obj_text(mesh) == "\n"


def _neighbours(values):
    """``values`` and the finite doubles on either side of each."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        near = np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])
    return near[np.isfinite(near)]


class TestDecimalKernel:
    """The numpy kernel writes each double exactly as ``repr`` does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=3, max_size=3))
    def test_matches_repr_on_any_finite_bit_pattern(self, words):
        x, y, z = np.array(words, dtype=np.uint64).view(np.float64).tolist()
        assume(np.isfinite([x, y, z]).all())
        assert vertex_text([x, y, z])[0] == "v %r %r %r\n" % (x, y, z)

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        powers = [2.0 ** k for k in range(-1074, 1024)]
        powers += [float(f"1e{k}") for k in range(-323, 309)]
        values = _neighbours(powers)
        values = np.concatenate([values, -values])
        text, vertices = vertex_text(values)
        assert text == reference_records(vertices, [])

    def test_named_edge_values(self):
        edge = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, 9007199254740993.0, 1e22, 1e23,
                9999999999999998.0, 1e16, 1e-5, 0.0, -0.0]
        values = _neighbours(edge)
        text, vertices = vertex_text(np.concatenate([values, -values]))
        assert text == reference_records(vertices, [])
        assert vertex_text(edge[:3])[0] == (
            "v 5e-324 2.225073858507201e-308 2.2250738585072014e-308\n")

    def test_exponents_with_exact_products(self):
        # biased exponents 986 to 1153 (about 7e-12 to 3e39) are where the
        # kernel tracks whether its products are exact, which decides
        # ties and trailing zeros; a seeded sweep of mantissas over each
        rng = np.random.default_rng(20)
        biased = np.arange(986, 1154, dtype=np.uint64).repeat(2000)
        mantissa = rng.integers(0, 1 << 52, len(biased), dtype=np.uint64)
        values = (biased << np.uint64(52) | mantissa).view(np.float64)
        text, vertices = vertex_text(values)
        assert text == reference_records(vertices, [])

    @pytest.mark.parametrize("value", [0, 9, 10, 99_999, 100_000, 2 ** 53,
                                       2 ** 63 - 1])
    def test_integer_digit_writer(self, value):
        values = np.array([value], dtype=np.uint64)
        for width in (len(str(value)), 19, 20):
            columns = _digits(values, _digit_count(values), width)
            assert columns.shape == (width, 1)
            text = columns[:, 0].tobytes()
            assert text == b"\0" * (width - len(str(value))) + \
                str(value).encode("ascii")

    def test_benchmark_mesh_digest_is_pinned(self):
        # the Lawson surface that the benchmark exports, at 64 x 64; the
        # digest was taken from the repr-formatted renderer
        text = obj_text(tessellate(LawsonSurface(1.0, 2.0), resolution=64))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "c145851c1781601f7eb27832794393c0af68221e0f07c5f41efcfd7eaed8fd60")
