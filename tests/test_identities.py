"""Frame identities, helicoid metric algebra, and the six-term cancellation.

Oracles: the product-of-circles block (both charts trigonometric, N=1)
has hand-derived closed forms

    C = (cos u, sin u, cos v, sin v)/√2      m = D·JC = -cos(u - v)
    D = (cos u, sin u, -cos v, -sin v)/√2    w = (1, 1)·sin(u - v)/2
    g = diag(1/2, 1/2)

which pin every sign convention.  Generic dimensions are cross-checked
against brute-force numpy linear algebra on the assembled Jacobian.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minvar import identities
from minvar.charts import (
    CliffordBlock,
    SphereChart,
    apply_complex_structure,
    clifford_frame,
)
from minvar.errors import DegenerateMetric, DimensionMismatch, DomainError, \
    SpecError
from minvar.families import (
    ChoeHoppe,
    GenHelicoidA,
    GenHelicoidB,
    HarveyLawsonCone,
    PitchVector,
    _block_spans,
    build_immersion,
    standard_block,
)
from minvar.geometry import Immersion, metric
from minvar.harness import SamplePlan, sample_points
from minvar.identities import (
    helicoid_algebra,
    lemma_magic_residuals,
    pairing_derivative_defect,
    proof_terms,
    theta_harmonicity,
)


def circle_frame(u, v):
    """Closed-form frame of the trigonometric N=1 block (independent)."""
    c = np.array([np.cos(u), np.sin(u), np.cos(v), np.sin(v)]) / np.sqrt(2)
    d = np.array([np.cos(u), np.sin(u), -np.cos(v), -np.sin(v)]) / np.sqrt(2)
    m = -np.cos(u - v)
    w = np.full(2, 0.5 * np.sin(u - v))
    return c, d, m, w


def rotation_commuting_with_j(n_half: int, angle: float) -> tuple:
    """cos(a)·I + sin(a)·J as a matrix, an orthogonal map commuting with J."""
    eye = np.eye(n_half)
    u = np.block([[np.cos(angle) * eye, -np.sin(angle) * eye],
                  [np.sin(angle) * eye, np.cos(angle) * eye]])
    return tuple(tuple(row) for row in u)


def sample_chart_points(block: CliffordBlock, count: int, seed: int):
    rng = np.random.default_rng(seed)
    box = np.array(block.domain_box())
    return rng.uniform(box[:, 0], box[:, 1], size=(count, len(box)))


def sample_helicoid_params(spec: GenHelicoidA, count: int, seed: int):
    imm = build_immersion(spec)
    rng = np.random.default_rng(seed)
    box = np.array(imm.domain)
    out = []
    while len(out) < count:
        p = rng.uniform(box[:, 0], box[:, 1])
        if not imm.excluded(p):
            out.append(p)
    return np.array(out)


class TestLemmaResiduals:
    def test_closed_form_block_matches_hand_frame(self):
        block = standard_block(1, "trigonometric")
        for u, v in [(0.7, 0.2), (1.3, 2.2), (-0.4, 0.9)]:
            fr = clifford_frame(block, np.array([u, v]))
            c, d, m, w = circle_frame(u, v)
            np.testing.assert_allclose(fr.C, c, atol=1e-15)
            np.testing.assert_allclose(fr.D, d, atol=1e-15)
            np.testing.assert_allclose(fr.m, m, atol=1e-15)
            np.testing.assert_allclose(fr.w, w, atol=1e-15)
            np.testing.assert_allclose(fr.metric.g, np.diag([0.5, 0.5]),
                                       atol=1e-15)

    def test_closed_form_residuals_machine_precision(self):
        block = standard_block(1, "trigonometric")
        for u, v in [(0.7, 0.2), (1.3, 2.2), (-0.4, 0.9), (2.9, -2.7)]:
            res = lemma_magic_residuals(block, np.array([u, v]))
            assert res.max_residual <= 1e-12

    def test_aligned_point_reduces_first_identity_to_alignment(self):
        # u = v kills w, so JC must equal m·D on the nose.
        block = standard_block(1, "trigonometric")
        res = lemma_magic_residuals(block, np.array([0.8, 0.8]))
        assert res.res_a1 <= 1e-12
        fr = clifford_frame(block, np.array([0.8, 0.8]))
        np.testing.assert_allclose(fr.JC, fr.m * fr.D, atol=1e-14)

    @pytest.mark.parametrize("sphere_dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["stereographic", "trigonometric"])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_generic_residuals_small(self, sphere_dim, kind, rotated):
        unitary = (rotation_commuting_with_j(sphere_dim + 1, 0.6)
                   if rotated else None)
        block = standard_block(sphere_dim, kind, unitary=unitary)
        pts = sample_chart_points(block, 40, seed=11 * sphere_dim)
        for p in pts:
            res = lemma_magic_residuals(block, p)
            assert res.max_residual <= 1e-9, (sphere_dim, kind, rotated, p)

    def test_zero_dimensional_block_is_exact(self):
        block = standard_block(0)
        for shape in [(0,), (7, 0)]:
            res = lemma_magic_residuals(block, np.zeros(shape))
            assert res.max_residual.shape == shape[:-1]
            assert np.all(res.max_residual <= 1e-15)

    def test_pairing_derivative_closed_form(self):
        # d m/du = sin(u-v) = +2 w_u and d m/dv = -sin(u-v) = -2 w_v.
        block = standard_block(1, "trigonometric")
        for u, v in [(0.7, 0.2), (1.9, -0.8)]:
            assert pairing_derivative_defect(block, np.array([u, v])) <= 1e-12

    @pytest.mark.parametrize("sphere_dim", [1, 2])
    def test_pairing_derivative_generic(self, sphere_dim):
        block = standard_block(sphere_dim, "stereographic")
        for p in sample_chart_points(block, 25, seed=5):
            assert pairing_derivative_defect(block, p) <= 1e-9


def pitch_for(rng, blocks):
    lams = tuple(float(rng.uniform(0.4, 1.4)) for _ in range(blocks))
    return PitchVector(float(rng.uniform(0.4, 1.4)), lams)


class TestHelicoidAlgebra:
    def test_classical_two_column_case(self):
        # One point block: metric is diag(lam0² + lam1² r², 1).
        spec = GenHelicoidA(pitch=PitchVector(1.0, (1.0,)),
                            blocks=(standard_block(0),))
        for theta, r in [(0.9, 1.0), (-0.4, 1.3)]:
            alg = helicoid_algebra(spec, np.array([theta, r]))
            expected = 1.0 + r ** 2
            assert abs(alg.det_direct - expected) <= 1e-12
            assert abs(alg.det_factored - expected) <= 1e-12
            assert abs(alg.R - expected) <= 1e-12
            assert abs(alg.P - expected) <= 1e-12  # m² = 1 for point charts
            assert abs(alg.sqrtG_factored - np.sqrt(expected)) <= 1e-12
            assert alg.inverse_defect <= 1e-12
            assert alg.d == (pytest.approx(np.zeros(0)),)

    @pytest.mark.parametrize("rays,sphere_dim", [
        (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1),
    ])
    def test_factored_determinant_and_inverse(self, rays, sphere_dim):
        rng = np.random.default_rng(100 * rays + sphere_dim)
        spec = GenHelicoidA(
            pitch=pitch_for(rng, rays),
            blocks=tuple(standard_block(sphere_dim) for _ in range(rays)))
        for p in sample_helicoid_params(spec, 5, seed=rays + 7 * sphere_dim):
            alg = helicoid_algebra(spec, p)
            assert alg.det_defect <= 1e-9
            assert alg.inverse_defect <= 1e-9
            assert 0.0 < alg.P <= alg.R + 1e-12
            np.testing.assert_allclose(alg.sqrtG_factored ** 2,
                                       alg.det_factored, rtol=1e-12)

    def test_cross_block_inverse_coupling_is_real(self):
        # The u-u inverse blocks between distinct rays carry a rank-one
        # d ⊗ d / P term; brute-force inversion must reproduce it.
        rng = np.random.default_rng(3)
        spec = GenHelicoidA(
            pitch=PitchVector(0.8, (1.1, 0.7)),
            blocks=(standard_block(1, "trigonometric"),
                    standard_block(1, "trigonometric")))
        params = np.array([0.9, 0.3, 1.1, 0.5, 0.4, 1.2, 0.8])
        alg = helicoid_algebra(spec, params)
        imm = build_immersion(spec)
        ginv = np.linalg.inv(metric(imm.eval(params)).g)
        cross = ginv[0:2, 2:4]
        expected = np.outer(alg.d[0], alg.d[1]) / alg.P
        assert np.linalg.norm(cross) > 1e-3
        np.testing.assert_allclose(cross, expected, atol=1e-10)

    def test_reduced_speed_assembly_without_axial_rate(self):
        # lam0 = 0 with aligned chart points: every m² = 1, so P = R.
        spec = GenHelicoidA(
            pitch=PitchVector(0.0, (1.1, 0.7)),
            blocks=(standard_block(1, "trigonometric"),
                    standard_block(1, "trigonometric")))
        params = np.array([0.8, 0.8, -0.5, -0.5, 0.3, 1.2, 0.9])
        alg = helicoid_algebra(spec, params)
        expected = 1.1 ** 2 * 1.2 ** 2 + 0.7 ** 2 * 0.9 ** 2
        assert abs(alg.P - expected) <= 1e-12
        assert abs(alg.R - expected) <= 1e-12

    def test_wrong_parameter_count_raises(self):
        spec = GenHelicoidA(pitch=PitchVector(1.0, (1.0,)),
                            blocks=(standard_block(1),))
        with pytest.raises(DimensionMismatch):
            helicoid_algebra(spec, np.zeros(3))


class TestThetaHarmonicity:
    def test_single_block_laplacian_vanishes(self):
        spec = GenHelicoidA(pitch=PitchVector(0.9, (1.3,)),
                            blocks=(standard_block(1, "trigonometric"),))
        for p in sample_helicoid_params(spec, 10, seed=2):
            out = theta_harmonicity(spec, p)
            assert out.theta_laplacian <= 1e-8
            assert out.axial_laplacian <= 1e-8
            assert out.block_divergence <= 1e-8

    def test_zero_axial_rate_is_exactly_zero(self):
        spec = GenHelicoidA(pitch=PitchVector(0.0, (1.3,)),
                            blocks=(standard_block(1),))
        p = sample_helicoid_params(spec, 1, seed=4)[0]
        assert theta_harmonicity(spec, p).axial_laplacian == 0.0

    def test_two_block_flux_sums_vanish(self):
        rng = np.random.default_rng(9)
        spec = GenHelicoidA(
            pitch=pitch_for(rng, 2),
            blocks=(standard_block(1), standard_block(1)))
        for p in sample_helicoid_params(spec, 50, seed=12):
            out = theta_harmonicity(spec, p)
            assert out.block_divergence <= 1e-8
            assert out.theta_laplacian <= 1e-8


class TestProofTerms:
    def test_single_block_cancellation(self):
        spec = GenHelicoidA(pitch=PitchVector(0.7, (1.1,)),
                            blocks=(standard_block(1, "trigonometric"),))
        for p in sample_helicoid_params(spec, 20, seed=21):
            out = proof_terms(spec, 1, p)
            bound = 1e-8 * max(1.0, out.scale)
            assert out.sum_norm <= bound
            assert out.operator_defect <= 1e-7 * max(1.0, out.scale)

    def test_two_block_cancellation_each_index(self):
        rng = np.random.default_rng(31)
        spec = GenHelicoidA(
            pitch=pitch_for(rng, 2),
            blocks=(standard_block(1), standard_block(1, "trigonometric")))
        for p in sample_helicoid_params(spec, 10, seed=22):
            for t in (1, 2):
                out = proof_terms(spec, t, p)
                assert out.sum_norm <= 1e-8 * max(1.0, out.scale)
                assert out.operator_defect <= 1e-7 * max(1.0, out.scale)

    def test_zero_rate_block_kills_middle_terms(self):
        # Every term except the 2N pair carries a factor of the block
        # rate; with it zero only S1 and S6 survive and cancel pairwise.
        spec = GenHelicoidA(pitch=PitchVector(1.2, (0.0,)),
                            blocks=(standard_block(1, "trigonometric"),))
        p = sample_helicoid_params(spec, 1, seed=8)[0]
        out = proof_terms(spec, 1, p)
        for term in (out.S2, out.S3, out.S4, out.S5):
            assert np.linalg.norm(term) <= 1e-12
        assert np.linalg.norm(out.S1 + out.S6) <= 1e-12
        assert np.linalg.norm(out.S1) > 0.1

    def test_point_blocks_cancel_exactly(self):
        # N=0: the 2N prefactor vanishes, m² = 1 exactly, and the sum
        # telescopes to S5 + S6 = 0 in exact floating point.
        spec = GenHelicoidA(pitch=PitchVector(0.9, (1.0, 1.3)),
                            blocks=(standard_block(0), standard_block(0)))
        for p in sample_helicoid_params(spec, 10, seed=13):
            out = proof_terms(spec, 2, p)
            assert out.sum_norm <= 1e-15
            assert out.operator_defect <= 1e-8

    def test_frozen_pure_angle_term(self):
        # Independent assembly of S5 for the trigonometric single-block
        # helicoid at a pinned parameter point.
        lam0, lam1 = 0.7, 1.1
        u, v, theta, r = 0.9, 0.3, 0.5, 1.2
        spec = GenHelicoidA(pitch=PitchVector(lam0, (lam1,)),
                            blocks=(standard_block(1, "trigonometric"),))
        out = proof_terms(spec, 1, np.array([u, v, theta, r]))

        c, _, m, _ = circle_frame(u, v)
        jc = apply_complex_structure(c)
        p_val = lam0 ** 2 + lam1 ** 2 * r ** 2 * m ** 2
        k = lam1 ** 2 * r ** 3 * 0.5 / np.sqrt(p_val)  # sqrt(det g) = 1/2
        expected = -k * (np.cos(lam1 * theta) * c + np.sin(lam1 * theta) * jc)
        np.testing.assert_allclose(out.S5, expected, atol=1e-12)
        np.testing.assert_array_equal(out.S3, out.S4)

    def test_block_index_validation(self):
        spec = GenHelicoidA(pitch=PitchVector(1.0, (1.0, 1.0)),
                            blocks=(standard_block(1), standard_block(1)))
        p = sample_helicoid_params(spec, 1, seed=3)[0]
        with pytest.raises(DimensionMismatch):
            proof_terms(spec, 0, p)
        with pytest.raises(DimensionMismatch):
            proof_terms(spec, 3, p)


# ---------------------------------------------------------------------------
# Batched API: a (B, n) call is the stack of its (n,) calls
# ---------------------------------------------------------------------------


def _blocks():
    return [standard_block(0), standard_block(1, "trigonometric"),
            standard_block(2, unitary=rotation_commuting_with_j(3, 0.6))]


def _specs():
    return [GenHelicoidA(pitch=PitchVector(0.8, (1.2,)),
                         blocks=(standard_block(1),)),
            GenHelicoidA(pitch=PitchVector(0.7, (1.1, 0.6)),
                         blocks=(standard_block(0), standard_block(0))),
            GenHelicoidA(pitch=PitchVector(0.9, (1.3, 0.5)),
                         blocks=(standard_block(1, "trigonometric"),
                                 standard_block(1)))]


def _helicoid_calls(spec):
    calls = [("helicoid_algebra", lambda p: helicoid_algebra(spec, p)),
             ("theta_harmonicity", lambda p: theta_harmonicity(spec, p))]
    calls += [(f"proof_terms-{t}", lambda p, t=t: proof_terms(spec, t, p))
              for t in range(1, len(spec.blocks) + 1)]
    return calls


def _block_calls(block):
    return [("clifford_frame", lambda p: clifford_frame(block, p)),
            ("lemma_magic_residuals",
             lambda p: lemma_magic_residuals(block, p)),
            ("pairing_derivative_defect",
             lambda p: pairing_derivative_defect(block, p))]


def _leaves(x):
    """Array leaves of a result, in field order (ints kept as they are)."""
    if dataclasses.is_dataclass(x):
        return [leaf for f in dataclasses.fields(x)
                for leaf in _leaves(getattr(x, f.name))]
    if isinstance(x, tuple):
        return [leaf for item in x for leaf in _leaves(item)]
    if isinstance(x, int):
        return [x]
    return [np.asarray(x)]


def _cases():
    cases = []
    for block in _blocks():
        cases += [(block, name, call) for name, call in _block_calls(block)]
    for spec in _specs():
        cases += [(spec, name, call) for name, call in _helicoid_calls(spec)]
    return cases


CASES = _cases()


def _points(owner, count, seed):
    if isinstance(owner, CliffordBlock):
        if owner.param_dim == 0:
            return np.zeros((count, 0))
        return sample_chart_points(owner, count, seed)
    pts, _ = sample_points(build_immersion(owner),
                           SamplePlan(count=count, seed=seed))
    return pts


@given(case=st.integers(0, len(CASES) - 1), count=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_batched_call_equals_stacked_single_calls(case, count, seed):
    owner, name, call = CASES[case]
    pts = _points(owner, count, seed)
    batched = _leaves(call(pts))
    singles = [_leaves(call(p)) for p in pts]
    for i, leaf in enumerate(batched):
        column = [single[i] for single in singles]
        if isinstance(leaf, int):
            assert all(c == leaf for c in column), name
            continue
        stacked = np.stack(column)
        assert leaf.shape == stacked.shape, name
        # relative, floored at 1 as the residuals themselves are: batched
        # BLAS calls may round a 1e-16 residual differently
        gap = np.abs(leaf - stacked) / np.maximum(1.0, np.abs(stacked))
        assert np.all(gap <= 1e-13), name


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"{name}-{i}" for i, (_, name, _) in
                              enumerate(CASES)])
def test_leading_axes_pass_through(case):
    # a field of shape lead + core has the core shape at one (n,) point,
    # so per-point scalars come out with shape ()
    owner, name, call = CASES[case]
    pts = _points(owner, 6, seed=case)
    single = _leaves(call(pts[0]))
    for lead in [(6,), (2, 3)]:
        many = _leaves(call(pts.reshape(lead + pts.shape[-1:])))
        assert len(many) == len(single)
        for one, leaf in zip(single, many):
            if not isinstance(one, int):
                assert leaf.shape == lead + one.shape, name


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"{name}-{i}" for i, (_, name, _) in
                              enumerate(CASES)])
def test_wrong_trailing_dimension_raises(case):
    owner, name, call = CASES[case]
    n = _points(owner, 1, seed=0).shape[-1]
    for shape in [(4, n + 1), (n + 1,), ()]:
        with pytest.raises(DimensionMismatch):
            call(np.full(shape, 0.5))


# ---------------------------------------------------------------------------
# The shared helicoid record: one evaluation per batch, last batch only
# ---------------------------------------------------------------------------


TWO_BLOCKS = GenHelicoidA(pitch=PitchVector(0.9, (1.3, 0.5)),
                          blocks=(standard_block(1, "trigonometric"),
                                  standard_block(1)))


def _all_checks(spec, p):
    return (helicoid_algebra(spec, p), theta_harmonicity(spec, p)) + tuple(
        proof_terms(spec, t, p) for t in range(1, len(spec.blocks) + 1))


def _bytes(result):
    return [(type(x), x.shape, x.tobytes()) if isinstance(x, np.ndarray)
            else x for x in _leaves(result)]


@pytest.fixture
def cold(monkeypatch):
    """Forget the memoized record now and when the test ends."""
    monkeypatch.setattr(identities, "_last_eval", None)


@pytest.fixture
def counted(monkeypatch, cold):
    """Counts of ``SphereChart.embed`` and ``Immersion.eval`` calls."""
    counts = {"embed": 0, "eval": 0}
    embed, eval_ = SphereChart.embed, Immersion.eval

    def counted_embed(self, cols):
        counts["embed"] += 1
        return embed(self, cols)

    def counted_eval(self, p):
        counts["eval"] += 1
        return eval_(self, p)

    monkeypatch.setattr(SphereChart, "embed", counted_embed)
    monkeypatch.setattr(Immersion, "eval", counted_eval)
    return counts


@pytest.mark.parametrize("rays", [1, 2, 3])
def test_all_checks_on_one_batch_evaluate_once(counted, rays):
    spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2, 0.7, 1.0)[:rays]),
                        blocks=(standard_block(1),) * rays)
    p = sample_helicoid_params(spec, 4, seed=rays)
    counted.update(embed=0, eval=0)     # sampling evaluates too
    _all_checks(spec, p)
    assert counted == {"embed": 1, "eval": 0}


def test_only_the_last_batch_is_kept(counted):
    # TWO_BLOCKS has two chart specs: two embeddings per evaluated batch
    a = sample_helicoid_params(TWO_BLOCKS, 3, seed=1)
    b = sample_helicoid_params(TWO_BLOCKS, 3, seed=2)
    counted.update(embed=0, eval=0)
    for p in (a, b, a):
        helicoid_algebra(TWO_BLOCKS, p)
    assert counted == {"embed": 6, "eval": 0}
    # equal points by value (a copy, another spec object) still hit
    theta_harmonicity(dataclasses.replace(TWO_BLOCKS), a.copy())
    assert counted == {"embed": 6, "eval": 0}
    helicoid_algebra(TWO_BLOCKS, a[:2])
    assert counted == {"embed": 8, "eval": 0}


@pytest.mark.parametrize("rays", [1, 2, 3])
def test_one_chart_pass_per_spec_and_no_helicoid_eval(counted, rays):
    # the frames and the helicoid record share each block's C, and the
    # 2L like charts of the blocks are embedded in one call: one chart
    # embedding per batch (2L at the parent of this layout) and no
    # Immersion.eval
    spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2, 0.7, 1.0)[:rays]),
                        blocks=(standard_block(2),) * rays)
    p = sample_helicoid_params(spec, 3, seed=rays)
    counted.update(embed=0, eval=0)
    _all_checks(spec, p)
    assert counted == {"embed": 1, "eval": 0}


EMBEDS_PER_EVAL = {
    "helicoid-a-L3": (GenHelicoidA(
        pitch=PitchVector(0.8, (1.2, 0.7, 1.0)),
        blocks=(standard_block(2),) * 3), 1),
    "helicoid-a-two-specs": (TWO_BLOCKS, 2),
    # unitaries that differ do not split charts that are equal
    "helicoid-a-turned-unitaries": (GenHelicoidA(
        pitch=PitchVector(0.5, (1.1, 0.6)),
        blocks=(standard_block(1, unitary=rotation_commuting_with_j(2, 0.4)),
                standard_block(1, unitary=rotation_commuting_with_j(2, 1.1)))),
        1),
    "helicoid-a-point-branches": (GenHelicoidA(
        pitch=PitchVector(0.5, (1.1, 0.6)),
        blocks=(standard_block(0, branches=(1, -1)),
                standard_block(0, branches=(-1, -1)))), 2),
    "helicoid-b-L3": (GenHelicoidB(rays=3, block=standard_block(2),
                                   angular_pitch=1.1, axial_pitch=0.6), 1),
    "choe-hoppe": (ChoeHoppe(sphere_dim=3, pitch=0.5), 1),
    "harvey-lawson": (HarveyLawsonCone(sphere_dim=2), 1),
    "harvey-lawson-two-specs": (HarveyLawsonCone(
        sphere_dim=2, chart_x=SphereChart(dim=2, kind="trigonometric")), 2),
}


@pytest.mark.parametrize("name", sorted(EMBEDS_PER_EVAL))
def test_eval_embeds_each_chart_spec_once(counted, name):
    # GenHelicoidA L = 3 took 6 chart embeddings per eval, GenHelicoidB 2,
    # Choe-Hoppe and Harvey-Lawson 2 before charts were grouped by spec
    spec, embeds = EMBEDS_PER_EVAL[name]
    imm = build_immersion(spec)
    p = _points(spec, 5, seed=3)
    for call in (imm.eval, imm.position, imm.excluded):
        counted["embed"] = 0
        call(p)
        assert counted["embed"] == embeds, call.__name__


def _pe_bytes(pe):
    return [(x.shape, x.tobytes())
            for x in (pe.position, pe.jacobian, pe.second)]


def _frame_bytes(fr):
    return _bytes(fr) + _bytes((fr.metric.dg,))


SHARED_BLOCKS = {
    "stereographic": lambda n, t: standard_block(n),
    "trigonometric": lambda n, t: standard_block(n, "trigonometric"),
    "rotated": lambda n, t: standard_block(
        n, unitary=rotation_commuting_with_j(n + 1, 0.4 + 0.3 * t)),
}


@pytest.mark.parametrize("rays", [1, 2, 3])
@pytest.mark.parametrize("sphere_dim,kind", [
    (n, kind) for n in (0, 1, 2) for kind in sorted(SHARED_BLOCKS)
    if n or kind == "stereographic"])     # S^0 has point charts only
def test_shared_pass_equals_eval_and_frames(rays, sphere_dim, kind):
    spec = GenHelicoidA(
        pitch=PitchVector(0.7, (1.2, 0.6, 0.9)[:rays]),
        blocks=tuple(SHARED_BLOCKS[kind](sphere_dim, t)
                     for t in range(rays)))
    pts = sample_helicoid_params(spec, 15, seed=10 * rays + sphere_dim)
    spans = _block_spans(spec.blocks)
    for batch in [(), (1,), (3, 5)]:
        p = pts[:int(np.prod(batch, dtype=int))].reshape(batch + (-1,))
        frames, pe = identities._shared_pass(spec, p, spans)
        assert _pe_bytes(pe) == _pe_bytes(build_immersion(spec).eval(p))
        for fr, b, (lo, hi) in zip(frames, spec.blocks, spans):
            assert _frame_bytes(fr) == _frame_bytes(
                clifford_frame(b, p[..., lo:hi]))


def test_every_call_order_equals_cold_calls(monkeypatch):
    p = _points(TWO_BLOCKS, 4, seed=5)
    calls = [lambda: helicoid_algebra(TWO_BLOCKS, p),
             lambda: theta_harmonicity(TWO_BLOCKS, p),
             lambda: proof_terms(TWO_BLOCKS, 1, p),
             lambda: proof_terms(TWO_BLOCKS, 2, p)]
    reference = []
    for call in calls:
        monkeypatch.setattr(identities, "_last_eval", None)
        reference.append(_bytes(call()))
    for order in itertools.permutations(range(len(calls))):
        monkeypatch.setattr(identities, "_last_eval", None)
        for i in order:
            assert _bytes(calls[i]()) == reference[i], order


def test_returned_record_arrays_are_read_only(cold):
    p = _points(TWO_BLOCKS, 4, seed=7)
    alg = helicoid_algebra(TWO_BLOCKS, p)
    before = _bytes(_all_checks(TWO_BLOCKS, p))
    for shared in (alg.P, alg.det_direct):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    # results computed after the record do not alias it
    harm = theta_harmonicity(TWO_BLOCKS, p)
    harm.theta_laplacian[0] = 1.0
    assert _bytes(_all_checks(TWO_BLOCKS, p)) == before


def test_caller_writes_to_its_points_do_not_reach_the_record(
        monkeypatch, cold):
    p = _points(TWO_BLOCKS, 4, seed=8)
    q = p.copy()
    helicoid_algebra(TWO_BLOCKS, q)
    q[:] = 0.5      # a caller reusing its buffer
    warm = _bytes(_all_checks(TWO_BLOCKS, p))   # equal bytes: a memo hit
    monkeypatch.setattr(identities, "_last_eval", None)
    assert warm == _bytes(_all_checks(TWO_BLOCKS, p))


def test_record_keeps_no_second_derivatives(cold):
    p = _points(TWO_BLOCKS, 4, seed=9)
    helicoid_algebra(TWO_BLOCKS, p)
    record = identities._last_eval[1]
    arrays = [x for x in _leaves(record) if not isinstance(x, int)]
    assert arrays
    for x in arrays:
        base = x
        while isinstance(base, np.ndarray):
            # (4, n, n) metrics are the widest: no (4, K, n, n) or
            # (4, n, n, n) array, not even as the base of a view
            assert base.ndim <= p.ndim + 1
            base = base.base


def test_non_helicoid_a_spec_raises_spec_error():
    spec = GenHelicoidB(rays=2, block=standard_block(1),
                        angular_pitch=1.1, axial_pitch=0.6)
    p = np.full(build_immersion(spec).param_dim, 0.5)
    for call in (lambda: helicoid_algebra(spec, p),
                 lambda: theta_harmonicity(spec, p),
                 lambda: proof_terms(spec, 1, p)):
        with pytest.raises(SpecError, match="GenHelicoidB"):
            call()


# ---------------------------------------------------------------------------
# Refused inputs: non-finite points and non-integer block indices
# ---------------------------------------------------------------------------


N2_BLOCK = standard_block(2)
ONE_BLOCK = GenHelicoidA(pitch=PitchVector(0.8, (1.2,)),
                         blocks=(standard_block(1),))
NON_FINITE_CALLS = {
    "clifford_frame": lambda p: clifford_frame(N2_BLOCK, p),
    "lemma_magic_residuals": lambda p: lemma_magic_residuals(N2_BLOCK, p),
    "pairing_derivative_defect":
        lambda p: pairing_derivative_defect(N2_BLOCK, p),
    "helicoid_algebra": lambda p: helicoid_algebra(ONE_BLOCK, p),
    "theta_harmonicity": lambda p: theta_harmonicity(ONE_BLOCK, p),
    "proof_terms": lambda p: proof_terms(ONE_BLOCK, 1, p),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_points_raise(cold, name, bad):
    # each used to return a silent NaN (the helicoid checks in det_defect,
    # inverse_defect and theta_laplacian)
    call = NON_FINITE_CALLS[name]
    good = (np.array([0.1, 0.2, 0.3, 0.4]) if name in
            ("clifford_frame", "lemma_magic_residuals",
             "pairing_derivative_defect")
            else np.array([0.3, -0.4, 0.5, 1.1]))
    call(good)
    for where in (0, len(good) - 1):
        p = good.copy()
        p[where] = bad
        with pytest.raises(DomainError, match="non-finite"):
            call(p)
        with pytest.raises(DomainError):
            call(np.stack([good, p]))


TRIG_BLOCK = standard_block(2, "trigonometric")


@pytest.mark.parametrize("call, regular", [
    (lambda p: lemma_magic_residuals(TRIG_BLOCK, p), [1.0, 0.3, 1.0, 0.4]),
    (lambda p: helicoid_algebra(GenHelicoidA(
        pitch=PitchVector(0.8, (1.2,)), blocks=(TRIG_BLOCK,)), p),
     [1.0, 0.3, 1.0, 0.4, 0.5, 0.7])])
def test_a_chart_singularity_raises_degenerate_metric(cold, call, regular):
    # at φ₁ = 1e-9 the trigonometric chart's rows are NaN: the checks raise
    # the typed error, alone or beside a regular point, and never return
    # NaN defects
    regular = np.array(regular)
    singular = regular.copy()
    singular[0] = 1e-9
    call(regular)
    for p in (singular, np.stack([regular, singular])):
        with pytest.raises(DegenerateMetric, match="non-finite"):
            call(p)


@pytest.mark.parametrize("t", [True, False, 1.0, "1", None])
def test_proof_terms_refuses_non_integer_block_index(cold, t):
    p = np.array([0.3, -0.4, 0.5, 1.1])
    with pytest.raises(DimensionMismatch, match="integer"):
        proof_terms(ONE_BLOCK, t, p)
    assert proof_terms(ONE_BLOCK, np.int64(1), p).sum_norm.shape == ()
