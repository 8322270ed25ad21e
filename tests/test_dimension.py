"""Tests for the dimension formulas, the diagonal closed form, and the pipeline."""

import itertools
import json

import numpy as np
import pytest
from conftest import (GL_ROWS, bm_carpet_ifs, cantor_ifs, gl_carpet_ifs, kp_sponge_ifs,
                      telescoping_identity_check)
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedim import dimension
from affinedim.cocycle import BernoulliWeights, LyapunovSpectrum
from affinedim.dimension import (
    DimensionInputs,
    PipelineConfig,
    diagonal_closed_form,
    full_pipeline,
    kaplan_yorke_equivalence_check,
    ly_dimension,
    lyapunov_dimension,
)
from affinedim.linalg import SubspaceFrame
from affinedim.measure import IfsSystem, PointCloud, project_cloud

LOG2, LOG3 = np.log(2.0), np.log(3.0)
BM_PROJ = 0.9182958340544898
BM_LY = 1.3389156697687947
BM_KY = 1.3690702464285427
CANTOR_DIM = LOG2 / LOG3


def spectrum_of(chi, mult=None):
    chi = np.asarray(chi, dtype=float)
    mult = tuple(mult) if mult is not None else (1,) * chi.size
    return LyapunovSpectrum(chi, None, mult, 0.0)


def bm_inputs():
    return DimensionInputs(LOG3, 0.0, spectrum_of([LOG2, LOG3]), {1: BM_PROJ}, (1,))


# ---------------------------------------------------------------------------
# formula


def test_ly_dimension_self_similar_degenerate():
    inputs = DimensionInputs(LOG2, 0.0, spectrum_of([LOG3]), {}, ())
    assert ly_dimension(inputs) == pytest.approx(CANTOR_DIM, rel=1e-14)


def test_ly_dimension_bm_components():
    assert ly_dimension(bm_inputs()) == pytest.approx(BM_LY, abs=1e-14)


def test_ly_dimension_total_fiber_collapse():
    inputs = DimensionInputs(LOG3, LOG3, spectrum_of([LOG2, LOG3]), {1: 0.0}, (1,))
    assert ly_dimension(inputs) == 0.0


def test_ly_dimension_missing_projection_rejected():
    with pytest.raises(ValueError):
        DimensionInputs(LOG3, 0.0, spectrum_of([LOG2, LOG3]), {}, (1,))


def test_inputs_validation():
    with pytest.raises(ValueError):
        DimensionInputs(1.0, 1.5, spectrum_of([LOG2, LOG3]), {1: 0.5}, (1,))
    with pytest.raises(ValueError):
        DimensionInputs(1.0, 0.0, spectrum_of([LOG2, LOG3]), {1: 1.7}, (1,))
    with pytest.raises(ValueError):
        DimensionInputs(1.0, 0.0, spectrum_of([LOG2, LOG3]), {2: 0.5}, (2,))


def test_ly_dimension_monotonicity_by_perturbation():
    base = bm_inputs()
    eps = 1e-6
    up_h = DimensionInputs(LOG3 + eps, 0.0, base.spectrum, dict(base.projection_dims), (1,))
    up_fiber = DimensionInputs(LOG3, eps, base.spectrum, dict(base.projection_dims), (1,))
    up_proj = DimensionInputs(LOG3, 0.0, base.spectrum, {1: BM_PROJ + eps}, (1,))
    v = ly_dimension(base)
    assert ly_dimension(up_h) > v
    assert ly_dimension(up_fiber) < v
    assert ly_dimension(up_proj) > v


# ---------------------------------------------------------------------------
# Kaplan-Yorke candidate


def brute_force_ky(h, chi):
    best = np.inf
    best_k = None
    for k in range(1, len(chi) + 1):
        val = (k - 1) + (h - sum(chi[: k - 1])) / chi[k - 1]
        if val < best:
            best, best_k = val, k
    return best, best_k


def test_lyapunov_dimension_bm_value():
    res = lyapunov_dimension(LOG3, [LOG2, LOG3])
    assert res.value == pytest.approx(BM_KY, abs=1e-12)
    assert res.k_argmin == 2 and not res.clamped


def test_lyapunov_dimension_small_entropy():
    chi = [0.5, 0.9, 1.4]
    for h in (0.0, 0.2, 0.5):
        res = lyapunov_dimension(h, chi)
        assert res.value == pytest.approx(h / chi[0], abs=1e-15)
        assert res.k_argmin == 1


def test_lyapunov_dimension_saturates_at_d():
    chi = [0.5, 0.9]
    res = lyapunov_dimension(10.0, chi)
    assert res.value == 2.0 and res.clamped
    assert res.raw > 2.0


def test_lyapunov_dimension_matches_brute_force_exactly():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = rng.integers(1, 6)
        chi = np.sort(rng.uniform(0.05, 3.0, size=d))
        h = rng.uniform(0.0, 4.0)
        res = lyapunov_dimension(h, chi)
        expected, k = brute_force_ky(h, list(chi))
        assert res.raw == expected
        assert res.k_argmin == k


# ---------------------------------------------------------------------------
# diagonal closed form


def bm_textbook(digits, p, m, n):
    """Bedford-McMullen: ``H(p)/log m + (1/log n - 1/log m) H(row marginal)``, ``m >= n``."""
    p = np.asarray(p, dtype=float)
    rows = np.zeros(n)
    np.add.at(rows, [r for _, r in digits], p)
    h = -np.sum(p[p > 0] * np.log(p[p > 0]))
    h_row = -np.sum(rows[rows > 0] * np.log(rows[rows > 0]))
    return h / np.log(m) + (1.0 / np.log(n) - 1.0 / np.log(m)) * h_row


def test_bm_closed_form_reference_value():
    value, inputs = diagonal_closed_form(bm_carpet_ifs())
    assert value == 1.3389156697687943
    assert value == pytest.approx(BM_LY, abs=1e-12)
    assert inputs.projection_dims == {1: pytest.approx(BM_PROJ, abs=1e-12)}
    assert inputs.spectrum.exponents.tolist() == [LOG2, LOG3]
    assert inputs.entropy == pytest.approx(LOG3, abs=1e-15)
    assert inputs.fiber_entropy == 0.0 and inputs.indices == (1,)


def test_bm_closed_form_full_grid_is_area():
    digits = [(c, r) for c in range(3) for r in range(2)]
    value, _ = diagonal_closed_form(bm_carpet_ifs(digits))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_bm_closed_form_single_digit_zero():
    value, _ = diagonal_closed_form(bm_carpet_ifs([(1, 1)], probs=[1.0]))
    assert value == 0.0


def test_bm_oracle_agrees_with_generic_formula_exactly():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(2, m))
        cells = [(c, r) for c in range(m) for r in range(n)]
        k = int(rng.integers(1, len(cells) + 1))
        chosen = [cells[j] for j in rng.choice(len(cells), size=k, replace=False)]
        p = rng.uniform(0.1, 1.0, size=k)
        p /= p.sum()
        value, inputs = diagonal_closed_form(bm_carpet_ifs(chosen, m, n, p))
        assert ly_dimension(inputs) == pytest.approx(value, abs=1e-12)
        assert value == pytest.approx(bm_textbook(chosen, p, m, n), abs=1e-12)


def test_kp_sponge_closed_form():
    value, inputs = diagonal_closed_form(kp_sponge_ifs())
    assert value == 1.2249923591561063
    assert inputs.projection_dims == {1: pytest.approx(0.626370941606566, abs=1e-12),
                                      2: pytest.approx(1.1063458124249892, abs=1e-12)}
    # Kenyon-Peres: H(p)/log 5 + (1/log 4 - 1/log 5) H(p_yz) + (1/log 3 - 1/log 4) H(p_z)
    h = lambda q: -sum(x * np.log(x) for x in q)
    p = [0.3, 0.25, 0.2, 0.15, 0.1]
    p_yz = [0.3, 0.25, 0.2 + 0.1, 0.15]  # (y, z) = (0,0) (2,0) (0,2) (2,2)
    p_z = [0.3 + 0.25, 0.2 + 0.15 + 0.1]
    log5, log4 = np.log(5.0), np.log(4.0)
    textbook = h(p) / log5 + (1 / log4 - 1 / log5) * h(p_yz) + (1 / LOG3 - 1 / log4) * h(p_z)
    assert value == pytest.approx(textbook, abs=1e-12)
    assert ly_dimension(inputs) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("probs", [None, (0.3, 0.1, 0.2, 0.15, 0.25)], ids=["uniform", "weighted"])
def test_gl_carpet_closed_form(probs):
    value, inputs = diagonal_closed_form(gl_carpet_ifs(probs))
    # Gatzouras-Lalley: H(q)/chi_b + (H(p) - H(q))/chi_a, with q the row marginal,
    # chi_b = -sum_i q_i log b_i and chi_a = -sum_ij p_ij log a_ij
    b = np.array([row_b for row_b, _, row in GL_ROWS for _ in row])
    a = np.array([a for _, _, row in GL_ROWS for a, _ in row])
    p = np.full(a.size, 1.0 / a.size) if probs is None else np.array(probs)
    q = np.array([p[:3].sum(), p[3:].sum()])  # rows of 3 and 2 cells
    h_p, h_q = -np.sum(p * np.log(p)), -np.sum(q * np.log(q))
    chi_b, chi_a = -np.sum(p * np.log(b)), -np.sum(p * np.log(a))
    textbook = h_q / chi_b + (h_p - h_q) / chi_a
    assert value == pytest.approx(textbook, abs=1e-12)
    if probs is None:
        assert value == pytest.approx(1.38360435038953, abs=1e-13)
    assert inputs.projection_dims[1] == pytest.approx(h_q / chi_b, abs=1e-12)
    assert inputs.spectrum.exponents == pytest.approx([chi_b, chi_a], abs=1e-15)
    assert ly_dimension(inputs) == pytest.approx(value, abs=1e-12)


@st.composite
def _diagonal_grid_systems(draw):
    """Distinct digits on a grid of bases ``m_1..m_d`` (d <= 3), maps ``diag(1/m)``, random weights."""
    d = draw(st.integers(1, 3))
    bases = draw(st.lists(st.integers(2, 5), min_size=d, max_size=d))
    cells = list(itertools.product(*(range(m) for m in bases)))
    digits = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=8, unique=True))
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(digits), max_size=len(digits))))
    scale = np.array(bases, dtype=float)
    ifs = IfsSystem(np.tile(np.diag(1.0 / scale), (len(digits), 1, 1)),
                    np.array(digits) / scale, BernoulliWeights(p / p.sum()))
    return ifs, digits, bases


@given(_diagonal_grid_systems())
@settings(max_examples=150, deadline=None)
def test_property_diagonal_closed_form_is_the_formula(case):
    ifs, digits, bases = case
    value, inputs = diagonal_closed_form(ifs)
    assert ly_dimension(inputs) == pytest.approx(value, abs=1e-12)
    assert inputs.indices == tuple(range(1, ifs.d))
    if ifs.d == 2:
        # the textbook form wants the less contracted (row) coordinate second
        m, n = bases
        rows = digits if m >= n else [(r, c) for c, r in digits]
        textbook = bm_textbook(rows, ifs.weights.p, max(m, n), min(m, n))
        assert value == pytest.approx(textbook, abs=1e-12)


def test_diagonal_closed_form_tied_coordinates():
    # a sponge whose first two coordinates tie: chi_1 == chi_2 == log 3.  Swapping
    # them moves only the projection dimension inside the tie (index 1)
    digits = np.array([(0, 0, 0), (2, 0, 2), (0, 2, 4), (2, 2, 0), (0, 0, 2)])
    scale = np.array([3.0, 3.0, 5.0])
    w = BernoulliWeights(np.array([0.3, 0.25, 0.2, 0.15, 0.1]))
    inside = []
    for order in ([0, 1, 2], [1, 0, 2]):
        ifs = IfsSystem(np.tile(np.diag(1.0 / scale[order]), (5, 1, 1)), (digits / scale)[:, order], w)
        value, inputs = diagonal_closed_form(ifs)
        chi = inputs.spectrum.exponents
        assert chi[1] - chi[0] == 0.0  # index 1's coefficient in the formula
        assert value == pytest.approx(1.340861430079947, abs=1e-12)
        assert inputs.projection_dims[2] == pytest.approx(1.2011020419670282, abs=1e-12)
        assert ly_dimension(inputs) == pytest.approx(value, abs=1e-12)
        inside.append(inputs.projection_dims[1])
    assert inside == pytest.approx([0.6126016192893442, 0.589331327997029], abs=1e-12)


def test_diagonal_closed_form_refusals():
    w2 = BernoulliWeights.uniform(2)
    sheared = IfsSystem(np.array([[[0.5, 0.1], [0.0, 0.3]], np.diag([0.5, 0.3])]),
                        np.array([[0.0, 0.0], [0.5, 0.5]]), w2)
    with pytest.raises(ValueError, match="diagonal"):
        diagonal_closed_form(sheared)
    crossed = IfsSystem(np.array([np.diag([0.5, 0.3]), np.diag([0.3, 0.5])]),
                        np.array([[0.0, 0.0], [0.5, 0.5]]), w2)
    with pytest.raises(ValueError, match="one order of contraction"):
        diagonal_closed_form(crossed)
    with pytest.raises(ValueError, match="distinct"):
        diagonal_closed_form(bm_carpet_ifs([(0, 0), (0, 0)]))


# ---------------------------------------------------------------------------
# Kaplan-Yorke equivalence


def test_ky_equivalence_fails_for_carpet():
    res = kaplan_yorke_equivalence_check(bm_inputs(), tol=1e-6)
    assert res.status == "fails"
    assert res.dim_gap == pytest.approx(BM_KY - BM_LY, abs=1e-12)
    assert res.projection_residuals[1] == pytest.approx(1.0 - BM_PROJ, abs=1e-12)


def test_ky_equivalence_holds_self_similar():
    inputs = DimensionInputs(LOG2, 0.0, spectrum_of([LOG3]), {}, ())
    res = kaplan_yorke_equivalence_check(inputs, tol=1e-9)
    assert res.status == "holds"
    assert res.dim_gap <= 1e-12


def test_ky_equivalence_fiber_entropy_violation_flagged():
    inputs = DimensionInputs(LOG2, 0.3, spectrum_of([LOG3]), {}, ())
    res = kaplan_yorke_equivalence_check(inputs, tol=1e-6)
    assert res.status == "fails"
    assert res.fiber_residual == pytest.approx(0.3)


def test_ky_equivalence_tolerance_disagreement_is_inconclusive():
    # dim gap 0.133 exceeds tol but the projection residual 0.067 does not:
    # the two sides of the criterion disagree at this tolerance
    inputs = DimensionInputs(1.0, 0.0, spectrum_of([1.0, 3.0]), {1: 0.8}, (1,))
    res = kaplan_yorke_equivalence_check(inputs, tol=0.08)
    assert res.status == "inconclusive"


# ---------------------------------------------------------------------------
# telescoping identity


def test_telescoping_constant_sequence():
    assert telescoping_identity_check([0.7, 0.7, 0.7], [1.0, 2.0])


def test_telescoping_hand_example():
    # d = 2, H = (1, 0.5, 0), chi = (1, 2): both sides equal 0.75
    assert telescoping_identity_check([1.0, 0.5, 0.0], [1.0, 2.0])


def test_telescoping_validation():
    with pytest.raises(ValueError):
        telescoping_identity_check([1.0, 2.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        telescoping_identity_check([1.0, 0.5, 0.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        telescoping_identity_check([1.0, 0.5], [1.0, 2.0])


def test_telescoping_random_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        d = rng.integers(1, 7)
        chi = np.sort(rng.uniform(0.01, 5.0, size=d))
        hseq = np.sort(rng.uniform(0.0, 3.0, size=d + 1))[::-1]
        assert telescoping_identity_check(hseq, chi)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_telescoping_property(data):
    d = data.draw(st.integers(1, 6))
    chi = sorted(
        data.draw(st.lists(st.floats(0.01, 50.0, allow_nan=False), min_size=d, max_size=d))
    )
    hseq = sorted(
        data.draw(st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=d + 1, max_size=d + 1)),
        reverse=True,
    )
    assert telescoping_identity_check(hseq, chi)


# ---------------------------------------------------------------------------
# pipeline (desk-scale; the acceptance suite runs the full budgets)


def small_config(**kw):
    base = dict(
        seed=5,
        spectrum_steps=1500,
        spectrum_trials=6,
        flag_iterations=80,
        flag_count=6,
        sample_count=20_000,
        centers=32,
        separation_level=6,
    )
    base.update(kw)
    return PipelineConfig(**base)


def test_pipeline_cantor_line():
    report = full_pipeline(cantor_ifs(), small_config())
    assert report.route == "simple-spectrum"
    assert report.separation.status == "ssc-verified"
    assert report.fiber_entropy == 0.0
    assert report.fiber_entropy_provenance == "closed-form"
    assert report.ly_dim == pytest.approx(CANTOR_DIM, abs=0.01)
    assert report.lyapunov_dim.value == pytest.approx(CANTOR_DIM, abs=0.01)
    assert report.empirical.median == pytest.approx(CANTOR_DIM, abs=0.05)
    assert report.equivalence.status == "holds"


def test_pipeline_bm_carpet():
    # the carpet touches itself at cell corners, so strict separation cannot
    # be certified; the open-set condition still gives a zero fiber
    # correction, supplied explicitly here as the CLI's --H flag would
    report = full_pipeline(bm_carpet_ifs(), small_config(sample_count=40_000,
                                                         fiber_entropy=0.0))
    assert report.route == "simple-spectrum"
    assert report.separation.status == "inconclusive"
    assert report.fiber_entropy_provenance == "user-supplied"
    assert report.ly_dim == pytest.approx(BM_LY, abs=0.05)
    assert report.lyapunov_dim.value == pytest.approx(BM_KY, abs=0.01)
    assert report.equivalence.status == "fails"
    assert report.projection_dims[1] == pytest.approx(BM_PROJ, abs=0.05)


def test_pipeline_zero_weight_map_keeps_closed_form_fiber_entropy():
    # the check separates all three maps, and a map of weight 0 keeps the
    # pieces disjoint: the point still fixes the first symbol, so H = 0
    mats = np.stack([np.diag([0.4, 0.3]), np.diag([0.4, 0.3]), np.diag([0.2, 0.2])])
    ts = np.array([[0.0, 0.0], [0.6, 0.7], [0.1, 0.75]])
    ifs = IfsSystem(mats, ts, BernoulliWeights(np.array([0.5, 0.5, 0.0])))
    report = full_pipeline(ifs, small_config())
    assert report.separation.status == "ssc-verified"
    assert report.fiber_entropy_provenance == "closed-form" and report.fiber_entropy == 0.0
    assert report.caveats == ()
    closed, _ = diagonal_closed_form(IfsSystem(mats[:2], ts[:2], BernoulliWeights.uniform(2)))
    assert report.ly_dim == pytest.approx(closed, abs=0.02)


def test_supplied_fiber_entropy_checked_before_any_stage(monkeypatch):
    def first_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the supplied fiber entropy was checked")

    monkeypatch.setattr(dimension, "lyapunov_spectrum", first_stage)
    with pytest.raises(ValueError, match=r"^supplied fiber entropy 5\.0 outside \[0, "):
        full_pipeline(cantor_ifs(), PipelineConfig(fiber_entropy=5.0))


def test_pipeline_bm_carpet_without_fiber_entropy_is_conditional():
    report = full_pipeline(bm_carpet_ifs(), small_config(sample_count=30_000))
    assert report.ly_dim is None
    assert report.fiber_entropy_provenance == "unresolved"
    assert report.ly_dim_conditional["at_zero_fiber_entropy"] == pytest.approx(
        BM_LY, abs=0.05
    )


def test_pipeline_overlap_reports_conditional_value():
    mats = np.array([[[1 / 3]], [[1 / 3]]])
    ts = np.array([[0.1], [0.1]])
    ifs = IfsSystem(mats, ts, BernoulliWeights.uniform(2))
    report = full_pipeline(ifs, small_config())
    assert report.separation.status == "overlap-detected"
    assert report.ly_dim is None
    assert report.fiber_entropy_provenance == "unresolved"
    assert report.ly_dim_conditional is not None
    assert report.ly_dim_conditional["at_zero_fiber_entropy"] == pytest.approx(
        CANTOR_DIM, abs=0.01
    )
    assert any("conditional" in c for c in report.caveats)


def test_pipeline_user_supplied_fiber_entropy():
    mats = np.array([[[1 / 3]], [[1 / 3]]])
    ts = np.array([[0.1], [0.1]])
    ifs = IfsSystem(mats, ts, BernoulliWeights.uniform(2))
    report = full_pipeline(ifs, small_config(fiber_entropy=np.log(2.0)))
    # both maps coincide: the fiber correction swallows all entropy
    assert report.fiber_entropy_provenance == "user-supplied"
    assert report.ly_dim == pytest.approx(0.0, abs=0.01)


def test_pipeline_conformal_equal_exponents_routes_tds():
    # planar conformal pair: equal exponents, honestly non-dominated,
    # dimension formula degenerates to entropy over the common exponent
    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    mats = np.stack([rot / 3.0, rot / 3.0])
    ts = np.array([[0.0, 0.0], [2.0 / 3.0, 0.0]])
    ifs = IfsSystem(mats, ts, BernoulliWeights.uniform(2))
    report = full_pipeline(ifs, small_config())
    assert report.route == "dominated-splitting"
    assert report.domination is not None
    assert report.domination.dominated_indices == ()
    assert report.ly_dim == pytest.approx(CANTOR_DIM, abs=0.02)


def test_pipeline_report_serialises_to_json():
    report = full_pipeline(cantor_ifs(), small_config(sample_count=5000))
    doc = report.to_dict()
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["schema_version"] == 1
    assert back["entropy"]["provenance"] == "closed-form"
    assert back["ly_dim"]["provenance"] == "estimated"


def test_pipeline_radii_count_reaches_estimator():
    default = full_pipeline(cantor_ifs(), small_config(sample_count=5000))
    finer = full_pipeline(cantor_ifs(), small_config(sample_count=5000, radii_count=30))
    assert default.empirical.radii.size == 24
    assert finer.empirical.radii.size != default.empirical.radii.size


def test_pipeline_radii_refuse_a_projection_the_depth_leaves_short():
    # the cloud keeps its whole grid; the grid of its projection onto the thin
    # axis starts 200 times lower and keeps 18 radii above the same floor
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.005]]), np.full(3, 1e-6), 12)
    cfg = PipelineConfig(sample_depth=12)
    assert dimension._radii(cloud, cfg).size == 24
    thin = project_cloud(cloud, SubspaceFrame(np.eye(2)[:, [1]]))
    with pytest.raises(ValueError, match=r"^dim\.sample_depth 12 keeps 18 radii .* at least 20;"):
        dimension._radii(thin, cfg)
    # a point mass has no grid, and the estimator reads its slope as 0
    assert dimension._radii(PointCloud(np.zeros((2, 1)), np.full(2, 1e-6), 12), cfg).size == 0


def test_pipeline_radii_count_below_usable_minimum_named():
    # the resolved depth keeps all ten radii: the grid, not the depth, is short
    with pytest.raises(ValueError, match=r"^dim\.radii_count 10 is below the 20 radii a fit "
                                         r"needs; raise dim\.radii_count$"):
        full_pipeline(cantor_ifs(), small_config(sample_count=5000, radii_count=10))


def test_pipeline_deterministic():
    a = full_pipeline(cantor_ifs(), small_config(sample_count=5000))
    b = full_pipeline(cantor_ifs(), small_config(sample_count=5000))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_pipeline_diagonal_ssc_empirical_matches_formula():
    # 2-d Cantor dust: conformal, genuinely strongly separated; routed
    # through the domination branch with an empty index set
    from conftest import cantor_dust_ifs

    report = full_pipeline(
        cantor_dust_ifs(),
        PipelineConfig(seed=77, sample_count=200_000, spectrum_steps=2000,
                       spectrum_trials=6, separation_level=6),
    )
    assert report.route == "dominated-splitting"
    assert report.domination.dominated_indices == ()
    assert report.separation.status == "ssc-verified"
    expected = np.log(4) / np.log(3)
    assert report.ly_dim == pytest.approx(expected, abs=0.01)
    assert abs(report.empirical_boxcount.dimension - report.ly_dim) <= 0.05
    assert abs(report.empirical.median - report.ly_dim) <= 0.05
