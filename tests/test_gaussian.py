import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_symplectic_matrix, random_two_mode_cm
from cvrelay import gaussian as g
from cvrelay import protocols as prot
from cvrelay.environments import BOUNDARY_BAND, AdditiveEnvironment, ThermalEnvironment
from cvrelay.entanglement import ppt_min_eigenvalue
from cvrelay.gaussian import (
    CovarianceMatrix,
    GaussianState,
    NumericDegeneracyError,
    SymplecticMatrix,
    ValidationError,
)

TMSV3_PTS = 3.0 - math.sqrt(8.0)  # mu - sqrt(mu^2 - 1) at mu = 3


def test_symplectic_form_properties():
    for n in (1, 2, 4):
        omega = g.symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n))


def test_covariance_matrix_rejects_bad_input():
    for odd in (np.eye(3), np.ones(2), np.eye(2)[:, :1]):
        with pytest.raises(ValidationError, match="2n x 2n"):
            CovarianceMatrix(odd)
        with pytest.raises(ValidationError, match="2n x 2n"):
            g.symplectic_spectrum(odd)
    with pytest.raises(ValidationError):
        CovarianceMatrix(np.array([[1.0, 0.5], [0.1, 1.0]]))  # not symmetric
    with pytest.raises(ValidationError):
        CovarianceMatrix(np.diag([0.5, 0.5]))  # below vacuum
    with pytest.raises(ValidationError):
        CovarianceMatrix(-np.eye(2))


def test_symplectic_form_is_cached_and_read_only():
    assert g.symplectic_form(3) is g.symplectic_form(3)
    with pytest.raises(ValueError):
        g.symplectic_form(3)[0, 1] = 2.0
    with pytest.raises(ValidationError, match="n_modes"):
        g.symplectic_form(0)


def _stack_of_two_mode_cms(seed, count=12):
    """Random two-mode states, entangled and not, plus a TMSV and a product state."""
    rng = np.random.default_rng(seed)
    mats = [random_two_mode_cm(rng)[0] for _ in range(count)]
    mats += [g.tmsv_cm(3.0).m, g.direct_sum(g.thermal_cm(2.0), g.thermal_cm(1.0)).m]
    return np.stack(mats)


def test_stacked_covariance_matrix_rejects_one_bad_member():
    good = _stack_of_two_mode_cms(5, count=4)
    stack = CovarianceMatrix(good)
    assert stack.n_modes == 2 and stack.m.shape == (6, 4, 4)
    assert np.array_equal(stack.reduced([1]).m, good[:, 2:, 2:])
    bad = {
        "below vacuum": np.diag([0.5, 0.5, 1.0, 1.0]),
        "not positive definite": -np.eye(4),
        "not symmetric": np.eye(4) + np.triu(np.ones((4, 4)), 1),
        "not finite": np.diag([np.inf, 1.0, 1.0, 1.0]),
    }
    for name, m in bad.items():
        with pytest.raises(ValidationError):
            CovarianceMatrix(np.concatenate([good[:3], m[None], good[3:]]))
        with pytest.raises(ValidationError):
            CovarianceMatrix(m)


def test_uncertainty_tolerance_follows_the_size_of_each_matrix():
    # a pure two-mode squeezed state at mu = 7e5: its smallest symplectic
    # eigenvalue comes out ~1.4e-5 below 1, far beyond 1e-9
    mu = 7e5
    c = math.sqrt(mu * mu - 1.0)
    tmsv = np.array([[mu, 0, c, 0], [0, mu, 0, -c], [c, 0, mu, 0], [0, -c, 0, mu]])
    assert CovarianceMatrix(tmsv).m.shape == (4, 4)
    below = (1.0 - 1e-6) * np.eye(4)
    with pytest.raises(ValidationError, match="stack entry 1"):
        CovarianceMatrix(np.stack([tmsv, below, tmsv]))
    with pytest.raises(ValidationError):
        CovarianceMatrix(below)


def test_stacked_spectral_functions_equal_the_per_matrix_results():
    mats = _stack_of_two_mode_cms(11)
    stack = CovarianceMatrix(mats)
    for transposed in ([], [0]):
        lo, hi = g.two_mode_spectrum(g.partial_transpose(stack, transposed))
        assert [*zip(lo.tolist(), hi.tolist())] == [
            g.two_mode_spectrum(g.partial_transpose(m, transposed)) for m in mats
        ]
        # the TMSV and the product state take the SVD branch, the rest eigvalsh
        assert g.symplectic_spectrum(g.partial_transpose(stack, transposed)).tolist() == [
            g.symplectic_spectrum(g.partial_transpose(m, transposed)).tolist() for m in mats
        ]
    logneg = g.log_negativity(stack, [0])
    assert logneg.tolist() == [g.log_negativity(m, [0]) for m in mats]
    assert (logneg > 0.0).any() and (logneg == 0.0).any()
    for modes in ([0], [1]):
        assert ppt_min_eigenvalue(stack, modes).tolist() == [
            ppt_min_eigenvalue(m, modes) for m in mats
        ]
    # three modes: the numeric partial-transpose spectrum
    rng = np.random.default_rng(12)
    three = []
    for _ in range(6):
        s = random_symplectic_matrix(rng, 3)
        v = s @ np.diag(np.repeat(rng.uniform(1.0, 4.0, 3), 2)) @ s.T
        three.append(0.5 * (v + v.T))
    three = np.stack(three)
    assert g.smallest_pts_eigenvalue(three, [2]).tolist() == [
        g.smallest_pts_eigenvalue(m, [2]) for m in three
    ]
    assert isinstance(g.log_negativity(mats[0], [0]), float)
    # the entropy: one array call rounds exactly as the points do
    nus = np.concatenate([g.symplectic_spectrum(stack).ravel(), [1.0, 1.0 + 1e-12, 1e17, np.inf]])
    assert g.entropic_h(nus).tolist() == [g.entropic_h(x) for x in nus]


@st.composite
def _williamson_cm(draw, n_modes):
    """V = S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T with S drawn from rotations,
    squeezers and beam splitters; returns V and its spectrum, ascending."""
    nus = draw(st.lists(st.floats(1.0, 1e3), min_size=n_modes, max_size=n_modes))
    s = SymplecticMatrix(np.eye(2 * n_modes))
    for k in range(draw(st.integers(n_modes, 3 * n_modes))):
        local = g.rotation(draw(st.floats(0.0, 2.0 * math.pi))) @ g.quadrature_squeezer(
            math.exp(draw(st.floats(-1.0, 1.0))))
        pair = [k % n_modes, (k + 1) % n_modes]
        mix = g.expand_symplectic(g.beam_splitter(draw(st.floats(0.0, 1.0))), pair, n_modes)
        s = mix @ g.expand_symplectic(local, pair[:1], n_modes) @ s
    v = s.m @ np.diag(np.repeat(nus, 2)) @ s.m.T
    return 0.5 * (v + v.T), sorted(nus)


@given(st.integers(2, 4).flatmap(lambda n: st.lists(_williamson_cm(n), min_size=1, max_size=4)))
def test_symplectic_spectrum_inverts_the_williamson_form(cases):
    stack = g.symplectic_spectrum(np.stack([v for v, _ in cases]))
    for (v, nus), from_stack in zip(cases, stack):
        assert from_stack == pytest.approx(nus, rel=1e-9)
        assert np.array_equal(g.symplectic_spectrum(v), from_stack)


def _rounding_band(*stacks):
    """Allowance for the rounding of a symplectic spectrum, per matrix: the
    uncertainty check's _SPECTRUM_ROUNDING eps max|V|^2, but no less than the
    same multiple of eps ||V|| <= 8 eps max|V| (the solvers' backward error,
    which is the larger term near the vacuum)."""
    scale = np.max([np.abs(m).max(axis=(-2, -1)) for m in stacks], axis=0)
    return g._SPECTRUM_ROUNDING * np.finfo(float).eps * scale * np.maximum(scale, 8.0)


@st.composite
def _evolved_stack(draw):
    """Evolved states (a, b, A', B') over physical cells of either family at
    1 <= mu <= 1e7, each validated as one stack; about half of the cells are
    drawn on a physicality edge, on either side within the boundary band,
    and additive stacks draw n at its edge as often as above it."""
    size = draw(st.integers(1, 6))
    units = np.array(draw(st.lists(st.floats(-0.95, 0.95), min_size=size, max_size=size)))
    edge = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    band = np.array(draw(st.lists(st.floats(-BOUNDARY_BAND, BOUNDARY_BAND), min_size=size, max_size=size)))
    if draw(st.booleans()):
        tau, omega = draw(st.floats(0.05, 0.95)), draw(st.floats(1.0, 40.0))
        gp = omega * units
        # the edge omega (g + g') = omega^2 + g g' - 1, solved for g
        g_ = np.where(edge, omega - 1.0 / (omega - gp) + band, omega * np.roll(units, 1))
        family, params = ThermalEnvironment, {"tau": tau, "omega": omega, "g": g_, "gp": gp}
    else:
        c = np.where(edge, np.copysign(1.0 + band, units), units)
        n = draw(st.one_of(st.floats(-BOUNDARY_BAND, BOUNDARY_BAND), st.floats(0.0, 10.0)))
        family, params = AdditiveEnvironment, {"n": n, "c": c, "cp": units[::-1]}
    physical = family.masks(**params)[0]
    assume(physical.any())
    params = {key: value[physical] if np.ndim(value) else value for key, value in params.items()}
    return prot.evolved_cm(draw(st.floats(1.0, 1e7)), family, params).m


@given(_evolved_stack())
def test_qp_separated_spectra_match_the_hermitian_path(v):
    assert not v[..., ::2, 1::2].any()
    for m in (v, g.partial_transpose(v, [0]), g.partial_transpose(v, [2, 3])):
        chol = np.linalg.cholesky(m)
        hermitian = np.linalg.eigvalsh(1j * (g._transpose(chol) @ g.symplectic_form(4) @ chol))[..., 4:]
        assert np.all(np.abs(g._spectrum_of(m) - hermitian) <= _rounding_band(m)[:, None])


@given(_evolved_stack(), st.integers(0, 3), st.floats(0.1, math.pi - 0.1))
def test_a_phase_rotation_takes_the_general_path_with_the_same_spectrum(v, mode, theta):
    s = g.expand_symplectic(g.rotation(theta), [mode], 4).m
    rotated = CovarianceMatrix(s @ v @ s.T).m
    assume(rotated[..., ::2, 1::2].any())  # q and p now mix: the Hermitian path
    spectrum = g.symplectic_spectrum(rotated)
    assert np.all(np.abs(spectrum - g.symplectic_spectrum(v)) <= _rounding_band(v, rotated)[:, None])


def test_additive_cells_beyond_an_edge_build_the_state_on_that_edge():
    # the physical mask admits n down to -BOUNDARY_BAND and |c|, |c'| up to
    # 1 + BOUNDARY_BAND; such a cell builds (and validates) its edge state
    beyond = {"n": np.array([5.0, 5.0, -0.5 * BOUNDARY_BAND]),
              "c": np.array([1.0 + 0.5 * BOUNDARY_BAND, 0.5, 0.5]),
              "cp": np.array([0.0, -1.0 - 0.5 * BOUNDARY_BAND, 0.0])}
    edge = {"n": np.array([5.0, 5.0, 0.0]), "c": np.array([1.0, 0.5, 0.5]), "cp": np.array([0.0, -1.0, 0.0])}
    assert AdditiveEnvironment.masks(**beyond)[0].all()
    for mu in (52.0, 1e5):
        built = prot.evolved_cm(mu, AdditiveEnvironment, beyond).m
        assert np.array_equal(built, prot.evolved_cm(mu, AdditiveEnvironment, edge).m)
    env = AdditiveEnvironment(5.0, 1.0 + 0.5 * BOUNDARY_BAND, 0.0)
    assert np.array_equal(prot.evolved_cm(prot.SwapInput(1e5, env)).m, built[0])


def test_a_factor_that_couples_only_p_rows_to_q_columns_takes_the_general_path():
    chol = math.sqrt(3.0) * np.array([[1, 0, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0], [0.3, 0, 0.2, 1]])
    assert not chol[::2, 1::2].any()
    hermitian = np.linalg.eigvalsh(1j * (chol.T @ g.symplectic_form(2) @ chol))[2:]
    assert g.symplectic_spectrum(CovarianceMatrix(chol @ chol.T)) == pytest.approx(hermitian, rel=1e-12)


def test_qp_separated_matrices_are_rejected_with_the_usual_messages():
    def correlated(mu, c):  # q/p-separated two-mode state, TMSV-like correlations c
        return np.array([[mu, 0, c, 0], [0, mu, 0, -c], [c, 0, mu, 0], [0, -c, 0, mu]])

    pure = correlated(3.0, math.sqrt(8.0))
    assert g.symplectic_spectrum(CovarianceMatrix(pure)) == pytest.approx([1.0, 1.0])
    # nu = sqrt(3^2 - 2.9^2) = 0.768...
    with pytest.raises(ValidationError, match=r"smallest symplectic eigenvalue 0\.768114574787 < 1$"):
        CovarianceMatrix(correlated(3.0, 2.9))
    with pytest.raises(ValidationError, match=r"eigenvalue 0\.768114574787 < 1 \(stack entry 1\)"):
        CovarianceMatrix(np.stack([pure, correlated(3.0, 2.9)]))
    with pytest.raises(ValidationError, match="^covariance matrix is not positive definite$"):
        CovarianceMatrix(correlated(3.0, 3.5))


def test_spectrum_thermal_single_mode():
    assert g.symplectic_spectrum(g.thermal_cm(5.0)) == pytest.approx([5.0])


def test_spectrum_tmsv_is_pure():
    nus = g.symplectic_spectrum(g.tmsv_cm(3.0))
    assert np.abs(nus - 1.0).max() < 1e-9


def test_spectrum_swapped_state_closed_form_vs_numeric():
    # symmetric relay output at mu=2, kappa=0.5, kappa'=0.25
    mu, k, kp = 2.0, 0.5, 0.25
    tq, tp = mu + k, mu + kp
    tmu2 = mu * mu - 1.0
    m = np.array(
        [
            [mu - tmu2 / (2 * tq), 0, tmu2 / (2 * tq), 0],
            [0, mu - tmu2 / (2 * tp), 0, -tmu2 / (2 * tp)],
            [tmu2 / (2 * tq), 0, mu - tmu2 / (2 * tq), 0],
            [0, -tmu2 / (2 * tp), 0, mu - tmu2 / (2 * tp)],
        ]
    )
    expect = sorted(
        [
            math.sqrt(mu * (1 + mu * k) / (mu + k)),
            math.sqrt(mu * (1 + mu * kp) / (mu + kp)),
        ]
    )
    assert g.symplectic_spectrum(m) == pytest.approx(expect, abs=1e-10)
    assert g.two_mode_spectrum(m) == pytest.approx(expect, abs=1e-12)


def test_spectrum_closed_form_matches_numeric_on_random_sample():
    v, nus = random_two_mode_cm(np.random.default_rng(3), count=10_000)
    closed = np.stack(g.two_mode_spectrum(v), axis=-1)
    assert np.all(np.abs(closed - g.symplectic_spectrum(v)) < 1e-8)
    assert np.all(np.abs(closed - nus) < 1e-8 * np.maximum(1.0, nus))


def test_purity_of_random_pure_states():
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = random_symplectic_matrix(rng, 2)
        v = s @ s.T
        nus = g.symplectic_spectrum(0.5 * (v + v.T))
        det = np.linalg.det(v)
        assert abs(det - 1.0) < 1e-8 * max(1.0, det)
        assert np.abs(nus - 1.0).max() < 1e-8


def test_entropic_h_values():
    assert g.entropic_h(1.0) == 0.0
    assert g.entropic_h(3.0) == pytest.approx(2.0, abs=1e-14)
    x = 1e6
    assert g.entropic_h(x) == pytest.approx(math.log2(math.e * x / 2.0), abs=1e-5)
    xs = np.linspace(1.0, 40.0, 200)
    hs = [g.entropic_h(v) for v in xs]
    assert all(b > a for a, b in zip(hs, hs[1:]))
    with pytest.raises(ValidationError):
        g.entropic_h(0.9)


@pytest.mark.parametrize("x", [1.0 + 1e-12, 1.5, 52.0, 1e6, 1e10, 1e15, 1e17])
def test_entropic_h_matches_40_digit_mpmath(x):
    # a log2 a - b log2 b cancels as x grows; h must not lose digits to it
    import mpmath

    with mpmath.workdps(40):
        a, b = (mpmath.mpf(x) + 1) / 2, (mpmath.mpf(x) - 1) / 2
        want = a * mpmath.log(a, 2) - b * mpmath.log(b, 2)
        assert abs(g.entropic_h(x) - want) <= 4 * np.finfo(float).eps * want


def test_von_neumann_entropy():
    assert g.von_neumann_entropy(g.tmsv_cm(7.0)) == pytest.approx(0.0, abs=1e-7)
    assert g.von_neumann_entropy(g.thermal_cm(19.0)) == pytest.approx(g.entropic_h(19.0))
    # correlated two-mode thermal state against the closed two-mode spectrum
    w, gg, gp = 19.0, 10.0, -10.0
    m = np.block([[w * np.eye(2), np.diag([gg, gp])], [np.diag([gg, gp]), w * np.eye(2)]])
    nus = g.two_mode_spectrum(m)
    assert g.von_neumann_entropy(m) == pytest.approx(
        g.entropic_h(nus[0]) + g.entropic_h(nus[1]), abs=1e-9
    )


def test_partial_transpose_empty_is_identity():
    v = g.tmsv_cm(3.0).m
    assert np.array_equal(g.partial_transpose(v, []), v)


def test_partial_transpose_involution_bit_exact():
    rng = np.random.default_rng(8)
    v, _ = random_two_mode_cm(rng)
    once = g.partial_transpose(v, [1])
    assert np.array_equal(once, once.T)
    assert np.array_equal(g.partial_transpose(once, [1]), v)


def test_tmsv_pts_eigenvalue():
    assert g.smallest_pts_eigenvalue(g.tmsv_cm(3.0), [0]) == pytest.approx(
        TMSV3_PTS, abs=1e-12
    )
    # multimode numeric path agrees with the closed form
    v = g.partial_transpose(g.tmsv_cm(3.0).m, [1])
    assert g.symplectic_spectrum(v)[0] == pytest.approx(TMSV3_PTS, abs=1e-10)


def test_pts_eigenvalue_separable_product():
    v = g.direct_sum(g.thermal_cm(3.0), g.thermal_cm(3.0))
    assert g.smallest_pts_eigenvalue(v, [0]) >= 1.0 - 1e-12


def test_log_negativity():
    assert g.log_negativity(g.direct_sum(g.thermal_cm(2.0), g.thermal_cm(2.0)), [0]) == 0.0
    assert g.log_negativity(g.tmsv_cm(3.0), [0]) == pytest.approx(
        -math.log2(TMSV3_PTS), abs=1e-10
    )
    # eps = 1/2 corresponds to one ebit
    assert max(0.0, -math.log2(0.5)) == 1.0


def test_apply_symplectic_identity_and_beam_splitter():
    rng = np.random.default_rng(2)
    v, _ = random_two_mode_cm(rng)
    st = GaussianState(rng.normal(size=4), CovarianceMatrix(v))
    ident = SymplecticMatrix(np.eye(4))
    out = g.apply_symplectic(st, ident)
    assert np.array_equal(out.cm.m, st.cm.m)
    assert np.array_equal(out.mean, st.mean)
    # tau = 1 beam splitter is the identity
    assert np.allclose(g.beam_splitter(1.0).m, np.eye(4))
    # balanced beam splitter preserves the two-mode vacuum
    vac = GaussianState(np.zeros(4), g.vacuum_cm(2))
    out = g.apply_symplectic(vac, g.beam_splitter(0.5))
    assert np.allclose(out.cm.m, np.eye(4), atol=1e-14)


def test_symplectic_matrix_validation():
    with pytest.raises(ValidationError):
        SymplecticMatrix(np.diag([2.0, 2.0]))  # scaling both quadratures up
    s = g.quadrature_squeezer(2.0)
    assert np.allclose(s.m, np.diag([2.0, 0.5]))


def test_heterodyne_tmsv_arm_projects_onto_coherent_state():
    mu = 3.7
    st = GaussianState(np.zeros(4), g.tmsv_cm(mu), ("keep", "meas"))
    out = g.condition_on_gaussian_measurement(st, [1], "heterodyne", [0.0, 0.0])
    assert out.labels == ("keep",)
    assert np.allclose(out.cm.m, np.eye(2), atol=1e-12)
    # remote preparation: mean = sqrt(mu^2-1)/(mu+1) * Z * outcome
    z = np.array([0.7, -1.1])
    out = g.condition_on_gaussian_measurement(st, [1], "heterodyne", z)
    scale = math.sqrt(mu * mu - 1.0) / (mu + 1.0)
    assert out.mean == pytest.approx(scale * np.array([z[0], -z[1]]), abs=1e-12)


def test_conditional_cm_is_outcome_independent():
    rng = np.random.default_rng(4)
    v, _ = random_two_mode_cm(rng)
    big = g.direct_sum(v, g.tmsv_cm(2.5))
    st = GaussianState(np.zeros(8), big)
    ref_het = g.condition_on_gaussian_measurement(st, [3], "heterodyne").cm.m
    ref_bell = g.condition_on_gaussian_measurement(st, [1, 2], "bell").cm.m
    for _ in range(10):
        z2 = rng.normal(size=2)
        het = g.condition_on_gaussian_measurement(st, [3], "heterodyne", z2)
        bell = g.condition_on_gaussian_measurement(st, [1, 2], "bell", z2)
        assert np.array_equal(het.cm.m, ref_het)
        assert np.array_equal(bell.cm.m, ref_bell)


def test_conditioning_commutes_with_permutation_of_untouched_modes():
    rng = np.random.default_rng(6)
    v = g.direct_sum(
        CovarianceMatrix(random_two_mode_cm(rng)[0]),
        CovarianceMatrix(random_two_mode_cm(rng)[0]),
    )
    st = GaussianState(rng.normal(size=8), v, ("m0", "m1", "m2", "m3"))
    z = rng.normal(size=2)
    direct = g.condition_on_gaussian_measurement(st, [1, 3], "bell", z)
    permuted = g.permute_modes(st, [2, 0, 1, 3])  # untouched modes 0, 2 swapped
    other = g.condition_on_gaussian_measurement(permuted, [2, 3], "bell", z)
    swap = g.permute_modes(other, [1, 0])
    assert np.allclose(swap.cm.m, direct.cm.m, atol=1e-11)
    assert np.allclose(swap.mean, direct.mean, atol=1e-11)


def test_permute_modes_is_the_state_reduced_to_all_modes_in_the_new_order():
    rng = np.random.default_rng(7)
    cm = g.direct_sum(CovarianceMatrix(random_two_mode_cm(rng)[0]), g.thermal_cm(2.0))
    st = GaussianState(rng.normal(size=6), cm, ("a", "b", "c"))
    out = g.permute_modes(st, [2, 0, 1])
    idx = [4, 5, 0, 1, 2, 3]
    assert np.array_equal(out.cm.m, cm.m[np.ix_(idx, idx)])
    assert np.array_equal(out.mean, st.mean[idx]) and out.labels == ("c", "a", "b")
    for order in ([0, 1], [0, 1, 1], [1, 2, 3]):
        with pytest.raises(ValidationError, match="permutation"):
            g.permute_modes(st, order)


def test_matrices_are_immutable():
    cm, s = g.vacuum_cm(1), g.rotation(0.3)
    for obj, name in ((cm, "CovarianceMatrix"), (s, "SymplecticMatrix")):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            obj.m = np.eye(2)
        with pytest.raises(ValueError):
            obj.m[0, 0] = 2.0  # the stored array is read-only


def test_bell_requires_two_modes():
    st = GaussianState(np.zeros(6), g.direct_sum(g.tmsv_cm(2.0), g.vacuum_cm(1)))
    with pytest.raises(ValidationError):
        g.condition_on_gaussian_measurement(st, [1], "bell")
    with pytest.raises(ValidationError):
        g.condition_on_gaussian_measurement(st, [0, 1, 2], "heterodyne")
    with pytest.raises(ValidationError):
        g.condition_on_gaussian_measurement(st, [0, 1, 2], "bell")


def test_every_produced_cm_passes_uncertainty():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v, _ = random_two_mode_cm(rng)
        big = g.direct_sum(v, CovarianceMatrix(random_two_mode_cm(rng)[0]))
        st = GaussianState(np.zeros(8), big)
        out = g.condition_on_gaussian_measurement(st, [1, 2], "bell", rng.normal(size=2))
        # CovarianceMatrix construction inside already enforces nu >= 1
        assert min(g.symplectic_spectrum(out.cm)) >= 1.0 - 1e-9


def test_joint_heterodyne_matches_sequential():
    rng = np.random.default_rng(12)
    big = g.direct_sum(g.tmsv_cm(3.0), g.tmsv_cm(2.0))
    st = GaussianState(rng.normal(size=8), CovarianceMatrix(big.m), ("a", "A", "b", "B"))
    z = rng.normal(size=4)
    joint = g.condition_on_gaussian_measurement(st, [1, 3], "heterodyne", z)
    step1 = g.condition_on_gaussian_measurement(st, [1], "heterodyne", z[:2])
    step2 = g.condition_on_gaussian_measurement(step1, [2], "heterodyne", z[2:])
    assert np.allclose(joint.cm.m, step2.cm.m, atol=1e-12)
    assert np.allclose(joint.mean, step2.mean, atol=1e-12)
    assert joint.labels == ("a", "b")


def _two_step_bell(state, i, j, z):
    """Bell conditioning as two sequential homodyne rank-1 updates: the q of
    the difference mode, then the p of the sum mode (the reference for the
    joint Schur complement)."""
    n = state.n_modes
    half = np.eye(2) / math.sqrt(2.0)
    mix = g.expand_symplectic(SymplecticMatrix(np.block([[half, -half], [half, half]])), [i, j], n)
    mean, v = mix.m @ state.mean, mix.m @ state.cm.m @ mix.m.T
    for k, zk in ((2 * i, z[0]), (2 * j + 1, z[1])):
        col = v[:, k].copy()
        mean = mean + col * ((zk - mean[k]) / v[k, k])
        v = v - np.outer(col, col) / v[k, k]
    kept = [q for m in range(n) if m not in (i, j) for q in (2 * m, 2 * m + 1)]
    return mean[kept], v[np.ix_(kept, kept)]


@given(st.floats(1.0, 1e6), st.floats(0.05, 0.95), st.floats(-0.95, 0.95), st.floats(-0.95, 0.95),
       st.integers(0, 2**32 - 1))
def test_joint_bell_conditioning_equals_two_rank_one_updates(mu, tau, u, up, seed):
    # evolved thermal states (a, b, A', B') with a random mean, Bell on A', B'
    omega = 1.0 + 40.0 * abs(u)
    params = {"tau": tau, "omega": omega, "g": omega * u, "gp": omega * up}
    assume(ThermalEnvironment.masks(**params)[0])
    rng = np.random.default_rng(seed)
    st_ = GaussianState(rng.normal(size=8) * mu, prot.evolved_cm(prot.SwapInput(mu, ThermalEnvironment(**params))))
    z = rng.normal(size=2) * mu
    joint = g.condition_on_gaussian_measurement(st_, [2, 3], "bell", z)
    mean, v = _two_step_bell(st_, 2, 3, z)
    assert np.abs(joint.cm.m - v).max() <= 1e-14 * np.abs(v).max()
    assert np.abs(joint.mean - mean).max() <= 1e-14 * np.abs(mean).max()


def test_singular_conditioning_blocks_raise_numeric_degeneracy():
    # Bell: at mu = 1e7 the q difference of a TMSV's arms has variance
    # ~1/(2 mu), below 1e-13 of the largest variance
    st_ = GaussianState(np.zeros(6), g.direct_sum(g.vacuum_cm(1), g.tmsv_cm(1e7)))
    with pytest.raises(NumericDegeneracyError, match="^homodyne conditioning block is singular$"):
        g.condition_on_gaussian_measurement(st_, [1, 2], "bell")
    # heterodyne: theta = diag(1e14 + 1, 1 + 1e-14) is singular against 1e14
    st_ = GaussianState(np.zeros(4), g.direct_sum(g.vacuum_cm(1), CovarianceMatrix(np.diag([1e14, 1e-14]))))
    with pytest.raises(NumericDegeneracyError, match="^heterodyne conditioning block is singular$"):
        g.condition_on_gaussian_measurement(st_, [1], "heterodyne")


def test_a_matrix_whose_symmetrisation_overflows_fails_the_cholesky_check():
    # finite entries whose symmetrisation m + m^T is past float64: a non-finite factor
    with pytest.raises(g.ValidationError, match="^covariance matrix is not positive definite$"):
        g.CovarianceMatrix(np.diag([1.5e308, 1.5e308, 2.0, 2.0]))
