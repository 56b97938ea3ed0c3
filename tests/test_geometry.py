import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import geometry

from conftest import (CORPUS_NAMES, ORACLES, block_rank, load_problem,
                      make_abelian, make_axb, make_h3, moment_float,
                      random_dyadic, random_dyadic_vector, random_vector,
                      vector)
from exact import expm as reference_expm
from exact import rank


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(geometry.expm(np.zeros((3, 3))), np.eye(3),
                           atol=1e-15)

    def test_diagonal(self):
        got = geometry.expm(np.diag([1.0, -2.0]))
        assert np.allclose(np.diag(got), [math.e, math.exp(-2)], rtol=1e-14)

    def test_nilpotent_truncates_exactly(self):
        N = np.array([[0.0, 5.0], [0.0, 0.0]])
        got = geometry.expm(N)
        assert np.allclose(got, [[1, 5], [0, 1]], atol=1e-14)

    def test_inverse_is_negative_exponent(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(4, 4))
        prod = np.asarray(geometry.expm(A)) @ np.asarray(geometry.expm(-A))
        assert np.allclose(prod, np.eye(4), atol=1e-12)

    def test_scaling_path_matches_series(self):
        # norm > 1/2 forces squaring; compare against the additive identity
        # exp(A) = exp(A/2) @ exp(A/2)
        A = np.array([[0.0, 3.0], [-1.0, 0.5]])
        half = np.asarray(geometry.expm(A / 2))
        assert np.allclose(geometry.expm(A), half @ half, atol=1e-12)


class TestCoadjointApply:
    def test_axb_closed_form(self, axb):
        # s = exp(A)
        out = geometry.coadjoint_apply_factors(axb, [(vector(axb, A=1), 1.0)],
                                         (0.0, 1.0))
        assert abs(out[0]) < 1e-15
        assert abs(out[1] - math.exp(-1)) < 1e-14

    def test_h3_translation(self, h3):
        # s = exp(2X)
        out = geometry.coadjoint_apply_factors(h3, [(vector(h3, X=1), 2.0)],
                                         (0.0, 0.0, 1.0))
        assert np.allclose(out, [0.0, -2.0, 1.0], atol=1e-13)

    def test_identity_fixes_everything(self, h3):
        rng = random.Random(60)
        for _ in range(10):
            l = [float(random_dyadic(rng)) for _ in range(3)]
            out = geometry.coadjoint_apply_factors(
                h3, [(vector(h3, **{name: 1}), 0.0) for name in "XYZ"], l)
            assert np.allclose(out, l, atol=0)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_group_law_inverse(self, name, corpus_data):
        L = corpus_data[name].algebra
        rng = random.Random(500 + len(name) * 7)
        for _ in range(100 // len(CORPUS_NAMES) + 2):
            t = [float(random_dyadic(rng, scale=16, span=16))
                 for _ in range(L.dim)]
            l = [float(random_dyadic(rng)) for _ in range(L.dim)]
            factors = [(vector(L, **{basis: 1}), tk)
                       for basis, tk in zip(L.basis_names, t)]
            inverse_factors = [(Z, -tk) for Z, tk in reversed(factors)]
            there = geometry.coadjoint_apply_factors(L, factors, l)
            back = geometry.coadjoint_apply_factors(L, inverse_factors, there)
            assert np.abs(back - np.array(l)).max() < 1e-9


class TestPhiInChart:
    def test_zero_time_reproduces_chart(self, corpus_data):
        rng = random.Random(2)
        for D in corpus_data.values():
            x = [float(random_dyadic(rng)) for _ in range(D.n - D.m)]
            out = geometry._chart_action(D)([0.0] * D.n, x)
            expect = [float(v) for v in D.f_vals] + x
            assert np.abs(out - np.array(expect)).max() < 1e-12

    def test_axb_first_coordinate_decays(self, axb):
        D = oa.build_datum(axb, [vector(axb, X=1)], [1])
        # adapted order (X, A); t = (0, 1) is s = exp(A)
        out = geometry._chart_action(D)((0.0, 1.0), (0.0,))
        assert abs(out[0] - math.exp(-1)) < 1e-13

    def test_h3_moves_f_value_linearly(self, h3):
        D = oa.build_datum(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1])
        # adapted order (Y, Z, X); t = (0, 0, 2) is s = exp(2X)
        out = geometry._chart_action(D)((0.0, 0.0, 2.0), (0.0,))
        assert abs(out[0] - (-2.0)) < 1e-13   # value on Y
        assert abs(out[1] - 1.0) < 1e-13      # value on Z (central: fixed)


class TestNumericalRank:
    def test_threshold_forces_rank_one(self):
        assert oa.numerical_rank(np.diag([1.0, 1e-15]), 1e-8) == 1

    def test_identity(self):
        assert oa.numerical_rank(np.eye(4), 1e-8) == 4

    def test_zero_matrix(self):
        assert oa.numerical_rank(np.zeros((3, 5)), 1e-8) == 0

    def test_empty(self):
        assert oa.numerical_rank(np.zeros((0, 4)), 1e-8) == 0

    def test_matches_exact_rank_on_rational_matrices(self):
        rng = random.Random(321)
        for _ in range(30):
            rows = [random_vector(rng, 5, num_bound=9, den_bound=4)
                    for _ in range(3)]
            # duplicate a row and add a combination: rank <= 3 known exactly
            mat = rows + [rows[0], tuple(a + b for a, b in
                                         zip(rows[1], rows[2]))]
            exact = rank(mat)
            floats = np.array([[float(x) for x in r] for r in mat])
            assert oa.numerical_rank(floats, 1e-8) == exact

    def test_rejects_bad_tolerance(self):
        for rel_tol in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                oa.numerical_rank(np.eye(2), rel_tol)


# entries in [-1, 1], none subnormal; a matrix takes one scale for all of
# them, so its singular values span at most the range of its entries
_ENTRIES = st.floats(-1, 1, allow_subnormal=False)
_SCALES = st.sampled_from([1e-150, 1.0, 1e150])


def _array(draw, rows: int, cols: int) -> np.ndarray:
    return np.array(draw(st.lists(_ENTRIES, min_size=rows * cols,
                                  max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def _float_matrices(draw) -> np.ndarray:
    """A tall, wide, square or empty matrix, or a product of two whose
    rank is below its shorter side, times one scale."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if rows and cols and draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols) - 1))
        mat = _array(draw, rows, inner) @ _array(draw, inner, cols)
    else:
        mat = _array(draw, rows, cols)
    return mat * draw(_SCALES)


# ||A||_1 on both sides of 1/2, where the row exponential leaves its
# Taylor series on the row for a product with expm, and expm starts to
# square
_NORMS = st.one_of(st.floats(1e-3, 0.5),
                   st.floats(0.5, 8.0, exclude_min=True))


@st.composite
def _square_matrices(draw) -> np.ndarray:
    n = draw(st.integers(1, 6))
    A = _array(draw, n, n)
    assume(np.abs(A).max() > 0)
    return A * (draw(_NORMS) / np.linalg.norm(A, 1))


@st.composite
def _rows_and_matrices(draw):
    """(v, A, t) for the row exponential v exp(tA), ``_exp_action``."""
    A = draw(_square_matrices())
    v = _array(draw, 1, len(A))[0] * draw(_SCALES)
    return v, A, draw(st.sampled_from([1.0, -1.0]))


_SWITCH = [np.array([[0.1, 0.2], [-0.3, 0.1]]) * scale / 0.4
           for scale in (0.49, 0.51)]


class TestFloatKernels:
    """The plain-Python kernels against numpy: singular values against
    ``np.linalg.svd``, the exponentials against the numpy ``expm``."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_float_matrices())
    @example(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    def test_singular_values_match_numpy(self, mat):
        got = geometry.singular_values(mat.tolist())
        want = np.linalg.svd(mat, compute_uv=False)
        assert len(got) == len(want) == min(mat.shape)
        top = want.max(initial=0.0)
        assert np.abs(np.array(got) - want).max(initial=0.0) <= 1e-12 * top

    @settings(max_examples=300, deadline=None, database=None)
    @given(_float_matrices(), st.sampled_from([1e-8, 1e-4]))
    def test_numerical_rank_matches_numpy(self, mat, rel_tol):
        sv = np.linalg.svd(mat, compute_uv=False)
        cut = rel_tol * sv.max(initial=0.0)
        # a singular value this close to the cut may fall on either side
        assume(not any(cut / 10 < s < cut * 10 for s in sv))
        assert geometry.numerical_rank(mat.tolist(), rel_tol) \
            == int((sv > cut).sum())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_refused(self, bad):
        for shape, (i, j) in (((3, 5), (2, 4)), ((4, 2), (0, 1)),
                              ((1, 1), (0, 0))):
            mat = np.ones(shape).tolist()
            mat[i][j] = bad
            with pytest.raises(ValueError):
                geometry.singular_values(mat)
            with pytest.raises(ValueError):
                oa.numerical_rank(mat)

    @settings(max_examples=300, deadline=None, database=None)
    @given(_square_matrices())
    @example(_SWITCH[0])
    @example(_SWITCH[1])
    def test_expm_matches_reference(self, A):
        got = np.array(geometry.expm(A.tolist()))
        want = reference_expm(A)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=300, deadline=None, database=None)
    @given(_rows_and_matrices())
    @example((np.array([1.0, -1.0]), _SWITCH[0], -1.0))
    @example((np.array([1.0, -1.0]), _SWITCH[1], -1.0))
    @example((np.array([1.11358325e-312]), np.array([[0.5]]), 1.0))
    def test_row_exp_matches_reference(self, case):
        v, A, t = case
        got = np.array(geometry._exp_action(A.tolist())(v.tolist(), t))
        E = reference_expm(t * A)
        # below the smallest normal float a result keeps no relative
        # precision (1e-12 times a subnormal scale is 0), so the scale is
        # floored there
        scale = max((np.abs(v) @ np.abs(E)).max(), sys.float_info.min)
        assert np.abs(got - v @ E).max() <= 1e-12 * scale


class TestFdJacobian:
    def test_axb_top_left_matches_constant_row(self, axb):
        D = oa.build_datum(axb, [vector(axb, X=1)], [1])
        jr = oa.fd_jacobian(D, (0.0,), h=1e-4)
        assert np.allclose(np.asarray(jr.J)[0, :2], [0.0, -1.0], atol=1e-6)
        assert jr.max_dev_topleft < 1e-6
        assert jr.numerical_rank_J == jr.expected_rank == 2

    def test_h3_rank_formula(self, h3):
        D = oa.build_datum(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1])
        jr = oa.fd_jacobian(D, (0.5,), h=1e-4)
        assert jr.expected_rank == 1 + (3 - 2)
        assert jr.numerical_rank_J == 2

    def test_abelian_zero_top_block(self):
        L = make_abelian(3)
        D = oa.build_datum(L, [vector(L, E1=1)], [2])
        jr = oa.fd_jacobian(D, (0.25, -0.75), h=1e-4)
        assert np.abs(np.asarray(jr.J)[:1, :]).max() == 0.0
        assert jr.numerical_rank_J == jr.expected_rank == 2

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_builds_each_ad_matrix_once(self, name, corpus_data,
                                        monkeypatch):
        # the n adapted ad-matrices never change between the 2(2n - m)
        # evaluations of the chart action
        D = corpus_data[name]
        calls = []
        original = geometry.ad_matrix

        def counting(L, u):
            calls.append(u)
            return original(L, u)
        monkeypatch.setattr(geometry, "ad_matrix", counting)
        oa.fd_jacobian(D, (Fraction(1, 2),) * (D.n - D.m), h=1e-4)
        assert len(calls) == D.n

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_block_structure_on_corpus(self, name, corpus_data):
        D = corpus_data[name]
        rng = random.Random(10_000 + len(name))
        for _ in range(5):
            x = random_dyadic_vector(rng, D.n - D.m)
            jr = oa.fd_jacobian(D, x, h=1e-4)
            assert jr.max_dev_topleft < 1e-6
            assert jr.max_dev_topright < 1e-6
            assert jr.max_dev_bottomright < 1e-9
            assert jr.numerical_rank_J == jr.expected_rank

    @pytest.mark.parametrize("name",
                             [n for n in CORPUS_NAMES
                              if ORACLES[n][0] == ORACLES[n][1]])
    def test_submersion_at_free_witness(self, name, corpus_data):
        D = corpus_data[name]
        res = oa.generic_h_orbit_dim(D)
        jr = oa.fd_jacobian(D, res.witness, h=1e-4)
        assert jr.numerical_rank_J == D.n

    @pytest.mark.parametrize("name",
                             [n for n in CORPUS_NAMES
                              if ORACLES[n][0] < ORACLES[n][1]])
    def test_never_submersive_when_not_free(self, name, corpus_data):
        D = corpus_data[name]
        rng = random.Random(31_337 + len(name))
        for _ in range(100):
            x = random_dyadic_vector(rng, D.n - D.m)
            jr = oa.fd_jacobian(D, x, h=1e-4)
            assert jr.numerical_rank_J < D.n


class TestTransportedStabilizers:
    """dim h(s.l) = dim h(l) for s in H, computed through float transport."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_h_equivariant_stabilizer_dimension(self, name, corpus_data):
        D = corpus_data[name]
        L = D.algebra
        rng = random.Random(64_000 + len(name) * 3)
        for _ in range(20):
            x = random_dyadic_vector(rng, D.n - D.m)
            l_exact = oa.point_on_variety(D, x)
            exact_rank = block_rank(D, x)
            l_float = [float(v) for v in l_exact]
            factors = [(D.adapted_rows[i], float(random_dyadic(rng)))
                       for i in range(D.m)]
            moved = geometry.coadjoint_apply_factors(L, factors, l_float)
            got = oa.numerical_rank(moment_float(D, moved), 1e-8)
            assert got == exact_rank
