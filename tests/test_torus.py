"""Exact lattice automorphisms, spectral splitting, orbit correction."""

import math
from random import Random

import numpy as np
import pytest

from shadowlab import torus
from shadowlab.errors import CapacityError, ConfigError
from shadowlab.torus import (
    CAT_MATRIX,
    COLLISION_RESOLUTION,
    FourierDisplacement,
    PerturbedMap,
    correct_segment,
    expansiveness_certificate,
    generating_set_transfer,
    heisenberg_block_action,
    mat_det,
    mat_identity,
    mat_inverse_unimodular,
    mat_mul,
    mat_pow,
    plane_element_matrix,
    random_displacement,
    random_grid,
    segment_orbit_residual,
    spectral_splitting,
    stability_report,
    torus_distance,
    torus_wrap,
)
from shadowlab.torus import _collision_count

GOLDEN = (1 + math.sqrt(5)) / 2


def _elementary_product(n, steps, rng):
    """A random product of row additions, swaps and negations in GL(n, Z)."""
    m = [list(row) for row in mat_identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        move = rng.randrange(3) if n > 1 else 2
        if move == 0:
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif move == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return tuple(tuple(row) for row in m)


def test_exact_inverse_of_unimodular_products():
    rng = Random(0)
    for n in range(1, 13):
        for _ in range(4):
            m = _elementary_product(n, rng.randrange(1, 3 * n + 2), rng)
            assert mat_det(m) in (1, -1)
            inv = mat_inverse_unimodular(m)
            assert mat_mul(m, inv) == mat_identity(n)
            assert mat_mul(inv, m) == mat_identity(n)


def test_exact_kernel_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(9)
    cases = [((1,),), ((-1,),), ((2,),)]
    for n in range(1, 8):
        for _ in range(6):
            cases.append(tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                               for _ in range(n)))
            cases.append(_elementary_product(n, rng.randrange(1, 4 * n), rng))
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            k = rng.randint(-2, 2) if n > 1 else 0
            rows[-1] = [k * v for v in rows[0]]  # singular
            cases.append(tuple(map(tuple, rows)))
    dets = {mat_det(A) for A in cases}
    assert 0 in dets and {1, -1} <= dets and dets - {0, 1, -1}
    for A in cases:
        oracle = sympy.Matrix(A)
        d = mat_det(A)
        assert d == oracle.det(), A
        if d in (1, -1):
            inv = tuple(map(tuple, oracle.inv().tolist()))
            assert mat_inverse_unimodular(A) == inv, A
        else:
            with pytest.raises(ValueError, match=f"matrix has determinant {d}, "
                               "not a lattice automorphism"):
                mat_inverse_unimodular(A)


def test_non_unimodular_matrices_are_rejected():
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((2, 0), (0, 1)))


def test_expansiveness_verdicts():
    cat = expansiveness_certificate(CAT_MATRIX)
    assert cat.verdict == "expansive" and cat.method == "numeric"
    shear = expansiveness_certificate(((1, 1), (0, 1)))
    assert shear.verdict == "not_expansive" and shear.method == "exact"
    rotation = expansiveness_certificate(((0, -1), (1, 0)))
    assert rotation.verdict == "not_expansive" and rotation.method == "exact"


def test_splitting_invariance_and_rates():
    sp = spectral_splitting(CAT_MATRIX)
    An = np.array(CAT_MATRIX, dtype=float)
    n = 2
    assert np.allclose(sp.projection_stable + sp.projection_unstable, np.eye(n))
    assert np.allclose(sp.projection_stable @ sp.projection_stable,
                       sp.projection_stable, atol=1e-12)
    # ordered Schur columns are exactly invariant: A Z = Z T
    assert np.allclose(An @ sp.stable_basis,
                       sp.stable_basis @ sp.stable_block, atol=1e-12)
    assert np.allclose(An @ sp.unstable_basis,
                       sp.unstable_basis @ sp.unstable_block, atol=1e-12)
    assert abs(sp.rate_stable - (GOLDEN - 1) ** 2) < 1e-12
    assert abs(sp.rate_unstable - GOLDEN ** 2) < 1e-12
    assert abs(sp.tracking_constant - 3.23606797749979) < 1e-10


def test_splitting_needs_a_gap():
    with pytest.raises(ValueError):
        spectral_splitting(((1, 1), (0, 1)))


def test_segment_correction_collapses_residual():
    rng = Random(1)
    disp = random_displacement(2, 0.01, rng, terms=3)
    pmap = PerturbedMap(CAT_MATRIX, disp)
    sp = spectral_splitting(CAT_MATRIX)
    pts = random_grid(2, 60, rng)
    seg = np.zeros((33, 60, 2))
    seg[16] = pts
    cur = pts
    for i in range(1, 17):
        cur = pmap.forward(cur)
        seg[16 + i] = cur
    cur = pts
    for i in range(1, 17):
        cur = pmap.backward(cur)
        seg[16 - i] = cur
    assert segment_orbit_residual(CAT_MATRIX, seg) > 1e-4
    fixed = correct_segment(CAT_MATRIX, sp, seg, error_bound=disp.amplitude)
    assert segment_orbit_residual(CAT_MATRIX, fixed) < 1e-13
    moved = np.max(np.abs(fixed - seg))
    assert moved < sp.tracking_constant * disp.amplitude + 1e-9


def test_conjugacy_defect_decays_with_window():
    rng = Random(7)
    disp = random_displacement(2, 0.01, rng, terms=3)
    pts = random_grid(2, 200, rng)
    rep16, _ = stability_report(CAT_MATRIX, disp, 16, pts)
    rep24, _ = stability_report(CAT_MATRIX, disp, 24, pts)
    assert rep16.orbit_residual < 1e-13
    assert rep24.orbit_residual < 1e-13
    assert rep16.sup_conjugacy_defect < 1e-8
    assert rep24.sup_conjugacy_defect < 1e-10
    assert rep24.sup_conjugacy_defect < rep16.sup_conjugacy_defect
    assert rep16.displacement_within_bound and rep16.collisions == 0


def _ref_collisions(pts, h_pts, separation):
    """The O(n^2) pair loop that _collision_count replaces."""
    collisions = 0
    for i in range(pts.shape[0]):
        di = torus_distance(pts[i + 1:], pts[i])
        hi = torus_distance(h_pts[i + 1:], h_pts[i])
        collisions += int(np.sum((di >= separation)
                                 & (hi < COLLISION_RESOLUTION)))
    return collisions


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("n", [0, 1, 2, 40, 400])
def test_collision_count_matches_the_pair_loop_on_collapsed_sets(d, n):
    rng = np.random.default_rng(100 * d + n)
    res = COLLISION_RESOLUTION
    pts = rng.random((n, d))
    centers = rng.random((max(1, n // 6), d))
    centers[:, 0] = rng.choice([0.0, 1.0, np.nextafter(1.0, 0.0), 0.5, 0.25],
                               len(centers))
    h_pts = centers[rng.integers(0, len(centers), n)]
    h_pts = (h_pts + rng.uniform(-1.5 * res, 1.5 * res, (n, d))) % 1.0
    # a quarter of the images sit exactly on a center
    h_pts[:n // 4] = centers[rng.integers(0, len(centers), n // 4)]
    for separation in (0.0, 0.3, 0.9):
        assert _collision_count(pts, h_pts, separation) \
            == _ref_collisions(pts, h_pts, separation)
    if n >= 40:
        assert _ref_collisions(pts, h_pts, 0.3) > 0


def _boundary_pairs(d, rng, separation):
    """Pairs of h-images a few ulps either side of COLLISION_RESOLUTION
    apart (in the first coordinate, across the 0/1 wrap, and in the last
    coordinate), at the exact values 0.0, 1.0 and nextafter(1, 0), with
    their points a few ulps either side of ``separation`` apart.  Each pair
    shares its other coordinates, drawn apart from every other pair's."""
    res = COLLISION_RESOLUTION
    pairs = []
    # below RES, b - a rounds: a sweep margin one ulp short of RES misses
    for a in (0.0, 0.77 * res, 0.9 * res, 2.0 ** -40, 0.3, 0.5, 0.7, 1.0 - 2 * res):
        for k in range(-3, 4):
            b = a + res
            pairs.append((a, b + k * np.spacing(b), 0))
    for a in (0.0, 2.0 ** -54, 1.5 * 2.0 ** -53, 3 * 2.0 ** -53, res / 3):
        for k in range(-3, 4):
            b = 1.0 - res + a + k * 2.0 ** -53
            pairs.append((a, b, 0))
            pairs.append((b, a, 0))
    for k in range(-3, 4):
        b = 0.6 + res
        pairs.append((0.6, b + k * np.spacing(b), d - 1))
    one_below = np.nextafter(1.0, 0.0)
    pairs += [(0.0, 1.0, 0), (1.0, one_below, 0), (0.0, one_below, 0),
              (1.0 - res / 3, res / 3, 0), (1.0 - 0.6 * res, 0.6 * res, 0)]
    m = len(pairs)
    h_pts = np.repeat(rng.random((m, d)), 2, axis=0)
    pts = np.repeat(rng.random((m, d)), 2, axis=0)
    for p, (u, v, axis) in enumerate(pairs):
        h_pts[2 * p, axis], h_pts[2 * p + 1, axis] = u, v
        gap = separation + (p % 5 - 2) * np.spacing(separation)
        pts[2 * p, d - 1], pts[2 * p + 1, d - 1] = 0.0, gap if p % 7 else 0.45
    return pts, h_pts


@pytest.mark.parametrize("d", [2, 3, 6])
def test_collision_count_matches_the_pair_loop_at_the_boundaries(d):
    separation = 0.1 + 4.0 * COLLISION_RESOLUTION
    pts, h_pts = _boundary_pairs(d, np.random.default_rng(d), separation)
    expected = _ref_collisions(pts, h_pts, separation)
    assert 0 < expected < pts.shape[0] // 2
    assert _collision_count(pts, h_pts, separation) == expected
    order = np.random.default_rng(d + 1).permutation(pts.shape[0])
    assert _collision_count(pts[order], h_pts[order], separation) == expected


def test_zero_amplitude_is_bit_exact_identity():
    zero = FourierDisplacement(2, 0.0, ((1, 0),), (1.0,), (0.0,))
    pts = random_grid(2, 50, Random(2))
    rep, h_pts = stability_report(CAT_MATRIX, zero, 12, pts)
    assert rep.identity_exact is True
    assert np.array_equal(h_pts, pts % 1.0)
    assert rep.sup_displacement == 0.0
    assert rep.sup_conjugacy_defect == 0.0


def test_wrap_and_distance_conventions():
    v = np.array([0.75, -0.3, 2.2, 0.4])
    w = torus_wrap(v)
    assert np.all(np.abs(w) <= 0.5)
    assert np.allclose(torus_wrap(v + 3.0), w)
    assert np.allclose(np.round(v - w), v - w)  # representatives differ by integers
    a = np.array([[0.1, 0.9]])
    b = np.array([[0.9, 0.1]])
    assert np.allclose(torus_distance(a, b), 0.2)


def test_displacement_sup_and_lipschitz_bounds():
    rng = Random(4)
    disp = random_displacement(2, 0.02, rng, terms=3)
    pts = random_grid(2, 500, rng)
    assert float(np.max(np.abs(disp(pts)))) <= 0.02 + 1e-15
    h = 1e-6
    base = disp(pts)
    shifted = disp(pts + np.array([h, 0.0]))
    slope = float(np.max(np.abs(shifted - base))) / h
    assert slope <= disp.lipschitz_bound() * (1 + 1e-3)


def test_perturbed_map_round_trip():
    rng = Random(5)
    disp = random_displacement(2, 0.01, rng, terms=2)
    pmap = PerturbedMap(CAT_MATRIX, disp)
    pts = random_grid(2, 100, rng)
    fwd = pmap.forward(pts)
    back = pmap.backward(fwd)
    assert float(np.max(torus_distance(back, pts))) < 1e-11


def test_stability_report_inverts_the_matrix_once(monkeypatch):
    calls = []
    inverse = torus.mat_inverse_unimodular

    def counted(A):
        calls.append(A)
        return inverse(A)

    monkeypatch.setattr(torus, "mat_inverse_unimodular", counted)
    rng = Random(4)
    disp = random_displacement(2, 1e-3, rng)
    stability_report(CAT_MATRIX, disp, 30, random_grid(2, 16, rng))
    assert calls == [CAT_MATRIX]


def test_displacement_refuses_more_terms_than_wave_vectors():
    # {-2..2}^1 holds 4 nonzero wave vectors; a fifth draw would never end
    with pytest.raises(ValueError, match="terms 5 exceeds the 4 nonzero"):
        random_displacement(1, 1e-3, Random(1), terms=5)
    disp = random_displacement(1, 1e-3, Random(1), terms=4)
    assert sorted(disp.wave_vectors) == [(-2,), (-1,), (1,), (2,)]


def test_backward_iteration_that_cannot_converge_is_a_capacity_error():
    # passes the contraction guard, but near |x| = 1e3 floating point cannot
    # resolve steps below the 1e-13 tolerance
    rng = Random(0)
    disp = random_displacement(2, 5e-5, rng)
    pmap = PerturbedMap(((1001, 1000), (1, 1)), disp)
    with pytest.raises(CapacityError, match=r"max_iter=500 steps; last step "
                       r"size \d\.\d{3}e-\d+"):
        pmap.backward(random_grid(2, 16, rng))


def test_perturbed_map_guards_contraction():
    spiky = FourierDisplacement(2, 0.2, ((7, 5),), (1.0,), (0.0,))
    with pytest.raises(ValueError):
        PerturbedMap(CAT_MATRIX, spiky)


def test_heisenberg_blocks_satisfy_relations_exactly():
    act = heisenberg_block_action(CAT_MATRIX, CAT_MATRIX)
    a, b, c = (act.matrix_for(l) for l in "abc")
    assert mat_mul(a, b) == mat_mul(mat_mul(b, a), c)
    assert mat_mul(a, c) == mat_mul(c, a)
    assert mat_mul(b, c) == mat_mul(c, b)
    assert mat_det(a) == 1 and mat_det(b) == 1 and mat_det(c) == 1


def test_heisenberg_blocks_reject_bad_inputs():
    shear = ((1, 1), (0, 1))  # does not commute with the cat matrix
    with pytest.raises(ValueError):
        heisenberg_block_action(CAT_MATRIX, shear)
    with pytest.raises(ValueError):
        heisenberg_block_action(((2, 0), (0, 1)), CAT_MATRIX)


def test_generating_set_transfer_pins():
    rep = generating_set_transfer(CAT_MATRIX, 0.05, Random(3), grid_count=100)
    assert rep.conversion_radius == 2
    assert rep.norm_bound == 21
    assert rep.passed
    assert abs(rep.amplitude - 0.4 * (0.05 / 3) / 21) < 1e-12
    for _, dev in rep.deviations:
        assert dev < rep.target_tolerance


def test_generating_set_transfer_runs_on_entries_of_ten():
    rep = generating_set_transfer(((10, 9), (1, 1)), 0.05, Random(3), grid_count=40)
    assert rep.passed and rep.norm_bound == 2269


@pytest.mark.parametrize("k", [20, 53])
def test_generating_set_transfer_refuses_rounding_that_decides(k):
    # with entries this large the float images keep few fractional bits, so
    # deviations measure rounding, not the perturbation
    rng = Random(3)
    state = rng.getstate()
    with pytest.raises(ConfigError, match=r"^float rounding may move a word image "
                       r"by \S+, more than 0\.001 of target_tolerance 0\.05: "
                       r"the matrix entries are too large$"):
        generating_set_transfer(((2 ** k, 2 ** k - 1), (1, 1)), 0.05, rng)
    assert rng.getstate() == state  # refused before any draw


def test_plane_matrices_commute_and_compose():
    m1 = plane_element_matrix(CAT_MATRIX, (1, 0))
    m2 = plane_element_matrix(CAT_MATRIX, (0, 1))
    assert m1 == CAT_MATRIX
    assert m2 == mat_pow(CAT_MATRIX, 2)
    assert mat_mul(m1, m2) == mat_mul(m2, m1)
    assert plane_element_matrix(CAT_MATRIX, (2, 1)) == mat_pow(CAT_MATRIX, 4)

