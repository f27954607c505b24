"""Hyperbolic toral automorphisms: exact certificates and orbit correction.

Matrices are kept as exact integer tuples for all group-theoretic work
(inverses, relations, block constructions); numerics enter only where the
torus does, through numpy.  The orbit-correction scheme splits the error
along stable and unstable spectral subspaces and pushes each part in the
direction that contracts it, which keeps every correction term geometric.
The splitting is computed from two ordered real Schur decompositions, so it
also covers matrices that are not diagonalizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Optional

import numpy as np

from .errors import CapacityError, ConfigError

IntMatrix = tuple[tuple[int, ...], ...]

CAT_MATRIX: IntMatrix = ((2, 1), (1, 1))

# eigenvalue moduli this close to 1 count as on the unit circle numerically
NUMERIC_BAND = 1e-9
# backward iteration stops at a step below BACKWARD_TOL and refuses after
# BACKWARD_MAX_ITER steps
BACKWARD_TOL = 1e-13
BACKWARD_MAX_ITER = 500
# h-images closer than this count as collided
COLLISION_RESOLUTION = 1e-6
# a float step x -> x A^T + p(x) mod 1 on [0, 1)^2 rounds by at most
# STEP_ROUNDING * (|A| + 1), 8 unit roundoffs; a transfer whose rounding may
# pass TRANSFER_ROUNDING_SHARE of its target tolerance is refused
STEP_ROUNDING = 2.0 ** -50
TRANSFER_ROUNDING_SHARE = 1e-3


def as_int_matrix(rows) -> IntMatrix:
    M = tuple(tuple(int(v) for v in row) for row in rows)
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    return M


def mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _faddeev_leverrier(A: IntMatrix) -> tuple[int, IntMatrix]:
    """(det A, adj A) from one exact integer recursion: M_1 = I,
    c_(n-k) = -tr(A M_k)/k (an exact division), M_(k+1) = A M_k + c_(n-k) I;
    then det A = (-1)^n c_0 and adj A = (-1)^(n+1) M_n."""
    n = len(A)
    M = mat_identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(A, M)
        c = -sum(AM[i][i] for i in range(n)) // k
        if k < n:
            M = tuple(tuple(v + c * (i == j) for j, v in enumerate(row))
                      for i, row in enumerate(AM))
    sign = (-1) ** n
    return sign * c, tuple(tuple(-sign * v for v in row) for row in M)


def mat_det(A: IntMatrix) -> int:
    return _faddeev_leverrier(A)[0]


def mat_inverse_unimodular(A: IntMatrix) -> IntMatrix:
    """Exact integer inverse; demands det +-1."""
    d, adj = _faddeev_leverrier(A)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not a lattice automorphism")
    return tuple(tuple(d * v for v in row) for row in adj)


def mat_pow(A: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        return mat_pow(mat_inverse_unimodular(A), -k)
    out = mat_identity(len(A))
    base = A
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def mat_sup_norm(A: IntMatrix) -> int:
    return max(sum(abs(v) for v in row) for row in A)


@dataclass(frozen=True)
class ExpansivenessCertificate:
    verdict: str          # "expansive" | "not_expansive"
    method: str           # "numeric" | "exact"
    detail: str

    @property
    def is_expansive(self) -> bool:
        return self.verdict == "expansive"


def expansiveness_certificate(A: IntMatrix) -> ExpansivenessCertificate:
    """Decide whether the automorphism has no eigenvalue on the unit circle.

    Fast path: numeric eigenvalues, accepted only when they sit clearly off
    the circle.  Otherwise the characteristic polynomial is processed exactly:
    roots at +-1 are evaluated directly, and each even self-reciprocal
    irreducible factor is mapped through t + 1/t so that unit-circle roots
    become real roots in [-2, 2], which are counted symbolically.  A unit
    root of a real integer polynomial always lands in one of those buckets.
    """
    eigs = np.linalg.eigvals(np.array(A, dtype=float))
    gaps = np.abs(np.abs(eigs) - 1.0)
    if gaps.min() > NUMERIC_BAND:
        verdict = "expansive"
        return ExpansivenessCertificate(
            verdict, "numeric",
            f"smallest modulus gap to the unit circle: {gaps.min():.3e}")
    import sympy

    t = sympy.symbols("t")
    p = sympy.Matrix(A).charpoly(t)
    if p.eval(1) == 0:
        return ExpansivenessCertificate("not_expansive", "exact",
                                        "characteristic polynomial vanishes at 1")
    if p.eval(-1) == 0:
        return ExpansivenessCertificate("not_expansive", "exact",
                                        "characteristic polynomial vanishes at -1")
    w = sympy.symbols("w")
    for factor, _mult in sympy.factor_list(p.as_expr(), t)[1]:
        f = sympy.Poly(factor, t)
        coeffs = f.all_coeffs()
        deg = f.degree()
        if deg % 2 != 0 or coeffs != list(reversed(coeffs)):
            continue
        # p(t) = t^k q(t + 1/t) with v_j encoding t^j + t^-j
        k = deg // 2
        v_prev, v_cur = sympy.Integer(2), w
        q = coeffs[k] * 1
        for j in range(1, k + 1):
            q += coeffs[k - j] * v_cur
            v_prev, v_cur = v_cur, sympy.expand(w * v_cur - v_prev)
        if sympy.Poly(q, w).count_roots(-2, 2) > 0:
            return ExpansivenessCertificate(
                "not_expansive", "exact",
                f"factor {sympy.sstr(factor)} has a unit-circle root")
    return ExpansivenessCertificate("expansive", "exact",
                                    "no factor carries a unit-circle root")


@dataclass(frozen=True)
class SpectralSplitting:
    """Invariant-subspace data for a hyperbolic lattice automorphism.

    The bases come from ordered real Schur forms, so A maps the span of
    ``stable_basis`` into itself with matrix exactly ``stable_block`` in
    those coordinates (and likewise on the unstable side).  Correction
    recursions run inside these coordinate blocks: there is then no
    expanding direction for floating-point noise to leak into.
    """

    projection_stable: np.ndarray
    projection_unstable: np.ndarray
    stable_basis: np.ndarray        # (n, sdim), orthonormal columns
    stable_block: np.ndarray        # (sdim, sdim), spectrum inside the circle
    unstable_basis: np.ndarray      # (n, udim)
    unstable_block: np.ndarray      # (udim, udim), spectrum outside
    rate_stable: float              # largest modulus below 1
    rate_unstable: float            # smallest modulus above 1

    @property
    def tracking_constant(self) -> float:
        return 1.0 / (1.0 - self.rate_stable) + 1.0 / (1.0 - 1.0 / self.rate_unstable)


def spectral_splitting(A: IntMatrix) -> SpectralSplitting:
    """Split R^n into the A-invariant contracting and expanding subspaces.

    Two sorted real Schur forms supply orthonormal bases whose leading
    columns span the stable (inside unit circle) and unstable (outside)
    subspaces; gluing them gives the oblique projections that commute with
    A.  Requires an expansive matrix.
    """
    An = np.array(A, dtype=float)
    n = An.shape[0]
    eigs = np.linalg.eigvals(An)
    mods = np.abs(eigs)
    if np.any(np.abs(mods - 1.0) <= NUMERIC_BAND):
        raise ValueError("matrix has (numerically) unit-modulus spectrum; "
                         "no hyperbolic splitting")
    stable_mods = mods[mods < 1.0]
    unstable_mods = mods[mods > 1.0]
    from scipy.linalg import schur

    ts, zs, sdim = schur(An, output="real", sort="iuc")
    tu, zu, udim = schur(An, output="real", sort="ouc")
    if sdim + udim != n:
        raise ValueError("Schur ordering did not partition the spectrum")
    basis = np.hstack([zs[:, :sdim], zu[:, :udim]])
    selector = np.zeros((n, n))
    for i in range(sdim):
        selector[i, i] = 1.0
    Ps = basis @ selector @ np.linalg.inv(basis)
    Pu = np.eye(n) - Ps
    if not np.allclose(An @ Ps, Ps @ An, atol=1e-8):
        raise ValueError("stable projection fails to commute with the matrix")
    rate_s = float(stable_mods.max()) if stable_mods.size else 0.0
    rate_u = float(unstable_mods.min()) if unstable_mods.size else math.inf
    return SpectralSplitting(Ps, Pu, zs[:, :sdim], ts[:sdim, :sdim],
                             zu[:, :udim], tu[:udim, :udim], rate_s, rate_u)


def torus_wrap(v: np.ndarray) -> np.ndarray:
    """Componentwise representative in [-1/2, 1/2)."""
    return v - np.round(v)


def torus_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sup-metric distance on the torus, along the last axis."""
    return np.max(np.abs(torus_wrap(x - y)), axis=-1)


@dataclass(frozen=True)
class FourierDisplacement:
    """Smooth periodic displacement field with a hard sup-norm cap.

    Each coordinate is a normalized sine mix over a fixed set of integer
    wave vectors, so the sup norm never exceeds ``amplitude`` and the
    Lipschitz constant admits the closed bound reported by
    ``lipschitz_bound``.
    """

    dimension: int
    amplitude: float
    wave_vectors: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]
    phases: tuple[tuple[float, ...], ...]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        K = np.array(self.wave_vectors, dtype=float)        # (T, n)
        W = np.array(self.weights, dtype=float)             # (T, n)
        Ph = np.array(self.phases, dtype=float)             # (T, n)
        return K, W, Ph, np.sum(np.abs(W), axis=0)          # norm: (n,)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.amplitude == 0.0:
            return np.zeros_like(pts)
        K, W, Ph, norm = self._arrays
        args = 2.0 * math.pi * pts @ K.T                    # (m, T)
        out = np.zeros_like(pts)
        for c in range(self.dimension):
            mix = np.sin(args + Ph[:, c][None, :]) @ W[:, c]
            out[:, c] = self.amplitude * mix / norm[c]
        return out

    def lipschitz_bound(self) -> float:
        if self.amplitude == 0.0:
            return 0.0
        K, W, _, norm = self._arrays
        k1 = np.sum(np.abs(K), axis=1)                      # (T,)
        rows = (np.abs(W) * k1[:, None]).sum(axis=0) / norm
        return float(self.amplitude * 2.0 * math.pi * rows.max())


def random_displacement(dimension: int, amplitude: float, rng: Random,
                        terms: int = 3) -> FourierDisplacement:
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if terms > 5 ** dimension - 1:
        raise ValueError(f"terms {terms} exceeds the {5 ** dimension - 1} "
                         f"nonzero wave vectors in {{-2..2}}^{dimension}")
    vectors = []
    while len(vectors) < terms:
        v = tuple(rng.randint(-2, 2) for _ in range(dimension))
        if any(v) and v not in vectors:
            vectors.append(v)
    weights = tuple(tuple(rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
                          for _ in range(dimension)) for _ in range(terms))
    phases = tuple(tuple(rng.uniform(0.0, 2.0 * math.pi)
                         for _ in range(dimension)) for _ in range(terms))
    return FourierDisplacement(dimension, float(amplitude), tuple(vectors),
                               weights, phases)


@dataclass(frozen=True)
class PerturbedMap:
    """x -> A x + p(x) on the torus, with a certified fixed-point inverse."""

    matrix: IntMatrix
    displacement: FourierDisplacement

    def __post_init__(self) -> None:
        inv_norm = mat_sup_norm(self._inverse)
        lip = self.displacement.lipschitz_bound()
        if lip >= 0.45:
            raise ValueError(f"displacement Lipschitz bound {lip:.3f} too large "
                             "to keep the map invertible")
        if lip * inv_norm >= 0.9:
            raise ValueError("displacement defeats the inverse contraction "
                             f"(L={lip:.3f}, |A^-1|={inv_norm})")

    @cached_property
    def _inverse(self) -> IntMatrix:
        return mat_inverse_unimodular(self.matrix)

    @cached_property
    def _float_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self.matrix, dtype=float),
                np.array(self._inverse, dtype=float))

    def forward(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        An = self._float_matrices[0]
        return (pts @ An.T + self.displacement(pts)) % 1.0

    def backward(self, pts: np.ndarray) -> np.ndarray:
        """Unique preimage via x <- A^-1 (z - p(x)); converges by contraction.

        Raises CapacityError when ``BACKWARD_MAX_ITER`` steps do not bring the
        step size below ``BACKWARD_TOL``, as happens in floating point once
        the iterates are large enough that the tolerance is below their
        resolution.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inv = self._float_matrices[1]
        x = pts @ inv.T
        step = math.inf
        for _ in range(BACKWARD_MAX_ITER):
            nxt = (pts - self.displacement(x)) @ inv.T
            step = np.max(np.abs(nxt - x))
            if step < BACKWARD_TOL:
                return nxt % 1.0
            x = nxt
        raise CapacityError(f"backward iteration did not converge within "
                            f"max_iter={BACKWARD_MAX_ITER} steps; last step size "
                            f"{step:.3e}, tolerance {BACKWARD_TOL:.0e}")


def correct_segment(A: IntMatrix, splitting: SpectralSplitting,
                    seg: np.ndarray, error_bound: float) -> np.ndarray:
    """Turn a finite pseudo-orbit segment into an exact orbit segment.

    ``seg`` has shape (N, m, n): N steps, m independent base points.  The
    step errors are wrapped to [-1/2, 1/2), their stable parts corrected
    forward from zero and unstable parts backward from zero, so every
    correction is a geometric series in the contraction rates.  Both
    recursions run in the Schur coordinates of their invariant subspace;
    in the ambient basis each forward multiplication by A would amplify
    the roundoff that leaks into the expanding directions.

    ``error_bound`` is a certified sup bound on the true step error;
    wrapped errors are clipped to it, which strips pure roundoff (and at
    bound 0.0 makes the correction exactly zero).
    """
    seg = np.asarray(seg, dtype=float)
    N = seg.shape[0]
    An = np.array(A, dtype=float)
    Ps, Pu = splitting.projection_stable, splitting.projection_unstable
    Zs, Ts = splitting.stable_basis, splitting.stable_block
    Zu, Tu = splitting.unstable_basis, splitting.unstable_block
    err = torus_wrap(seg[1:] - seg[:-1] @ An.T)
    np.clip(err, -error_bound, error_bound, out=err)
    s = np.zeros_like(seg)
    if Zs.shape[1] > 0:
        coord = np.zeros(seg.shape[:-1] + (Zs.shape[1],))
        for i in range(N - 1):
            coord[i + 1] = coord[i] @ Ts.T - (err[i] @ Ps.T) @ Zs
        s = coord @ Zs.T
    v = np.zeros_like(seg)
    if Zu.shape[1] > 0:
        coord = np.zeros(seg.shape[:-1] + (Zu.shape[1],))
        for i in range(N - 2, -1, -1):
            rhs = coord[i + 1] + (err[i] @ Pu.T) @ Zu
            coord[i] = np.linalg.solve(Tu, rhs.T).T
        v = coord @ Zu.T
    return seg + s + v


def segment_orbit_residual(A: IntMatrix, seg: np.ndarray) -> float:
    An = np.array(A, dtype=float)
    if seg.shape[0] < 2:
        return 0.0
    return float(np.max(np.abs(torus_wrap(seg[1:] - seg[:-1] @ An.T))))


@dataclass(frozen=True)
class StabilityReport:
    window: int
    grid_points: int
    delta: float
    tracking_constant: float
    orbit_residual: float
    sup_displacement: float
    sup_conjugacy_defect: float
    displacement_within_bound: bool
    collisions: int
    identity_exact: Optional[bool]


def _forward_orbit(pmap: PerturbedMap, pts: np.ndarray,
                   steps: int) -> list[np.ndarray]:
    """pts and its first ``steps`` perturbed images, as ``forward`` returns
    them."""
    orbit = [pts]
    for _ in range(steps):
        orbit.append(pmap.forward(orbit[-1]))
    return orbit


def _conjugacy(A: IntMatrix, pmap: PerturbedMap, splitting: SpectralSplitting,
               forward: list[np.ndarray], window: int) -> tuple[np.ndarray, float]:
    """``conjugacy_points`` at forward[0], given its forward orbit
    ``forward`` (window + 1 arrays): the segment's forward half is that
    orbit, and its backward half is iterated here."""
    seg = np.zeros((2 * window + 1,) + forward[0].shape)
    seg[window:] = forward
    bwd = forward[0]
    for i in range(1, window + 1):
        bwd = pmap.backward(bwd)
        seg[window - i] = bwd
    fixed = correct_segment(A, splitting, seg,
                            error_bound=pmap.displacement.amplitude)
    return fixed[window] % 1.0, segment_orbit_residual(A, fixed)


def conjugacy_points(A: IntMatrix, pmap: PerturbedMap,
                     splitting: SpectralSplitting, pts: np.ndarray,
                     window: int) -> tuple[np.ndarray, float]:
    """Trace each perturbed orbit segment and read off its center point.

    Returns the mapped points and the worst exact-orbit residual of the
    corrected segments (a pure roundoff figure when the scheme is healthy).
    """
    return _conjugacy(A, pmap, splitting, _forward_orbit(pmap, pts, window),
                      window)


def random_grid(dimension: int, count: int, rng: Random) -> np.ndarray:
    return np.array([[rng.random() for _ in range(dimension)]
                     for _ in range(count)])


def _collision_count(pts: np.ndarray, h_pts: np.ndarray,
                     separation: float) -> int:
    """The number of pairs i < j at least ``separation`` apart whose
    h-images lie closer than ``COLLISION_RESOLUTION``.

    Such a pair is also that close in the first coordinate, so a sweep over
    h sorted by it (with a copy shifted by 1 for the wrap) takes as
    candidates the points ahead within twice the resolution; the exact pair
    test then decides each candidate.  With the resolution below 1/4 no
    pair is a candidate twice.
    """
    n = h_pts.shape[0]
    order = np.argsort(h_pts[:, 0])
    xs = h_pts[order, 0]
    stop = np.searchsorted(np.concatenate([xs, xs + 1.0]),
                           xs + 2.0 * COLLISION_RESOLUTION, "right")
    runs = stop - np.arange(n) - 1
    a = np.repeat(np.arange(n), runs)
    b = a + 1 + np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    u, v = order[a], order[b % n]
    i, j = np.minimum(u, v), np.maximum(u, v)
    return int(np.sum((torus_distance(pts[j], pts[i]) >= separation)
                      & (torus_distance(h_pts[j], h_pts[i]) < COLLISION_RESOLUTION)))


def stability_report(A: IntMatrix, displacement: FourierDisplacement,
                     window: int, pts: np.ndarray
                     ) -> tuple[StabilityReport, np.ndarray]:
    """End-to-end topological stability measurement for one automorphism.

    Builds the tracing map h from perturbed segments of length 2*window+1,
    then reports how far h moves points, how close h is to intertwining the
    perturbed map with the linear one, and whether well-separated points
    ever collide under h.  Returns the report and the points h(pts).
    """
    pmap = PerturbedMap(A, displacement)
    splitting = spectral_splitting(A)
    # the segment around forward(pts) shares the forward orbit of pts, one
    # step on, so that orbit is computed once for both
    forward = _forward_orbit(pmap, pts, window + 1)
    h_pts, residual = _conjugacy(A, pmap, splitting, forward[:-1], window)
    h_fwd, residual2 = _conjugacy(A, pmap, splitting, forward[1:], window)
    An = np.array(A, dtype=float)
    defect = float(np.max(torus_distance(h_fwd, (h_pts @ An.T) % 1.0))) \
        if pts.shape[0] else 0.0
    sup_disp = float(np.max(torus_distance(h_pts, pts))) if pts.shape[0] else 0.0
    delta = displacement.amplitude
    constant = splitting.tracking_constant
    within = sup_disp <= constant * delta + 1e-12
    separation = 4.0 * constant * delta + 4.0 * COLLISION_RESOLUTION
    collisions = _collision_count(pts, h_pts, separation)
    identity_exact = None
    if delta == 0.0:
        identity_exact = bool(np.array_equal(h_pts, pts % 1.0))
    return StabilityReport(window, int(pts.shape[0]), float(delta),
                           float(constant), float(max(residual, residual2)),
                           sup_disp, defect, within, collisions,
                           identity_exact), h_pts


@dataclass(frozen=True)
class ToralAction:
    torus_dimension: int
    labels: tuple[str, ...]
    matrices: tuple[IntMatrix, ...]

    def matrix_for(self, label: str) -> IntMatrix:
        return self.matrices[self.labels.index(label)]


def heisenberg_block_action(x: IntMatrix, y: IntMatrix) -> ToralAction:
    """Three block automorphisms realizing the discrete Heisenberg relation.

    For commuting x, y in SL(n, Z) the blocks below satisfy a b = b a c and
    c is central among them; the relation is re-verified by exact block
    multiplication before the action is returned.
    """
    x = as_int_matrix(x)
    y = as_int_matrix(y)
    n = len(x)
    if len(y) != n:
        raise ValueError("x and y must have the same size")
    if mat_det(x) != 1 or mat_det(y) != 1:
        raise ValueError("x and y must lie in SL(n, Z)")
    if mat_mul(x, y) != mat_mul(y, x):
        raise ValueError("x and y must commute")
    I = mat_identity(n)
    Z = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    corner = mat_inverse_unimodular(mat_mul(y, x))  # x^-1 y^-1

    def blocks(rows):
        return tuple(tuple(val for blk in row_of_blocks for val in blk[r])
                     for row_of_blocks in rows for r in range(n))

    a = blocks([[x, I, Z], [Z, x, Z], [Z, Z, x]])
    b = blocks([[y, Z, Z], [Z, y, I], [Z, Z, y]])
    c = blocks([[I, Z, corner], [Z, I, Z], [Z, Z, I]])
    if mat_mul(a, b) != mat_mul(mat_mul(b, a), c):
        raise ValueError("block construction failed its defining relation")
    for M, other in ((c, a), (c, b)):
        if mat_mul(M, other) != mat_mul(other, M):
            raise ValueError("central block fails to commute")
    return ToralAction(3 * n, ("a", "b", "c"), (a, b, c))


@dataclass(frozen=True)
class GeneratorTransferReport:
    conversion_radius: int
    target_tolerance: float
    per_word_tolerance: float
    per_step_tolerance: float
    amplitude: float
    norm_bound: int
    deviations: tuple[tuple[str, float], ...]
    passed: bool


def plane_element_matrix(base: IntMatrix, payload: tuple[int, int]) -> IntMatrix:
    """The action matrix of a plane element when e1 acts by the base matrix
    and e2 by its square."""
    i, j = payload
    return mat_pow(base, i + 2 * j)


def _rounding_bound(matrices: list[IntMatrix]) -> float:
    """A sup bound on the float rounding of the perturbed maps of
    ``matrices``, applied in turn to points of [0, 1)^2.  Each map grows an
    earlier error by at most its sup norm plus 1, as p is 1/2-Lipschitz."""
    err = 0.0
    for M in matrices:
        err = (mat_sup_norm(M) + 1) * (err + STEP_ROUNDING)
    return err


def generating_set_transfer(base: IntMatrix, delta_prime: float, rng: Random,
                            grid_count: int = 200) -> GeneratorTransferReport:
    """Drive one Z^2 action through a second generating set and measure drift.

    The standard generators are rewritten as geodesic words in the skew set
    {e1, e1+e2}; each skew generator gets an independent perturbation whose
    amplitude is budgeted so that composed words stay within the target
    tolerance of the unperturbed action.  The report carries the measured
    sup deviations so the budget argument is checked, not assumed.
    """
    from .groups import GroupElement, GroupGeometry, GroupSpec, IntegerLattice

    base = as_int_matrix(base)
    fam = IntegerLattice(2)
    spec_std = GroupSpec(fam, (GroupElement(fam, (1, 0)), GroupElement(fam, (0, 1))))
    spec_skew = GroupSpec(fam, (GroupElement(fam, (1, 0)), GroupElement(fam, (1, 1))))
    geo_skew = GroupGeometry(spec_skew)
    words = {}
    for a in spec_std.generators:
        word = geo_skew.word(a, 6)
        if word is None:
            raise ValueError("skew set fails to express a standard generator")
        words[a] = word
    m = max(len(w) for w in words.values())
    delta1 = delta_prime / (m + 1)
    mats = {h: plane_element_matrix(base, h.payload) for h in spec_skew.generators}
    norm_bound = max(mat_sup_norm(M) for M in mats.values())
    targets = {a: plane_element_matrix(base, a.payload) for a in spec_std.generators}
    rounding = max(_rounding_bound([mats[h] for h in reversed(words[a])])
                   + _rounding_bound([targets[a]]) for a in spec_std.generators)
    if rounding > TRANSFER_ROUNDING_SHARE * delta_prime:
        raise ConfigError(f"float rounding may move a word image by "
                          f"{rounding:.3g}, more than {TRANSFER_ROUNDING_SHARE:g} "
                          f"of target_tolerance {delta_prime:g}: the matrix "
                          "entries are too large")
    delta = delta1 / norm_bound
    amplitude = 0.4 * delta
    maps = {h: PerturbedMap(mats[h], random_displacement(2, amplitude, rng))
            for h in spec_skew.generators}
    pts = random_grid(2, grid_count, rng)
    deviations = []
    ok = True
    for a in spec_std.generators:
        cur = pts
        for h in reversed(words[a]):
            cur = maps[h].forward(cur)
        target_mat = np.array(targets[a], dtype=float)
        target = (pts @ target_mat.T) % 1.0
        dev = float(np.max(torus_distance(cur, target)))
        label = f"({a.payload[0]},{a.payload[1]})"
        deviations.append((label, dev))
        ok = ok and dev < delta_prime
    return GeneratorTransferReport(m, float(delta_prime), float(delta1),
                                   float(delta), float(amplitude), norm_bound,
                                   tuple(deviations), ok)
