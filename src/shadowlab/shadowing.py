"""Pseudo-orbit generation, trace construction, and tracing verification.

Everything here works on truncated data: a pseudo-orbit is a family of
configurations indexed by a Cayley ball, one per group element, held as one
cell array with a row per element (``PseudoOrbit.cells``), and every
metric statement is made with the dyadic ball metric and its explicit
truncation marker.  The generator never fabricates a field and hopes: it
builds one from a genuine orbit segment, perturbs only layers that the
step condition provably tolerates, and then re-verifies the step condition
before handing the field out.

Radius bookkeeping, fixed once and used throughout:

  * step tolerance delta = 2^-(m+1) certified through agreement on ball(m+2)
    after one generator shift, so entries must agree with a common orbit on
    ball(m+3); the generator therefore preserves layers up to min(m+3, R_in)
    and only touches deeper layers,
  * tracing tolerance epsilon is checked at comparison radius
    min(R - |g|, R_in); a definite mismatch at or above epsilon refutes,
    a truncation marker never does.

A shift field is one cell array: one gather of every face's cells checks
its steps (``PseudoOrbit.step_profile``), and one gather per comparison
radius checks a trace (``verify_trace``) or a block of uniqueness
candidates (``uniqueness_scan``).  These and the quotient chains' checks
read the distance exponent of each first difference (``first_exponents``)
and refute a threshold t when 0 <= e <= k(t) (``threshold_exponent``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from random import Random
from typing import Optional

import numpy as np

from .errors import CapacityError, GenerationError
from .groups import read_only
from .shifts import (
    Configuration,
    DyadicDistance,
    SftSpec,
    ShiftSpace,
    allowed_blocks,
    enumerate_admissible,
    fill_rows,
    locally_admissible,
    threshold_exponent,
)

PASSER_SAMPLES = 8
# candidates a uniqueness scan compares at once, which bounds its memory
CANDIDATE_BLOCK = 1024


@dataclass(frozen=True)
class TracingPlan:
    """Tolerances for one tracing experiment.

    ``modulus`` is the least m with 2^-m below epsilon and m above the SFT
    window radius; ``delta`` is the step tolerance 2^-(m+1).
    """

    window_radius: int
    epsilon: Fraction
    modulus: int
    delta: Fraction

    @property
    def epsilon_exponent(self) -> int:
        """k(epsilon): a definite residual 2^-e refutes when 0 <= e <= k."""
        return threshold_exponent(self.epsilon)


def potp_modulus(window_radius: int, epsilon: Fraction) -> TracingPlan:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = max(window_radius, threshold_exponent(epsilon)) + 1
    return TracingPlan(window_radius, epsilon, m, Fraction(1, 2 ** (m + 1)))


def first_exponents(differ: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``exponents[i]`` for the first differing cell i of each comparison,
    whose cells lie on ``differ``'s last axis; -1, the truncation marker,
    for a comparison with none."""
    return np.where(differ.any(axis=-1), exponents[differ.argmax(axis=-1)], -1)


@dataclass(frozen=True, eq=False)
class PseudoOrbit:
    """A delta step field: one inner configuration per element of ball(radius).

    The field is one read-only array ``cells`` of the symbols 0 and 1, one
    row per element of ball(radius) in ball order and one column per cell
    of ball(inner_radius); row i is the entry at element i.  ``entries``
    builds the rows as configurations when a caller asks for them.
    """

    space: ShiftSpace
    sft: SftSpec
    radius: int
    inner_radius: int
    delta: Fraction
    cells: np.ndarray
    mode: str
    perturbed_cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        geo = self.space.geometry
        cells = read_only(np.array(self.cells, dtype=np.uint8))
        shape = (geo.ball_size(self.radius), geo.ball_size(self.inner_radius))
        if cells.shape != shape:
            raise ValueError(f"a field on ball({self.radius}) with entries on "
                             f"ball({self.inner_radius}) needs {shape[0]} rows "
                             f"of {shape[1]} cells, got shape {cells.shape}")
        object.__setattr__(self, "cells", cells)

    @property
    def perturbation_count(self) -> int:
        return len(self.perturbed_cells)

    @cached_property
    def entries(self) -> tuple[Configuration, ...]:
        return tuple(Configuration(self.space, self.inner_radius, tuple(row))
                     for row in self.cells.tolist())

    @cached_property
    def step_profile(self) -> tuple[bool, Fraction, int]:
        """(holds, worst definite face value, definite face count) of the
        step check, computed once per field.

        The face of element g and generator a compares a . x_g with x_{ag}
        on ball(r), r = inner_radius - 1.  One gather of the flat cells
        through the geometry's ``step_cells`` reads the moved source cells
        and the target cells of every face, and one comparison finds the
        faces that differ.  A face with no difference is a marker; the
        others are definite, and the worst one is the face whose first
        difference comes earliest: its exponent is that of the first cell
        where any face differs.
        """
        geo = self.space.geometry
        cells = self.cells.ravel()
        src, dst = geo.step_cells(self.radius, self.inner_radius)
        differ = cells[src] != cells[dst]
        definite = int(np.count_nonzero(differ.any(axis=1)))
        if not definite:
            return True, Fraction(0), 0
        worst = int(first_exponents(differ.any(axis=0),
                                    geo.layer_exponents(self.inner_radius - 1)))
        return (worst > threshold_exponent(self.delta), Fraction(1, 2 ** worst),
                definite)


def delta_profile(orbit: PseudoOrbit) -> tuple[bool, Fraction, int]:
    """Check the step condition over every generator and indexed element.

    Returns (holds, worst definite face value, definite comparison count).
    A shifted entry is compared with its target on their common ball, and
    a marker face never refutes.  The profile is the field's own cached
    one, so the check runs once per field however often it is asked.
    """
    return orbit.step_profile


def generate_pseudo_orbit(sft: SftSpec, radius: int, plan: TracingPlan,
                          rng: Random, mode: str = "perturbed_orbit",
                          inner_radius: Optional[int] = None,
                          flip_attempts: int = 16) -> PseudoOrbit:
    """Build a delta step field around a random admissible orbit segment.

    Modes: ``exact_orbit`` uses untouched orbit restrictions; ``perturbed_orbit``
    resamples every entry below the preserved layers; ``random_flip`` applies
    admissibility-preserving single-cell flips below the preserved layers.
    Deep layers are the only legal place to deviate, so when the inner radius
    does not exceed m+3 the perturbing modes degrade to the exact field.

    The base's cells come from ``fill_rows`` as one uint8 row.  The exact
    field, row g holding shift(g, base) on ball(inner radius), is one
    gather of them through ``translation_array(inner radius, radius +
    inner radius)``.  ``perturbed_orbit`` refills every row below its
    preserved head with one ``fill_rows`` batch, each row with its own
    ``Random(seed)``; ``random_flip`` flips cells row by row.  The perturbed
    cells are where the field and the exact field differ, in row and then
    cell order.
    """
    if mode not in ("exact_orbit", "perturbed_orbit", "random_flip"):
        raise ValueError(f"unknown pseudo-orbit mode {mode!r}")
    space = sft.space
    geo = space.geometry
    r_in = inner_radius if inner_radius is not None else plan.modulus + 3
    if r_in < plan.modulus + 2:
        raise ValueError("inner radius must be at least m+2 to keep the step "
                         "condition certifiable")
    base = fill_rows(space, sft, radius + r_in, np.empty((1, 0), np.uint8),
                     [rng])[0]
    seeds = [rng.getrandbits(64) for _ in range(geo.ball_size(radius))]
    kept = geo.ball_size(min(plan.modulus + 3, r_in))  # the preserved layers
    inner_size = geo.ball_size(r_in)
    exact = base[geo.translation_array(r_in, radius + r_in)]
    field = exact
    if mode == "perturbed_orbit" and kept < inner_size:
        field = fill_rows(space, sft, r_in, exact[:, :kept], list(map(Random, seeds)))
    elif mode == "random_flip" and kept < inner_size:
        # exact rows are admissible and so is every accepted flip, so only
        # the windows holding the flipped cell can reject a flip
        windows_at = space.window_plan(r_in, sft.window_radius, True)
        rows = []
        for gi, row in enumerate(exact.tolist()):
            sub = Random(seeds[gi])
            for _ in range(flip_attempts):
                pos = sub.randrange(kept, inner_size)
                old = row[pos]
                row[pos] = sub.randrange(2)
                if any(read(row) not in sft.allowed for read in windows_at[pos]):
                    row[pos] = old
            rows.append(bytes(row))
        field = np.frombuffer(b"".join(rows), np.uint8).reshape(exact.shape)
    perturbed = tuple(map(tuple, np.argwhere(field != exact).tolist()))
    orbit = PseudoOrbit(space, sft, radius, r_in, plan.delta, field, mode,
                        perturbed)
    holds, _, _ = delta_profile(orbit)
    if not holds:
        raise GenerationError("generated field violates its own step condition; "
                              "this indicates a radius bookkeeping bug")
    return orbit


@dataclass(frozen=True)
class TraceCheck:
    frame_index: int
    word_length: int
    comparison_radius: int
    dist: DyadicDistance
    passed: bool


@dataclass(frozen=True)
class TraceResult:
    trace: Configuration
    scan_radius: int
    checks: tuple[TraceCheck, ...]
    admissible: bool
    passed: bool

    @property
    def worst_definite(self) -> Fraction:
        faces = [c.dist.value for c in self.checks if not c.dist.marker]
        return max(faces) if faces else Fraction(0)


def construct_trace(orbit: PseudoOrbit) -> Configuration:
    """Read the tracing candidate off the field: cell g takes the value the
    entry at g assigns to the identity, the field's column 0."""
    return Configuration(orbit.space, orbit.radius,
                         tuple(orbit.cells[:, 0].tolist()))


def verify_trace(orbit: PseudoOrbit, trace: Configuration, plan: TracingPlan,
                 scan_radius: Optional[int] = None) -> TraceResult:
    """Check d(g . trace, entry(g)) against epsilon over a scan ball.

    The default scan radius is R - m, the largest ball on which the shifted
    trace still exposes agreement down to the tolerance scale.  Frame g
    compares g . trace with the entry at g on ball(c), c = min(R - |g|,
    inner radius); the frames of one c are consecutive in ball order, and
    one gather of the trace's cells through ``translation_array(c, R)``
    moves them all.  A frame with no differing cell is a marker; otherwise
    its distance is 2^-e, e the exponent ``first_exponents`` reads off the
    geometry's ``layer_exponents``, and it fails when e <= k(epsilon).
    """
    geo = orbit.space.geometry
    radius = orbit.radius
    if scan_radius is None:
        scan_radius = max(radius - plan.modulus, 0)
    if scan_radius > radius:
        raise ValueError("scan radius cannot exceed the field radius")
    if trace.radius != radius:
        raise ValueError("the trace must live on the field's ball")
    cells = np.array(trace.cells, dtype=np.uint8)
    k, exponents = plan.epsilon_exponent, geo.layer_exponents(orbit.inner_radius)
    lengths = list(map(geo.layer_of_position, range(geo.ball_size(scan_radius))))
    checks = []
    for c, frames in itertools.groupby(
            lengths, lambda length: min(radius - length, orbit.inner_radius)):
        lo = len(checks)
        hi = lo + len(list(frames))
        differ = (cells[geo.translation_array(c, radius)[lo:hi]]
                  != orbit.cells[lo:hi, :geo.ball_size(c)])
        for gi, e in enumerate(first_exponents(differ, exponents).tolist(), lo):
            d = DyadicDistance(c + 1, True) if e < 0 else DyadicDistance(e)
            checks.append(TraceCheck(gi, lengths[gi], c, d, not 0 <= e <= k))
    admissible = locally_admissible(trace, orbit.sft)
    return TraceResult(trace, scan_radius, tuple(checks), admissible,
                       all(c.passed for c in checks) and admissible)


@dataclass(frozen=True)
class UniquenessReport:
    applicable: bool
    expansivity_constant: Fraction
    scan_radius: int
    comparison_cap: int
    candidates_scanned: int
    multiplicity: int
    multiplicity_within_core: int
    passer_samples: tuple[str, ...]


def uniqueness_scan(orbit: PseudoOrbit, plan: TracingPlan, eta: Fraction,
                    scan_radius: Optional[int] = None,
                    comparison_cap: Optional[int] = None) -> UniquenessReport:
    """Count locally admissible configurations that survive the tracing test.

    Only meaningful when 2*epsilon is below the separation constant eta;
    otherwise the report is marked not applicable and nothing is scanned.
    Comparison radii are capped (default: at m) so the scan asks exactly the
    question the tolerance can answer; passers are counted both outright and
    by their restriction to ball(min(m, R)); the first ``PASSER_SAMPLES``
    passers are reported.

    Candidates are read in enumeration order, ``CANDIDATE_BLOCK`` at a time,
    as the rows of one uint8 array.  Frame g compares g . y with the entry
    at g on ball(c), c = min(R - |g|, inner radius, cap), as
    ``verify_trace`` does: one gather through ``translation_array(c, R)``
    per comparison radius, and the exponent of each frame's first
    differing position, refuting when 0 <= e <= k(epsilon); a frame with
    none is a marker, -1, and never refutes.
    """
    if not 2 * plan.epsilon < eta:
        return UniquenessReport(False, eta, 0, 0, 0, 0, 0, ())
    space = orbit.space
    geo = space.geometry
    radius = orbit.radius
    if scan_radius is None:
        scan_radius = max(radius - plan.modulus, 0)
    if scan_radius > radius:
        raise ValueError("scan radius cannot exceed the field radius")
    cap = comparison_cap if comparison_cap is not None else plan.modulus
    k, exponents = plan.epsilon_exponent, geo.layer_exponents(orbit.inner_radius)
    lengths = map(geo.layer_of_position, range(geo.ball_size(scan_radius)))
    radii = []  # (moves, targets) per comparison radius
    lo = 0
    for c, frames in itertools.groupby(
            lengths, lambda length: min(radius - length, orbit.inner_radius, cap)):
        hi = lo + len(list(frames))
        radii.append((geo.translation_array(c, radius)[lo:hi],
                      orbit.cells[lo:hi, :geo.ball_size(c)]))
        lo = hi
    core_size = geo.ball_size(min(plan.modulus, radius))
    candidates = enumerate_admissible(space, orbit.sft, radius)
    passers = []
    scanned = 0
    while block := list(itertools.islice(candidates, CANDIDATE_BLOCK)):
        scanned += len(block)
        ys = np.array(block, dtype=np.uint8)
        alive = np.ones(len(block), dtype=bool)
        for moves, targets in radii:
            e = first_exponents(ys[:, moves] != targets, exponents)
            alive &= ~((0 <= e) & (e <= k)).any(axis=1)
        passers.extend(ys[alive].tolist())
    cores = {tuple(y[:core_size]) for y in passers}
    samples = tuple(Configuration(space, radius, tuple(y)).serialize()
                    for y in passers[:PASSER_SAMPLES])
    return UniquenessReport(True, eta, scan_radius, cap, scanned,
                            len(passers), len(cores), samples)


@dataclass(frozen=True)
class WindowScanResult:
    """Outcome of a separation-window search.

    ``window`` is the least k such that agreement within eta over ball(k)
    forces distance below epsilon, or None if no k up to the limit works.
    """

    constant: Fraction
    epsilon: Fraction
    test_radius: int
    method: str
    window: Optional[int]
    scanned: int
    witness: str


def _window_table(space: ShiftSpace, eta: Fraction, epsilon: Fraction,
                  test_radius: int, frames_radius: int):
    """The cover table that every separation-window routine reads.

    Distances between two configurations on ball(test_radius), shifted or
    not, depend only on their disagreement set D, a bitmask over ball
    positions.  Ball order is sorted by layer, so the unshifted distance
    reaches epsilon exactly when ``fails & lowbit(D)`` is nonzero.  Shifted
    by a frame g, the pair reads x_{hg} for h in ball(test_radius - |g|), so
    it is farther apart than eta exactly when D meets ``mask_g``, the
    positions hg with 2^-max(|h|-1,0) > eta.

    Returns ``fails`` and (|g|, mask_g) for g in ball(frames_radius) in ball
    order, up to the deepest failing layer: callers only ask which frame
    first meets a D whose lowest position p fails, and for eta < 1 frame p
    does (h the identity) unless every frame is shallower than p anyway.
    The frames' layers never fall, so the first frame meeting D lies in the
    least layer k whose union U_k of the masks of layers up to k meets D;
    the pair scan reads those unions.
    """
    geo = space.geometry

    def deepest(holds) -> int:
        # values fall with the layer, so the layers that hold form a prefix
        return sum(1 for layer in range(test_radius + 1)
                   if holds(Fraction(1, 2 ** max(layer - 1, 0)))) - 1

    fail_layer = deepest(lambda v: v >= epsilon)
    reach = deepest(lambda v: v > eta)
    if fail_layer < 0:
        return 0, []
    frames = []
    for i, g in enumerate(geo.ball(min(frames_radius, fail_layer))):
        lg = geo.layer_of_position(i)
        r = min(test_radius - lg, reach)
        cells = geo.right_translation(r, g, test_radius) if r >= 0 else ()
        frames.append((lg, sum(1 << p for p in cells)))
    return (1 << geo.ball_size(fail_layer)) - 1, frames


def separation_window_flip_scan(space: ShiftSpace, eta: Fraction,
                                epsilon: Fraction, test_radius: int,
                                max_window: int) -> WindowScanResult:
    """Exact window search on an unconstrained space via single flips.

    On a full shift both the hypothesis and the failure of the conclusion
    decompose over disagreement positions, so a minimal counterexample pair
    differs in exactly one cell; scanning flip positions is then complete.
    """
    geo = space.geometry
    n = geo.ball_size(test_radius)
    fails, frames = _window_table(space, eta, epsilon, test_radius, max_window)
    needed = 0
    witness = "all flip positions covered"
    for p in range(fails.bit_length()):
        lp = geo.layer_of_position(p)
        cover = next((lg for lg, mask in frames if mask >> p & 1), None)
        if cover is None:
            return WindowScanResult(eta, epsilon, test_radius, "flip-scan",
                                    None, n, f"uncovered flip at layer {lp}")
        if cover > needed:
            needed = cover
            witness = f"binding flip at layer {lp}, covered at layer {cover}"
    return WindowScanResult(eta, epsilon, test_radius, "flip-scan", needed,
                            n, witness)


def separation_window_pair_scan(space: ShiftSpace, sft: SftSpec, eta: Fraction,
                                epsilon: Fraction, test_radius: int,
                                max_window: int) -> WindowScanResult:
    """Exact window search on an SFT: one sort of its admissible
    configurations per frame layer instead of a pass over every pair.

    By ``_window_table``, a pair counts when the lowest position p of its
    disagreement set D fails, and it is first separated at the least layer
    k whose union U_k of frame masks meets D.  So the window is the largest,
    over the failing p, of the least k at which no two configurations agree
    below p and on U_k yet differ at p; None when two still do at the
    deepest layer.  Sorted with the columns of U_k first and the others in
    ball order (``_layer_sort``), rows agreeing below p and on U_k are
    consecutive and ordered next by cell p, so two of them differ at p
    exactly when two neighbours differ first at p.  ``scanned`` counts the
    configurations, and the witness names the binding p, its window and the
    first pair, in enumeration order, that needs it (``_first_pair``).
    """
    geo = space.geometry
    rows = np.frombuffer(b"".join(map(bytes, enumerate_admissible(
        space, sft, test_radius))), np.uint8).reshape(-1, geo.ball_size(test_radius))
    fails, frames = _window_table(space, eta, epsilon, test_radius, max_window)
    masks = [0] * (frames[-1][0] + 1 if frames else 0)
    for lg, mask in frames:
        masks[lg] |= mask
    open_ = np.arange(fails.bit_length())  # failing p not yet separated
    needed, binding, sorts = 0, None, []
    for union in itertools.accumulate(masks, operator.or_):
        if not open_.size:
            break
        order, _, first = sort = _layer_sort(rows, union)
        mixed = np.isin(open_, order[first[first >= union.bit_count()]])
        if sorts and not mixed.all():  # the least p first separated here
            needed, binding = len(sorts), int(open_[~mixed][0])
        sorts.append(sort)
        open_ = open_[mixed]
    if open_.size:
        return WindowScanResult(
            eta, epsilon, test_radius, "pair-scan", None, len(rows),
            f"{_first_pair(rows, sorts[-1], int(open_[0]), geo)} and agrees "
            f"within eta through ball({max_window})")
    witness = "no separating pair needed more" if binding is None else (
        f"binding {_first_pair(rows, sorts[needed - 1], binding, geo)}, "
        f"separated at layer {needed}")
    return WindowScanResult(eta, epsilon, test_radius, "pair-scan", needed,
                            len(rows), witness)


def _layer_sort(rows: np.ndarray, union: int):
    """The rows sorted lexicographically with the columns of ``union``
    first and the others after them in ball order: that column order, the
    sorted row indices, and per neighbouring pair the index in the column
    order of their first differing column."""
    order = np.argsort([not union >> p & 1 for p in range(rows.shape[1])],
                       kind="stable")
    keyed = rows[:, order]
    index = np.lexsort(np.packbits(keyed, axis=1).T[::-1])
    keyed = keyed[index]
    return order, index, (keyed[1:] != keyed[:-1]).argmax(axis=1)


def _first_pair(rows: np.ndarray, sort, p: int, geo) -> str:
    """The first two rows, in row order, to meet in a group of rows that
    agree on every column before p in the ``_layer_sort`` order ``sort``
    and holds both values at p: the row completing the earliest such group
    and the group's first row.  A group is a run of sorted neighbours."""
    order, index, first = sort
    group = np.empty(len(rows), dtype=np.intp)
    group[index] = np.cumsum(np.concatenate(
        ([0], first < np.flatnonzero(order == p)[0])))
    firsts = np.full((len(rows), 2), len(rows))
    np.minimum.at(firsts, (group, rows[:, p]), np.arange(len(rows)))
    firsts.sort(axis=1)
    i, j = firsts[firsts[:, 1].argmin()].tolist()
    return f"pair {i},{j} differs first at position {p} (layer " \
           f"{geo.layer_of_position(p)})"


@dataclass(frozen=True)
class WindowCheckResult:
    """Outcome of verifying one proposed separation window exhaustively."""

    constant: Fraction
    epsilon: Fraction
    window: int
    test_radius: int
    subsets_checked: int
    ok: bool
    witness: str


def separation_window_exhaustive_check(space: ShiftSpace, eta: Fraction,
                                       epsilon: Fraction, window: int,
                                       test_radius: int) -> WindowCheckResult:
    """Verify a separation window against every configuration pair at once.

    Every distance between two configurations depends only on their
    disagreement set D, so checking every nonempty D over ball(test_radius)
    checks every pair on an unconstrained space.  D refutes the window when
    its distance reaches epsilon (its lowest position p fails) and no frame
    in ball(window) pushes it past eta (it misses U, the union of the frame
    masks).  Then {p} refutes too, so the refuting masks, read as numbers,
    are those whose lowest bit lies in ``fails & ~U``, and the least is
    1 << p for the lowest such p.  An in-order walk over the masks stops
    there after 2**p of them with witness [p], or passes all 2**n - 1; those
    counts are reported without the walk.
    """
    n = space.geometry.ball_size(test_radius)
    if n > 22:
        raise CapacityError(f"{n} positions means {2 ** n - 1} disagreement "
                            "subsets; refusing beyond 22")
    fails, frames = _window_table(space, eta, epsilon, test_radius, window)
    refuting = fails & ~reduce(operator.or_, (mask for _, mask in frames), 0)
    if refuting:
        p = (refuting & -refuting).bit_length() - 1
        return WindowCheckResult(eta, epsilon, window, test_radius, 2 ** p,
                                 False, "uncovered disagreement set at "
                                 f"positions {[p]}")
    return WindowCheckResult(eta, epsilon, window, test_radius, 2 ** n - 1,
                             True, "every epsilon-separated pair is pushed "
                             f"past eta inside ball({window})")


def synthesize_window_spec(sft: SftSpec, modulus: int, slack: int) -> SftSpec:
    """Re-present an SFT by windows on ball(modulus + 1).

    The allowed set is the slack approximation of the block set at radius
    m+1; everything else on that ball is declared forbidden.
    """
    allowed = frozenset(allowed_blocks(sft, modulus + 1, slack))
    return SftSpec(sft.space, modulus + 1, allowed)


def admissible_sets_agree(a: SftSpec, b: SftSpec, radius: int) -> bool:
    """Do two window presentations admit the same configurations on ball(radius)?"""
    if a.space != b.space:
        raise ValueError("window presentations live on different spaces")
    left = frozenset(enumerate_admissible(a.space, a, radius))
    right = frozenset(enumerate_admissible(b.space, b, radius))
    return left == right
