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

The trace comparison is written once, for any action ``act(g, x)`` and
metric ``distance(x, y)``: shift fields use ``shift`` and the common-ball
``distance``, quotient chains their levelwise action and ``level_distance``.
So is the generic step check, ``step_distances``, which quotient chains use;
a shift field checks its step faces on its cell array instead, one gather
per generator (``PseudoOrbit.step_profile``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapacityError, GenerationError
from .groups import read_only
from .shifts import (
    Configuration,
    DyadicDistance,
    SftSpec,
    ShiftSpace,
    allowed_blocks,
    distance,
    enumerate_admissible,
    locally_admissible,
    random_admissible,
    refutes,
    shift,
)

PASSER_SAMPLES = 8


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


def potp_modulus(window_radius: int, epsilon: Fraction) -> TracingPlan:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = window_radius + 1
    while Fraction(1, 2 ** m) >= epsilon:
        m += 1
    return TracingPlan(window_radius, epsilon, m, Fraction(1, 2 ** (m + 1)))


def step_distances(act: Callable, distance: Callable, geometry,
                   radius: int, entries: Sequence) -> tuple:
    """The step faces d(a . x_g, x_{ag}) of a field indexed by ball(radius).

    One face per element g and generator a with ag in the ball too, in ball
    order and then generator order, read off the geometry's step table;
    ``act`` takes the generator's index in the spec's generator tuple.
    """
    return tuple(distance(act(a, x), entries[j])
                 for x, steps in zip(entries, geometry.step_table(radius))
                 for a, j in steps)


def trace_distances(act: Callable, distance: Callable, ball: Sequence,
                    trace, entries: Sequence):
    """The residuals d(g . trace, x_g) over ``ball``, lazily and in ball
    order, so a scan can stop at the first refuting frame."""
    return (distance(act(g, trace), entries[i]) for i, g in enumerate(ball))


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

    def first_entries(self, count: int) -> tuple[Configuration, ...]:
        """The entries at the first ``count`` elements of the ball."""
        return tuple(Configuration(self.space, self.inner_radius, tuple(row))
                     for row in self.cells[:count].tolist())

    @cached_property
    def entries(self) -> tuple[Configuration, ...]:
        return self.first_entries(len(self.cells))

    @cached_property
    def step_profile(self) -> tuple[bool, Fraction, int]:
        """(holds, worst definite face value, definite face count) of the
        step check, computed once per field.

        The face of element g and generator a compares a . x_g with x_{ag}
        on ball(r), r = inner_radius - 1.  For each generator, one gather
        through ``right_translation(r, a, r + 1)`` moves every source row of
        its faces (from ``step_faces``) at once, and one comparison with the
        target rows finds each face's first differing cell.  A face with
        none is a marker; the others are definite, and the worst one is the
        face whose first difference comes earliest, in the shallowest layer
        k, with value 2^-max(k - 1, 0).
        """
        geo = self.space.geometry
        r = self.inner_radius - 1
        n = geo.ball_size(r)
        moves = geo.translation_array(r, r + 1)
        src, gen, dst = geo.step_faces(self.radius)
        firsts = []
        for a, g in enumerate(self.space.spec.generators):
            pick = gen == a
            moved = self.cells[src[pick][:, None], moves[geo.position(g, 1)]]
            differ = moved != self.cells[dst[pick], :n]
            firsts.append(differ.argmax(axis=1)[differ.any(axis=1)])
        first = np.concatenate(firsts)
        if not first.size:
            return True, Fraction(0), 0
        layer = geo.layer_of_position(int(first.min()))
        worst = Fraction(1, 2 ** max(layer - 1, 0))
        return worst < self.delta, worst, len(first)


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

    The exact field, row g holding shift(g, base) on ball(inner radius), is
    one gather of the base's cells through
    ``translation_array(inner radius, radius + inner radius)``; a perturbing
    mode writes each entry's fill or flips back into its row, and the
    perturbed cells are where the field and the exact field differ, in row
    and then cell order.
    """
    if mode not in ("exact_orbit", "perturbed_orbit", "random_flip"):
        raise ValueError(f"unknown pseudo-orbit mode {mode!r}")
    space = sft.space
    geo = space.geometry
    r_in = inner_radius if inner_radius is not None else plan.modulus + 3
    if r_in < plan.modulus + 2:
        raise ValueError("inner radius must be at least m+2 to keep the step "
                         "condition certifiable")
    base = random_admissible(space, sft, radius + r_in, rng)
    seeds = [rng.getrandbits(64) for _ in range(geo.ball_size(radius))]
    kept = geo.ball_size(min(plan.modulus + 3, r_in))  # the preserved layers
    inner_size = geo.ball_size(r_in)
    exact = np.frombuffer(bytes(base.cells), np.uint8)[
        geo.translation_array(r_in, radius + r_in)]
    rows = None
    if mode == "perturbed_orbit" and kept < inner_size:
        rows = [bytes(random_admissible(space, sft, r_in, Random(seeds[gi]),
                                        prefix=tuple(head)).cells)
                for gi, head in enumerate(exact[:, :kept].tolist())]
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
    field = exact if rows is None else np.frombuffer(
        b"".join(rows), np.uint8).reshape(exact.shape)
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
    trace still exposes agreement down to the tolerance scale.
    """
    geo = orbit.space.geometry
    if scan_radius is None:
        scan_radius = max(orbit.radius - plan.modulus, 0)
    if scan_radius > orbit.radius:
        raise ValueError("scan radius cannot exceed the field radius")
    ball = geo.ball(scan_radius)
    faces = trace_distances(shift, distance, ball, trace,
                            orbit.first_entries(len(ball)))
    checks = []
    for gi, d in enumerate(faces):
        length = geo.layer_of_position(gi)
        c = min(orbit.radius - length, orbit.inner_radius)
        checks.append(TraceCheck(gi, length, c, d, not refutes(d, plan.epsilon)))
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
    """
    if not 2 * plan.epsilon < eta:
        return UniquenessReport(False, eta, 0, 0, 0, 0, 0, ())
    space = orbit.space
    geo = space.geometry
    if scan_radius is None:
        scan_radius = max(orbit.radius - plan.modulus, 0)
    if scan_radius > orbit.radius:
        raise ValueError("scan radius cannot exceed the field radius")
    cap = comparison_cap if comparison_cap is not None else plan.modulus
    ball = geo.ball(scan_radius)
    # on the common ball, capping the targets caps every comparison
    targets = [x.restrict(min(orbit.inner_radius, cap)) for x in orbit.entries]
    core_size = geo.ball_size(min(plan.modulus, orbit.radius))
    passers = []
    scanned = 0
    for cells in enumerate_admissible(space, orbit.sft, orbit.radius):
        scanned += 1
        y = Configuration(space, orbit.radius, cells)
        if not any(refutes(d, plan.epsilon)
                   for d in trace_distances(shift, distance, ball, y, targets)):
            passers.append(y)
    cores = {y.cells[:core_size] for y in passers}
    samples = tuple(y.serialize() for y in passers[:PASSER_SAMPLES])
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


def _separating_layer(frames: list[tuple[int, int]],
                      disagree: int) -> Optional[int]:
    return next((lg for lg, mask in frames if mask & disagree), None)


def _disagreement(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    return sum(1 << i for i, (u, v) in enumerate(zip(x, y)) if u != v)


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
        cover = _separating_layer(frames, 1 << p)
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
    """Literal all-pairs window search; exact but exponential in the ball size."""
    configs = list(enumerate_admissible(space, sft, test_radius))
    fails, frames = _window_table(space, eta, epsilon, test_radius, max_window)
    needed = 0
    pairs = 0
    witness = "no separating pair needed more"
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            pairs += 1
            d = _disagreement(configs[i], configs[j])
            if not fails & d & -d:
                continue
            first = _separating_layer(frames, d)
            if first is None:
                return WindowScanResult(eta, epsilon, test_radius, "pair-scan",
                                        None, pairs,
                                        f"pair {i},{j} agrees within eta "
                                        f"through ball({max_window})")
            if first > needed:
                needed = first
                witness = f"binding pair {i},{j} separated at layer {first}"
    return WindowScanResult(eta, epsilon, test_radius, "pair-scan", needed,
                            pairs, witness)


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
    covered = 0
    for _, mask in frames:
        covered |= mask
    refuting = fails & ~covered
    if refuting:
        p = (refuting & -refuting).bit_length() - 1
        return WindowCheckResult(eta, epsilon, window, test_radius, 2 ** p,
                                 False, "uncovered disagreement set at "
                                 f"positions {[p]}")
    return WindowCheckResult(eta, epsilon, window, test_radius, 2 ** n - 1,
                             True, "every epsilon-separated pair is pushed "
                             f"past eta inside ball({window})")


def separation_window_sampled(space: ShiftSpace, sft: SftSpec, eta: Fraction,
                              epsilon: Fraction, test_radius: int,
                              max_window: int, samples: int,
                              rng: Random) -> WindowScanResult:
    """Randomized evidence for constrained spaces: samples admissible pairs.

    The result is a lower bound on the window, never a proof.
    """
    fails, frames = _window_table(space, eta, epsilon, test_radius, max_window)
    needed = 0
    scanned = 0
    witness = "no sampled pair forced a larger window"
    for _ in range(samples):
        x = random_admissible(space, sft, test_radius, rng)
        y = random_admissible(space, sft, test_radius, rng)
        d = _disagreement(x.cells, y.cells)
        if not fails & d & -d:
            continue
        scanned += 1
        first = _separating_layer(frames, d)
        if first is None:
            return WindowScanResult(eta, epsilon, test_radius, "sampled-pairs",
                                    None, scanned, "sampled pair stayed within "
                                    f"eta through ball({max_window})")
        if first > needed:
            needed = first
            witness = f"sampled pair separated at layer {first}"
    return WindowScanResult(eta, epsilon, test_radius, "sampled-pairs", needed,
                            scanned, witness)


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
