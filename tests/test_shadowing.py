"""Pseudo-orbit fields, tracing, uniqueness, separation windows."""

import itertools
from dataclasses import replace
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from shadowlab import shadowing
from shadowlab.groups import (
    GroupGeometry,
    free_rank2_spec,
    heisenberg_spec,
    integer_line_spec,
    integer_plane_spec,
)
from shadowlab.shifts import (
    Configuration,
    ShiftSpace,
    distance,
    enumerate_admissible,
    even_window_sft,
    full_shift,
    golden_mean_sft,
    hard_square_sft,
    locally_admissible,
    one_forbidden_window_sft,
    random_admissible,
    refutes,
    shift,
)
from shadowlab.shadowing import (
    PseudoOrbit,
    TracingPlan,
    WindowCheckResult,
    WindowScanResult,
    admissible_sets_agree,
    construct_trace,
    delta_profile,
    generate_pseudo_orbit,
    potp_modulus,
    separation_window_exhaustive_check,
    separation_window_flip_scan,
    separation_window_pair_scan,
    synthesize_window_spec,
    trace_distances,
    uniqueness_scan,
    verify_trace,
)


@pytest.fixture(scope="module")
def line_space():
    return ShiftSpace(GroupGeometry(integer_line_spec()))


@pytest.fixture(scope="module")
def golden(line_space):
    return golden_mean_sft(line_space)


def test_modulus_recipe_pins(line_space):
    plan = potp_modulus(1, Fraction(1, 8))
    assert (plan.modulus, plan.delta) == (4, Fraction(1, 32))
    plan = potp_modulus(1, Fraction(1, 4))
    assert (plan.modulus, plan.delta) == (3, Fraction(1, 16))
    plan = potp_modulus(0, Fraction(1, 2))
    assert (plan.modulus, plan.delta) == (2, Fraction(1, 8))


def test_modulus_recipe_properties():
    for window in range(4):
        for j in range(1, 8):
            plan = potp_modulus(window, Fraction(1, 2 ** j))
            assert plan.modulus > window
            assert Fraction(1, 2 ** plan.modulus) < plan.epsilon
            assert 2 * plan.delta < plan.epsilon


def test_exact_orbit_fields_have_no_perturbation(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    orb = generate_pseudo_orbit(golden, 8, plan, Random(0), mode="exact_orbit")
    assert orb.perturbation_count == 0
    holds, worst, definite = delta_profile(orb)
    # slices of one orbit agree wherever both are defined
    assert holds and definite == 0 and worst == 0
    res = verify_trace(orb, construct_trace(orb), plan)
    assert res.passed and res.admissible
    assert res.worst_definite == 0


def test_perturbed_fields_keep_the_step_condition(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    orb = generate_pseudo_orbit(golden, 8, plan, Random(1), inner_radius=8)
    assert orb.perturbation_count > 0
    holds, worst, _ = delta_profile(orb)
    assert holds
    assert worst <= Fraction(1, 2 ** (plan.modulus + 2))
    for entry in orb.entries:
        assert locally_admissible(entry, golden)
    res = verify_trace(orb, construct_trace(orb), plan)
    assert res.passed and res.admissible


def test_flip_mode_preserves_admissibility(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    orb = generate_pseudo_orbit(golden, 6, plan, Random(2), mode="random_flip",
                                inner_radius=8, flip_attempts=32)
    holds, _, _ = delta_profile(orb)
    assert holds
    for entry in orb.entries:
        assert locally_admissible(entry, golden)


def test_small_inner_radius_is_rejected(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    with pytest.raises(ValueError):
        generate_pseudo_orbit(golden, 6, plan, Random(0), inner_radius=5)
    with pytest.raises(ValueError):
        generate_pseudo_orbit(golden, 6, plan, Random(0), mode="sideways")


def test_generated_field_runs_its_step_check_once(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    orb = generate_pseudo_orbit(golden, 6, plan, Random(4), inner_radius=8)
    # the self-check inside generation left the profile on the field
    assert "step_profile" in vars(orb)
    first = delta_profile(orb)
    assert delta_profile(orb) is first
    fresh = PseudoOrbit(orb.space, orb.sft, orb.radius, orb.inner_radius,
                        orb.delta, orb.cells.copy(), orb.mode,
                        orb.perturbed_cells)
    assert "step_profile" not in vars(fresh)
    assert delta_profile(fresh) == first and delta_profile(fresh) is not first


def test_corrupted_field_is_caught(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    orb = generate_pseudo_orbit(golden, 6, plan, Random(3), mode="exact_orbit")
    cells = orb.cells.copy()
    victim = 1  # a layer-one entry; flip its center cell
    cells[victim, 0] ^= 1
    broken = PseudoOrbit(orb.space, orb.sft, orb.radius, orb.inner_radius,
                         orb.delta, cells, orb.mode, ())
    holds, _, _ = delta_profile(broken)
    assert not holds
    res = verify_trace(broken, construct_trace(broken), plan)
    assert not res.passed


def test_uniqueness_gate_requires_margin(line_space):
    fs = full_shift(line_space)
    plan = potp_modulus(0, Fraction(1, 4))
    orb = generate_pseudo_orbit(fs, 4, plan, Random(0), mode="exact_orbit")
    rep = uniqueness_scan(orb, plan, Fraction(1, 2))
    assert not rep.applicable  # 2 eps equals eta, no strict margin


def test_uniqueness_scan_finds_exactly_one(line_space):
    fs = full_shift(line_space)
    plan = TracingPlan(0, Fraction(1, 8), 2, Fraction(1, 8))
    orb = generate_pseudo_orbit(fs, 4, plan, Random(5), inner_radius=5)
    rep = uniqueness_scan(orb, plan, Fraction(1, 2))
    assert rep.applicable
    assert rep.candidates_scanned == 512
    assert rep.multiplicity == 1
    assert rep.multiplicity_within_core == 1


def test_uniqueness_scan_refuses_a_scan_beyond_the_field(line_space):
    fs = full_shift(line_space)
    plan = TracingPlan(0, Fraction(1, 8), 2, Fraction(1, 8))
    orb = generate_pseudo_orbit(fs, 4, plan, Random(5), inner_radius=5)
    assert uniqueness_scan(orb, plan, Fraction(1, 2), scan_radius=4).multiplicity == 1
    with pytest.raises(ValueError, match="scan radius cannot exceed the field radius"):
        uniqueness_scan(orb, plan, Fraction(1, 2), scan_radius=5)


_FIELD_CASES = {
    # group: (SFT, field radius, plan, inner radius)
    "line": (golden_mean_sft, 4, potp_modulus(1, Fraction(1, 4)), 7),
    "plane": (hard_square_sft, 2, potp_modulus(1, Fraction(1, 4)), 7),
    "free": (one_forbidden_window_sft, 1,
             TracingPlan(1, Fraction(1, 4), 2, Fraction(1, 8)), 6),
    "heisenberg": (full_shift, 1, potp_modulus(0, Fraction(1, 2)), 6),
}


@pytest.mark.parametrize("group", sorted(_FIELD_CASES))
def test_generated_entries_are_restricted_shifts_of_the_base(group):
    build, radius, plan, inner = _FIELD_CASES[group]
    space = ShiftSpace(GroupGeometry(_GROUP_SPECS[group]()))
    sft = build(space)
    geo = space.geometry
    kept = geo.ball_size(min(plan.modulus + 3, inner))
    assert kept < geo.ball_size(inner)  # the perturbed mode touches a layer
    for seed in range(3):
        # the base is the field's first draw
        base = random_admissible(space, sft, radius + inner, Random(seed))
        exact = [shift(g, base).restrict(inner) for g in geo.ball(radius)]
        orb = generate_pseudo_orbit(sft, radius, plan, Random(seed),
                                    mode="exact_orbit", inner_radius=inner)
        assert list(orb.entries) == exact
        orb = generate_pseudo_orbit(sft, radius, plan, Random(seed),
                                    inner_radius=inner)
        assert [x.cells[:kept] for x in orb.entries] == [x.cells[:kept] for x in exact]
        assert list(orb.perturbed_cells) == [
            (gi, p) for gi, (x, y) in enumerate(zip(orb.entries, exact))
            for p in range(kept, len(x.cells)) if x.cells[p] != y.cells[p]]


def test_window_scans_agree_at_small_radius(line_space):
    eta, eps = Fraction(1, 2), Fraction(1, 4)
    flip = separation_window_flip_scan(line_space, eta, eps, 4, 4)
    pairs = separation_window_pair_scan(line_space, full_shift(line_space),
                                        eta, eps, 4, 4)
    assert flip.window == pairs.window == 2
    # on the full shift the flip scan is complete, so the two must agree
    for radius in range(5):
        for eta in _ETAS:
            for eps in _EPSILONS:
                for w in range(radius + 2):
                    assert separation_window_pair_scan(
                        line_space, full_shift(line_space), eta, eps, radius,
                        w).window == separation_window_flip_scan(
                            line_space, eta, eps, radius, w).window


def test_exhaustive_window_check_confirms_and_refutes(line_space):
    eta, eps = Fraction(1, 2), Fraction(1, 8)
    scan = separation_window_flip_scan(line_space, eta, eps, 5, 5)
    assert scan.window == 3
    good = separation_window_exhaustive_check(line_space, eta, eps, 3, 5)
    assert good.ok
    assert good.subsets_checked == 2 ** 11 - 1
    bad = separation_window_exhaustive_check(line_space, eta, eps, 2, 5)
    assert not bad.ok and "uncovered" in bad.witness


def test_synthesized_windows_present_the_same_shift(line_space, golden):
    synth = synthesize_window_spec(golden, 2, 2)
    assert synth.window_radius == 3
    assert admissible_sets_agree(golden, synth, 6)


def test_free_group_field_traces(line_space):
    space = ShiftSpace(GroupGeometry(free_rank2_spec()))
    sft = one_forbidden_window_sft(space)
    plan = potp_modulus(1, Fraction(1, 4))
    orb = generate_pseudo_orbit(sft, 3, plan, Random(4), inner_radius=5)
    res = verify_trace(orb, construct_trace(orb), plan)
    assert res.passed and res.admissible


def test_trace_checks_record_comparison_radii(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    orb = generate_pseudo_orbit(golden, 8, plan, Random(6), inner_radius=8)
    res = verify_trace(orb, construct_trace(orb), plan)
    assert res.scan_radius == 4
    for chk in res.checks:
        assert chk.comparison_radius == min(8 - chk.word_length,
                                            orb.inner_radius)
        assert chk.passed


def _ref_step_profile(orb):
    """The step check as written out per face: shifted entry against its
    target restricted to the shifted radius."""
    geo = orb.space.geometry
    worst, definite, holds = Fraction(0), 0, True
    for gi, g in enumerate(geo.ball(orb.radius)):
        for a in orb.space.spec.generators:
            if geo.word_length(a * g, orb.radius) is None:
                continue
            stepped = shift(a, orb.entries[gi])
            target = orb.entries[geo.position(a * g, orb.radius)]
            d = distance(stepped, target.restrict(stepped.radius))
            if not d.marker:
                definite += 1
                worst = max(worst, d.value)
            holds = holds and not refutes(d, orb.delta)
    return holds, worst, definite


def _ref_passers(orb, plan, scan_radius, cap):
    """Uniqueness passers with every frame restricted by hand to
    c = min(R - |g|, inner radius, cap)."""
    geo = orb.space.geometry
    out = []
    for cells in enumerate_admissible(orb.space, orb.sft, orb.radius):
        y = Configuration(orb.space, orb.radius, cells)
        ok = True
        for gi, g in enumerate(geo.ball(scan_radius)):
            c = min(orb.radius - geo.word_length(g, scan_radius),
                    orb.inner_radius, cap)
            d = distance(shift(g, y).restrict(c), orb.entries[gi].restrict(c))
            if refutes(d, plan.epsilon):
                ok = False
                break
        if ok:
            out.append(y.serialize())
    return out


@pytest.mark.parametrize("mode", ["exact_orbit", "perturbed_orbit",
                                  "random_flip"])
def test_common_ball_comparisons_match_the_restricted_definitions(line_space,
                                                                  mode,
                                                                  monkeypatch):
    plan = TracingPlan(0, Fraction(1, 8), 2, Fraction(1, 8))
    fs = full_shift(line_space)
    geo = line_space.geometry
    # inner radius 6 below the field radius 7, so both bound some frame
    orb = generate_pseudo_orbit(fs, 7, plan, Random(12), mode=mode,
                                inner_radius=6, flip_attempts=24)
    assert delta_profile(orb) == _ref_step_profile(orb)
    wrong = Configuration(line_space, 7, (0,) * 15)
    for trace in (construct_trace(orb), wrong):
        res = verify_trace(orb, trace, plan, scan_radius=7)
        for gi, chk in enumerate(res.checks):
            g = geo.ball(7)[gi]
            c = min(7 - geo.word_length(g, 7), 6)
            assert chk.comparison_radius == c
            assert chk.dist == distance(shift(g, trace).restrict(c),
                                        orb.entries[gi].restrict(c))
    orb = generate_pseudo_orbit(fs, 4, plan, Random(12), mode=mode,
                                inner_radius=7, flip_attempts=24)
    assert delta_profile(orb) == _ref_step_profile(orb)
    monkeypatch.setattr(shadowing, "PASSER_SAMPLES", 600)
    for scan_radius in (0, 2, 4):
        for cap in (0, 1, 2, 3):
            rep = uniqueness_scan(orb, plan, Fraction(1, 2), scan_radius,
                                  comparison_cap=cap)
            assert list(rep.passer_samples) == _ref_passers(orb, plan,
                                                            scan_radius, cap)


def _ref_report(orb, plan, eta, scan_radius, cap):
    """The uniqueness report built from ``_ref_passers``: every candidate
    counted, passers and their cores on ball(min(m, R)) counted, and the
    first ``PASSER_SAMPLES`` passers sampled."""
    passers = _ref_passers(orb, plan, scan_radius, cap)
    core = orb.space.geometry.ball_size(min(plan.modulus, orb.radius))
    scanned = sum(1 for _ in enumerate_admissible(orb.space, orb.sft, orb.radius))
    return shadowing.UniquenessReport(
        True, eta, scan_radius, cap, scanned, len(passers),
        len({p.split(";")[1][:core] for p in passers}),
        tuple(passers[:shadowing.PASSER_SAMPLES]))


_UNIQUENESS_CASES = {
    # group: (SFT, field radius, inner radius, plans)
    "plane": (hard_square_sft, 2, 5,
              (potp_modulus(1, Fraction(1, 4)),
               TracingPlan(1, Fraction(1, 2), 1, Fraction(1, 4)))),
    "free": (one_forbidden_window_sft, 1, 5,
             (potp_modulus(1, Fraction(1, 4)),
              TracingPlan(1, Fraction(1, 2), 0, Fraction(1, 2)))),
}


@pytest.mark.parametrize("group", sorted(_UNIQUENESS_CASES))
def test_uniqueness_scan_matches_the_reference_on_small_balls(group,
                                                              monkeypatch):
    """Hard-square balls on the plane and one-forbidden-window balls on F2,
    in candidate blocks of several sizes: each report equals the
    frame-by-frame reference, with every passer sampled and with the
    default samples."""
    build, radius, inner, plans = _UNIQUENESS_CASES[group]
    space = ShiftSpace(GroupGeometry(_GROUP_SPECS[group]()))
    sft = build(space)
    multiplicities = set()
    for plan in plans:
        eta = 2 * plan.epsilon + Fraction(1, 8)
        for mode in ("exact_orbit", "perturbed_orbit", "random_flip"):
            orb = generate_pseudo_orbit(sft, radius, plan, Random(4), mode=mode,
                                        inner_radius=inner)
            for scan_radius in range(radius + 1):
                for cap in (0, 1, 2, 3):
                    monkeypatch.setattr(shadowing, "PASSER_SAMPLES", 10 ** 6)
                    ref = _ref_report(orb, plan, eta, scan_radius, cap)
                    for block in (1024, 50, 7):
                        monkeypatch.setattr(shadowing, "CANDIDATE_BLOCK", block)
                        assert uniqueness_scan(orb, plan, eta, scan_radius,
                                               cap) == ref
                    monkeypatch.setattr(shadowing, "PASSER_SAMPLES", 8)
                    assert uniqueness_scan(orb, plan, eta, scan_radius, cap) \
                        == replace(ref, passer_samples=ref.passer_samples[:8])
                    multiplicities.add(ref.multiplicity)
                    assert ref.multiplicity_within_core <= ref.multiplicity
    assert max(multiplicities) > 1  # some scans leave several passers


def test_uniqueness_scan_spans_several_candidate_blocks(line_space):
    """8,192 full-shift candidates on the line, eight default blocks, with
    comparison radii up to 5, where the deep layers no longer refute."""
    plan = potp_modulus(0, Fraction(1, 4))
    orb = generate_pseudo_orbit(full_shift(line_space), 6, plan, Random(8),
                                mode="random_flip", inner_radius=5)
    assert 8192 > 4 * shadowing.CANDIDATE_BLOCK
    for scan_radius, cap in ((0, 5), (1, 4), (2, 5), (6, 2)):
        rep = uniqueness_scan(orb, plan, Fraction(1), scan_radius, cap)
        assert rep.candidates_scanned == 8192
        assert rep == _ref_report(orb, plan, Fraction(1), scan_radius, cap)


# Reference window routines: the literal definitions, read straight off
# shifted distances and the full disagreement-set enumeration.  The library
# reads one cover table instead; these oracles pin it to the definitions.

def _ref_first_violation(x, y, eta, max_window):
    """Layer of the first frame whose shifted pair is farther apart than eta."""
    geo = x.space.geometry
    limit = min(max_window, x.radius)
    for g in geo.ball(limit):
        d = distance(shift(g, x), shift(g, y))
        if (not d.marker) and d.value > eta:
            return geo.word_length(g, limit)
    return None


def _ref_flip_scan(space, eta, epsilon, test_radius, max_window):
    geo = space.geometry
    n = geo.ball_size(test_radius)
    zero = Configuration(space, test_radius, (0,) * n)
    needed = 0
    witness = "all flip positions covered"
    for p in range(n):
        flip = Configuration(space, test_radius,
                             tuple(int(i == p) for i in range(n)))
        if not refutes(distance(zero, flip), epsilon):
            continue
        layer = geo.layer_of_position(p)
        cover = _ref_first_violation(zero, flip, eta, max_window)
        if cover is None:
            return WindowScanResult(eta, epsilon, test_radius, "flip-scan",
                                    None, n, f"uncovered flip at layer {layer}")
        if cover > needed:
            needed = cover
            witness = f"binding flip at layer {layer}, covered at layer {cover}"
    return WindowScanResult(eta, epsilon, test_radius, "flip-scan", needed, n,
                            witness)


def _ref_pair_scan(space, sft, eta, epsilon, test_radius, max_window):
    configs = [Configuration(space, test_radius, cells)
               for cells in enumerate_admissible(space, sft, test_radius)]
    needed = 0
    pairs = 0
    witness = "no separating pair needed more"
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            pairs += 1
            if not refutes(distance(configs[i], configs[j]), epsilon):
                continue
            first = _ref_first_violation(configs[i], configs[j], eta,
                                         max_window)
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


def _ref_exhaustive(space, eta, epsilon, window, test_radius):
    """Walk every nonempty disagreement set in increasing mask order."""
    geo = space.geometry
    n = geo.ball_size(test_radius)
    layers = [geo.layer_of_position(i) for i in range(n)]
    positions = list(geo.ball(test_radius))
    # per frame and position: the distance a lone disagreement there shows
    # after the shift, or None when the shift drops the position
    tables = []
    for g in geo.ball(window):
        lg = geo.word_length(g, window)
        row = []
        for p in positions:
            lm = geo.word_length(p * ~g, test_radius + window)
            if lm is None or lm > test_radius - lg:
                row.append(None)
            else:
                row.append(Fraction(1, 2 ** max(lm - 1, 0)))
        tables.append(row)
    fails = [Fraction(1, 2 ** max(layer - 1, 0)) >= epsilon for layer in layers]
    checked = 0
    for mask in range(1, 1 << n):
        checked += 1
        first = (mask & -mask).bit_length() - 1
        if not fails[first]:
            continue
        bits = [i for i in range(n) if mask >> i & 1]
        if not any(row[i] is not None and row[i] > eta
                   for row in tables for i in bits):
            return WindowCheckResult(eta, epsilon, window, test_radius, checked,
                                     False, "uncovered disagreement set at "
                                     f"positions {bits}")
    return WindowCheckResult(eta, epsilon, window, test_radius, checked, True,
                             "every epsilon-separated pair is pushed past eta "
                             f"inside ball({window})")


_GROUP_SPECS = {
    "line": integer_line_spec,
    "plane": integer_plane_spec,
    "free": free_rank2_spec,
    "heisenberg": heisenberg_spec,
}
_ETAS = [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 3),
         Fraction(1, 4), Fraction(1, 8)]
_EPSILONS = [Fraction(1, 2 ** k) for k in range(5)]


def _small_radii(space, cells):
    """Every radius whose ball has at most ``cells`` positions."""
    radius = 0
    while space.geometry.ball_size(radius) <= cells:
        yield radius
        radius += 1


@pytest.mark.parametrize("group", sorted(_GROUP_SPECS))
def test_flip_scan_and_exhaustive_check_match_the_definitions(group):
    space = ShiftSpace(GroupGeometry(_GROUP_SPECS[group]()))
    refuted = 0
    for radius in _small_radii(space, 16):
        # a 2^n walk per case: the largest balls get a corner of the grid
        full = space.geometry.ball_size(radius) <= 7
        etas = _ETAS if full else _ETAS[1::3]
        eps = _EPSILONS if full else _EPSILONS[1::2]
        for eta in etas:
            for epsilon in eps:
                for w in range(radius + 2):
                    assert (separation_window_flip_scan(space, eta, epsilon,
                                                        radius, w)
                            == _ref_flip_scan(space, eta, epsilon, radius, w))
                    check = separation_window_exhaustive_check(
                        space, eta, epsilon, w, radius)
                    assert check == _ref_exhaustive(space, eta, epsilon, w,
                                                    radius)
                    refuted += not check.ok
    assert refuted  # the 2**p count and its witness were exercised


def _window_sfts(space, group):
    extra = {"line": [golden_mean_sft, even_window_sft],
             "plane": [hard_square_sft]}.get(group, [one_forbidden_window_sft])
    return [full_shift(space)] + [build(space) for build in extra]


@pytest.mark.parametrize("group", sorted(_GROUP_SPECS))
def test_pair_scan_matches_the_definitions(group):
    """The window, and so pass or fail and the None case, is the literal
    all-pairs oracle's on every ball it can afford; ``scanned`` and the
    witness are checked against the pair definitions below."""
    space = ShiftSpace(GroupGeometry(_GROUP_SPECS[group]()))
    windows = set()
    for sft in _window_sfts(space, group):
        for radius in _small_radii(space, 7):
            # the oracle is quadratic in 2^n: 7-cell balls get a corner
            full = space.geometry.ball_size(radius) <= 5
            for eta in _ETAS if full else _ETAS[2:4]:
                for epsilon in _EPSILONS[::2] if full else _EPSILONS[2:3]:
                    for w in range(radius + 2):
                        scan = separation_window_pair_scan(space, sft, eta,
                                                           epsilon, radius, w)
                        assert scan.window == _ref_pair_scan(
                            space, sft, eta, epsilon, radius, w).window
                        windows.add(scan.window)
    assert {0, None} <= windows  # both outcomes, pass and fail, occur


def _ref_witness(space, sft, eta, epsilon, test_radius, max_window):
    """The pair scan's ``scanned`` and witness, read off the pairs.

    Over the epsilon-separated pairs (i, j), i < j in enumeration order,
    with p their first differing position and k their first separating
    layer: a None k makes the window None, and otherwise it is the largest
    k.  The witness position is the least p of a pair needing that window,
    and its pair the first, in enumeration order, to complete one: the
    least j with such a partner, and its least partner i.
    """
    configs = [Configuration(space, test_radius, cells)
               for cells in enumerate_admissible(space, sft, test_radius)]
    counted = {}
    for j, y in enumerate(configs):
        for i, x in enumerate(configs[:j]):
            if refutes(distance(x, y), epsilon):
                p = next(q for q, (u, v) in enumerate(zip(x.cells, y.cells))
                         if u != v)
                counted[i, j] = (p, _ref_first_violation(x, y, eta,
                                                         max_window))
    layers = [k for _, k in counted.values()]
    window = None if None in layers else max(layers, default=0)
    if window == 0:
        return len(configs), "no separating pair needed more"
    p = min(q for q, k in counted.values() if k == window)
    i, j = min(((i, j) for (i, j), (q, k) in counted.items()
                if (q, k) == (p, window)), key=lambda pair: pair[::-1])
    at = f"pair {i},{j} differs first at position {p} " \
         f"(layer {space.geometry.layer_of_position(p)})"
    if window is None:
        return len(configs), (f"{at} and agrees within eta through "
                              f"ball({max_window})")
    return len(configs), f"binding {at}, separated at layer {window}"


@pytest.mark.parametrize("group", sorted(_GROUP_SPECS))
def test_pair_scan_witness_and_count_match_the_pairs(group):
    space = ShiftSpace(GroupGeometry(_GROUP_SPECS[group]()))
    sfts = _window_sfts(space, group)
    cases = [(sft, radius) for sft in sfts for radius in _small_radii(space, 5)]
    if group == "line":  # windows above 1 need ball(3), affordable when constrained
        cases += [(sft, 3) for sft in sfts[1:]]
    windows = set()
    for sft, radius in cases:
        for eta in _ETAS[::2]:
            for epsilon in _EPSILONS[1::2]:
                for w in range(radius + 2):
                    scan = separation_window_pair_scan(space, sft, eta, epsilon,
                                                       radius, w)
                    assert (scan.scanned, scan.witness) == _ref_witness(
                        space, sft, eta, epsilon, radius, w)
                    windows.add(scan.window)
    assert {0, None} <= windows
    assert group != "line" or {1, 2} <= windows


def test_hard_square_window_on_the_plane_is_one():
    """Two hard-square configurations on the plane's ball(3) first differ
    in layer 3, at distance 2^-2 = epsilon, and only a layer-1 frame
    pushes them past eta = 1/3.  So the window is 1; 200 random pairs
    had reported 0."""
    space = ShiftSpace(GroupGeometry(integer_plane_spec()))
    sft = hard_square_sft(space)
    eta, epsilon = Fraction(1, 3), Fraction(1, 4)
    scan = separation_window_pair_scan(space, sft, eta, epsilon, 3, 4)
    assert (scan.window, scan.scanned) == (1, 139_344)
    assert scan.witness == ("binding pair 3076,3077 differs first at position "
                            "13 (layer 3), separated at layer 1")
    configs = list(itertools.islice(enumerate_admissible(space, sft, 3), 3078))
    x, y = (Configuration(space, 3, configs[i]) for i in (3076, 3077))
    assert locally_admissible(x, sft) and locally_admissible(y, sft)
    assert refutes(distance(x, y), epsilon)
    assert _ref_first_violation(x, y, eta, 4) == 1


@pytest.mark.parametrize("group, build, radius, eta, exponent, window", [
    ("line", golden_mean_sft, 6, Fraction(3, 4), 3, 3),
    ("line", even_window_sft, 6, Fraction(3, 4), 3, 3),
    ("plane", hard_square_sft, 2, Fraction(1, 2), 2, 1),
])
def test_pair_scan_windows_beyond_the_oracle(group, build, radius, eta,
                                             exponent, window):
    """Windows of 610, 1,897 and 689 configurations, as the all-pairs
    scan found them in 0.6, 5.3 and 0.7 s."""
    space = ShiftSpace(GroupGeometry(_GROUP_SPECS[group]()))
    scan = separation_window_pair_scan(space, build(space), eta,
                                       Fraction(1, 2 ** exponent), radius,
                                       radius + 1)
    assert scan.window == window


# group: (SFT, field radius, plan, inner radius); every case perturbs a layer
_FLIP_CASES = {
    "line": (golden_mean_sft, 4, potp_modulus(1, Fraction(1, 4)), 7),
    "plane": (hard_square_sft, 2, potp_modulus(1, Fraction(1, 4)), 7),
    "free": (one_forbidden_window_sft, 1,
             TracingPlan(1, Fraction(1, 4), 2, Fraction(1, 8)), 6),
    "heisenberg": (one_forbidden_window_sft, 1,
                   TracingPlan(1, Fraction(1, 4), 2, Fraction(1, 8)), 6),
}


def _ref_flip_entries(sft, radius, plan, seed, inner, attempts):
    """random_flip entries with every flip checked over the whole ball."""
    space = sft.space
    geo = space.geometry
    rng = Random(seed)
    base = random_admissible(space, sft, radius + inner, rng)
    seeds = [rng.getrandbits(64) for _ in range(geo.ball_size(radius))]
    kept = geo.ball_size(min(plan.modulus + 3, inner))
    size = geo.ball_size(inner)
    out = []
    for gi, g in enumerate(geo.ball(radius)):
        cells = list(shift(g, base).restrict(inner).cells)
        sub = Random(seeds[gi])
        for _ in range(attempts):
            pos = sub.randrange(kept, size)
            old = cells[pos]
            cells[pos] = sub.randrange(2)
            if not locally_admissible(Configuration(space, inner, tuple(cells)), sft):
                cells[pos] = old
        out.append(Configuration(space, inner, tuple(cells)))
    return out


@pytest.mark.parametrize("group", sorted(_FLIP_CASES))
def test_flip_fields_match_the_whole_ball_check_draw_for_draw(group):
    build, radius, plan, inner = _FLIP_CASES[group]
    sft = build(ShiftSpace(GroupGeometry(_GROUP_SPECS[group]())))
    flipped = 0
    for seed in range(4):
        orb = generate_pseudo_orbit(sft, radius, plan, Random(seed),
                                    mode="random_flip", inner_radius=inner,
                                    flip_attempts=24)
        assert list(orb.entries) == _ref_flip_entries(sft, radius, plan, seed,
                                                      inner, 24)
        flipped += orb.perturbation_count
    assert flipped  # some flips were accepted, so both paths were taken


@pytest.mark.parametrize("group", sorted(_FLIP_CASES))
def test_step_profile_matches_the_element_loop(group):
    build, radius, plan, inner = _FLIP_CASES[group]
    sft = build(ShiftSpace(GroupGeometry(_GROUP_SPECS[group]())))
    for seed in range(2):
        for mode in ("exact_orbit", "perturbed_orbit", "random_flip"):
            orb = generate_pseudo_orbit(sft, radius, plan, Random(seed),
                                        mode=mode, inner_radius=inner)
            assert delta_profile(orb) == _ref_step_profile(orb)
            # hand corruption: one entry's cell in layer 1, then a deep one
            for layer in (1, inner):
                cells = orb.cells.copy()
                victim = len(cells) - 1 - seed
                cells[victim, orb.space.geometry.ball_size(layer) - 1] ^= 1
                broken = PseudoOrbit(orb.space, sft, radius, inner, orb.delta,
                                     cells, mode, ())
                assert delta_profile(broken) == _ref_step_profile(broken)
                if layer == 1:
                    assert not delta_profile(broken)[0]


@pytest.mark.parametrize("group", sorted(_FLIP_CASES))
def test_array_step_check_matches_the_reference_on_broken_fields(group):
    """Hand-broken fields with their first difference in every compared
    layer 0..r (r = inner radius - 1): at index 0, and at the first and
    the last cell of each layer, in the first entry and in the last."""
    build, radius, plan, inner = _FLIP_CASES[group]
    sft = build(ShiftSpace(GroupGeometry(_GROUP_SPECS[group]())))
    geo = sft.space.geometry
    cuts = [0] + [geo.ball_size(k) for k in range(inner)]
    positions = sorted({p for lo, hi in zip(cuts, cuts[1:]) for p in (lo, hi - 1)})
    assert positions[0] == 0 and positions[-1] == geo.ball_size(inner - 1) - 1
    for mode in ("exact_orbit", "perturbed_orbit", "random_flip"):
        orb = generate_pseudo_orbit(sft, radius, plan, Random(7), mode=mode,
                                    inner_radius=inner)
        profile = delta_profile(orb)
        assert profile == _ref_step_profile(orb)
        if mode == "exact_orbit":  # slices of one orbit: every face a marker
            assert profile == (True, 0, 0)
        layers = set()
        for victim in (0, len(orb.cells) - 1):
            for pos in positions:
                cells = orb.cells.copy()
                cells[victim, pos] ^= 1
                broken = PseudoOrbit(orb.space, sft, radius, inner, orb.delta,
                                     cells, mode, ())
                profile = delta_profile(broken)
                assert profile == _ref_step_profile(broken), (mode, victim, pos)
                if mode == "exact_orbit":  # a broken face is definite
                    assert profile[2] > 0
                layers.add(geo.layer_of_position(pos))
        assert layers == set(range(inner))


def _ref_trace_distances(orb, trace, scan_radius):
    """verify_trace's residuals computed frame by frame: the shifted trace
    against the entry, compared on their common ball."""
    ball = orb.space.geometry.ball(scan_radius)
    return list(trace_distances(shift, distance, ball, trace, orb.entries))


@pytest.mark.parametrize("group", sorted(_FLIP_CASES))
def test_trace_gather_matches_the_frame_loop_on_broken_traces(group):
    """Traces broken by hand with their first difference in every layer of
    the field's ball (the first and the last cell of each), against the
    frame-by-frame shift and distance, at every scan radius."""
    build, radius, plan, inner = _FLIP_CASES[group]
    sft = build(ShiftSpace(GroupGeometry(_GROUP_SPECS[group]())))
    geo = sft.space.geometry
    cuts = [0] + [geo.ball_size(k) for k in range(radius + 1)]
    positions = sorted({p for lo, hi in zip(cuts, cuts[1:]) for p in (lo, hi - 1)})
    for mode in ("exact_orbit", "perturbed_orbit", "random_flip"):
        orb = generate_pseudo_orbit(sft, radius, plan, Random(3), mode=mode,
                                    inner_radius=inner)
        trace = construct_trace(orb)
        traces = [trace]
        for pos in positions:
            cells = list(trace.cells)
            cells[pos] ^= 1
            traces.append(Configuration(sft.space, radius, tuple(cells)))
        layers = set()
        for scan in range(radius + 1):
            for t in traces:
                res = verify_trace(orb, t, plan, scan_radius=scan)
                dists = [c.dist for c in res.checks]
                assert dists == _ref_trace_distances(orb, t, scan), (mode, scan)
                layers.update(d.exponent for d in dists if not d.marker)
        if mode == "exact_orbit":  # the trace of an exact field: all markers
            res = verify_trace(orb, trace, plan, scan_radius=radius)
            assert all(c.dist.marker for c in res.checks)
        assert layers == set(range(max(radius, 1)))
    short = Configuration(sft.space, radius - 1, trace.cells[:cuts[radius]])
    with pytest.raises(ValueError, match="field's ball"):
        verify_trace(orb, short, plan)


def _assert_frozen(array):
    with pytest.raises(ValueError, match="read-only"):
        array[0, 0] = 0
    with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
        array.flags.writeable = True


def test_field_cells_are_read_only(golden):
    plan = potp_modulus(1, Fraction(1, 8))
    orb = generate_pseudo_orbit(golden, 4, plan, Random(0), inner_radius=8)
    assert orb.cells.shape == (9, 17) and orb.cells.dtype == np.uint8
    _assert_frozen(orb.cells)
    # a field built by hand is frozen too, and its caller's array is not
    cells = orb.cells.copy()
    fresh = PseudoOrbit(orb.space, golden, 4, 8, orb.delta, cells, orb.mode, ())
    _assert_frozen(fresh.cells)
    cells[0, 0] ^= 1
    assert fresh.cells[0, 0] == orb.cells[0, 0]
    assert [x.cells for x in fresh.entries] == [tuple(r) for r in orb.cells.tolist()]
    with pytest.raises(ValueError, match="needs 9 rows of 17 cells"):
        PseudoOrbit(orb.space, golden, 4, 8, orb.delta, cells[1:], orb.mode, ())
