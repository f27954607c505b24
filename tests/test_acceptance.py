"""Acceptance battery: the headline desk-scale claims, at full scale.

Each test pins the exact parameters and tolerances it is expected to meet,
including wall-clock budgets where a claim is about feasibility.  Batch
sizes are not negotiable downward; a failure here is a finding, not noise.
"""

import itertools
import json
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from shadowlab.cli import main
from shadowlab.groups import (
    GroupGeometry,
    free_rank2_spec,
    heisenberg_spec,
    integer_line_spec,
    integer_plane_spec,
)
from shadowlab.profinite import chain_trace_experiment, odometer_chain
from shadowlab.shadowing import (
    TracingPlan,
    construct_trace,
    delta_profile,
    generate_pseudo_orbit,
    potp_modulus,
    separation_window_exhaustive_check,
    separation_window_flip_scan,
    uniqueness_scan,
    verify_trace,
)
from shadowlab.shifts import (
    Configuration,
    ShiftSpace,
    distance,
    even_window_sft,
    full_shift,
    golden_mean_sft,
    hard_square_sft,
    locally_admissible,
    one_forbidden_window_sft,
    random_admissible,
    shift,
)
from shadowlab.shadowing import synthesize_window_spec
from shadowlab.torus import (
    expansiveness_certificate,
    generating_set_transfer,
    heisenberg_block_action,
    mat_mul,
    random_displacement,
    random_grid,
    stability_report,
)

CAT = ((2, 1), (1, 1))


def _line_space():
    return ShiftSpace(GroupGeometry(integer_line_spec()))


def _plane_space():
    return ShiftSpace(GroupGeometry(integer_plane_spec()))


def _free_space():
    return ShiftSpace(GroupGeometry(free_rank2_spec()))


def _trace_batch(sft, radius, plan, inner_radius, count, residual_bound):
    """Generate, verify and trace `count` seeded fields; returns the worst
    definite residual seen.  Asserts every field is traced."""
    worst = Fraction(0)
    for seed in range(count):
        orbit = generate_pseudo_orbit(sft, radius, plan, Random(seed),
                                      mode="perturbed_orbit",
                                      inner_radius=inner_radius)
        step_ok, _, _ = delta_profile(orbit)
        assert step_ok
        trace = construct_trace(orbit)
        outcome = verify_trace(orbit, trace, plan)
        assert outcome.admissible, f"seed {seed}: trace not locally admissible"
        assert outcome.passed, f"seed {seed}: residual out of tolerance"
        if outcome.worst_definite is not None:
            worst = max(worst, outcome.worst_definite)
    assert worst <= residual_bound
    return worst


def test_line_golden_mean_batch_traces_five_hundred_fields():
    space = _line_space()
    sft = golden_mean_sft(space)
    plan = potp_modulus(sft.window_radius, Fraction(1, 8))
    assert plan.modulus == 4
    assert plan.delta == Fraction(1, 32)
    started = time.monotonic()
    worst = _trace_batch(sft, 16, plan, 8, 500, Fraction(1, 16))
    elapsed = time.monotonic() - started
    assert worst == Fraction(1, 128)  # first free layer after the kept core
    assert elapsed < 10.0, f"batch took {elapsed:.1f}s"


def test_plane_and_free_group_batches_trace_within_budget():
    started = time.monotonic()
    plane = _plane_space()
    hard = hard_square_sft(plane)
    plan = potp_modulus(hard.window_radius, Fraction(1, 4))
    assert plan.modulus == 3
    # genuinely perturbed fields: the zone above the kept core is nonempty
    _trace_batch(hard, 5, plan, 7, 100, Fraction(1, 8))

    free = _free_space()
    one = one_forbidden_window_sft(free)
    plan_f = potp_modulus(one.window_radius, Fraction(1, 4))
    assert plan_f.modulus == 3
    # tree growth makes a nonempty zone unaffordable here; these fields are
    # exact orbit restrictions, which the generator documents for this size
    _trace_batch(one, 4, plan_f, 5, 100, Fraction(1, 8))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"batches took {elapsed:.1f}s"


def _membership_samples(space, sft, count, rng):
    """Mixed diet: uniform noise, admissible fills, admissible with one flip."""
    size = space.geometry.ball_size(8)
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            cells = tuple(rng.randrange(2) for _ in range(size))
            out.append(Configuration(space, 8, cells))
        else:
            x = random_admissible(space, sft, 8, rng)
            if kind == 2:
                pos = rng.randrange(size)
                cells = list(x.cells)
                cells[pos] = (cells[pos] + 1) % 2
                x = Configuration(space, 8, tuple(cells))
            out.append(x)
    return out


def test_synthesized_windows_reproduce_source_membership():
    space = _line_space()
    for build in (golden_mean_sft, even_window_sft):
        source = build(space)
        synthesized = synthesize_window_spec(source, 4, 2)
        assert synthesized.window_radius == 5
        rng = Random(3141)
        disagreements = 0
        for x in _membership_samples(space, source, 1000, rng):
            if locally_admissible(x, source) != locally_admissible(x, synthesized):
                disagreements += 1
        assert disagreements == 0


def test_full_shift_scan_finds_exactly_one_trace_per_field():
    space = _line_space()
    sft = full_shift(space)
    plan = TracingPlan(0, Fraction(1, 8), 2, Fraction(1, 8))
    for seed in range(50):
        orbit = generate_pseudo_orbit(sft, 4, plan, Random(seed),
                                      mode="random_flip", inner_radius=5,
                                      flip_attempts=8)
        report = uniqueness_scan(orbit, plan, Fraction(1, 2), scan_radius=4)
        assert report.applicable
        assert report.candidates_scanned == 512
        assert report.multiplicity == 1, f"seed {seed}"
        assert report.multiplicity_within_core == 1, f"seed {seed}"


def test_separation_windows_are_finite_and_certified():
    space = _line_space()
    eta = Fraction(1, 2)
    for j in range(1, 6):
        epsilon = Fraction(1, 2 ** j)
        scan = separation_window_flip_scan(space, eta, epsilon, j + 2, j + 2)
        assert scan.window is not None
        assert scan.window == j
        check = separation_window_exhaustive_check(space, eta, epsilon,
                                                   scan.window, scan.window + 2)
        assert check.ok, check.witness
        assert check.subsets_checked == 2 ** (2 * (j + 2) + 1) - 1


def test_cat_map_conjugacy_stays_within_the_linear_bound():
    started = time.monotonic()
    grid = np.array([(i / 64, j / 64) for i in range(64) for j in range(64)])
    disp = random_displacement(2, 1e-3, Random(606))
    report, _ = stability_report(CAT, disp, 30, grid)
    assert abs(report.tracking_constant - 3.2360679) < 1e-3
    assert report.sup_displacement <= 4e-3  # constant * amplitude, 1.25 slack
    assert report.displacement_within_bound
    assert report.sup_conjugacy_defect <= 1e-6
    assert report.orbit_residual <= 1e-9
    assert report.collisions == 0

    frozen, _ = stability_report(CAT, random_displacement(2, 0.0, Random(607)),
                                 30, grid)
    assert frozen.identity_exact is True
    assert frozen.sup_displacement == 0.0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"stability runs took {elapsed:.1f}s"


def test_heisenberg_blocks_satisfy_relations_and_stay_stable():
    action = heisenberg_block_action(CAT, CAT)
    a, b, c = (action.matrix_for(k) for k in "abc")
    assert mat_mul(a, c) == mat_mul(c, a)
    assert mat_mul(b, c) == mat_mul(c, b)
    assert mat_mul(a, b) == mat_mul(mat_mul(b, a), c)

    moduli = np.abs(np.linalg.eigvals(np.array(a, dtype=float)))
    assert np.min(np.abs(moduli - 1.0)) > 1e-9
    assert expansiveness_certificate(a).is_expansive

    rng = Random(7)
    disp = random_displacement(6, 1e-4, rng)
    report, _ = stability_report(a, disp, 30, random_grid(6, 200, rng))
    assert 0.0 < report.sup_displacement
    assert report.displacement_within_bound
    assert report.orbit_residual <= 1e-9
    assert report.sup_conjugacy_defect <= 1e-9
    assert report.collisions == 0


def test_eight_dimensional_cat_blocks_run_within_budget(tmp_path, capsys):
    matrix = [[0] * 8 for _ in range(8)]
    for b in range(0, 8, 2):
        matrix[b][b:b + 2] = CAT[0]
        matrix[b + 1][b:b + 2] = CAT[1]
    cfg = {"experiment": "toral-stability", "seed": 1,
           "parameters": {"matrix": matrix, "amplitude": 1e-4, "window": 30,
                          "grid_points": 64}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    started = time.monotonic()
    assert main(["run", str(path)]) == 0
    elapsed = time.monotonic() - started
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert elapsed < 30.0, f"8x8 stability run took {elapsed:.1f}s"


def test_odometer_batch_traces_and_preserves_cylinders():
    chain = odometer_chain(2, 12)
    worst = Fraction(0)
    for seed in range(200):
        report = chain_trace_experiment(chain, 5, 5, Random(seed))
        assert report.step_ok and report.trace_ok, f"seed {seed}"
        assert report.preserved_levels == 7
        if report.worst_residual is not None:
            worst = max(worst, report.worst_residual.value)
    assert worst <= Fraction(1, 32)

    violations = 0
    checks = 0
    for g in chain.spec.generators:
        for n in range(1, 7):
            tn, tp = chain.tables[g][n], chain.tables[g][n - 1]
            for i in range(chain.level_sizes[n]):
                checks += 1
                if chain.parents[n][tn[i]] != tp[chain.parents[n][i]]:
                    violations += 1
    assert checks == 252
    assert violations == 0


def test_skew_generating_set_controls_the_standard_distance():
    failures = 0
    for seed in range(100):
        report = generating_set_transfer(CAT, 0.05, Random(seed),
                                         grid_count=40)
        assert report.conversion_radius == 2
        assert report.norm_bound == 21
        assert report.amplitude == pytest.approx(0.4 * (0.05 / 3) / 21)
        if not report.passed:
            failures += 1
    assert failures == 0


# --- structural suites -----------------------------------------------------


ALL_SPECS = (integer_line_spec, integer_plane_spec, free_rank2_spec,
             heisenberg_spec)


def _random_element(geo, rng, length=6):
    g = geo.spec.identity()
    for _ in range(length):
        g = g * rng.choice(geo.spec.generators)
    return g


def test_group_axioms_hold_exhaustively_and_randomized():
    for make in ALL_SPECS:
        geo = GroupGeometry(make())
        e = geo.spec.identity()
        small = list(geo.ball(1))
        for g, h, k in itertools.product(small, repeat=3):
            assert (g * h) * k == g * (h * k)
        for g in geo.ball(2):
            assert e * g == g and g * e == g
            assert g * ~g == e and ~g * g == e
        rng = Random(1001)
        for _ in range(250):
            g, h, k = (_random_element(geo, rng) for _ in range(3))
            assert (g * h) * k == g * (h * k)
            assert ~(g * h) == ~h * ~g
            assert g * ~g == e


def test_configuration_metric_is_ultrametric():
    line = _line_space()
    cells = list(itertools.product((0, 1), repeat=3))
    configs = [Configuration(line, 1, c) for c in cells]
    for x, y, z in itertools.product(configs, repeat=3):
        dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
        assert dxz.value <= max(dxy.value, dyz.value)
        assert dxy.value == distance(y, x).value
        assert dxy.marker == (x.cells == y.cells)
    plane = _plane_space()
    size = plane.geometry.ball_size(3)
    rng = Random(2002)
    for _ in range(1000):
        x, y, z = (Configuration(plane, 3,
                                 tuple(rng.randrange(2) for _ in range(size)))
                   for _ in range(3))
        assert distance(x, z).value <= max(distance(x, y).value,
                                           distance(y, z).value)


def test_shift_satisfies_the_action_law():
    line = _line_space()
    e = line.geometry.spec.identity()
    small = list(line.geometry.ball(1))
    for cells in itertools.product((0, 1), repeat=5):
        x = Configuration(line, 2, cells)
        assert shift(e, x) == x
        for g, h in itertools.product(small, repeat=2):
            composed = shift(g, shift(h, x))
            direct = shift(g * h, x).restrict(composed.radius)
            assert composed == direct
    free = _free_space()
    size = free.geometry.ball_size(3)
    gens = list(free.geometry.ball(1))
    rng = Random(3003)
    for _ in range(1000):
        x = Configuration(free, 3,
                          tuple(rng.randrange(2) for _ in range(size)))
        g, h = rng.choice(gens), rng.choice(gens)
        composed = shift(g, shift(h, x))
        assert composed == shift(g * h, x).restrict(composed.radius)


def test_balls_nest_and_grow_monotonically():
    for make in ALL_SPECS:
        geo = GroupGeometry(make())
        previous = []
        for k in range(5):
            current = list(geo.ball(k))
            assert current[: len(previous)] == previous
            assert len(current) > len(previous)
            layers = [geo.word_length(g, k) for g in current]
            assert layers == sorted(layers)
            previous = current
        rng = Random(4004)
        for _ in range(250):
            g = _random_element(geo, rng, length=4)
            length = geo.word_length(g, 4)
            assert length is not None
            for a in geo.spec.generators:
                moved = geo.word_length(g * a, 5)
                assert moved is not None and moved <= length + 1
