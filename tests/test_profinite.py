"""Quotient chains, levelwise actions, and the rotation non-example."""

import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import oracles
from shadowlab import profinite
from shadowlab.errors import ConfigError, GenerationError
from shadowlab.groups import (
    GroupElement,
    IntegerLattice,
    free_rank2_spec,
    integer_line_spec,
    integer_plane_spec,
)
from shadowlab.profinite import (
    NecklaceShift,
    ModulusCertificate,
    ProfinitePoint,
    QuotientChain,
    act_point,
    chain_from_csv,
    chain_modulus_certificate,
    chain_to_csv,
    chain_trace_experiment,
    necklace_modulus_search,
    odometer_chain,
    plane_lattice_chain,
    random_point,
)
from shadowlab.shadowing import first_exponents


def test_odometer_levels_are_residue_rings():
    chain = odometer_chain(2, 6)
    assert chain.level_sizes == (1, 2, 4, 8, 16, 32, 64)
    plus = chain.spec.generators[0]
    for n in range(1, 7):
        table = chain.tables[plus][n]
        size = 2 ** n
        assert table == tuple((i + 1) % size for i in range(size))
        # refining a class halves the residue
        assert chain.parents[n] == tuple(i % (size // 2) for i in range(size))


def test_act_point_adds_with_carry():
    chain = odometer_chain(2, 8)
    zero = ProfinitePoint(chain, (0,) * 9)
    five = GroupElement(IntegerLattice(1), (5,))
    moved = act_point(chain, five, zero)
    assert moved.path == tuple(5 % 2 ** n for n in range(9))
    back = act_point(chain, ~five, moved)
    assert back == zero


def test_plane_chain_acts_per_coordinate():
    chain = plane_lattice_chain(3)
    assert chain.level_sizes == (1, 4, 16, 64)
    e1 = GroupElement(IntegerLattice(2), (1, 0))
    e2 = GroupElement(IntegerLattice(2), (0, 1))
    x = ProfinitePoint(chain, (0, 0, 0, 0))
    mx = act_point(chain, e1, x)
    my = act_point(chain, e2, x)
    # index u * 2^n + v at level n
    assert mx.path == (0, 2, 4, 8)
    assert my.path == (0, 1, 1, 1)


def _level_exponent(x, y):
    """The kernel's exponent of two paths: column n is level n, at 2^-(n-1)."""
    levels = np.arange(len(x.path))
    return int(first_exponents(np.array(x.path) != np.array(y.path), levels - 1))


def test_level_distance_conventions():
    chain = odometer_chain(2, 6)
    x = ProfinitePoint(chain, (0, 0, 0, 4, 12, 28, 60))
    y = ProfinitePoint(chain, (0, 0, 0, 4, 4, 4, 4))
    d = oracles.level_distance(x, y)
    assert not d.marker and d.value == Fraction(1, 8)  # first split at level 4
    assert _level_exponent(x, y) == 3
    same = oracles.level_distance(x, x)
    assert same.marker and same.exponent == 6
    assert _level_exponent(x, x) == -1


def test_level_distance_is_an_ultrametric():
    chain = odometer_chain(3, 6)
    rng = Random(1)
    for _ in range(300):
        x, y, z = (random_point(chain, rng) for _ in range(3))
        d = {}
        for name, (p, q) in {"xy": (x, y), "yz": (y, z), "xz": (x, z)}.items():
            d[name] = oracles.level_distance(p, q)
            assert _level_exponent(p, q) == oracles.exponent(d[name])
        assert d["xz"].value <= max(d["xy"].value, d["yz"].value)


def test_points_must_refine_their_parents():
    chain = odometer_chain(2, 4)
    with pytest.raises(ValueError):
        ProfinitePoint(chain, (0, 1, 3, 1, 1))  # 1 at level 3 refines 1, not 3
    x = ProfinitePoint(chain, (0, 1, 3, 7, 15))
    deep = oracles.randomize_deep_levels(chain, x, 2, Random(0))
    assert deep.path[:3] == x.path[:3]


def test_non_lattice_acting_groups_are_rejected():
    spec = free_rank2_spec()
    with pytest.raises(ValueError, match="free abelian"):
        QuotientChain(spec, [1, 3], [None, (0, 0, 0)],
                      {a: [(0,), (1, 2, 0)] for a in spec.generators})


def test_broken_tables_are_rejected():
    spec = integer_line_spec()
    plus, minus = spec.generators
    # not a permutation
    with pytest.raises(ValueError):
        QuotientChain(spec, [1, 2], [None, (0, 0)],
                      {plus: [(0,), (0, 0)], minus: [(0,), (0, 1)]})
    # inverse fails to cancel
    with pytest.raises(ValueError):
        QuotientChain(spec, [1, 4], [None, (0,) * 4],
                      {plus: [(0,), (1, 2, 3, 0)], minus: [(0,), (1, 2, 3, 0)]})
    # acting then coarsening disagrees with coarsening then acting
    with pytest.raises(ValueError):
        QuotientChain(spec, [1, 2, 4], [None, (0, 0), (0, 0, 1, 1)],
                      {plus: [(0,), (1, 0), (1, 2, 3, 0)],
                       minus: [(0,), (1, 0), (3, 0, 1, 2)]})


def test_a_class_that_nothing_refines_is_rejected():
    spec = integer_line_spec()
    identity = {g: [(0,), (0, 1), (0, 1)] for g in spec.generators}
    with pytest.raises(ValueError) as info:
        QuotientChain(spec, [1, 2, 2], [None, (0, 0), (0, 0)], identity)
    assert str(info.value) == "class 1 at level 1 is refined by no class at level 2"


def test_non_commuting_plane_tables_are_rejected():
    spec = integer_plane_spec()
    gens = {g.payload: g for g in spec.generators}
    swap, cycle = (1, 0, 3, 2), (1, 2, 3, 0)
    inv_cycle = (3, 0, 1, 2)
    tables = {
        gens[(1, 0)]: [(0,), swap],
        gens[(-1, 0)]: [(0,), swap],
        gens[(0, 1)]: [(0,), cycle],
        gens[(0, -1)]: [(0,), inv_cycle],
    }
    with pytest.raises(ValueError):
        QuotientChain(spec, [1, 4], [None, (0, 0, 0, 0)], tables)


def test_chain_trace_report_shape():
    chain = odometer_chain(2, 12)
    rep = chain_trace_experiment(chain, 5, 5, Random(0))
    assert rep.preserved_levels == 7
    assert rep.delta == Fraction(1, 64)
    assert rep.entry_count == 11
    assert rep.step_ok and rep.trace_ok
    assert rep.worst_step.value < rep.delta
    assert rep.worst_residual.value <= rep.epsilon
    assert rep.perturbed_levels > 0


def _mixed_radix_chain(tmp_path):
    """Z acting by adding one on the residues mod 3, 6, 12 and 24, written
    to a coset table and read back."""
    spec = integer_line_spec()
    sizes = [1, 3, 6, 12, 24]
    parents = [None] + [tuple(i % sizes[n - 1] for i in range(sizes[n]))
                        for n in range(1, len(sizes))]
    tables = {g: [tuple((i + g.payload[0]) % size for i in range(size))
                  for size in sizes] for g in spec.generators}
    path = str(tmp_path / "mixed.csv")
    chain_to_csv(QuotientChain(spec, sizes, parents, tables), path)
    return chain_from_csv(path)


def _chain_cases(tmp_path):
    """(chain, field radius) per kind of chain."""
    return [(odometer_chain(2, 8), 3), (odometer_chain(3, 5), 2),
            (plane_lattice_chain(4), 2), (_mixed_radix_chain(tmp_path), 3)]


def _rewalk(chain, x, n, rng):
    """x with level n moved to another child of its level n-1 class, and
    the levels below it re-walked: its first difference from x is level n."""
    path = list(x.path[:n])
    path.append(next(c for c in chain.children(n, path[-1]) if c != x.path[n]))
    for level in range(n + 1, chain.depth + 1):
        path.append(rng.choice(chain.children(level, path[-1])))
    return ProfinitePoint(chain, tuple(path))


def test_chain_kernel_matches_the_point_oracle_on_broken_fields(tmp_path):
    """Exact fields broken at one level at a time, from 1 to the depth, in
    the first and the last entry: the array step and trace exponents equal
    the oracle's face-by-face and frame-by-frame distances, and so do the
    verdicts at every threshold exponent."""
    rng = Random(4)
    for chain, radius in _chain_cases(tmp_path):
        base = random_point(chain, rng)
        exact = [act_point(chain, g, base) for g in chain.geometry.ball(radius)]
        assert np.array_equal(profinite._orbit_rows(chain, radius, base.path),
                              [x.path for x in exact])
        fields = [exact]
        for n in range(1, chain.depth + 1):
            for victim in (0, len(exact) - 1):
                entries = list(exact)
                entries[victim] = _rewalk(chain, exact[victim], n, rng)
                fields.append(entries)
        seen = set()
        for entries in fields:
            field = np.array([x.path for x in entries])
            steps, residuals = profinite._field_exponents(chain, radius, field)
            ref_steps = oracles.chain_steps(chain, radius, entries)
            ref_residuals = oracles.chain_residuals(chain, radius, entries)
            assert steps.tolist() == list(map(oracles.exponent, ref_steps))
            assert residuals.tolist() == list(map(oracles.exponent, ref_residuals))
            seen.update(steps.tolist())
            for k in range(-1, chain.depth + 1):
                threshold = Fraction(1, 2 ** k) if k >= 0 else Fraction(2)
                for got, ref in ((steps, ref_steps), (residuals, ref_residuals)):
                    assert profinite._verdict(got, k) == (
                        not any(oracles.refutes(d, threshold) for d in ref),
                        oracles.worst(ref))
        # an exact field has marker faces only; each break shows at its level
        assert seen == set(range(-1, chain.depth))


def test_chain_experiment_matches_the_point_experiment(tmp_path):
    """Same report and the same generator state afterwards, over many seeds
    and every modulus the depth allows, down to keep = depth (no draws)."""
    for chain, radius in _chain_cases(tmp_path):
        for modulus in range(chain.depth - 1):
            for seed in range(12):
                rng, ref_rng = Random(seed), Random(seed)
                got = chain_trace_experiment(chain, radius, modulus, rng)
                assert got == oracles.chain_trace_experiment(
                    chain, radius, modulus, ref_rng), (chain.level_sizes, modulus)
                assert rng.getstate() == ref_rng.getstate()
                assert all(type(d.exponent) is int for d in
                           (got.worst_step, got.worst_residual) if d is not None)
                if modulus + 2 == chain.depth:
                    assert got.perturbed_levels == 0


def test_chain_too_shallow_for_modulus():
    chain = odometer_chain(2, 5)
    with pytest.raises(ValueError):
        chain_trace_experiment(chain, 4, 5, Random(0))


def test_chain_certificate_found():
    chain = odometer_chain(2, 10)
    cert = chain_modulus_certificate(chain, 4, 4, 25, Random(3))
    assert cert.found and cert.modulus == 4


def test_chain_csv_round_trip(tmp_path):
    chain = plane_lattice_chain(3)
    path = str(tmp_path / "chain.csv")
    chain_to_csv(chain, path)
    back = chain_from_csv(path)
    assert back.level_sizes == chain.level_sizes
    assert back.parents[1:] == chain.parents[1:]
    for g in chain.spec.generators:
        assert back.tables[g] == chain.tables[g]


@pytest.mark.parametrize("body, fault", [
    ("0,0,-1,0\n", "level 0 index 0 has a missing or non-integer cell"),
    ("0,0,-1,0,x\n", "level 0 index 0 has a missing or non-integer cell"),
    ("0,0,-1,0,0\n-2,0,0,0,0\n", "level -2 is negative"),
    ("0,0,-1,0,0,9,9\n", "level 0 index 0 has more cells than the header"),
])
def test_chain_csv_faults_name_the_file_and_the_row(tmp_path, body, fault):
    path = tmp_path / "t.csv"
    path.write_text("level,index,parent,(1),(-1)\n" + body)
    with pytest.raises(ValueError) as info:
        chain_from_csv(str(path))
    assert str(info.value) == f"{path}: {fault}"


def test_necklace_rotation_and_metric():
    neck = NecklaceShift(6)
    x = (0, 1, 1, 0, 0, 0)
    assert neck.step(x) in ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0))
    for y, e in ((x, None), ((1, 1, 1, 0, 0, 0), 0), ((0, 1, 1, 0, 1, 0), 4)):
        assert oracles.coordinate_exponent(x, y) == e
        kernel = first_exponents(np.array(x) != np.array(y), np.arange(6))
        assert kernel == (-1 if e is None else e)
    assert neck.step(x) == (1, 1, 0, 0, 0, 0)  # the bit search's left rotation


def test_necklace_defeats_every_modulus():
    cert = necklace_modulus_search(10, 5)
    assert not cert.found
    assert cert.modulus is None
    assert list(cert.tested_moduli) == [5, 6, 7]


def test_necklace_search_needs_room():
    with pytest.raises(ValueError):
        necklace_modulus_search(8, 7)


def _ref_necklace_search(width, epsilon_exponent, max_modulus=None, field=None):
    """The search as a rebuild and rescan of the field for every modulus,
    point by point on tuples; ``field`` replaces the adversarial field."""
    system = NecklaceShift(width)
    if max_modulus is None:
        max_modulus = width - 3
    if epsilon_exponent >= width - 1:
        raise ValueError("epsilon too fine for the width")
    tested = []
    for m in range(epsilon_exponent, max_modulus + 1):
        agree_prefix = m + 2
        if agree_prefix > width - 1:
            break
        zeros = (0,) * width
        orbit = [zeros] * (width + 2)
        cur = zeros[1:] + (1,)
        for _ in range(width):
            orbit.append(cur)
            cur = system.step(cur)
        if field is not None:
            orbit = field
        for i in range(len(orbit) - 1):
            gap = oracles.coordinate_exponent(system.step(orbit[i]), orbit[i + 1])
            assert gap is None or gap >= agree_prefix
        tested.append(m)
        for z in itertools.product((0, 1), repeat=width):
            cur = z
            traced = True
            for target in orbit:
                gap = oracles.coordinate_exponent(cur, target)
                if gap is not None and gap <= epsilon_exponent:
                    traced = False
                    break
                cur = system.step(cur)
            if traced:
                return ModulusCertificate("necklace-rotation", epsilon_exponent,
                                          tuple(tested), True, m,
                                          f"unexpected tracer {z}")
    return ModulusCertificate("necklace-rotation", epsilon_exponent,
                              tuple(tested), False, None,
                              "every admissible step tolerance admits an "
                              "untraceable field")


def _outcome(search, *args):
    try:
        return search(*args)
    except (ValueError, ConfigError) as exc:
        return type(exc)


@pytest.mark.parametrize("width", range(2, 12))
def test_necklace_search_matches_the_per_modulus_rescan(width):
    for epsilon_exponent in range(-1, width + 1):
        for max_modulus in [None, *range(width + 2)]:
            args = (width, epsilon_exponent, max_modulus)
            ref = _outcome(_ref_necklace_search, *args)
            got = _outcome(necklace_modulus_search, *args)
            if isinstance(ref, ModulusCertificate) and not ref.tested_moduli:
                assert got is ConfigError, args
            else:
                assert got == ref, args


@pytest.mark.parametrize("width, epsilon_exponent, max_modulus, shown", [
    (12, 5, 2, 2), (10, 8, None, 7), (6, 4, 5, 5)])
def test_necklace_search_refuses_when_no_modulus_fits(
        width, epsilon_exponent, max_modulus, shown):
    with pytest.raises(ConfigError) as info:
        necklace_modulus_search(width, epsilon_exponent, max_modulus)
    assert str(info.value) == (
        f"no step modulus to test: epsilon_exponent {epsilon_exponent} "
        f"exceeds max_modulus {shown} or width {width} - 3")


@pytest.mark.parametrize("width", range(3, 15))
def test_necklace_bit_search_matches_the_tuple_search(width):
    for epsilon_exponent in range(width - 1):
        args = (width, epsilon_exponent)
        ref = _outcome(_ref_necklace_search, *args)
        got = _outcome(necklace_modulus_search, *args)
        if isinstance(ref, ModulusCertificate) and not ref.tested_moduli:
            assert got is ConfigError, args
        else:
            assert got == ref, args


@pytest.mark.parametrize("width, epsilon_exponent, start", [
    (6, 1, (0, 1, 1, 0, 1, 0)), (9, 3, (1, 0, 0, 1, 0, 1, 1, 0, 1)),
    (12, 5, (0,) * 11 + (1,)), (12, 0, (1,) * 12)])
def test_a_planted_necklace_tracer_is_reported_as_the_tuple_search_reports_it(
        monkeypatch, width, epsilon_exponent, start):
    """An exact orbit in place of the adversarial field is traced, and the
    bit search names the same first tracer as the tuple search."""
    system = NecklaceShift(width)
    field = [start]
    while len(field) < 2 * width + 2:
        field.append(system.step(field[-1]))
    monkeypatch.setattr(profinite, "_necklace_pseudo_orbit",
                        lambda system, dwell: field)
    got = necklace_modulus_search(width, epsilon_exponent)
    assert got.found and got.detail.startswith("unexpected tracer (")
    assert got == _ref_necklace_search(width, epsilon_exponent, field=field)


@pytest.mark.parametrize("gap", [0, 4, 8, 9])
def test_a_necklace_field_that_breaks_its_own_tolerance_is_refused(
        monkeypatch, gap):
    """Width 10 tests moduli up to 7, so every step must agree through
    coordinate 8: a field whose one broken step first differs there or
    earlier is refused, one that first differs at coordinate 9 is scanned."""
    system = NecklaceShift(10)
    field = [(0,) * 10] * 3 + [tuple(int(i == gap) for i in range(10))]
    while len(field) < 22:
        field.append(system.step(field[-1]))
    monkeypatch.setattr(profinite, "_necklace_pseudo_orbit",
                        lambda system, dwell: field)
    if gap <= 8:
        with pytest.raises(GenerationError, match="broke its own tolerance"):
            necklace_modulus_search(10, 5)
    else:
        assert necklace_modulus_search(10, 5).tested_moduli == (5, 6, 7)
