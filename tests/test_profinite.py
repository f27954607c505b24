"""Quotient chains, levelwise actions, and the rotation non-example."""

from fractions import Fraction
from functools import partial
from random import Random

import pytest

from shadowlab.groups import (
    CyclicGroup,
    GroupElement,
    GroupSpec,
    IntegerLattice,
    integer_line_spec,
    integer_plane_spec,
)
from shadowlab.profinite import (
    NecklaceShift,
    ProfinitePoint,
    QuotientChain,
    act_point,
    chain_from_csv,
    chain_modulus_certificate,
    chain_to_csv,
    chain_trace_experiment,
    level_distance,
    necklace_modulus_search,
    odometer_chain,
    plane_lattice_chain,
    random_point,
    randomize_deep_levels,
)
from shadowlab.shadowing import step_distances
from shadowlab.shifts import refutes


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


def test_level_distance_conventions():
    chain = odometer_chain(2, 6)
    x = ProfinitePoint(chain, (0, 0, 0, 4, 12, 28, 60))
    y = ProfinitePoint(chain, (0, 0, 0, 4, 4, 4, 4))
    d = level_distance(x, y)
    assert not d.marker and d.value == Fraction(1, 8)  # first split at level 4
    same = level_distance(x, x)
    assert same.marker and same.exponent == 6


def test_level_distance_is_an_ultrametric():
    chain = odometer_chain(3, 6)
    rng = Random(1)
    for _ in range(300):
        x, y, z = (random_point(chain, rng) for _ in range(3))
        dxz = level_distance(x, z).value
        assert dxz <= max(level_distance(x, y).value, level_distance(y, z).value)


def test_points_must_refine_their_parents():
    chain = odometer_chain(2, 4)
    with pytest.raises(ValueError):
        ProfinitePoint(chain, (0, 1, 3, 1, 1))  # 1 at level 3 refines 1, not 3
    x = ProfinitePoint(chain, (0, 1, 3, 7, 15))
    deep = randomize_deep_levels(chain, x, 2, Random(0))
    assert deep.path[:3] == x.path[:3]


def test_finite_acting_groups_are_rejected():
    spec = GroupSpec(CyclicGroup(3))
    g = spec.generators[0]
    with pytest.raises(ValueError):
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


def test_corrupted_chain_field_fails_the_shared_step_check():
    chain = odometer_chain(2, 8)
    ball = chain.geometry.ball(3)
    base = random_point(chain, Random(4))
    entries = [act_point(chain, g, base) for g in ball]
    act = partial(act_point, chain)
    gens = chain.spec.generators
    delta = Fraction(1, 2 ** 3)
    faces = step_distances(lambda a, x: act(gens[a], x), level_distance,
                           chain.geometry, 3, entries)
    # an exact orbit: one face per indexed step, none refutes
    assert len(faces) == 2 * len(ball) - 2
    assert not any(refutes(d, delta) for d in faces)
    one = GroupElement(IntegerLattice(1), (1,))
    entries[1] = act_point(chain, one, entries[1])  # moves its level-1 class
    faces = step_distances(lambda a, x: act(gens[a], x), level_distance,
                           chain.geometry, 3, entries)
    refuting = [d for d in faces if refutes(d, delta)]
    assert refuting and all(d.value == 1 for d in refuting)


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
    back = chain_from_csv(path, spec=integer_plane_spec())
    assert back.level_sizes == chain.level_sizes
    assert back.parents[1:] == chain.parents[1:]
    for g in chain.spec.generators:
        assert back.tables[g] == chain.tables[g]


def test_necklace_rotation_and_metric():
    neck = NecklaceShift(6)
    x = (0, 1, 1, 0, 0, 0)
    assert neck.step(x) in ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0))
    assert neck.distance_exponent(x, x) is None
    assert neck.distance_exponent(x, (1, 1, 1, 0, 0, 0)) == 0
    assert neck.distance_exponent(x, (0, 1, 1, 0, 1, 0)) == 4
    assert len(list(neck.all_points())) == 64


def test_necklace_defeats_every_modulus():
    cert = necklace_modulus_search(10, 5)
    assert not cert.found
    assert cert.modulus is None
    assert list(cert.tested_moduli) == [5, 6, 7]


def test_necklace_search_needs_room():
    with pytest.raises(ValueError):
        necklace_modulus_search(8, 7)
