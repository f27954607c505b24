"""Truncated shift spaces: distances, admissibility, block counting."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.errors import CapacityError, GenerationError
from shadowlab.groups import (
    CyclicGroup,
    GroupGeometry,
    GroupSpec,
    free_rank2_spec,
    integer_line_spec,
    integer_plane_spec,
)
from shadowlab.shifts import (
    BINARY,
    Alphabet,
    Configuration,
    DyadicDistance,
    allowed_blocks,
    allowed_blocks_exact_finite,
    allowed_blocks_exact_line,
    configuration_from_line,
    distance,
    enumerate_admissible,
    even_window_sft,
    full_shift,
    golden_mean_sft,
    hard_square_sft,
    locally_admissible,
    one_forbidden_window_sft,
    parse_configuration,
    random_admissible,
    refutes,
    sft_from_forbidden,
    shift,
    ShiftSpace,
)


@pytest.fixture(scope="module")
def line_space():
    return ShiftSpace(GroupGeometry(integer_line_spec()))


@pytest.fixture(scope="module")
def plane_space():
    return ShiftSpace(GroupGeometry(integer_plane_spec()))


@pytest.fixture(scope="module")
def free_space():
    return ShiftSpace(GroupGeometry(free_rank2_spec()))


def config(space, radius, bits):
    return Configuration(space, radius, tuple(int(b) for b in bits))


def test_distance_reads_first_disagreement_layer(line_space):
    # ball(2) order on the line: 0, 1, -1, 2, -2
    x = config(line_space, 2, "00000")
    assert distance(x, config(line_space, 2, "10000")).value == 1
    assert distance(x, config(line_space, 2, "01000")).value == 1
    assert distance(x, config(line_space, 2, "00010")).value == Fraction(1, 2)
    d = distance(x, config(line_space, 2, "00000"))
    assert d.marker and d.exponent == 3
    assert repr(d) == "2^-3 (indistinguishable)"


def test_markers_never_refute(line_space):
    x = config(line_space, 2, "01101")
    same = distance(x, x)
    assert same.marker
    assert not refutes(same, Fraction(1, 1024))
    far = distance(x, config(line_space, 2, "11101"))
    assert refutes(far, Fraction(1, 2))
    assert not refutes(far, Fraction(3, 2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_distance_is_an_ultrametric(line_space, data):
    bits = st.lists(st.integers(0, 1), min_size=7, max_size=7)
    x = Configuration(line_space, 3, tuple(data.draw(bits)))
    y = Configuration(line_space, 3, tuple(data.draw(bits)))
    z = Configuration(line_space, 3, tuple(data.draw(bits)))
    dxz = distance(x, z).value
    bound = max(distance(x, y).value, distance(y, z).value)
    assert dxz <= bound
    assert distance(x, y).value == distance(y, x).value


def test_serialize_round_trip(line_space):
    x = config(line_space, 3, "0110100")
    assert parse_configuration(line_space, x.serialize()) == x
    wide = ShiftSpace(line_space.geometry, Alphabet(("aa", "b", "c")))
    y = Configuration(wide, 1, (2, 0, 1))
    assert parse_configuration(wide, y.serialize()) == y


def test_shift_radius_accounting_and_action_law(line_space):
    geo = line_space.geometry
    rng = Random(3)
    gens = geo.spec.generators
    for _ in range(200):
        cells = tuple(rng.randrange(2) for _ in range(geo.ball_size(5)))
        x = Configuration(line_space, 5, cells)
        g, h = rng.choice(gens), rng.choice(gens)
        gh = g * h
        lhs = shift(g, shift(h, x))
        rhs = shift(gh, x)
        assert lhs.radius == 3
        common = min(lhs.radius, rhs.radius)
        assert lhs.restrict(common) == rhs.restrict(common)


def test_shift_looks_up_translated_cells(plane_space):
    geo = plane_space.geometry
    rng = Random(11)
    cells = tuple(rng.randrange(2) for _ in range(geo.ball_size(4)))
    x = Configuration(plane_space, 4, cells)
    g = geo.spec.generators[0]
    moved = shift(g, x)
    for h in geo.ball(3):
        assert moved.value_at(h) == x.value_at(h * g)


def test_builder_window_counts(line_space, plane_space, free_space):
    assert len(golden_mean_sft(line_space).allowed) == 5
    assert len(even_window_sft(line_space).allowed) == 7
    assert len(hard_square_sft(plane_space).allowed) == 17
    assert len(one_forbidden_window_sft(free_space).allowed) == 31
    assert len(full_shift(line_space).allowed) == 2


def test_golden_mean_admissible_counts_follow_fibonacci(line_space):
    sft = golden_mean_sft(line_space)
    expected = {1: 5, 2: 13, 5: 233, 6: 610, 8: 4181}
    for k, count in expected.items():
        assert sum(1 for _ in enumerate_admissible(line_space, sft, k)) == count


def test_exact_line_blocks_match_slack_approximation(line_space):
    gm = golden_mean_sft(line_space)
    ew = even_window_sft(line_space)
    for sft in (gm, ew):
        for k in (2, 3):
            exact = {p.cells for p in allowed_blocks_exact_line(sft, k)}
            approx = {p.cells for p in allowed_blocks(sft, k, 2)}
            assert exact == approx
    assert len(allowed_blocks_exact_line(ew, 2)) == 21


def test_finite_group_blocks_see_the_whole_cycle():
    space = ShiftSpace(GroupGeometry(GroupSpec(CyclicGroup(5))))
    # adjacent ones forbidden around the cycle; ball(1) order is 0, +1, -1
    sft = sft_from_forbidden(space, 1, [(1, 1, 0), (1, 0, 1), (1, 1, 1)])
    assert len(allowed_blocks_exact_finite(sft, 2)) == 11
    # the truncated admissibility check only sees windows centered in
    # ball(radius - 1), so it keeps two extra configurations
    assert sum(1 for _ in enumerate_admissible(space, sft, 2)) == 13


def test_hard_square_rejects_adjacent_ones(plane_space):
    sft = hard_square_sft(plane_space)
    geo = plane_space.geometry
    ok = [0] * geo.ball_size(2)
    assert locally_admissible(Configuration(plane_space, 2, tuple(ok)), sft)
    bad = list(ok)
    bad[0] = 1
    bad[1] = 1  # identity and a generator neighbor both set
    assert not locally_admissible(Configuration(plane_space, 2, tuple(bad)), sft)


def test_random_admissible_respects_sft_and_prefix(line_space):
    sft = golden_mean_sft(line_space)
    rng = Random(7)
    for _ in range(50):
        x = random_admissible(line_space, sft, 6, rng)
        assert locally_admissible(x, sft)
    prefix = (0, 1, 0)
    for _ in range(20):
        x = random_admissible(line_space, sft, 6, rng, prefix=prefix)
        assert x.cells[:3] == prefix
        assert locally_admissible(x, sft)


def test_random_admissible_raises_when_nothing_fits(line_space):
    empty = sft_from_forbidden(line_space, 0, [(0,), (1,)])
    with pytest.raises(GenerationError):
        random_admissible(line_space, empty, 2, Random(0))


def test_enumeration_capacity_guard(free_space):
    sft = full_shift(free_space)
    with pytest.raises(CapacityError):
        list(enumerate_admissible(free_space, sft, 3, node_budget=50))


def test_forbidden_complement_round_trip(line_space):
    sft = golden_mean_sft(line_space)
    forb = sorted(sft.forbidden)
    assert len(forb) == 3
    rebuilt = sft_from_forbidden(line_space, sft.window_radius, forb)
    assert rebuilt.allowed == sft.allowed


def test_full_shift_enumeration_is_every_assignment(line_space):
    sft = full_shift(line_space)
    seen = set(enumerate_admissible(line_space, sft, 2))
    assert len(seen) == 32


def test_line_text_helpers_round_trip(line_space):
    x = configuration_from_line(line_space, 3, "0110100")
    assert x.radius == 3
    # leftmost character is the most negative coordinate
    geo = line_space.geometry
    left = next(g for g in geo.ball(3) if geo.word_length(g, 3) == 3
                and g.payload[0] < 0)
    assert x.value_at(left) == 0


def test_alphabet_requires_two_distinct_symbols():
    with pytest.raises(ValueError):
        Alphabet(("a",))
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    assert BINARY.size == 2


def test_dyadic_values():
    assert DyadicDistance(0).value == 1
    assert DyadicDistance(5).value == Fraction(1, 32)
    assert DyadicDistance(5, True).value == Fraction(1, 32)
