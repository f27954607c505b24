"""Word-metric geometry: ball enumeration, layer order, family arithmetic."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.groups import (
    CyclicGroup,
    GroupElement,
    GroupGeometry,
    GroupSpec,
    HeisenbergGroup,
    IntegerLattice,
    free_rank2_spec,
    heisenberg_spec,
    integer_line_spec,
    integer_plane_spec,
    rewrite_generator,
)


BALL_SIZES = {
    "integer-line": (integer_line_spec, [1, 3, 5, 7, 9, 11]),
    "integer-plane": (integer_plane_spec, [1, 5, 13, 25, 41, 61]),
    "free-rank-2": (free_rank2_spec, [1, 5, 17, 53, 161, 485]),
    "heisenberg": (heisenberg_spec, [1, 7, 29, 83, 189, 379]),
}


@pytest.fixture(scope="module")
def geometries():
    return {name: GroupGeometry(make()) for name, (make, _) in BALL_SIZES.items()}


@pytest.mark.parametrize("name", sorted(BALL_SIZES))
def test_ball_sizes_match_closed_forms(name, geometries):
    _, expected = BALL_SIZES[name]
    geo = geometries[name]
    assert [geo.ball_size(k) for k in range(6)] == expected


@pytest.mark.parametrize("name", sorted(BALL_SIZES))
def test_identity_first_and_layers_sorted(name, geometries):
    geo = geometries[name]
    ball = list(geo.ball(4))
    assert ball[0] == geo.spec.identity()
    layers = [geo.word_length(g, 4) for g in ball]
    assert layers == sorted(layers)
    assert layers[0] == 0 and layers[-1] == 4


@pytest.mark.parametrize("name", sorted(BALL_SIZES))
def test_balls_are_nested_prefixes(name, geometries):
    geo = geometries[name]
    big = list(geo.ball(5))
    for k in range(5):
        assert list(geo.ball(k)) == big[: geo.ball_size(k)]


@pytest.mark.parametrize("name", sorted(BALL_SIZES))
def test_group_axioms_exhaustive_on_small_ball(name, geometries):
    geo = geometries[name]
    e = geo.spec.identity()
    ball1 = list(geo.ball(1))
    for g in geo.ball(2):
        assert g * e == g and e * g == g
        assert g * ~g == e and ~g * g == e
    for g in ball1:
        for h in ball1:
            for k in ball1:
                assert (g * h) * k == g * (h * k)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BALL_SIZES)), st.data())
def test_group_axioms_on_random_words(name, data):
    make, _ = BALL_SIZES[name]
    spec = make()
    gens = spec.generators
    pick = st.lists(st.integers(0, len(gens) - 1), min_size=0, max_size=8)

    def word(idxs):
        g = spec.identity()
        for i in idxs:
            g = g * gens[i]
        return g

    g = word(data.draw(pick))
    h = word(data.draw(pick))
    k = word(data.draw(pick))
    assert (g * h) * k == g * (h * k)
    assert ~(g * h) == ~h * ~g
    assert g * ~g == spec.identity()


@pytest.mark.parametrize("name", sorted(BALL_SIZES))
def test_word_length_agrees_with_layer_position(name, geometries):
    geo = geometries[name]
    for g in geo.ball(3):
        pos = geo.position(g, 3)
        assert geo.layer_of_position(pos) == geo.word_length(g, 3)
        assert geo.element_at(pos) == g


def test_right_translation_table_entries(geometries):
    geo = geometries["free-rank-2"]
    g = list(geo.ball(2))[7]
    table = geo.right_translation(2, g, 4)
    for i, h in enumerate(geo.ball(2)):
        assert geo.element_at(table[i]) == h * g


def test_heisenberg_commutator_relation():
    spec = heisenberg_spec()
    fam = spec.family
    a = GroupElement(fam, (1, 0, 0))
    b = GroupElement(fam, (0, 1, 0))
    c = GroupElement(fam, (0, 0, 1))
    assert a * b == b * a * c
    assert ~a * ~b * a * b == c
    # c generates the center
    assert c * a == a * c and c * b == b * c


def test_heisenberg_central_element_needs_four_letters():
    fam = HeisenbergGroup()
    a = GroupElement(fam, (1, 0, 0))
    b = GroupElement(fam, (0, 1, 0))
    c = GroupElement(fam, (0, 0, 1))
    two_gen = GroupSpec(fam, generators=(a, b))
    word = rewrite_generator(c, two_gen, 6)
    assert word is not None and len(word) == 4
    prod = two_gen.identity()
    for letter in word:
        prod = prod * letter
    assert prod == c
    # with c itself a generator the length collapses to 1
    geo = GroupGeometry(heisenberg_spec())
    assert geo.word_length(c, 4) == 1


def test_rewrite_between_plane_generating_sets():
    std = integer_plane_spec()
    fam = std.family
    e1 = GroupElement(fam, (1, 0))
    e2 = GroupElement(fam, (0, 1))
    skew = GroupSpec(fam, generators=(e1, e1 * e2))
    word = rewrite_generator(e2, skew, 4)
    assert word is not None and len(word) == 2
    prod = skew.identity()
    for letter in word:
        prod = prod * letter
    assert prod == e2
    assert rewrite_generator(std.identity(), skew, 4) == []


def test_free_group_words_reduce_but_do_not_collapse():
    spec = free_rank2_spec()
    gens = spec.generators
    a = gens[0]
    b = next(g for g in gens if g != a and g != ~a)
    geo = GroupGeometry(spec)
    assert a * ~a == spec.identity()
    commutator = a * b * ~a * ~b
    assert commutator != spec.identity()
    assert geo.word_length(commutator, 6) == 4


def test_non_spanning_generators_rejected():
    fam = IntegerLattice(2)
    e1 = GroupElement(fam, (1, 0))
    with pytest.raises(ValueError):
        GroupSpec(fam, generators=(e1,))


def test_cyclic_ball_saturates():
    geo = GroupGeometry(GroupSpec(CyclicGroup(5)))
    assert [geo.ball_size(k) for k in range(5)] == [1, 3, 5, 5, 5]


def test_powers_match_repeated_products():
    spec = integer_line_spec()
    g = spec.generators[0]
    assert g ** 4 == g * g * g * g
    assert g ** 0 == spec.identity()
    assert g ** -2 == ~g * ~g


def test_free_group_inverse_of_long_word():
    spec = free_rank2_spec()
    rng = Random(9)
    gens = spec.generators
    for _ in range(50):
        g = spec.identity()
        for _ in range(rng.randrange(8)):
            g = g * gens[rng.randrange(len(gens))]
        assert g * ~g == spec.identity()


def test_word_length_beyond_radius_is_none(geometries):
    geo = geometries["free-rank-2"]
    spec = geo.spec
    far = spec.identity()
    for _ in range(5):
        far = far * spec.generators[0]
    assert geo.word_length(far, 3) is None
    assert geo.word_length(far, 5) == 5


def _table_specs():
    fam = IntegerLattice(1)
    two_three = GroupSpec(fam, generators=(GroupElement(fam, (2,)),
                                           GroupElement(fam, (3,))))
    # (spec, largest destination radius)
    return {"integer-line": (integer_line_spec(), 6),
            "integer-plane": (integer_plane_spec(), 5),
            "free-rank-2": (free_rank2_spec(), 5),
            "heisenberg": (heisenberg_spec(), 3),
            "line-two-three": (two_three, 4)}


@pytest.mark.parametrize("name", sorted(_table_specs()))
def test_translations_from_generator_tables_match_products(name):
    spec, top = _table_specs()[name]
    geo = GroupGeometry(spec)  # cold: every table is composed here
    for dst in range(top + 1):
        for g in geo.ball(dst):
            length = geo.word_length(g, dst)
            for src in range(dst - length + 1):
                expected = tuple(geo.position(h * g, dst) for h in geo.ball(src))
                assert geo.right_translation(src, g, dst) == expected
    # a product leaving the destination ball is refused
    far = geo.element_at(geo.ball_size(top) - 1)
    with pytest.raises(ValueError):
        geo.right_translation(1, far, top)
    with pytest.raises(ValueError):
        geo.right_translation(0, far, top - 1)
    with pytest.raises(ValueError):
        geo.right_translation(-1, spec.identity(), top)


def test_finite_group_translations_wrap_inside_the_ball():
    geo = GroupGeometry(GroupSpec(CyclicGroup(5)))
    for g in geo.ball(2):
        expected = tuple(geo.position(h * g, 2) for h in geo.ball(2))
        assert geo.right_translation(2, g, 2) == expected


@pytest.mark.parametrize("name", sorted(_table_specs()))
def test_step_tables_list_left_generator_neighbours(name):
    spec, top = _table_specs()[name]
    geo = GroupGeometry(spec)
    for radius in range(top + 1):
        ball = geo.ball(radius)
        index = {g: i for i, g in enumerate(ball)}
        expected = tuple(
            tuple((ai, index[a * g]) for ai, a in enumerate(spec.generators)
                  if a * g in index)
            for g in ball)
        assert geo.step_table(radius) == expected


@pytest.mark.parametrize("name", sorted(_table_specs()))
def test_words_follow_the_parent_pointers_geodesically(name):
    spec, top = _table_specs()[name]
    geo = GroupGeometry(spec)
    for g in geo.ball(top):
        word = geo.word(g, top)
        assert len(word) == geo.word_length(g, top)
        prod = spec.identity()
        for letter in word:
            prod = prod * letter
        assert prod == g
        assert rewrite_generator(g, spec, top) == word
    assert geo.word(geo.element_at(geo.ball_size(top) - 1), top - 1) is None
