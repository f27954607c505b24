"""Word-metric geometry: ball enumeration, layer order, family arithmetic."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.groups import (
    FreeGroup,
    GroupElement,
    GroupGeometry,
    GroupSpec,
    HeisenbergGroup,
    IntegerLattice,
    free_rank2_spec,
    heisenberg_spec,
    integer_line_spec,
    integer_plane_spec,
)
from shadowlab.shifts import Configuration, ShiftSpace


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
    ball = geo.ball(3)
    for g in ball:
        pos = geo.position(g, 3)
        assert geo.layer_of_position(pos) == geo.word_length(g, 3)
        assert ball[pos] == g


def test_right_translation_table_entries(geometries):
    geo = geometries["free-rank-2"]
    g = list(geo.ball(2))[7]
    table = geo.right_translation(2, g, 4)
    for i, h in enumerate(geo.ball(2)):
        assert geo.ball(4)[table[i]] == h * g


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
    word = GroupGeometry(two_gen).word(c, 6)
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
    skew_geo = GroupGeometry(skew)
    word = skew_geo.word(e2, 4)
    assert word is not None and len(word) == 2
    prod = skew.identity()
    for letter in word:
        prod = prod * letter
    assert prod == e2
    assert skew_geo.word(std.identity(), 4) == []


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


def test_negative_radius_is_refused():
    geo = GroupGeometry(free_rank2_spec())
    geo.ball(3)
    e = geo.spec.identity()
    refusals = [lambda: geo.ball(-1), lambda: geo.ball_size(-1),
                lambda: geo.position(e, -1), lambda: geo.step_table(-1),
                lambda: geo.translation_tables(-1, 2),
                lambda: geo.translation_tables(0, -1),
                lambda: Configuration(ShiftSpace(geo), -1, (0,) * 53)]
    for call in refusals:
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            call()


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
    geo = GroupGeometry(spec)  # cold: every table is built here
    for dst in range(top + 1):
        for g in geo.ball(dst):
            length = geo.word_length(g, dst)
            for src in range(dst - length + 1):
                expected = tuple(geo.position(h * g, dst) for h in geo.ball(src))
                assert geo.right_translation(src, g, dst) == expected
    # the array form holds the same tables as its rows
    for dst in range(top + 1):
        for src in range(dst + 2):
            array = geo.translation_array(src, dst)
            assert array.shape == (len(geo.translation_tables(src, dst)),
                                   geo.ball_size(src))
            assert list(map(tuple, array.tolist())) \
                == list(geo.translation_tables(src, dst))
    # the window plans and orders of a cold space read the same tables: a
    # reader called on the positions themselves returns its table
    space = ShiftSpace(GroupGeometry(spec))
    for dst in range(top + 1):
        cells = range(geo.ball_size(dst))
        for src in range(dst + 1):
            oracle = [tuple(geo.position(h * g, dst) for h in geo.ball(src))
                      for g in geo.ball(dst - src)]
            for every_cell in (False, True):
                plan = space.window_plan(dst, src, every_cell)
                assert [[read(cells) for read in readers] for readers in plan] \
                    == [[t for t in oracle if (pos in t if every_cell else max(t) == pos)]
                        for pos in cells]
            # the rows, sorted stably by the position completing them
            tables, ends = space.window_order(dst, src)
            by_end = sorted(oracle, key=max)
            assert list(map(tuple, tables.tolist())) == by_end
            assert ends.tolist() == sorted(ends.tolist()) == list(map(max, by_end))
        # no window fits when the window radius exceeds the radius
        for src in (dst + 1, dst + 2):
            tables, ends = space.window_order(dst, src)
            assert tables.shape == (0, geo.ball_size(src))
            assert ends.shape == (0,)
    assert space.window_plan(0, 1) == ((),)
    # a product leaving the destination ball is refused
    far = geo.ball(top)[-1]
    with pytest.raises(ValueError):
        geo.right_translation(1, far, top)
    with pytest.raises(ValueError):  # the first element of the layer beyond
        geo.right_translation(1, geo.ball(top)[geo.ball_size(top - 1)], top)
    with pytest.raises(ValueError):
        geo.right_translation(0, far, top - 1)
    with pytest.raises(ValueError):
        geo.right_translation(-1, spec.identity(), top)


def assert_frozen(array):
    """Neither a write nor making the array writeable again gets through."""
    with pytest.raises(ValueError, match="read-only"):
        array.flat[0] = array.flat[0]
    with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
        array.flags.writeable = True


def test_window_orders_are_shared_and_read_only():
    """So are the translation arrays and step faces: no holder of a cached
    index array can write through it."""
    space = ShiftSpace(GroupGeometry(free_rank2_spec()))
    geo = space.geometry
    tables, ends = space.window_order(3, 1)
    assert space.window_order(3, 1)[0] is tables
    assert tables[0].tolist() == list(range(5)) and ends[0] == 4
    translations = geo.translation_array(2, 5)
    assert geo.translation_array(2, 5) is translations
    faces = geo.step_faces(3)
    assert geo.step_faces(3) is faces
    cells = geo.step_cells(3, 4)
    assert geo.step_cells(3, 4) is cells
    for array in (tables, ends, translations, faces, *cells):
        assert_frozen(array)


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
        faces = geo.step_faces(radius)
        assert faces.shape == (3, sum(map(len, expected)))
        assert list(zip(*faces.tolist())) == [
            (i, a, j) for i, steps in enumerate(expected) for a, j in steps]
        # face (i, a, j) of a field with ball(inner) rows compares cell h*a
        # of row i with cell h of row j, h over ball(inner - 1)
        for inner in (1, 2):
            src, dst = geo.step_cells(radius, inner)
            width = geo.ball_size(inner)
            hs = geo.ball(inner - 1)
            assert src.tolist() == [
                [i * width + geo.position(h * spec.generators[a], inner) for h in hs]
                for i, a, _ in zip(*faces.tolist())]
            assert dst.tolist() == [[j * width + k for k in range(len(hs))]
                                    for j in faces[2].tolist()]


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
        assert GroupGeometry(spec).word(g, top) == word
    assert geo.word(geo.ball(top)[-1], top - 1) is None


@pytest.mark.parametrize("name", ["free-rank-2", "integer-plane"])
def test_elements_of_a_ball_hash_apart(name):
    # CPython hashes -1 like -2: hashing the raw letters folds x^-1 onto
    # y^-1 and (-1, 0) onto (-2, 0)
    geo = GroupGeometry(BALL_SIZES[name][0]())
    ball = geo.ball(6)
    assert len({hash(g) for g in ball}) == len(ball)


@pytest.mark.parametrize("make, radius", [(free_rank2_spec, 6),
                                          (integer_plane_spec, 6),
                                          (heisenberg_spec, 4)])
def test_grown_elements_are_valid_though_products_skip_validation(make, radius):
    # products and inverses are built without re-validating their payload
    spec = make()
    family = spec.family
    for g in GroupGeometry(spec).ball(radius):
        family.validate_payload(g.payload)
        family.validate_payload((~g).payload)
        assert g == GroupElement(family, g.payload)
        assert hash(g) == hash(GroupElement(family, g.payload))
    bad = {FreeGroup: [(1, -1), (3,), (0,), [1]],
           IntegerLattice: [(1,), (1, 0, 0), (1.0, 0), [1, 0]],
           HeisenbergGroup: [(1, 0), (0, 0, 0.5), [0, 0, 0]]}[type(family)]
    for payload in bad:  # the public constructor still refuses
        with pytest.raises(ValueError):
            GroupElement(family, payload)
