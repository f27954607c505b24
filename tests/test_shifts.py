"""Truncated shift spaces: distances, admissibility, block counting."""

import itertools
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
    heisenberg_spec,
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
    gather,
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
    _Fill,
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
            exact = set(allowed_blocks_exact_line(sft, k))
            approx = set(allowed_blocks(sft, k, 2))
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


# --- reference kernels -------------------------------------------------------
# The fill, shift and distance written out cell by cell.  The reference fill
# draws each node's candidate order with Random.shuffle and looks every window
# up as a tuple built from its index table; the library's table-driven
# kernels must match it draw for draw, node for node.


class _RefFill:
    def __init__(self, space, sft, radius, prefix=None, rng=None,
                 node_budget=2_000_000):
        geo = space.geometry
        self.sft = sft
        self.rng = rng
        self.node_budget = node_budget
        self.symbols = space.alphabet.size
        self.size = geo.ball_size(radius)
        self.prefix = prefix or ()
        self.nodes = 0
        self.plan = [[] for _ in range(self.size)]
        if radius >= sft.window_radius:
            for g in geo.ball(radius - sft.window_radius):
                table = geo.right_translation(sft.window_radius, g, radius)
                self.plan[max(table)].append(table)

    def _ok(self, cells, pos):
        return all(tuple(cells[i] for i in table) in self.sft.allowed
                   for table in self.plan[pos])

    def _candidates(self):
        syms = list(range(self.symbols))
        if self.rng is not None:
            self.rng.shuffle(syms)
        return syms

    def solutions(self, limit=None):
        cells = list(self.prefix) + [-1] * (self.size - len(self.prefix))
        start = len(self.prefix)
        for pos in range(start):
            if not self._ok(cells, pos):
                return
        if start == self.size:
            yield tuple(cells)
            return
        stack = [self._candidates()]
        pos = start
        emitted = 0
        while stack:
            options = stack[-1]
            if not options:
                stack.pop()
                pos -= 1
                continue
            cells[pos] = options.pop()
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise CapacityError("fill search exceeded its node budget")
            if not self._ok(cells, pos):
                continue
            if pos == self.size - 1:
                yield tuple(cells)
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
                continue
            pos += 1
            stack.append(self._candidates())


def _ref_shift(g, x):
    geo = x.space.geometry
    radius = x.radius - geo.word_length(g, x.radius)
    cells = tuple(x.cells[geo.position(h * g, x.radius)] for h in geo.ball(radius))
    return Configuration(x.space, radius, cells)


def _ref_distance(x, y):
    geo = x.space.geometry
    for i, (u, v) in enumerate(zip(x.cells, y.cells)):
        if u != v:
            return DyadicDistance(max(geo.layer_of_position(i) - 1, 0), False)
    return DyadicDistance(min(x.radius, y.radius) + 1, True)


def _random_sft(space, window_radius, seed, share):
    """Forbid a random share of the window patterns: such SFTs have dead ends,
    so the fill backtracks, and some admit nothing at all."""
    rng = Random(seed)
    size = space.geometry.ball_size(window_radius)
    patterns = itertools.product(range(space.alphabet.size), repeat=size)
    return sft_from_forbidden(space, window_radius,
                              [c for c in patterns if rng.random() < share])


def _oracle_spaces():
    line = GroupGeometry(integer_line_spec())
    return {
        "line": ShiftSpace(line),
        "plane": ShiftSpace(GroupGeometry(integer_plane_spec())),
        "free": ShiftSpace(GroupGeometry(free_rank2_spec())),
        "heisenberg": ShiftSpace(GroupGeometry(heisenberg_spec())),
        "line-3": ShiftSpace(line, Alphabet(("0", "1", "2"))),
    }


# per space: its SFTs and the fill radius and enumeration radius used on them
_FILL_CASES = {
    "line": (lambda sp: [golden_mean_sft(sp), even_window_sft(sp),
                         _random_sft(sp, 1, 2, 0.5)], 7, 5),
    # random SFTs with no configuration on ball(4) at all, and with some
    # seeds that run out of the 4000-node budget
    "plane": (lambda sp: [hard_square_sft(sp), _random_sft(sp, 1, 1, 0.5),
                          _random_sft(sp, 1, 3, 0.5)], 4, 2),
    "free": (lambda sp: [one_forbidden_window_sft(sp), _random_sft(sp, 1, 3, 0.4)], 3, 2),
    "heisenberg": (lambda sp: [full_shift(sp), one_forbidden_window_sft(sp),
                               _random_sft(sp, 1, 2, 0.5)], 2, 1),
    "line-3": (lambda sp: [full_shift(sp), _random_sft(sp, 1, 2, 0.6)], 5, 3),
}


def _outcome(fill, limit):
    """Every solution up to ``limit``, then "capacity" if the budget ran out."""
    out = []
    try:
        out.extend(fill.solutions(limit=limit))
    except CapacityError:
        out.append("capacity")
    return out, fill.nodes


def _admissible(space, sft, radius, rng, prefix=None):
    """random_admissible's cells as a one-item list, or the failure as
    ``_outcome`` reports it."""
    try:
        return [random_admissible(space, sft, radius, rng, prefix=prefix,
                                  node_budget=4000).cells]
    except GenerationError:
        return []
    except CapacityError:
        return ["capacity"]


def _fill_pair(space, sft, radius, seed, **kw):
    """The library fill and the reference fill on equal fresh RNGs."""
    ours = _Fill(space, sft, radius, rng=Random(seed) if seed is not None else None, **kw)
    ref = _RefFill(space, sft, radius, rng=Random(seed) if seed is not None else None, **kw)
    return ours, ref


@pytest.mark.parametrize("name", sorted(_FILL_CASES))
def test_fill_matches_the_shuffle_reference_draw_for_draw(name):
    space = _oracle_spaces()[name]
    build, radius, enum_radius = _FILL_CASES[name]
    for sft in build(space):
        for seed in range(12):
            # random_admissible: same cells (or the same failure), same RNG state
            rng, ref_rng = Random(seed), Random(seed)
            ref_out, _ = _outcome(_RefFill(space, sft, radius, rng=ref_rng,
                                           node_budget=4000), 1)
            assert _admissible(space, sft, radius, rng) == ref_out
            assert rng.getstate() == ref_rng.getstate()
            # the same with a prefix: the reference solution's inner layers,
            # or random cells, which most SFTs reject outright
            cut = space.geometry.ball_size(radius - 1)
            prefix = (ref_out[0][:cut] if ref_out and ref_out[0] != "capacity"
                      else tuple(Random(seed).randrange(space.alphabet.size)
                                 for _ in range(cut)))
            for p in (prefix, prefix[:-1]):
                rng, ref_rng = Random(seed + 100), Random(seed + 100)
                ref = _RefFill(space, sft, radius, prefix=p, rng=ref_rng,
                               node_budget=4000)
                assert _admissible(space, sft, radius, rng, p) == _outcome(ref, 1)[0]
                assert rng.getstate() == ref_rng.getstate()
                ours, ref = _fill_pair(space, sft, radius, seed + 100, prefix=p,
                                       node_budget=4000)
                assert _outcome(ours, 1) == _outcome(ref, 1)
            # a randomized walk through many solutions counts the same nodes
            ours, ref = _fill_pair(space, sft, radius, seed, node_budget=4000)
            assert _outcome(ours, 40) == _outcome(ref, 40)
            assert ours.rng.getstate() == ref.rng.getstate()
        # enumeration: the same sequence and node count
        ours, ref = _fill_pair(space, sft, enum_radius, None, node_budget=20_000)
        assert _outcome(ours, None) == _outcome(ref, None)
        ref_first = _outcome(_RefFill(space, sft, enum_radius), 30)[0]
        assert list(enumerate_admissible(space, sft, enum_radius, limit=30)) == ref_first


@pytest.mark.parametrize("name", sorted(_FILL_CASES))
def test_fill_and_reference_refuse_at_the_same_node_budget(name):
    space = _oracle_spaces()[name]
    build, radius, _ = _FILL_CASES[name]
    for sft in build(space):
        for seed in (0, 1):
            ref = _RefFill(space, sft, radius, rng=Random(seed), node_budget=4000)
            out, nodes = _outcome(ref, 1)
            if out == ["capacity"]:
                continue
            # exactly the reference's node count is enough, one less is not
            for budget, refused in ((nodes, False), (nodes - 1, True)):
                ours, ref = _fill_pair(space, sft, radius, seed, node_budget=budget)
                got = _outcome(ours, 1)
                assert got == _outcome(ref, 1)
                assert (got[0][-1:] == ["capacity"]) == refused
                if refused:
                    with pytest.raises(CapacityError):
                        random_admissible(space, sft, radius, Random(seed),
                                          node_budget=budget)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inline_candidate_draw_is_random_shuffle(n):
    space = ShiftSpace(GroupGeometry(integer_line_spec()),
                       Alphabet(tuple(str(s) for s in range(n))))
    sft = full_shift(space)
    for seed in range(300):
        # on one cell every candidate is a solution, popped from the back
        rng, ref_rng = Random(seed), Random(seed)
        order = list(range(n))
        ref_rng.shuffle(order)
        got = [c[0] for c in _Fill(space, sft, 0, rng=rng).solutions()]
        assert got == order[::-1]
        assert rng.getstate() == ref_rng.getstate()
    for seed in range(20):
        ours, ref = _fill_pair(space, sft, 1, seed)
        assert _outcome(ours, None) == _outcome(ref, None)
        assert ours.rng.getstate() == ref.rng.getstate()


def test_gather_reads_tables_of_length_one_and_more():
    cells = (5, 6, 7, 8)
    assert gather((2,))(cells) == (7,)
    assert gather((2,))(list(cells)) == (7,)
    assert gather((3, 0, 3))(cells) == (8, 5, 8)
    assert gather((1, 2))(list(cells)) == (6, 7)
    assert gather(tuple(range(4)))(cells) == cells


@pytest.mark.parametrize("name", ["free", "heisenberg", "line", "plane"])
def test_shift_and_distance_match_the_cell_loops(name):
    space = _oracle_spaces()[name]
    geo = space.geometry
    top = {"line": 6, "plane": 4, "free": 3, "heisenberg": 2}[name]
    rng = Random(17)
    for radius in range(top + 1):
        size = geo.ball_size(radius)
        x = Configuration(space, radius, tuple(rng.randrange(2) for _ in range(size)))
        for g in geo.ball(radius):
            moved = shift(g, x)  # radius 0 when |g| is the radius: one cell
            assert moved == _ref_shift(g, x)
        for other in range(top + 1):
            cells = [rng.randrange(2) for _ in range(geo.ball_size(other))]
            common = min(size, len(cells))
            twins = [tuple(cells), tuple(x.cells[:common]) + tuple(cells[common:])]
            for pos in (0, common - 1, rng.randrange(common)):
                flipped = list(twins[1])
                flipped[pos] ^= 1  # a mismatch in the first cell, the last
                twins.append(tuple(flipped))  # common one, or anywhere
            for y_cells in twins:
                y = Configuration(space, other, y_cells)
                assert distance(x, y) == _ref_distance(x, y)
                assert distance(y, x) == _ref_distance(y, x)


def test_wide_alphabet_fill_memoises_at_most_one_order_per_node():
    # 12! candidate orders: the fill memoises only the ones it draws
    space = ShiftSpace(GroupGeometry(integer_line_spec()),
                       Alphabet(tuple(f"s{k}" for k in range(12))))
    sft = _random_sft(space, 1, 5, 0.9)  # dense enough to backtrack a lot
    for seed in range(6):
        ours, ref = _fill_pair(space, sft, 5, seed, node_budget=5000)
        assert _outcome(ours, 25) == _outcome(ref, 25)
        assert ours.rng.getstate() == ref.rng.getstate()
        assert 0 < len(ours.orders) <= ours.nodes
        assert all(sorted(order) == list(range(12)) for order in ours.orders.values())
