"""Truncated shift spaces: distances, admissibility, block counting."""

import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowlab import shifts
from shadowlab.errors import CapacityError, GenerationError
from shadowlab.groups import (
    GroupGeometry,
    free_rank2_spec,
    heisenberg_spec,
    integer_line_spec,
    integer_plane_spec,
)
from shadowlab.shifts import (
    Configuration,
    DyadicDistance,
    allowed_blocks,
    allowed_blocks_exact_line,
    distance,
    enumerate_admissible,
    even_window_sft,
    fill_rows,
    full_shift,
    gather,
    golden_mean_sft,
    hard_square_sft,
    layer_distance,
    locally_admissible,
    one_forbidden_window_sft,
    random_admissible,
    refutes,
    sft_from_forbidden,
    shift,
    SftSpec,
    ShiftSpace,
    _Fill,
    _binary_codes,
)
from shadowlab.shadowing import generate_pseudo_orbit, potp_modulus


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
    assert x.serialize() == "r=3;0110100"


def test_spaces_on_separate_geometries_of_one_spec_are_equal(line_space):
    twin = ShiftSpace(GroupGeometry(integer_line_spec()))
    assert twin.geometry is not line_space.geometry
    assert twin == line_space and hash(twin) == hash(line_space)
    assert twin != ShiftSpace(GroupGeometry(integer_plane_spec()))


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
    for i, h in enumerate(geo.ball(3)):
        assert moved.cells[i] == x.cells[geo.position(h * g, 4)]


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


def test_hard_square_rejects_adjacent_ones(plane_space):
    sft = hard_square_sft(plane_space)
    geo = plane_space.geometry
    ok = [0] * geo.ball_size(2)
    assert locally_admissible(Configuration(plane_space, 2, tuple(ok)), sft)
    bad = list(ok)
    bad[0] = 1
    bad[1] = 1  # identity and a generator neighbor both set
    assert not locally_admissible(Configuration(plane_space, 2, tuple(bad)), sft)
    # a symbol other than 0 and 1 is refused, one aliasing 0 as a byte too
    for symbol in (2, -1, 256):
        odd = Configuration(plane_space, 2, (symbol,) + tuple(ok[1:]))
        assert not locally_admissible(odd, sft)
        assert not locally_admissible(odd, full_shift(plane_space))


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


def test_enumeration_capacity_guard(free_space, monkeypatch):
    sft = full_shift(free_space)
    monkeypatch.setattr(shifts, "NODE_BUDGET", 50)
    with pytest.raises(CapacityError,
                       match=r"^fill search exceeded its 50-node budget on ball\(3\)$"):
        list(enumerate_admissible(free_space, sft, 3))


def test_transfer_walk_capacity_names_the_ball_and_budget(line_space, monkeypatch):
    sft = golden_mean_sft(line_space)
    monkeypatch.setattr(shifts, "NODE_BUDGET", 1_000)
    with pytest.raises(CapacityError, match=r"^transfer-graph walk for the blocks "
                       r"on ball\(9\) exceeded its 1,000-node budget$"):
        allowed_blocks_exact_line(sft, 9)


def test_pattern_capacity_names_the_count_and_budget(free_space):
    # ball(3) of the free group has 53 cells: 2^53 window patterns
    budget = r"window patterns exceeds the 1,048,576-pattern budget$"
    with pytest.raises(CapacityError, match=r"^enumerating 2\^53 " + budget):
        shifts.SftSpec(free_space, 3, frozenset()).forbidden
    with pytest.raises(CapacityError,
                       match=r"^enumerating the complement of 2\^53 " + budget):
        sft_from_forbidden(free_space, 3, [])


def _ref_line_sft(space, bad_word):
    """A line builder as a loop over the patterns read along the line."""
    idxs = shifts._line_index_map(space, 1)
    bad = [cells for cells in itertools.product((0, 1), repeat=3)
           if bad_word(tuple(cells[i] for i in idxs))]
    return sft_from_forbidden(space, 1, bad)


def _ref_golden_mean(space):
    return _ref_line_sft(space, lambda w: (w[0] == 1 and w[1] == 1)
                         or (w[1] == 1 and w[2] == 1))


def _ref_even_window(space):
    return _ref_line_sft(space, lambda w: w == (1, 0, 1))


def _ref_hard_square(space):
    geo = space.geometry
    center = geo.position(geo.spec.identity(), 1)
    neighbors = [i for i in range(geo.ball_size(1)) if i != center]
    bad = [cells for cells in itertools.product((0, 1), repeat=geo.ball_size(1))
           if cells[center] == 1 and any(cells[i] == 1 for i in neighbors)]
    return sft_from_forbidden(space, 1, bad)


def _allowed_or_refusal(build, space):
    try:
        return build(space).allowed
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("build, ref", [(golden_mean_sft, _ref_golden_mean),
                                        (even_window_sft, _ref_even_window),
                                        (hard_square_sft, _ref_hard_square)])
def test_builders_match_their_pattern_loops(build, ref):
    for name, space in _oracle_spaces().items():
        got = _allowed_or_refusal(build, space)
        assert got == _allowed_or_refusal(ref, space), name
        if build is not hard_square_sft and name != "line":
            assert got == "line helpers need the one-dimensional integer lattice"


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
        syms = [0, 1]
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


def _ref_layer_distance(ends, x, y):
    """layer_distance walked layer by layer, cell by cell."""
    lo = 0
    for k, hi in enumerate(ends):
        if any(x[i] != y[i] for i in range(lo, hi)):
            return DyadicDistance(max(k - 1, 0), False)
        lo = hi
    return DyadicDistance(len(ends), True)


def _random_sft(space, window_radius, seed, share):
    """Forbid a random share of the window patterns: such SFTs have dead ends,
    so the fill backtracks, and some admit nothing at all."""
    rng = Random(seed)
    size = space.geometry.ball_size(window_radius)
    patterns = itertools.product((0, 1), repeat=size)
    return sft_from_forbidden(space, window_radius,
                              [c for c in patterns if rng.random() < share])


def _oracle_spaces():
    return {
        "line": ShiftSpace(GroupGeometry(integer_line_spec())),
        "plane": ShiftSpace(GroupGeometry(integer_plane_spec())),
        "free": ShiftSpace(GroupGeometry(free_rank2_spec())),
        "heisenberg": ShiftSpace(GroupGeometry(heisenberg_spec())),
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
}


def _outcome(fill, limit):
    """Every solution up to ``limit``, then "capacity" if the budget ran out."""
    out = []
    try:
        out.extend(fill.solutions(limit=limit))
    except CapacityError:
        out.append("capacity")
    return out, fill.nodes


def _admissible(monkeypatch, space, sft, radius, rng, prefix=None):
    """random_admissible's cells within 4000 nodes as a one-item list, or
    the failure as ``_outcome`` reports it."""
    monkeypatch.setattr(shifts, "NODE_BUDGET", 4000)
    try:
        return [random_admissible(space, sft, radius, rng, prefix=prefix).cells]
    except GenerationError:
        return []
    except CapacityError:
        return ["capacity"]


def _fill_pair(monkeypatch, space, sft, radius, seed, budget=2_000_000,
               prefix=None):
    """The library fill and the reference fill on equal fresh RNGs, both
    held to ``budget`` nodes."""
    monkeypatch.setattr(shifts, "NODE_BUDGET", budget)
    ours = _Fill(space, sft, radius, prefix=prefix,
                 rng=Random(seed) if seed is not None else None)
    ref = _RefFill(space, sft, radius, prefix=prefix, node_budget=budget,
                   rng=Random(seed) if seed is not None else None)
    return ours, ref


@pytest.mark.parametrize("name", sorted(_FILL_CASES))
def test_fill_matches_the_shuffle_reference_draw_for_draw(name, monkeypatch):
    space = _oracle_spaces()[name]
    build, radius, enum_radius = _FILL_CASES[name]
    for sft in build(space):
        for seed in range(12):
            # random_admissible: same cells (or the same failure), same RNG state
            rng, ref_rng = Random(seed), Random(seed)
            ref_out, _ = _outcome(_RefFill(space, sft, radius, rng=ref_rng,
                                           node_budget=4000), 1)
            assert _admissible(monkeypatch, space, sft, radius, rng) == ref_out
            assert rng.getstate() == ref_rng.getstate()
            # the same with a prefix: the reference solution's inner layers,
            # or random cells, which most SFTs reject outright
            cut = space.geometry.ball_size(radius - 1)
            prefix = (ref_out[0][:cut] if ref_out and ref_out[0] != "capacity"
                      else tuple(Random(seed).randrange(2) for _ in range(cut)))
            for p in (prefix, prefix[:-1]):
                rng, ref_rng = Random(seed + 100), Random(seed + 100)
                ref = _RefFill(space, sft, radius, prefix=p, rng=ref_rng,
                               node_budget=4000)
                assert _admissible(monkeypatch, space, sft, radius, rng, p) \
                    == _outcome(ref, 1)[0]
                assert rng.getstate() == ref_rng.getstate()
                ours, ref = _fill_pair(monkeypatch, space, sft, radius, seed + 100,
                                       4000, prefix=p)
                assert _outcome(ours, 1) == _outcome(ref, 1)
            # a randomized walk through many solutions counts the same nodes
            ours, ref = _fill_pair(monkeypatch, space, sft, radius, seed, 4000)
            assert _outcome(ours, 40) == _outcome(ref, 40)
            assert ours.rng.getstate() == ref.rng.getstate()
        # enumeration: the same sequence and node count
        ours, ref = _fill_pair(monkeypatch, space, sft, enum_radius, None, 20_000)
        assert _outcome(ours, None) == _outcome(ref, None)
        ref_first = _outcome(_RefFill(space, sft, enum_radius), 30)[0]
        first = itertools.islice(enumerate_admissible(space, sft, enum_radius), 30)
        assert list(first) == ref_first


@pytest.mark.parametrize("name", sorted(_FILL_CASES))
def test_fill_and_reference_refuse_at_the_same_node_budget(name, monkeypatch):
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
                ours, ref = _fill_pair(monkeypatch, space, sft, radius, seed, budget)
                got = _outcome(ours, 1)
                assert got == _outcome(ref, 1)
                assert (got[0][-1:] == ["capacity"]) == refused
                if refused:  # _fill_pair left NODE_BUDGET at budget
                    with pytest.raises(CapacityError):
                        random_admissible(space, sft, radius, Random(seed))


def test_inline_candidate_draw_is_random_shuffle(line_space, monkeypatch):
    space = line_space
    sft = full_shift(space)
    for seed in range(300):
        # on one cell every candidate is a solution, popped from the back
        rng, ref_rng = Random(seed), Random(seed)
        order = [0, 1]
        ref_rng.shuffle(order)
        got = [c[0] for c in _Fill(space, sft, 0, rng=rng).solutions()]
        assert got == order[::-1]
        assert rng.getstate() == ref_rng.getstate()
    for seed in range(20):
        ours, ref = _fill_pair(monkeypatch, space, sft, 1, seed)
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


def test_layer_distance_matches_the_layer_walk():
    free = GroupGeometry(free_rank2_spec())
    layouts = [tuple(free.ball_size(k) for k in range(5)),  # 1, 5, 17, 53, 161
               (1, 3, 4, 9), (1,), (4,)]
    rng = Random(5)
    for ends in layouts:
        size = ends[-1]
        x = tuple(rng.randrange(2) for _ in range(size))
        ys = [x]  # identical: the marker
        for pos in range(size):  # index 0, the last layer alone, and between
            ys.append(x[:pos] + (1 - x[pos],) + x[pos + 1:])
        for _ in range(20):  # several differences
            ys.append(tuple(c ^ (rng.random() < 0.1) for c in x))
        for y in ys:
            for tail in ((), (0, 1, 1)):  # x longer than y: only ends count
                got = layer_distance(ends, x + tail, y)
                assert got == _ref_layer_distance(ends, x + tail, y)
                assert got == layer_distance(ends, y, x + tail)
    ends = layouts[0]
    same = (0,) * ends[-1]
    assert layer_distance(ends, same, same) == DyadicDistance(5, True)
    assert layer_distance(ends, (1,) + same[1:], same) == DyadicDistance(0, False)
    assert layer_distance(ends, same[:-1] + (1,), same) == DyadicDistance(3, False)
    assert layer_distance(ends, same + (1,), same) == DyadicDistance(5, True)
    assert layer_distance((1,), (0, 1), (0, 0)) == DyadicDistance(1, True)
    assert layer_distance((1,), (1, 1), (0, 1)) == DyadicDistance(0, False)


# --- one-pass fills ------------------------------------------------------------
# With a safe symbol the search never backtracks, and
# random_admissible fills in one pass; it must still match the reference
# fill cell for cell, draw for draw and node for node.


def _zeros_forbidden_sft(space):
    """Forbid the all-zeros window on ball(1): its safe symbol is 1."""
    return sft_from_forbidden(space, 1, [(0,) * space.geometry.ball_size(1)])


_ONE_PASS_CASES = [
    ("free", one_forbidden_window_sft, 7),
    ("heisenberg", one_forbidden_window_sft, 4),
    ("plane", one_forbidden_window_sft, 10),
    ("line", _zeros_forbidden_sft, 40),
    ("line", full_shift, 40),
    ("plane", full_shift, 8),
]


@pytest.mark.parametrize("name, build, radius", _ONE_PASS_CASES)
def test_one_pass_matches_the_shuffle_reference_at_scale(name, build, radius):
    space = _oracle_spaces()[name]
    sft = build(space)
    geo = space.geometry
    constant = (1 - sft.safe_symbol,) * geo.ball_size(1)
    refused = 0
    for seed in range(24):
        kept = next(_RefFill(space, sft, radius, rng=Random(seed)).solutions(1))
        # no prefix, a kept inner ball, random cells and the constant window
        # without the safe symbol: unless the SFT is the full shift, its
        # forbidden pattern, which rejects the last prefix and most random ones
        random_cells = tuple(Random(seed).randrange(2)
                             for _ in range(geo.ball_size(radius // 2)))
        for prefix in (None, kept[:geo.ball_size(radius - 2)], random_cells,
                       constant):
            ours = _Fill(space, sft, radius, prefix=prefix, rng=Random(seed + 1))
            assert ours.one_pass_fits()
            ref = _RefFill(space, sft, radius, prefix=prefix, rng=Random(seed + 1))
            expected = next(ref.solutions(1), None)
            cells = ours.one_pass()
            assert (None if cells is None else tuple(cells)) == expected
            assert ours.nodes == ref.nodes
            assert ours.rng.getstate() == ref.rng.getstate()
            rng = Random(seed + 1)
            try:
                got = random_admissible(space, sft, radius, rng, prefix).cells
            except GenerationError:
                got = None
            assert got == expected
            assert rng.getstate() == ref.rng.getstate()
            refused += expected is None
    assert (refused > 0) == (build is not full_shift)


def test_one_pass_matches_the_reference_on_the_tree_batch_ball(free_space):
    # the free-group fields of the tree batch fill ball(9) in one pass
    sft = one_forbidden_window_sft(free_space)
    geo = free_space.geometry
    size = geo.ball_size(9)
    tables = geo.translation_tables(1, 9)
    rescued = 0
    for seed in range(2):
        ours = _Fill(free_space, sft, 9, rng=Random(seed))
        ref = _RefFill(free_space, sft, 9, rng=Random(seed))
        assert ours.one_pass_fits()
        assert tuple(ours.one_pass()) == next(ref.solutions(1))
        assert ours.nodes == ref.nodes
        assert ours.rng.getstate() == ref.rng.getstate()
        # windows rejecting the drawn codes, against the switches made: a
        # candidate that an earlier switch made safe needs none
        codes = _binary_codes(Random(seed).getrandbits, size)
        candidates = sum(sft.safe_symbol not in map(codes.__getitem__, t)
                         for t in tables)
        switches = ref.nodes - size
        assert 0 < switches <= candidates
        rescued += candidates - switches
    assert rescued > 0


def _recorded_fills(monkeypatch, reference):
    """Swap in a fill that records itself; with ``reference``, every
    random_admissible runs the shuffle reference instead."""
    fills = []

    class Recorded(_Fill):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if not reference:
                fills.append(self)

        def one_pass_fits(self):
            return not reference and super().one_pass_fits()

        def solutions(self, limit=None):
            assert reference, "a one-pass fill fell back to the search"
            ref = _RefFill(self.space, self.sft, self.radius, self.prefix,
                           self.rng)
            fills.append(ref)
            return ref.solutions(limit)

    monkeypatch.setattr(shifts, "_Fill", Recorded)
    return fills


@pytest.mark.parametrize("name, inner", [("free", 6), ("heisenberg", 6)])
def test_perturbed_fields_fill_in_one_pass_as_the_reference_does(
        name, inner, monkeypatch):
    space = _oracle_spaces()[name]
    sft = one_forbidden_window_sft(space)
    plan = potp_modulus(1, Fraction(1, 2))
    perturbed = 0
    for seed in range(20):
        runs = []
        for reference in (False, True):
            fills = _recorded_fills(monkeypatch, reference)
            rng = Random(seed)
            orbit = generate_pseudo_orbit(sft, 1, plan, rng, inner_radius=inner)
            runs.append((orbit.entries, orbit.perturbed_cells, rng.getstate(),
                         [f.nodes for f in fills]))
        assert runs[0] == runs[1]
        assert len(runs[0][3]) == 1 + space.geometry.ball_size(1)
        perturbed += len(orbit.perturbed_cells)
    assert perturbed > 0


def test_one_pass_leaves_a_tight_budget_to_the_search(free_space, monkeypatch):
    sft = one_forbidden_window_sft(free_space)
    m = free_space.geometry.ball_size(6)
    for seed in range(6):
        full = _RefFill(free_space, sft, 6, rng=Random(seed))
        expected = next(full.solutions(1))
        assert m < full.nodes < 2 * m  # a switch or more, and below 2m
        for budget, refused in ((full.nodes, False), (full.nodes - 1, True)):
            monkeypatch.setattr(shifts, "NODE_BUDGET", budget)
            fill = _Fill(free_space, sft, 6, rng=Random(seed))
            assert not fill.one_pass_fits()
            ref = _RefFill(free_space, sft, 6, rng=Random(seed), node_budget=budget)
            rng = Random(seed)
            if refused:
                with pytest.raises(CapacityError):
                    random_admissible(free_space, sft, 6, rng)
                with pytest.raises(CapacityError):
                    next(ref.solutions(1))
            else:
                assert random_admissible(free_space, sft, 6, rng).cells \
                    == next(ref.solutions(1)) == expected
            assert rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("count", [0, 1, 2, 3, 1000, 40_000])
def test_word_block_draws_are_the_sequential_binary_draws(count):
    # relies on getrandbits(32 * j) holding j whole words, first word lowest
    for seed in range(4):
        rng, ref_rng = Random(seed), Random(seed)
        expected = []
        for _ in range(count):
            code = ref_rng.getrandbits(2)
            while code > 1:
                code = ref_rng.getrandbits(2)
            expected.append(code)
        assert list(_binary_codes(rng.getrandbits, count)) == expected
        assert rng.getstate() == ref_rng.getstate()


def test_safe_symbols(line_space, plane_space, free_space):
    assert one_forbidden_window_sft(free_space).safe_symbol == 0
    assert one_forbidden_window_sft(plane_space).safe_symbol == 0
    assert full_shift(free_space).safe_symbol == 0
    assert full_shift(line_space).safe_symbol == 0
    assert hard_square_sft(plane_space).safe_symbol is None
    assert golden_mean_sft(line_space).safe_symbol is None
    assert even_window_sft(line_space).safe_symbol is None
    # the one forbidden pattern that avoids 1
    assert sft_from_forbidden(line_space, 1, [(0, 0, 0)]).safe_symbol == 1
    assert _zeros_forbidden_sft(free_space).safe_symbol == 1
    assert sft_from_forbidden(line_space, 0, [(0,), (1,)]).safe_symbol is None


def test_only_fills_with_a_safe_symbol_skip_the_search(free_space, plane_space,
                                                      monkeypatch):
    def no_search(self, limit=None):
        raise AssertionError("searched")

    monkeypatch.setattr(_Fill, "solutions", no_search)
    sft = one_forbidden_window_sft(free_space)
    x = random_admissible(free_space, sft, 9, Random(0))
    assert len(x.cells) == 39_365 and locally_admissible(x, sft)
    with pytest.raises(AssertionError, match="searched"):
        random_admissible(plane_space, hard_square_sft(plane_space), 4, Random(0))
    with pytest.raises(AssertionError, match="searched"):  # not a symbol
        random_admissible(free_space, sft, 3, Random(0), prefix=(2,))


def test_allowed_tables_hold_the_allowed_patterns(line_space, plane_space,
                                                  free_space):
    for sft in (golden_mean_sft(line_space), hard_square_sft(plane_space),
                one_forbidden_window_sft(free_space), full_shift(line_space),
                sft_from_forbidden(line_space, 0, [(0,), (1,)])):
        k = sft.window_size
        table = sft.allowed_table
        assert table.tolist() == [
            tuple((code >> i) & 1 for i in range(k)) in sft.allowed
            for code in range(2 ** k)]
        patterns = np.array(list(itertools.product((0, 1), repeat=k)), np.uint8)
        assert sft.allows(patterns).tolist() \
            == [tuple(c) in sft.allowed for c in patterns.tolist()]
        for array in (table, sft.pattern_weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                array.flags.writeable = True
    # a window of 21 cells has more pattern codes than the budget allows
    wide = SftSpec(line_space, 10, frozenset({(0,) * 21}))
    with pytest.raises(CapacityError, match="2\\^21 window patterns"):
        wide.allowed_table


def test_a_forbidden_prefix_yields_nothing_and_draws_nothing(plane_space):
    sft = hard_square_sft(plane_space)
    # the identity and its first neighbour both hold 1: the window at the
    # identity, inside the prefix's ball(2), is forbidden
    prefix = (1, 1) + (0,) * (plane_space.geometry.ball_size(2) - 2)
    for seed in range(3):
        rng = Random(seed)
        state = rng.getstate()
        fill = _Fill(plane_space, sft, 4, prefix=prefix, rng=rng)
        assert not fill.prefix_passes()
        assert list(fill.solutions()) == [] and fill.nodes == 0
        with pytest.raises(GenerationError):
            random_admissible(plane_space, sft, 4, rng, prefix=prefix)
        assert rng.getstate() == state
        ref = _RefFill(plane_space, sft, 4, prefix=prefix, rng=Random(seed))
        assert list(ref.solutions()) == [] and ref.nodes == 0


def test_a_non_binary_prefix_is_refused_not_aliased(line_space):
    # as a pattern code, a 2 in one cell reads as a 1 in the next: the
    # window (0, 2, 0) would pass as the allowed (0, 0, 1), and a 2 on a
    # one-cell window would index past the table
    for sft, prefix in ((golden_mean_sft(line_space), (0, 2, 0)),
                        (one_forbidden_window_sft(line_space), (0, 2, 0)),
                        (full_shift(line_space), (0, 2))):
        rng = Random(0)
        state = rng.getstate()
        fill = _Fill(line_space, sft, 3, prefix=prefix, rng=rng)
        assert not fill.prefix_passes()
        assert list(fill.solutions()) == [] and fill.nodes == 0
        if sft.safe_symbol is not None:
            assert fill.one_pass() is None
        assert rng.getstate() == state
    assert list(_RefFill(line_space, golden_mean_sft(line_space), 3,
                         prefix=(0, 2, 0)).solutions()) == []


# --- batched fills -------------------------------------------------------------
# fill_rows checks every head's windows at once and then fills each row with
# its own _Fill: row for row it must be the lone fill, draw for draw and node
# for node, and it refuses a failing head before any row draws.


def _recording_fills(monkeypatch):
    """Swap in a fill that records every instance made through the module."""
    fills = []

    class Recorded(_Fill):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fills.append(self)

    monkeypatch.setattr(shifts, "_Fill", Recorded)
    return fills


def _lone_fill(space, sft, radius, head, seed):
    """A lone fill's cells (or its failure's type), nodes and RNG state."""
    fill = _Fill(space, sft, radius, head, Random(seed))
    try:
        out = tuple(fill.first_cells())
    except (GenerationError, CapacityError) as exc:
        out = type(exc)
    return out, fill.nodes, fill.rng.getstate()


@pytest.mark.parametrize("name", sorted(_FILL_CASES))
def test_a_batch_fills_each_row_as_its_lone_fill(name, monkeypatch):
    space = _oracle_spaces()[name]
    build, radius, _ = _FILL_CASES[name]
    cut = space.geometry.ball_size(radius - 1)
    monkeypatch.setattr(shifts, "NODE_BUDGET", 4000)
    outcomes = set()
    for sft in build(space):
        # the inner layers of lone fills, or random cells where none fills
        heads = [out[:cut] for out, _, _ in
                 (_lone_fill(space, sft, radius, (), seed) for seed in range(8))
                 if isinstance(out, tuple)]
        heads = heads or [tuple(Random(seed).randrange(2) for _ in range(cut))
                          for seed in range(3)]
        seeds = range(100, 100 + len(heads))
        expected = [_lone_fill(space, sft, radius, h, s) for h, s in zip(heads, seeds)]
        fails = [out for out, _, _ in expected if not isinstance(out, tuple)]
        fills = _recording_fills(monkeypatch)
        rngs = list(map(Random, seeds))
        batch = np.array(heads, dtype=np.uint8)
        if fails:
            with pytest.raises(fails[0]):
                fill_rows(space, sft, radius, batch, rngs)
        else:
            rows = fill_rows(space, sft, radius, batch, rngs)
            assert rows.dtype == np.uint8
            assert list(map(tuple, rows.tolist())) == [out for out, _, _ in expected]
        if fills and fills[0].passes is False:
            # a failing head: its lone fill alone ran, and nothing drew
            assert [f.nodes for f in fills] == [0]
            assert [r.getstate() for r in rngs] == [Random(s).getstate() for s in seeds]
        else:
            # the row fills ran in order up to the first failure, each
            # drawing and counting as its lone fill
            got = [(f.nodes, f.rng.getstate()) for f in fills]
            assert got == [(nodes, state) for _, nodes, state in expected[:len(got)]]
        outcomes.update(fails or ["filled"])
        outcomes.update("one pass" for f in fills if f.one_pass_fits())
    assert "filled" in outcomes
    assert ("one pass" in outcomes) == (name in ("free", "heisenberg"))


_BAD_HEAD_CASES = [
    # (space, SFT builder, radius, a good head, the bad heads)
    ("line", golden_mean_sft, 4, (0, 1, 0), [(1, 1, 0), (0, 2, 0)]),
    ("plane", hard_square_sft, 3, (1, 0, 0, 0, 0),
     [(1, 1, 0, 0, 0), (0, 0, 2, 0, 0)]),
    ("free", one_forbidden_window_sft, 3, (1, 1, 1, 1, 0),
     [(1, 1, 1, 1, 1), (2, 0, 0, 0, 0)]),
    ("heisenberg", full_shift, 2, (1, 0, 1, 0, 1), [(0, 0, 0, 0, 2)]),
]


@pytest.mark.parametrize("name, build, radius, good, bad", _BAD_HEAD_CASES)
def test_a_bad_head_is_refused_before_any_draw(name, build, radius, good, bad):
    space = _oracle_spaces()[name]
    sft = build(space)
    for head in bad:
        # a lone fill: nothing drawn from the caller's RNG
        rng = Random(1)
        state = rng.getstate()
        with pytest.raises(GenerationError):
            random_admissible(space, sft, radius, rng, prefix=head)
        assert rng.getstate() == state
        # a batch: the bad head last, after heads that would fill
        rngs = [Random(seed) for seed in range(4)]
        states = [r.getstate() for r in rngs]
        heads = np.array([good] * 3 + [head], dtype=np.uint8)
        with pytest.raises(GenerationError):
            fill_rows(space, sft, radius, heads, rngs)
        assert [r.getstate() for r in rngs] == states
    rows = fill_rows(space, sft, radius, np.array([good] * 2, dtype=np.uint8),
                     [Random(0), Random(1)])
    assert [tuple(r[:len(good)]) for r in rows.tolist()] == [good] * 2
    # a lone prefix may hold symbols that no byte holds
    for symbol in (-1, 256, 257):
        rng = Random(1)
        state = rng.getstate()
        with pytest.raises(GenerationError):
            random_admissible(space, sft, radius, rng,
                              prefix=(symbol,) + good[1:])
        assert rng.getstate() == state


@pytest.mark.parametrize("name", sorted(_FILL_CASES))
def test_allowed_blocks_match_the_lone_reference_fills(name):
    space = _oracle_spaces()[name]
    build, _, enum_radius = _FILL_CASES[name]
    for sft in build(space):
        for k, slack in ((enum_radius - 1, 1), (enum_radius - 1, 0)):
            expected = sorted(
                base for base in _RefFill(space, sft, k).solutions()
                if next(_RefFill(space, sft, k + slack, base).solutions(1), None)
                is not None)
            assert allowed_blocks(sft, k, slack) == tuple(expected)
