"""Subshifts of finite type over finitely generated groups, truncated to balls.

A configuration is a dense assignment of alphabet symbols to a Cayley ball,
stored in the ball's deterministic enumeration order (so restriction to a
smaller radius is a prefix slice).  The right shift acts by

    (g . x)_h = x_{h g}

and shrinks the radius by the word length of g.  The metric is 2^{-k} where k
is the largest j with agreement on ball(j); mismatch anywhere in ball(1) gives
distance 1, and full agreement at truncation yields an explicit
"indistinguishable" marker of value 2^{-(radius+1)} rather than a claim of 0.
Configurations on different radii are compared on their common ball, the
smaller of the two.

Local admissibility quantifies windows over every position whose whole window
fits in the ball.  Global admissibility is undecidable for general groups, so
``allowed_blocks`` computes a slack approximation (extendability to a larger
ball); exact block sets are available for the integer line (transfer graph)
and for finite groups (exhaustion).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import itemgetter
from random import Random
from typing import Callable, Iterator, Optional, Sequence

from .errors import CapacityError, GenerationError
from .groups import GroupElement, GroupGeometry, GroupSpec, IntegerLattice

NODE_BUDGET = 2_000_000
PATTERN_BUDGET = 1 << 20


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set; configurations store indices into ``symbols``."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError("an alphabet needs at least two symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise ValueError(f"unknown symbol {label!r}") from None


BINARY = Alphabet(("0", "1"))


def gather(table: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A reader that returns the cells at ``table``'s positions as a tuple,
    in one call; a one-entry table still gives a 1-tuple."""
    if len(table) == 1:
        i = table[0]
        return lambda cells: (cells[i],)
    return itemgetter(*table)


class ShiftSpace:
    """A group geometry plus an alphabet; equality is by group spec and alphabet."""

    def __init__(self, geometry: GroupGeometry, alphabet: Alphabet = BINARY):
        self.geometry = geometry
        self.alphabet = alphabet
        self._window_readers: dict[tuple[int, int], tuple[Callable, ...]] = {}
        self._window_plans: dict[tuple[int, int, bool], tuple] = {}

    @property
    def spec(self) -> GroupSpec:
        return self.geometry.spec

    def _key(self):
        return (self.geometry.spec, self.alphabet)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShiftSpace) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ShiftSpace({self.geometry.spec.family.name}, {self.alphabet.symbols})"

    def _window_centers(self, radius: int, window_radius: int) -> tuple[GroupElement, ...]:
        if radius < window_radius:
            return ()
        return self.geometry.ball(radius - window_radius)

    def window_readers(self, radius: int, window_radius: int) -> tuple[Callable, ...]:
        """One reader per g in ball(radius - window_radius): called on the
        cells of ball(radius), it returns the window at g, the cells of h*g
        for h in ball(window_radius), as a tuple."""
        key = (radius, window_radius)
        readers = self._window_readers.get(key)
        if readers is None:
            geo = self.geometry
            readers = tuple(gather(geo.right_translation(window_radius, g, radius))
                            for g in self._window_centers(radius, window_radius))
            self._window_readers[key] = readers
        return readers

    def window_plan(self, radius: int, window_radius: int, every_cell: bool = False):
        """Window readers grouped by the ball position that completes them,
        for incremental admissibility checks during backtracking fills; with
        ``every_cell``, by every position they hold, for re-checking one
        changed cell of an admissible assignment."""
        key = (radius, window_radius, every_cell)
        plan = self._window_plans.get(key)
        if plan is None:
            geo = self.geometry
            by_cell: list[list[Callable]] = [[] for _ in range(geo.ball_size(radius))]
            for g, read in zip(self._window_centers(radius, window_radius),
                               self.window_readers(radius, window_radius)):
                table = geo.right_translation(window_radius, g, radius)
                for pos in table if every_cell else (max(table),):
                    by_cell[pos].append(read)
            plan = tuple(tuple(ws) for ws in by_cell)
            self._window_plans[key] = plan
        return plan


@dataclass(frozen=True)
class Configuration:
    """A total symbol assignment on ball(radius), in ball enumeration order."""

    space: ShiftSpace
    radius: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = self.space.geometry.ball_size(self.radius)
        if len(self.cells) != expected:
            raise ValueError(
                f"configuration on ball({self.radius}) needs {expected} cells, "
                f"got {len(self.cells)}")

    def value_at(self, g: GroupElement) -> int:
        return self.cells[self.space.geometry.position(g, self.radius)]

    def restrict(self, radius: int) -> "Configuration":
        if radius > self.radius:
            raise ValueError("cannot restrict to a larger radius")
        size = self.space.geometry.ball_size(radius)
        return Configuration(self.space, radius, self.cells[:size])

    def serialize(self) -> str:
        labels = [self.space.alphabet.symbols[c] for c in self.cells]
        if all(len(s) == 1 for s in labels):
            return f"r={self.radius};" + "".join(labels)
        return f"r={self.radius};" + ",".join(labels)


def parse_configuration(space: ShiftSpace, text: str) -> Configuration:
    head, _, body = text.partition(";")
    if not head.startswith("r="):
        raise ValueError(f"bad configuration header in {text!r}")
    radius = int(head[2:])
    labels = body.split(",") if "," in body else list(body)
    cells = tuple(space.alphabet.index(s) for s in labels)
    return Configuration(space, radius, cells)


@dataclass(frozen=True)
class DyadicDistance:
    """A value 2^{-exponent}; ``marker`` flags truncation-limited agreement."""

    exponent: int
    marker: bool = False

    @property
    def value(self) -> Fraction:
        return Fraction(1, 2 ** self.exponent)

    def __repr__(self) -> str:
        tag = " (indistinguishable)" if self.marker else ""
        return f"2^-{self.exponent}{tag}"


def refutes(d: DyadicDistance, threshold: Fraction) -> bool:
    """True when an observed (non-marker) distance is at least the threshold.

    A marker never refutes: at truncation it means "could not distinguish",
    so no claim of exceeding the threshold is honest.
    """
    return (not d.marker) and d.value >= threshold


def distance(x: Configuration, y: Configuration) -> DyadicDistance:
    """2^{-k} with k the largest radius of full agreement on the common ball
    ball(min(x.radius, y.radius)); marker at truncation."""
    if x.space != y.space:
        raise ValueError("configurations live on different shift spaces")
    geo = x.space.geometry
    ends = [geo.ball_size(k) for k in range(min(x.radius, y.radius) + 1)]
    return layer_distance(ends, x.cells, y.cells)


def layer_distance(ends: Sequence[int], x: Sequence[int],
                   y: Sequence[int]) -> DyadicDistance:
    """``distance`` on cell sequences compared on the ball whose layer k
    ends at index ``ends[k]``."""
    lo = 0
    # ball(k) is a prefix of every larger ball, so layer k is a slice
    for k, hi in enumerate(ends):
        if x[lo:hi] != y[lo:hi]:
            return DyadicDistance(max(k - 1, 0), False)
        lo = hi
    return DyadicDistance(len(ends), True)


def shift(g: GroupElement, x: Configuration) -> Configuration:
    """Right shift: the result reads y_h = x_{hg}, on radius reduced by |g|."""
    geo = x.space.geometry
    length = geo.word_length(g, x.radius)
    if length is None:
        raise ValueError(f"cannot shift by {g!r}: word length exceeds radius {x.radius}")
    new_radius = x.radius - length
    table = geo.right_translation(new_radius, g, x.radius)
    return Configuration(x.space, new_radius, gather(table)(x.cells))


@dataclass(frozen=True)
class SftSpec:
    """A subshift of finite type: window radius plus allowed window contents.

    ``allowed`` holds dense cell tuples on ball(window_radius) in ball order.
    """

    space: ShiftSpace
    window_radius: int
    allowed: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        size = self.space.geometry.ball_size(self.window_radius)
        for cells in self.allowed:
            if len(cells) != size:
                raise ValueError("allowed pattern has the wrong support size")

    @property
    def window_size(self) -> int:
        return self.space.geometry.ball_size(self.window_radius)

    def all_window_cells(self) -> Iterator[tuple[int, ...]]:
        n = self.space.alphabet.size
        if n ** self.window_size > PATTERN_BUDGET:
            raise CapacityError(
                f"enumerating {n}^{self.window_size} window patterns exceeds the budget")
        return itertools.product(range(n), repeat=self.window_size)

    @property
    def forbidden(self) -> frozenset[tuple[int, ...]]:
        return frozenset(c for c in self.all_window_cells() if c not in self.allowed)


def sft_from_forbidden(space: ShiftSpace, window_radius: int,
                       forbidden: Sequence[tuple[int, ...]]) -> SftSpec:
    """Complement construction: allowed = all window patterns minus forbidden."""
    size = space.geometry.ball_size(window_radius)
    n = space.alphabet.size
    if n ** size > PATTERN_BUDGET:
        raise CapacityError("window complement enumeration exceeds the budget")
    bad = set(map(tuple, forbidden))
    for cells in bad:
        if len(cells) != size:
            raise ValueError("forbidden pattern has the wrong support size")
    allowed = frozenset(c for c in itertools.product(range(n), repeat=size)
                        if c not in bad)
    return SftSpec(space, window_radius, allowed)


def full_shift(space: ShiftSpace) -> SftSpec:
    allowed = frozenset((s,) for s in range(space.alphabet.size))
    return SftSpec(space, 0, allowed)


def locally_admissible(x: Configuration, sft: SftSpec) -> bool:
    """Every window wholly inside the ball carries an allowed pattern."""
    return not violations(x, sft, first_only=True)


def violations(x: Configuration, sft: SftSpec, first_only: bool = False) -> list[int]:
    """Ball indices g whose window pattern is not allowed."""
    if x.space != sft.space:
        raise ValueError("configuration and SFT live on different spaces")
    out: list[int] = []
    cells = x.cells
    allowed = sft.allowed
    for gi, read in enumerate(x.space.window_readers(x.radius, sft.window_radius)):
        if read(cells) not in allowed:
            out.append(gi)
            if first_only:
                return out
    return out


def _candidate_order(n: int, code: int) -> tuple[int, ...]:
    """The order Random.shuffle leaves range(n) in after the draws that
    ``code`` packs: its draw for i = n-1 .. 1 is the digit of place value i!."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = code // factorial(i) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


class _Fill:
    """Backtracking filler/enumerator for locally admissible assignments.

    A descent allocates nothing: its candidate order (range(n) without an
    RNG) is a tuple memoised in ``orders`` by its draw code, at most one per
    node, and per-position lists made once per search keep each position's
    order and its count of untried candidates, tried from the back.
    """

    def __init__(self, space: ShiftSpace, sft: SftSpec, radius: int,
                 prefix: Optional[tuple[int, ...]] = None,
                 rng: Optional[Random] = None,
                 node_budget: int = NODE_BUDGET):
        self.space = space
        self.sft = sft
        self.radius = radius
        self.size = space.geometry.ball_size(radius)
        self.plan = space.window_plan(radius, sft.window_radius)
        self.prefix = prefix or ()
        self.rng = rng
        self.node_budget = node_budget
        self.nodes = 0
        self.orders: dict[int, tuple[int, ...]] = {}
        if len(self.prefix) > self.size:
            raise ValueError("prefix longer than the target ball")

    def solutions(self, limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        plan = self.plan
        allowed = self.sft.allowed
        cells: list[int] = list(self.prefix) + [-1] * (self.size - len(self.prefix))
        start = len(self.prefix)
        for pos in range(start):
            for read in plan[pos]:
                if read(cells) not in allowed:
                    return
        if start == self.size:
            yield tuple(cells)
            return
        n = self.space.alphabet.size
        # Random.shuffle's draws, inline: for i = n-1 .. 1 it swaps i with
        # the first getrandbits((i + 1).bit_length()) draw that is at most i;
        # read as mixed-radix digits, the draws are the order's draw code
        getrandbits = self.rng.getrandbits if self.rng is not None else None
        schedule = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
        (top, top_bits), rest = schedule[0], tuple(schedule[1:])
        orders = self.orders
        natural = tuple(range(n))
        order_at: list[tuple[int, ...]] = [natural] * self.size
        untried_at = [0] * self.size
        last = self.size - 1
        budget = self.node_budget
        nodes = self.nodes
        pos = start - 1
        emitted = 0
        while True:
            # descend one position and draw its candidate order
            pos += 1
            if getrandbits is None:
                order = natural
            else:
                code = getrandbits(top_bits)
                while code > top:
                    code = getrandbits(top_bits)
                if rest:  # alphabets wider than binary
                    for i, k in rest:
                        j = getrandbits(k)
                        while j > i:
                            j = getrandbits(k)
                        code = code * (i + 1) + j
                try:
                    order = orders[code]
                except KeyError:
                    order = orders[code] = _candidate_order(n, code)
            untried = n
            # try candidates from the back, backtracking when a position runs out
            while True:
                if not untried:
                    if pos == start:
                        self.nodes = nodes
                        return
                    pos -= 1
                    order = order_at[pos]
                    untried = untried_at[pos]
                    continue
                untried -= 1
                cells[pos] = order[untried]
                nodes += 1
                if nodes > budget:
                    self.nodes = nodes
                    raise CapacityError("fill search exceeded its node budget")
                for read in plan[pos]:
                    if read(cells) not in allowed:
                        break
                else:
                    if pos < last:
                        order_at[pos] = order
                        untried_at[pos] = untried
                        break
                    self.nodes = nodes
                    yield tuple(cells)
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return


def random_admissible(space: ShiftSpace, sft: SftSpec, radius: int, rng: Random,
                      prefix: Optional[tuple[int, ...]] = None,
                      node_budget: int = NODE_BUDGET) -> Configuration:
    fill = _Fill(space, sft, radius, prefix=prefix, rng=rng, node_budget=node_budget)
    for cells in fill.solutions(limit=1):
        return Configuration(space, radius, cells)
    raise GenerationError(
        f"no locally admissible configuration on ball({radius}) with the given prefix")


def enumerate_admissible(space: ShiftSpace, sft: SftSpec, radius: int,
                         node_budget: int = NODE_BUDGET,
                         limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    fill = _Fill(space, sft, radius, rng=None, node_budget=node_budget)
    return fill.solutions(limit=limit)


def allowed_blocks(sft: SftSpec, k: int, slack: int,
                   node_budget: int = NODE_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Cells on ball(k), sorted, extendable to a locally admissible assignment on
    ball(k + slack).  Shrinks toward the exact block set as slack grows."""
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    space = sft.space
    out = []
    for base in enumerate_admissible(space, sft, k, node_budget=node_budget):
        fill = _Fill(space, sft, k + slack, prefix=base, node_budget=node_budget)
        if next(fill.solutions(limit=1), None) is not None:
            out.append(base)
    return tuple(sorted(out))


def _line_index_map(space: ShiftSpace, radius: int) -> list[int]:
    """Ball positions of the integers -radius .. radius, in line order."""
    family = space.geometry.family
    if not isinstance(family, IntegerLattice) or family.dimension != 1:
        raise ValueError("line helpers need the one-dimensional integer lattice")
    geo = space.geometry
    return [geo.position(GroupElement(family, (p,)), radius)
            for p in range(-radius, radius + 1)]


def configuration_from_line(space: ShiftSpace, radius: int, text: str) -> Configuration:
    """Build a line configuration from symbols listed left to right."""
    labels = list(text)
    if len(labels) != 2 * radius + 1:
        raise ValueError("line text length must be 2*radius + 1")
    idxs = _line_index_map(space, radius)
    cells = [0] * len(idxs)
    for line_pos, ball_pos in enumerate(idxs):
        cells[ball_pos] = space.alphabet.index(labels[line_pos])
    return Configuration(space, radius, tuple(cells))


def line_words_of(sft: SftSpec) -> frozenset[tuple[int, ...]]:
    """Allowed window patterns re-ordered as words along the line."""
    idxs = _line_index_map(sft.space, sft.window_radius)
    return frozenset(tuple(cells[i] for i in idxs) for cells in sft.allowed)


def _transfer_core(words: frozenset[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """States that admit bi-infinite admissible extensions (prune dead ends)."""
    core = set(words)
    changed = True
    while changed:
        changed = False
        with_successor = {u for u in core
                          if any(u[1:] == v[:-1] for v in core)}
        if with_successor != core:
            core = with_successor
            changed = True
        with_predecessor = {v for v in core
                            if any(u[1:] == v[:-1] for u in core)}
        if with_predecessor != core:
            core = with_predecessor
            changed = True
    return core


def allowed_blocks_exact_line(sft: SftSpec, k: int,
                              node_budget: int = NODE_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Exact block set over the integer line via transfer-graph reachability,
    as sorted cell tuples on ball(k)."""
    space = sft.space
    w = 2 * sft.window_radius + 1
    length = 2 * k + 1
    core = _transfer_core(line_words_of(sft))
    found: set[tuple[int, ...]] = set()
    if length <= w:
        off = sft.window_radius - k
        for u in core:
            found.add(u[off: off + length])
    else:
        by_prefix: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for v in core:
            by_prefix.setdefault(v[:-1], []).append(v)
        stack = [(u, u) for u in sorted(core)]
        nodes = 0
        while stack:
            word, state = stack.pop()
            nodes += 1
            if nodes > node_budget:
                raise CapacityError("transfer-graph walk exceeded its node budget")
            if len(word) == length:
                found.add(word)
                continue
            for v in by_prefix.get(state[1:], ()):
                stack.append((word + v[-1:], v))
    idxs = _line_index_map(space, k)
    out = set()
    for word in found:
        cells = [0] * len(idxs)
        for line_pos, ball_pos in enumerate(idxs):
            cells[ball_pos] = word[line_pos]
        out.add(tuple(cells))
    return tuple(sorted(out))


def allowed_blocks_exact_finite(sft: SftSpec, k: int,
                                node_budget: int = NODE_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Exact block set for a finite group by exhausting total configurations,
    as sorted cell tuples on ball(min(k, diameter))."""
    space = sft.space
    geo = space.geometry
    radius = 0
    while geo.ball_size(radius + 1) > geo.ball_size(radius):
        radius += 1
        if geo.ball_size(radius) > 10_000:
            raise CapacityError("group too large for exhaustive block counting")
    total = geo.ball_size(radius)
    n = space.alphabet.size
    if n ** total > node_budget:
        raise CapacityError(f"{n}^{total} total configurations exceed the budget")
    tables = [geo.right_translation(sft.window_radius, g, radius)
              for g in geo.ball(radius)]
    k_eff = min(k, radius)
    cut = geo.ball_size(k_eff)
    found = set()
    for cells in itertools.product(range(n), repeat=total):
        if all(tuple(cells[i] for i in t) in sft.allowed for t in tables):
            found.add(cells[:cut])
    return tuple(sorted(found))


def golden_mean_sft(space: ShiftSpace) -> SftSpec:
    """Binary line SFT forbidding adjacent ones (window radius 1)."""
    one = space.alphabet.index("1")
    idxs = _line_index_map(space, 1)
    bad = []
    for cells in itertools.product(range(space.alphabet.size), repeat=3):
        word = tuple(cells[i] for i in idxs)
        if (word[0] == one and word[1] == one) or (word[1] == one and word[2] == one):
            bad.append(cells)
    return sft_from_forbidden(space, 1, bad)


def even_window_sft(space: ShiftSpace) -> SftSpec:
    """Binary line SFT forbidding the word 1 0 1 (window radius 1)."""
    one = space.alphabet.index("1")
    zero = space.alphabet.index("0")
    idxs = _line_index_map(space, 1)
    bad = []
    for cells in itertools.product(range(space.alphabet.size), repeat=3):
        word = tuple(cells[i] for i in idxs)
        if word == (one, zero, one):
            bad.append(cells)
    return sft_from_forbidden(space, 1, bad)


def hard_square_sft(space: ShiftSpace) -> SftSpec:
    """Planar SFT: a one may not sit next to a one along either axis."""
    geo = space.geometry
    one = space.alphabet.index("1")
    center = geo.position(geo.spec.identity(), 1)
    neighbors = [i for i in range(geo.ball_size(1)) if i != center]
    bad = []
    for cells in itertools.product(range(space.alphabet.size), repeat=geo.ball_size(1)):
        if cells[center] == one and any(cells[i] == one for i in neighbors):
            bad.append(cells)
    return sft_from_forbidden(space, 1, bad)


def one_forbidden_window_sft(space: ShiftSpace) -> SftSpec:
    """Forbid the all-ones window on ball(1); handy over free groups."""
    one = space.alphabet.index("1")
    size = space.geometry.ball_size(1)
    return sft_from_forbidden(space, 1, [(one,) * size])
