"""Subshifts of finite type over finitely generated groups, truncated to balls.

A configuration is a dense assignment of the symbols 0 and 1 to a Cayley ball,
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
ball); the exact block set is available for the integer line (transfer
graph).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapacityError, GenerationError
from .groups import (
    GroupElement,
    GroupGeometry,
    GroupSpec,
    IntegerLattice,
    read_only,
)

NODE_BUDGET = 2_000_000
PATTERN_BUDGET = 1 << 20


def gather(table: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A reader that returns the cells at ``table``'s positions as a tuple,
    in one call; a one-entry table still gives a 1-tuple."""
    if len(table) == 1:
        i = table[0]
        return lambda cells: (cells[i],)
    return itemgetter(*table)


class ShiftSpace:
    """Binary configurations over a group geometry; equality is by group spec."""

    def __init__(self, geometry: GroupGeometry):
        self.geometry = geometry
        self._window_plans: dict[tuple[int, int, bool], tuple] = {}
        self._window_orders: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def spec(self) -> GroupSpec:
        return self.geometry.spec

    def __eq__(self, other) -> bool:
        return isinstance(other, ShiftSpace) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"ShiftSpace({self.spec.family.name})"

    def window_plan(self, radius: int, window_radius: int, every_cell: bool = False):
        """Window readers grouped by the ball position that completes them,
        for incremental admissibility checks during backtracking fills; with
        ``every_cell``, by every position they hold, for re-checking one
        changed cell of an admissible assignment.  The reader of the window
        at g in ball(radius - window_radius), called on the cells of
        ball(radius), returns the cells of h*g for h in ball(window_radius)
        as a tuple."""
        key = (radius, window_radius, every_cell)
        plan = self._window_plans.get(key)
        if plan is None:
            geo = self.geometry
            by_cell: list[list[Callable]] = [[] for _ in range(geo.ball_size(radius))]
            for table in geo.translation_tables(window_radius, radius):
                read = gather(table)
                for pos in table if every_cell else (max(table),):
                    by_cell[pos].append(read)
            plan = tuple(tuple(ws) for ws in by_cell)
            self._window_plans[key] = plan
        return plan

    def window_order(self, radius: int,
                     window_radius: int) -> tuple[np.ndarray, np.ndarray]:
        """The window tables of ``translation_tables(window_radius, radius)``
        as the rows of one integer array, sorted stably by the ball position
        that completes them (their maximum), and those positions,
        nondecreasing; both arrays are shared, so they are read-only."""
        key = (radius, window_radius)
        order = self._window_orders.get(key)
        if order is None:
            geo = self.geometry
            tables = np.array(geo.translation_tables(window_radius, radius),
                              dtype=np.intp).reshape(-1, geo.ball_size(window_radius))
            ends = tables.max(axis=1)
            rows = np.argsort(ends, kind="stable")
            order = self._window_orders[key] = (read_only(tables[rows]),
                                                read_only(ends[rows]))
        return order


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

    def restrict(self, radius: int) -> "Configuration":
        if radius > self.radius:
            raise ValueError("cannot restrict to a larger radius")
        size = self.space.geometry.ball_size(radius)
        return Configuration(self.space, radius, self.cells[:size])

    def serialize(self) -> str:
        return f"r={self.radius};" + "".join(map(str, self.cells))


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
    ends at index ``ends[k]``.  Ball(k) is a prefix of every larger ball, so
    x and y agree on ball(k) exactly when their first ``ends[k]`` cells
    agree, and that holds for every k below the first layer with a
    difference and for none from it on: one comparison of the whole ball,
    then a bisection over ``ends`` when it finds a difference."""
    if x[:ends[-1]] == y[:ends[-1]]:
        return DyadicDistance(len(ends), True)
    lo, hi = 0, len(ends) - 1  # the first differing layer lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if x[:ends[mid]] == y[:ends[mid]]:
            lo = mid + 1
        else:
            hi = mid
    return DyadicDistance(max(lo - 1, 0), False)


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

    @property
    def forbidden(self) -> frozenset[tuple[int, ...]]:
        return frozenset(c for c in window_patterns(self.space, self.window_radius)
                         if c not in self.allowed)

    @cached_property
    def safe_symbol(self) -> Optional[int]:
        """The least symbol that no forbidden window pattern holds, or None.

        A window holding it is always allowed, so a fill that falls back on
        it never backtracks.  Symbol s is safe when the allowed patterns
        holding s are all 2^k - 1 patterns of k cells that hold it.
        """
        full = 2 ** self.window_size - 1
        for s in (0, 1):
            if sum(s in cells for cells in self.allowed) == full:
                return s
        return None

    @cached_property
    def allowed_table(self) -> np.ndarray:
        """A read-only boolean table over pattern codes: the code of a
        window holding cells c_0 .. c_{k-1} in ball order is the sum of
        c_i * 2^i, and the table holds True exactly at the allowed ones."""
        size = self.window_size
        if 2 ** size > PATTERN_BUDGET:
            raise CapacityError(f"a table of 2^{size} window patterns exceeds "
                                f"the {PATTERN_BUDGET:,}-pattern budget")
        table = np.zeros(2 ** size, dtype=bool)
        patterns = np.array(sorted(self.allowed), dtype=np.intp).reshape(-1, size)
        table[patterns @ self.pattern_weights] = True
        return read_only(table)

    @cached_property
    def pattern_weights(self) -> np.ndarray:
        """The weights 2^i of a window's cells in its pattern code."""
        return read_only(1 << np.arange(self.window_size))

    def allows(self, windows: np.ndarray) -> np.ndarray:
        """Whether each row of ``windows``, the cells of one window, all 0
        or 1, carries an allowed pattern: one table lookup per row."""
        return self.allowed_table[windows @ self.pattern_weights]


def window_patterns(space: ShiftSpace, window_radius: int,
                    of: str = "") -> Iterator[tuple[int, ...]]:
    """Every cell tuple on ball(window_radius), in lexicographic order;
    refuses up front beyond ``PATTERN_BUDGET`` of them, naming in the
    refusal what they are enumerated ``of``."""
    size = space.geometry.ball_size(window_radius)
    if 2 ** size > PATTERN_BUDGET:
        raise CapacityError(f"enumerating {of}2^{size} window patterns "
                            f"exceeds the {PATTERN_BUDGET:,}-pattern budget")
    return itertools.product((0, 1), repeat=size)


def sft_from_forbidden(space: ShiftSpace, window_radius: int,
                       forbidden: Iterable[tuple[int, ...]]) -> SftSpec:
    """Complement construction: allowed = all window patterns minus forbidden."""
    patterns = window_patterns(space, window_radius, of="the complement of ")
    size = space.geometry.ball_size(window_radius)
    bad = set(map(tuple, forbidden))
    for cells in bad:
        if len(cells) != size:
            raise ValueError("forbidden pattern has the wrong support size")
    return SftSpec(space, window_radius,
                   frozenset(c for c in patterns if c not in bad))


def full_shift(space: ShiftSpace) -> SftSpec:
    return SftSpec(space, 0, frozenset({(0,), (1,)}))


def locally_admissible(x: Configuration, sft: SftSpec) -> bool:
    """Every window wholly inside the ball carries an allowed pattern: the
    batch prefix check on the whole ball as one row, so a cell holding a
    symbol other than 0 and 1 is refused too."""
    if x.space != sft.space:
        raise ValueError("configuration and SFT live on different spaces")
    return {0, 1}.issuperset(x.cells) and bool(_prefixes_pass(
        x.space, sft, x.radius, np.frombuffer(bytes(x.cells), np.uint8)[None])[0])


# getrandbits(2) is the top two bits of one 32-bit word; a binary draw keeps
# the first word whose top bit is clear, and its code is the next bit
_KEPT_CODE = bytes(t >> 6 for t in range(128)) + bytes(128)
_TOP_BIT_SET = bytes(range(128, 256))


def _binary_codes(getrandbits: Callable[[int], int], count: int) -> bytearray:
    """The codes of ``count`` binary candidate draws (each the first
    ``getrandbits(2)`` value at most 1), leaving the generator as those draws
    would.  Each round takes one word per code still needed, which the draws
    would take anyway; ``getrandbits(32 * j)`` holds its j words least
    significant first."""
    codes = bytearray()
    while len(codes) < count:
        need = count - len(codes)
        words = getrandbits(32 * need).to_bytes(4 * need, "little")
        codes += words[3::4].translate(_KEPT_CODE, _TOP_BIT_SET)
    return codes


def _prefixes_pass(space: ShiftSpace, sft: SftSpec, radius: int,
                   heads: np.ndarray) -> np.ndarray:
    """Whether each row of ``heads`` (a uint8 array, one prefix of a fill
    of ball(radius) per row) holds only the symbols 0 and 1 and every
    window it completes is allowed: one gather of those windows from
    ``window_order`` for every row at once, and one lookup per window in
    the SFT's table of allowed pattern codes.  A row holding any other
    symbol is refused, and its cells are zeroed before the codes are
    formed, as its code would alias an allowed one or leave the table."""
    count, length = heads.shape
    passes = np.ones(count, dtype=bool)
    if not length:  # no window to check
        return passes
    if heads.max(initial=0) > 1:
        passes = heads.max(axis=1) <= 1
        heads = heads * passes[:, None]
    tables, ends = space.window_order(radius, sft.window_radius)
    cut = int(ends.searchsorted(length))
    if cut:
        allowed = sft.allows(heads[:, tables[:cut]].reshape(-1, sft.window_size))
        if not allowed.all():
            passes &= np.count_nonzero(allowed.reshape(count, cut), axis=1) == cut
    return passes


class _Fill:
    """Backtracking filler/enumerator for locally admissible assignments.

    A node's first candidate is its drawn code (Random.shuffle's one draw
    on two symbols, made inline) and its second the other symbol; without
    an RNG, 1 comes first and then 0.  The search keeps, per placed
    position, its untried candidate or -1 in one list made once per search,
    so a descent allocates nothing.  A search visits at most
    ``NODE_BUDGET`` nodes, read when it starts.  Where the search cannot
    backtrack, ``one_pass`` finds its first random solution without one:
    it gathers every window over the drawn codes from one index array, and
    re-reads only the windows that hold no safe symbol.  Both check the
    prefix's own windows first unless ``passes``, the verdict of a batch
    check (``fill_rows``, ``allowed_blocks``), is given; cells are drawn
    only after a passing verdict.
    """

    def __init__(self, space: ShiftSpace, sft: SftSpec, radius: int,
                 prefix: Optional[Sequence[int]] = None,
                 rng: Optional[Random] = None, passes: Optional[bool] = None):
        self.space = space
        self.sft = sft
        self.radius = radius
        self.size = space.geometry.ball_size(radius)
        self.prefix = prefix or ()
        self.rng = rng
        self.nodes = 0
        self.passes = passes
        if len(self.prefix) > self.size:
            raise ValueError("prefix longer than the target ball")

    def prefix_passes(self) -> bool:
        """Whether the prefix holds only the symbols 0 and 1 and every
        window it completes is allowed: the batch check on a batch of one,
        unless a verdict was given.  An empty prefix completes no window."""
        if self.passes is None:
            # a symbol outside 0 and 1 is refused before it meets a byte
            self.passes = not self.prefix or (
                {0, 1}.issuperset(self.prefix) and bool(_prefixes_pass(
                    self.space, self.sft, self.radius,
                    np.frombuffer(bytes(self.prefix), np.uint8)[None])[0]))
        return self.passes

    def solutions(self, limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        if not self.prefix_passes():
            return
        plan = self.space.window_plan(self.radius, self.sft.window_radius)
        allowed = self.sft.allowed
        cells: list[int] = list(self.prefix) + [-1] * (self.size - len(self.prefix))
        start = len(self.prefix)
        if start == self.size:
            yield tuple(cells)
            return
        getrandbits = self.rng.getrandbits if self.rng is not None else None
        pending = [-1] * self.size  # each placed position's untried candidate
        last = self.size - 1
        budget = NODE_BUDGET
        nodes = self.nodes
        pos = start - 1
        emitted = 0
        while True:
            # descend one position and draw its first candidate
            pos += 1
            if getrandbits is None:
                cand = 1
            else:
                cand = getrandbits(2)
                while cand > 1:
                    cand = getrandbits(2)
            other = 1 - cand
            while True:
                cells[pos] = cand
                nodes += 1
                if nodes > budget:
                    self.nodes = nodes
                    raise CapacityError(f"fill search exceeded its {budget:,}-node "
                                        f"budget on ball({self.radius})")
                for read in plan[pos]:
                    if read(cells) not in allowed:
                        break
                else:
                    if pos < last:
                        pending[pos] = other
                        break
                    self.nodes = nodes
                    yield tuple(cells)
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return
                # the next candidate here, or at the deepest position with one
                while other < 0:
                    if pos == start:
                        self.nodes = nodes
                        return
                    pos -= 1
                    other = pending[pos]
                cand, other = other, -1

    def one_pass_fits(self) -> bool:
        """Whether ``one_pass`` finds what ``solutions`` would first: a
        random fill of an SFT with a safe symbol, a prefix of the symbols 0
        and 1, and room for two nodes per free position."""
        return (self.rng is not None and self.sft.safe_symbol is not None
                and 2 * (self.size - len(self.prefix)) <= NODE_BUDGET
                and {0, 1}.issuperset(self.prefix))

    def one_pass(self) -> Optional[bytes]:
        """The cells of the first solution of ``solutions(limit=1)``, or
        None, found with no search when ``one_pass_fits``.

        A position holding the safe symbol passes every window, so the
        search never backtracks: it draws one code per position in ball
        order, places that code, and switches to the safe symbol exactly
        where a window the position completes rejects the code.  So does
        this pass, with the same draws and the same node count.  The one
        pattern without the safe symbol is the constant pattern of the
        other, so it is the only one a window can be rejected for.

        The windows are read from ``window_order`` in the order the search
        completes them.  A switch only ever turns a cell safe, so a window
        that holds the safe symbol among the drawn codes never rejects: one
        gather per window cell over the codes, ANDed column by column,
        finds the candidates, and only those are read again, in order,
        after the switches before them.  The prefix's own windows are
        checked first, by ``prefix_passes``, before any draw.
        """
        if not self.prefix_passes():
            return None
        safe = self.sft.safe_symbol
        unsafe = (1 - safe,) * self.sft.window_size
        tables, ends = self.space.window_order(self.radius, self.sft.window_radius)
        if unsafe in self.sft.allowed:  # the full shift: no window rejects
            tables, ends = tables[:0], ends[:0]
        start = len(self.prefix)
        cut = int(np.searchsorted(ends, start))
        cells = bytearray(self.prefix) + _binary_codes(self.rng.getrandbits,
                                                       self.size - start)
        codes = np.frombuffer(cells, np.uint8)
        columns = tables[cut:].T
        rejects = codes[columns[0]] != safe
        for column in columns[1:]:
            rejects &= codes[column] != safe
        rows = cut + np.flatnonzero(rejects)
        switches = 0
        for table, pos in zip(tables[rows].tolist(), ends[rows].tolist()):
            if safe not in map(cells.__getitem__, table):
                cells[pos] = safe
                switches += 1
        self.nodes += self.size - start + switches
        return bytes(cells)

    def first_cells(self) -> Sequence[int]:
        """The cells of the first random solution, from ``one_pass`` where
        it fits and from ``solutions`` otherwise; GenerationError where
        there is none, refused prefixes included."""
        if self.one_pass_fits():
            cells = self.one_pass()
        else:
            cells = next(self.solutions(limit=1), None)
        if cells is None:
            raise GenerationError(f"no locally admissible configuration on "
                                  f"ball({self.radius}) with the given prefix")
        return cells


def fill_rows(space: ShiftSpace, sft: SftSpec, radius: int, heads: np.ndarray,
              rngs: Sequence[Random]) -> np.ndarray:
    """One random locally admissible fill of ball(radius) per row of
    ``heads`` (a uint8 array, one prefix per row), each drawn with its own
    RNG, as the rows of one uint8 array.

    Every head's own windows are checked at once (``_prefixes_pass``).  A
    failing head is handed to ``random_admissible``, whose lone fill refuses
    it before any row draws.  Otherwise each row is filled by its own
    ``_Fill``, with the verdict given (``_Fill.first_cells``).
    """
    passes = _prefixes_pass(space, sft, radius, heads)
    if not passes.all():  # raises GenerationError
        bad = int(passes.argmin())
        random_admissible(space, sft, radius, rngs[bad], heads[bad].tobytes())
    rows = [bytes(_Fill(space, sft, radius, head.tobytes(), rng, True).first_cells())
            for head, rng in zip(heads, rngs)]
    return np.frombuffer(b"".join(rows), np.uint8).reshape(
        len(rows), space.geometry.ball_size(radius))


def random_admissible(space: ShiftSpace, sft: SftSpec, radius: int, rng: Random,
                      prefix: Optional[Sequence[int]] = None) -> Configuration:
    """A random locally admissible configuration on ball(radius) extending
    ``prefix``, drawn with ``rng``: one ``_Fill``, whose prefix check is the
    batch check on a batch of one."""
    cells = _Fill(space, sft, radius, prefix, rng).first_cells()
    return Configuration(space, radius, tuple(cells))


def enumerate_admissible(space: ShiftSpace, sft: SftSpec,
                         radius: int) -> Iterator[tuple[int, ...]]:
    return _Fill(space, sft, radius).solutions()


def allowed_blocks(sft: SftSpec, k: int, slack: int) -> tuple[tuple[int, ...], ...]:
    """Cells on ball(k), sorted, extendable to a locally admissible assignment on
    ball(k + slack).  Shrinks toward the exact block set as slack grows."""
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    space = sft.space
    bases = list(enumerate_admissible(space, sft, k))
    heads = np.array(bases, dtype=np.uint8).reshape(len(bases),
                                                     space.geometry.ball_size(k))
    passes = _prefixes_pass(space, sft, k + slack, heads)
    return tuple(sorted(
        base for base, ok in zip(bases, passes.tolist()) if ok and next(
            _Fill(space, sft, k + slack, base, passes=True).solutions(limit=1),
            None) is not None))


def _line_index_map(space: ShiftSpace, radius: int) -> list[int]:
    """Ball positions of the integers -radius .. radius, in line order."""
    family = space.geometry.family
    if not isinstance(family, IntegerLattice) or family.dimension != 1:
        raise ValueError("line helpers need the one-dimensional integer lattice")
    geo = space.geometry
    return [geo.position(GroupElement(family, (p,)), radius)
            for p in range(-radius, radius + 1)]


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


def allowed_blocks_exact_line(sft: SftSpec, k: int) -> tuple[tuple[int, ...], ...]:
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
            if nodes > NODE_BUDGET:
                raise CapacityError(f"transfer-graph walk for the blocks on ball({k}) "
                                    f"exceeded its {NODE_BUDGET:,}-node budget")
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


def golden_mean_sft(space: ShiftSpace) -> SftSpec:
    """Binary line SFT forbidding adjacent ones (window radius 1)."""
    left, mid, right = _line_index_map(space, 1)
    return sft_from_forbidden(space, 1, (
        c for c in window_patterns(space, 1)
        if c[mid] == 1 and 1 in (c[left], c[right])))


def even_window_sft(space: ShiftSpace) -> SftSpec:
    """Binary line SFT forbidding the word 1 0 1 (window radius 1)."""
    left, mid, right = _line_index_map(space, 1)
    return sft_from_forbidden(space, 1, (
        c for c in window_patterns(space, 1)
        if (c[left], c[mid], c[right]) == (1, 0, 1)))


def hard_square_sft(space: ShiftSpace) -> SftSpec:
    """Planar SFT: a one may not sit next to a one along either axis."""
    # the identity sits at index 0 of ball(1), its neighbours after it
    return sft_from_forbidden(space, 1, (
        c for c in window_patterns(space, 1) if c[0] == 1 and 1 in c[1:]))


def one_forbidden_window_sft(space: ShiftSpace) -> SftSpec:
    """Forbid the all-ones window on ball(1); handy over free groups."""
    size = space.geometry.ball_size(1)
    return sft_from_forbidden(space, 1, [(1,) * size])
