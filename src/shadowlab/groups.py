"""Finitely generated groups with exact arithmetic on normal forms.

Four concrete families are provided:

* ``IntegerLattice(dimension)``: elements are integer vectors, written additively.
* ``FreeGroup(rank)``: elements are freely reduced words; a letter is a nonzero
  signed integer, ``k`` for the k-th generator and ``-k`` for its inverse.
* ``HeisenbergGroup()``: elements are triples ``(p, q, r)`` standing for the
  normal form a^p b^q c^r, where c is central and a b = b a c.  The derived
  multiplication law is
      (p1, q1, r1) * (p2, q2, r2) = (p1 + p2, q1 + q2, r1 + r2 - p2 * q1)
  which follows from pushing b^q1 past a^p2 (each swap emits c^-1).
* ``CyclicGroup(order)``: residues mod n, written additively.

Word metrics, Cayley balls and geodesic rewriting are computed by breadth
first search, never by closed forms; closed-form counts are only ever used in
tests as cross-checks.  Ball enumeration order is deterministic: layer by
layer, each layer sorted by the family's normal-form sort key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import CapacityError

ELEMENT_BUDGET = 1_000_000
SPAN_CHECK_RADIUS = 8

_FREE_LETTERS = "xyzw"


def _free_letter_name(k: int) -> str:
    i = abs(k) - 1
    base = _FREE_LETTERS[i] if i < len(_FREE_LETTERS) else f"g{i + 1}"
    return base if k > 0 else base + "^-1"


@dataclass(frozen=True)
class IntegerLattice:
    """The free abelian group Z^d; payloads are d-tuples of ints."""

    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def name(self) -> str:
        return f"integer_lattice_{self.dimension}"

    def identity_payload(self):
        return (0,) * self.dimension

    def multiply_payload(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse_payload(self, a):
        return tuple(-x for x in a)

    def validate_payload(self, a) -> None:
        if not (isinstance(a, tuple) and len(a) == self.dimension
                and all(isinstance(x, int) for x in a)):
            raise ValueError(f"bad lattice payload {a!r}")

    def sort_key(self, a):
        return a

    def label(self, a) -> str:
        return "(" + ",".join(str(x) for x in a) + ")"

    def canonical_generator_payloads(self):
        out = []
        for i in range(self.dimension):
            e = [0] * self.dimension
            e[i] = 1
            out.append(tuple(e))
            e[i] = -1
            out.append(tuple(e))
        return out


@dataclass(frozen=True)
class FreeGroup:
    """Free group of the given rank; payloads are freely reduced letter tuples."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be at least 1")

    @property
    def name(self) -> str:
        return f"free_{self.rank}"

    def identity_payload(self):
        return ()

    def multiply_payload(self, a, b):
        word = list(a)
        for letter in b:
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def inverse_payload(self, a):
        return tuple(-x for x in reversed(a))

    def validate_payload(self, a) -> None:
        if not isinstance(a, tuple):
            raise ValueError(f"bad free-group payload {a!r}")
        for x in a:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise ValueError(f"letter {x!r} out of range for rank {self.rank}")
        for u, v in zip(a, a[1:]):
            if u == -v:
                raise ValueError(f"word {a!r} is not freely reduced")

    def sort_key(self, a):
        return (len(a), a)

    def label(self, a) -> str:
        if not a:
            return "e"
        return " ".join(_free_letter_name(k) for k in a)

    def canonical_generator_payloads(self):
        out = []
        for i in range(1, self.rank + 1):
            out.append((i,))
            out.append((-i,))
        return out


@dataclass(frozen=True)
class HeisenbergGroup:
    """Discrete Heisenberg group in (p, q, r) normal form, c = [a, b] central."""

    @property
    def name(self) -> str:
        return "heisenberg"

    def identity_payload(self):
        return (0, 0, 0)

    def multiply_payload(self, a, b):
        p1, q1, r1 = a
        p2, q2, r2 = b
        # b^q1 a^p2 = a^p2 b^q1 c^(-p2*q1)
        return (p1 + p2, q1 + q2, r1 + r2 - p2 * q1)

    def inverse_payload(self, a):
        p, q, r = a
        return (-p, -q, -r - p * q)

    def validate_payload(self, a) -> None:
        if not (isinstance(a, tuple) and len(a) == 3
                and all(isinstance(x, int) for x in a)):
            raise ValueError(f"bad Heisenberg payload {a!r}")

    def sort_key(self, a):
        return a

    def label(self, a) -> str:
        p, q, r = a
        if (p, q, r) == (0, 0, 0):
            return "e"
        parts = []
        for sym, exp in (("a", p), ("b", q), ("c", r)):
            if exp == 1:
                parts.append(sym)
            elif exp != 0:
                parts.append(f"{sym}^{exp}")
        return " ".join(parts)

    def canonical_generator_payloads(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                (0, 0, 1), (0, 0, -1)]


@dataclass(frozen=True)
class CyclicGroup:
    """Z/nZ written additively; payloads are residues in range(n)."""

    order: int

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("order must be at least 2")

    @property
    def name(self) -> str:
        return f"cyclic_{self.order}"

    def identity_payload(self):
        return 0

    def multiply_payload(self, a, b):
        return (a + b) % self.order

    def inverse_payload(self, a):
        return (-a) % self.order

    def validate_payload(self, a) -> None:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"bad residue {a!r} for order {self.order}")

    def sort_key(self, a):
        return a

    def label(self, a) -> str:
        return f"{a} mod {self.order}"

    def canonical_generator_payloads(self):
        return [1 % self.order, (-1) % self.order]


@dataclass(frozen=True)
class GroupElement:
    """A group element: a family descriptor plus a normal-form payload."""

    family: object
    payload: object

    def __post_init__(self) -> None:
        self.family.validate_payload(self.payload)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __invert__(self) -> "GroupElement":
        return inverse(self)

    def __pow__(self, n: int) -> "GroupElement":
        if n < 0:
            return inverse(self) ** (-n)
        out = identity(self.family)
        for _ in range(n):
            out = out * self
        return out

    @property
    def is_identity(self) -> bool:
        return self.payload == self.family.identity_payload()

    def __repr__(self) -> str:
        return f"<{self.family.label(self.payload)}>"


def identity(family) -> GroupElement:
    return GroupElement(family, family.identity_payload())


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.family != b.family:
        raise ValueError(f"family mismatch: {a.family} vs {b.family}")
    return GroupElement(a.family, a.family.multiply_payload(a.payload, b.payload))


def inverse(a: GroupElement) -> GroupElement:
    return GroupElement(a.family, a.family.inverse_payload(a.payload))


def _symmetrize(family, generators: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    seen = []
    for g in generators:
        if g.family != family:
            raise ValueError("generator from a different family")
        if g.is_identity:
            raise ValueError("the identity is not allowed as a generator")
        if g not in seen:
            seen.append(g)
    for g in list(seen):
        gi = inverse(g)
        if gi not in seen:
            seen.append(gi)
    return tuple(seen)


@dataclass(frozen=True)
class GroupSpec:
    """A group family together with a symmetric generating set.

    Generators are closed under inverses on construction.  A custom set must
    reach every canonical generator within ``SPAN_CHECK_RADIUS``, otherwise it
    cannot be a generating set at desk scale and is rejected.
    """

    family: object
    generators: tuple[GroupElement, ...] = ()

    def __post_init__(self) -> None:
        if not self.generators:
            gens = tuple(GroupElement(self.family, p)
                         for p in self.family.canonical_generator_payloads())
        else:
            gens = _symmetrize(self.family, self.generators)
        object.__setattr__(self, "generators", gens)
        self._check_spanning()

    def _check_spanning(self) -> None:
        geo = GroupGeometry(self)
        canonical = [GroupElement(self.family, p)
                     for p in self.family.canonical_generator_payloads()]
        missing = [g for g in canonical if g not in self.generators
                   and geo.word_length(g, SPAN_CHECK_RADIUS) is None]
        if missing:
            raise ValueError(
                f"generators {self.generators} do not reach {sorted(missing, key=lambda g: self.family.sort_key(g.payload))} "
                f"within radius {SPAN_CHECK_RADIUS}; not accepted as a generating set")

    def identity(self) -> GroupElement:
        return identity(self.family)


class GroupGeometry:
    """Cayley-ball bookkeeping for one GroupSpec.

    Balls are grown layer by layer and shared: ball(k) is always a prefix of
    ball(k + 1) in the master enumeration, the identity sits at index 0, and
    each layer is sorted by the family's normal-form key.  Growth records
    integer tables over ball indices: ``_mul[a][i]`` is the index of element
    i times generator a (inside the outermost layer), and element i is
    element ``_parent[i]`` times generator ``_via[i]``, so the parents spell
    a geodesic word.  Translation tables (position of h*g for every h in a
    ball) compose ``_mul`` along that word and are cached, since the shift
    action reuses them heavily, as are the step tables.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._elements: list[GroupElement] = [spec.identity()]
        self._index: dict[GroupElement, int] = {spec.identity(): 0}
        self._layers: list[int] = [0]
        self._parent: list[int] = [0]
        self._via: list[int] = [-1]
        self._mul: list[list[int]] = [[] for _ in spec.generators]
        self._ball_sizes: list[int] = [1]  # ball_sizes[k] == |ball(k)|
        self._saturated = False
        self._translations: dict[tuple[int, GroupElement, int], tuple[int, ...]] = {}
        self._step_tables: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}

    @property
    def family(self):
        return self.spec.family

    def max_radius_built(self) -> int:
        return len(self._ball_sizes) - 1

    def _grow_one_layer(self) -> None:
        if self._saturated:
            self._ball_sizes.append(self._ball_sizes[-1])
            return
        key = self.family.sort_key
        index = self._index
        gens = self.spec.generators
        rows = len(self._mul[0])  # the frontier starts where the tables end
        products = [h * a for h in self._elements[rows:] for a in gens]
        found = list(map(index.get, products))
        fresh: dict[GroupElement, int] = {}
        for k, g in enumerate(products):
            if found[k] is None:
                fresh.setdefault(g, k)
        layer = sorted(fresh, key=lambda g: key(g.payload))
        radius = len(self._ball_sizes)
        if len(self._elements) + len(layer) > ELEMENT_BUDGET:
            raise CapacityError(
                f"ball({radius}) would exceed the element budget "
                f"({ELEMENT_BUDGET}) for {self.family.name}")
        for g in layer:
            parent, via = divmod(fresh[g], len(gens))
            index[g] = len(self._elements)
            self._elements.append(g)
            self._layers.append(radius)
            self._parent.append(rows + parent)
            self._via.append(via)
        for k, j in enumerate(found):
            self._mul[k % len(gens)].append(index[products[k]] if j is None else j)
        self._ball_sizes.append(len(self._elements))
        if not layer:
            self._saturated = True

    def ensure_radius(self, k: int) -> None:
        while self.max_radius_built() < k:
            self._grow_one_layer()

    def ball(self, k: int) -> tuple[GroupElement, ...]:
        """The word-metric ball of radius k, in deterministic BFS order."""
        if k < 0:
            raise ValueError("radius must be nonnegative")
        self.ensure_radius(k)
        return tuple(self._elements[: self._ball_sizes[k]])

    def ball_size(self, k: int) -> int:
        self.ensure_radius(k)
        return self._ball_sizes[k]

    def position(self, g: GroupElement, radius: int) -> int:
        """Index of g in ball(radius) order; raises if g lies outside."""
        self.ensure_radius(radius)
        i = self._index.get(g)
        if i is None or i >= self._ball_sizes[radius]:
            raise ValueError(f"{g!r} is not in ball({radius})")
        return i

    def layer_of_position(self, i: int) -> int:
        return self._layers[i]

    def element_at(self, i: int) -> GroupElement:
        return self._elements[i]

    def word_length(self, g: GroupElement, max_radius: int) -> Optional[int]:
        """BFS word length of g, or None if it exceeds max_radius."""
        if g.family != self.family:
            raise ValueError("element from a different family")
        i = self._index.get(g)
        while (i is None and self.max_radius_built() < max_radius
               and not self._saturated):
            self._grow_one_layer()
            i = self._index.get(g)
        if i is None or self._layers[i] > max_radius:
            return None
        return self._layers[i]

    def _word(self, i: int) -> list[int]:
        """The generator indices of element i's geodesic word, in order."""
        word = []
        while i:
            word.append(self._via[i])
            i = self._parent[i]
        return word[::-1]

    def word(self, g: GroupElement, max_radius: int) -> Optional[list[GroupElement]]:
        """The geodesic word the parent pointers spell for g (deterministic:
        BFS layer order with sorted tie-breaking), or None if |g| > max_radius."""
        if self.word_length(g, max_radius) is None:
            return None
        return [self.spec.generators[a] for a in self._word(self._index[g])]

    def right_translation(self, src_radius: int, g: GroupElement,
                          dst_radius: int) -> tuple[int, ...]:
        """For each h in ball(src_radius), the ball(dst_radius) index of h*g.

        The caller must guarantee src_radius + word_length(g) <= dst_radius so
        every product lands inside the destination ball; a product outside
        it raises ValueError.
        """
        key = (src_radius, g, dst_radius)
        table = self._translations.get(key)
        if table is None:
            i = self.position(g, dst_radius)
            # every row the word passes through lies in a tabulated layer
            self.ensure_radius(src_radius + self._layers[i])
            table = range(len(self.ball(src_radius)))
            for a in self._word(i):
                table = map(self._mul[a].__getitem__, table)
            table = tuple(table)
            if max(table) >= self._ball_sizes[dst_radius]:
                raise ValueError(f"ball({src_radius}) * {g!r} leaves "
                                 f"ball({dst_radius})")
            self._translations[key] = table
        return table

    def step_table(self, radius: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each index i of ball(radius), the pairs (a, j) with j the
        ball(radius) index of a*g_i, a running over generator indices."""
        table = self._step_tables.get(radius)
        if table is None:
            self.ensure_radius(radius + 1)
            n = self._ball_sizes[radius]
            lefts = [[mul[0]] for mul in self._mul]  # a*e = a
            for left in lefts:
                # a*g_i = (a*g_parent) * g_via, and parents come first
                for i in range(1, n):
                    left.append(self._mul[self._via[i]][left[self._parent[i]]])
            table = self._step_tables[radius] = tuple(
                tuple((a, left[i]) for a, left in enumerate(lefts) if left[i] < n)
                for i in range(n))
        return table


def rewrite_generator(a: GroupElement, target_spec: GroupSpec,
                      max_radius: int) -> Optional[list[GroupElement]]:
    """A geodesic word over target_spec's generators whose product is ``a``,
    or None when no word of length <= max_radius exists."""
    return GroupGeometry(target_spec).word(a, max_radius)


def integer_line_spec() -> GroupSpec:
    return GroupSpec(IntegerLattice(1))


def integer_plane_spec() -> GroupSpec:
    return GroupSpec(IntegerLattice(2))


def free_rank2_spec() -> GroupSpec:
    return GroupSpec(FreeGroup(2))


def heisenberg_spec() -> GroupSpec:
    return GroupSpec(HeisenbergGroup())
