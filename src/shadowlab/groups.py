"""Finitely generated groups with exact arithmetic on normal forms.

Three concrete families are provided:

* ``IntegerLattice(dimension)``: elements are integer vectors, written additively.
* ``FreeGroup(rank)``: elements are freely reduced words; a letter is a nonzero
  signed integer, ``k`` for the k-th generator and ``-k`` for its inverse.
* ``HeisenbergGroup()``: elements are triples ``(p, q, r)`` standing for the
  normal form a^p b^q c^r, where c is central and a b = b a c.  The derived
  multiplication law is
      (p1, q1, r1) * (p2, q2, r2) = (p1 + p2, q1 + q2, r1 + r2 - p2 * q1)
  which follows from pushing b^q1 past a^p2 (each swap emits c^-1).

Word metrics, Cayley balls and geodesic rewriting are computed by breadth
first search, never by closed forms; closed-form counts are only ever used in
tests as cross-checks.  Ball enumeration order is deterministic: layer by
layer, each layer sorted by the family's normal-form sort key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import CapacityError

ELEMENT_BUDGET = 1_000_000
SPAN_CHECK_RADIUS = 8

_FREE_LETTERS = "xyzw"
_double = (2).__mul__


def read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array``'s cells that no holder can write through: the
    array owning them is frozen (a view is copied first, so that it owns
    them), and a view of a frozen owner cannot be made writeable again."""
    if array.base is not None:
        array = array.copy()
    array.flags.writeable = False
    return array.view()


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
class GroupElement:
    """A group element: a family descriptor plus a normal-form payload."""

    family: object
    payload: object

    def __post_init__(self) -> None:
        self.family.validate_payload(self.payload)
        # CPython hashes -1 like -2; doubled letters are even, never -1, so
        # no two letters share a hash.  Kept, as every index lookup hashes.
        object.__setattr__(self, "_hash", hash(tuple(map(_double, self.payload))))

    @classmethod
    def _of_valid(cls, family, payload) -> "GroupElement":
        """The element of a payload known to be valid, not re-validated:
        products and inverses of valid payloads are valid."""
        g = object.__new__(cls)
        object.__setattr__(g, "family", family)
        object.__setattr__(g, "payload", payload)
        object.__setattr__(g, "_hash", hash(tuple(map(_double, payload))))
        return g

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.family != other.family:
            raise ValueError(f"family mismatch: {self.family} vs {other.family}")
        return self._of_valid(self.family,
                              self.family.multiply_payload(self.payload, other.payload))

    def __invert__(self) -> "GroupElement":
        return self._of_valid(self.family, self.family.inverse_payload(self.payload))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_identity(self) -> bool:
        return self.payload == self.family.identity_payload()

    def __repr__(self) -> str:
        return f"<{self.family.label(self.payload)}>"


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
        gi = ~g
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
        return GroupElement(self.family, self.family.identity_payload())


class GroupGeometry:
    """Cayley-ball bookkeeping for one GroupSpec.

    Balls are grown layer by layer and shared: ball(k) is always a prefix of
    ball(k + 1) in the master enumeration, the identity sits at index 0, and
    each layer is sorted by the family's normal-form key.  Growth records
    integer tables over ball indices: ``_mul[a][i]`` is the index of element
    i times generator a (inside the outermost layer), and element i is
    element ``_parent[i]`` times generator ``_via[i]``, so the parents spell
    a geodesic word.  Translation tables (position of h*g for every h in a
    ball) are built for a whole ball of g at once: the table of g is its
    parent's table mapped through ``_mul`` of its last letter, one ``map``
    per table.  One cache per (src, dst) holds the tables of every g in
    ball(dst - src), in ball order, since the shift action reuses them
    heavily; the step tables are cached too, and so are the read-only
    array forms of both that the array kernels gather through.
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
        self._translations: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._step_tables: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}
        self._translation_arrays: dict[tuple[int, int], np.ndarray] = {}
        self._step_faces: dict[int, np.ndarray] = {}

    @property
    def family(self):
        return self.spec.family

    def max_radius_built(self) -> int:
        return len(self._ball_sizes) - 1

    def _grow_one_layer(self) -> None:
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

    def ensure_radius(self, k: int) -> None:
        """Grow the balls through radius k; every radius-taking method
        checks its radius here."""
        if k < 0:
            raise ValueError("radius must be nonnegative")
        while self.max_radius_built() < k:
            self._grow_one_layer()

    def ball(self, k: int) -> tuple[GroupElement, ...]:
        """The word-metric ball of radius k, in deterministic BFS order."""
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

    def word_length(self, g: GroupElement, max_radius: int) -> Optional[int]:
        """BFS word length of g, or None if it exceeds max_radius."""
        if g.family != self.family:
            raise ValueError("element from a different family")
        i = self._index.get(g)
        while i is None and self.max_radius_built() < max_radius:
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

    def translation_tables(self, src_radius: int,
                           dst_radius: int) -> tuple[tuple[int, ...], ...]:
        """The ``right_translation`` table of every g in
        ball(dst_radius - src_radius), in ball order; empty when
        dst_radius < src_radius."""
        key = (src_radius, dst_radius)
        tables = self._translations.get(key)
        if tables is None:
            self.ensure_radius(dst_radius)
            tables = []
            if dst_radius >= src_radius:
                mul, parent, via = self._mul, self._parent, self._via
                tables.append(tuple(range(self.ball_size(src_radius))))
                for i in range(1, self._ball_sizes[dst_radius - src_radius]):
                    # h*g_i = (h*g_parent) * g_via, and parents come first
                    tables.append(tuple(map(mul[via[i]].__getitem__,
                                            tables[parent[i]])))
            tables = self._translations[key] = tuple(tables)
        return tables

    def translation_array(self, src_radius: int, dst_radius: int) -> np.ndarray:
        """``translation_tables(src_radius, dst_radius)`` as the rows of one
        read-only integer array, one row per g in ball(dst_radius -
        src_radius) and one column per h in ball(src_radius)."""
        key = (src_radius, dst_radius)
        array = self._translation_arrays.get(key)
        if array is None:
            tables = self.translation_tables(src_radius, dst_radius)
            # no table at all is an empty array of the row width, not 1-d
            array = np.array(tables or np.empty((0, self.ball_size(src_radius))),
                             dtype=np.intp)
            array = self._translation_arrays[key] = read_only(array)
        return array

    def right_translation(self, src_radius: int, g: GroupElement,
                          dst_radius: int) -> tuple[int, ...]:
        """For each h in ball(src_radius), the ball(dst_radius) index of h*g.

        The caller must guarantee src_radius + word_length(g) <= dst_radius so
        every product lands inside the destination ball; any other g raises
        ValueError.
        """
        tables = self.translation_tables(src_radius, dst_radius)
        i = self._index.get(g)
        if i is None or i >= len(tables):
            raise ValueError(f"ball({src_radius}) * {g!r} leaves ball({dst_radius})")
        return tables[i]

    def step_table(self, radius: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each index i of ball(radius), the pairs (a, j) with j the
        ball(radius) index of a*g_i, a running over generator indices."""
        table = self._step_tables.get(radius)
        if table is None:
            n = self.ball_size(radius)
            tables = self.translation_tables(1, radius + 1)
            # a*g_i sits at generator a's ball(1) position in g_i's table
            rows = [(a, self._index[g]) for a, g in enumerate(self.spec.generators)]
            table = self._step_tables[radius] = tuple(
                tuple((a, t[p]) for a, p in rows if t[p] < n) for t in tables)
        return table

    def step_faces(self, radius: int) -> np.ndarray:
        """The pairs of ``step_table(radius)`` as the columns of one
        read-only integer array with the rows (src, a, dst): one column per
        element index src and generator index a with dst the index of
        a*g_src, in step-table order."""
        faces = self._step_faces.get(radius)
        if faces is None:
            flat = [(i, a, j) for i, steps in enumerate(self.step_table(radius))
                    for a, j in steps]
            faces = np.array(flat, dtype=np.intp).reshape(-1, 3).T
            faces = self._step_faces[radius] = read_only(faces)
        return faces


def integer_line_spec() -> GroupSpec:
    return GroupSpec(IntegerLattice(1))


def integer_plane_spec() -> GroupSpec:
    return GroupSpec(IntegerLattice(2))


def free_rank2_spec() -> GroupSpec:
    return GroupSpec(FreeGroup(2))


def heisenberg_spec() -> GroupSpec:
    return GroupSpec(HeisenbergGroup())
