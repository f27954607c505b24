"""Levelwise group actions on chains of finite quotients, and their tracing.

A chain is a rooted tree of quotient levels: level 0 is a single class and
every class at level n refines one class at level n-1.  A point of the
inverse limit, truncated at the chain's depth, is a root-to-leaf path.  The
acting group permutes each level compatibly with refinement (the cylinder
structure), which is re-verified exhaustively whenever a chain is built.

The metric is 2^-(n-1) where n is the first level at which two paths split,
so two paths splitting immediately sit at distance 1 and full agreement is
reported as an explicit truncation marker, exactly as for shift spaces.

Tracing is structurally easier here than over shift spaces: because the
action is levelwise, agreement through a fixed level is preserved by every
group element, with no radius loss.  Step fields built by randomizing only
levels above m+2 are automatically strict delta fields for delta = 2^-(m+1),
and the identity entry traces them over the whole index ball.  The rotation
system at the bottom of this module is the counterweight: a compact
zero-dimensional system with no such cylinder structure, where the analogous
modulus search provably comes up empty.

A chain field is one integer array, a row per ball element and a column
per level, moved in one gather through ``level_table`` and checked by the
shift fields' ``first_exponents`` kernel.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Optional

import numpy as np

from .errors import CapacityError, ConfigError, GenerationError
from .groups import (
    GroupElement,
    GroupGeometry,
    GroupSpec,
    IntegerLattice,
    integer_line_spec,
    read_only,
)
from .shadowing import first_exponents
from .shifts import DyadicDistance

_WORD_SEARCH_RADIUS = 32
_TABLE_COLUMNS = ("level", "index", "parent")


class QuotientChain:
    """Shared machinery: level tables, refinement maps, levelwise action.

    Concrete chains fill ``level_sizes``, ``parents`` (parents[n][i] is the
    level n-1 class refined by class i at level n) and ``tables`` (one
    permutation per generator per level).  Only free abelian acting groups
    are accepted: for them, commutation of the generator tables (checked
    here) makes the word-composed action of arbitrary elements well defined.
    """

    def __init__(self, spec: GroupSpec, level_sizes: list[int],
                 parents: list[Optional[tuple[int, ...]]],
                 tables: dict[GroupElement, list[tuple[int, ...]]]):
        if not isinstance(spec.family, IntegerLattice):
            raise ValueError("quotient chains require an infinite free abelian "
                             "acting group")
        self.spec = spec
        self.geometry = GroupGeometry(spec)
        self.depth = len(level_sizes) - 1
        self.level_sizes = tuple(level_sizes)
        self.parents = parents
        self.tables = tables
        self._children: list[Optional[dict[int, tuple[int, ...]]]] = [None]
        for n in range(1, self.depth + 1):
            kids: dict[int, list[int]] = {}
            for i, par in enumerate(parents[n]):
                kids.setdefault(par, []).append(i)
            self._children.append({p: tuple(v) for p, v in kids.items()})
        self._validate()

    def _validate(self) -> None:
        if self.level_sizes[0] != 1:
            raise ValueError("level 0 must consist of a single class")
        if self.depth < 1:
            raise ValueError("a chain needs at least one refinement level")
        gens = self.spec.generators
        for g in gens:
            if g not in self.tables:
                raise ValueError(f"missing action table for generator {g!r}")
        for n in range(self.depth + 1):
            size = self.level_sizes[n]
            if n >= 1:
                if len(self.parents[n]) != size:
                    raise ValueError(f"level {n} parent map has the wrong size")
                for i, par in enumerate(self.parents[n]):
                    if not 0 <= par < self.level_sizes[n - 1]:
                        raise ValueError(f"class {i} at level {n} refines "
                                         f"nothing: parent {par}")
                childless = set(range(self.level_sizes[n - 1])) - set(self.parents[n])
                if childless:
                    raise ValueError(f"class {min(childless)} at level {n - 1} "
                                     f"is refined by no class at level {n}")
            for g in gens:
                table = self.tables[g][n]
                if sorted(table) != list(range(size)):
                    raise ValueError(f"action of {g!r} at level {n} is not a "
                                     "permutation")
        # refinement compatibility: acting then coarsening == coarsening then acting
        for n in range(1, self.depth + 1):
            for g in gens:
                tn, tp = self.tables[g][n], self.tables[g][n - 1]
                for i in range(self.level_sizes[n]):
                    if self.parents[n][tn[i]] != tp[self.parents[n][i]]:
                        raise ValueError(f"generator {g!r} breaks the cylinder "
                                         f"structure at level {n}, class {i}")
        # pairwise commutation and inverse consistency, per level
        for a in gens:
            inv = ~a
            for n in range(self.depth + 1):
                ta, ti = self.tables[a][n], self.tables[inv][n]
                if any(ti[ta[i]] != i for i in range(self.level_sizes[n])):
                    raise ValueError(f"tables of {a!r} and its inverse do not "
                                     f"cancel at level {n}")
        for a, b in itertools.combinations(gens, 2):
            for n in range(self.depth + 1):
                ta, tb = self.tables[a][n], self.tables[b][n]
                if any(ta[tb[i]] != tb[ta[i]] for i in range(self.level_sizes[n])):
                    raise ValueError(f"tables of {a!r} and {b!r} do not commute "
                                     f"at level {n}")

    def children(self, n: int, parent_class: int) -> tuple[int, ...]:
        return self._children[n][parent_class]

    @cached_property
    def level_table(self) -> np.ndarray:
        """Entry [a, n, i], levels padded with zeros to the widest, is the
        class that the a-th generator sends class i of level n to, so rows
        of classes move by generators a in one gather [a, levels, rows]."""
        table = np.zeros((len(self.spec.generators), self.depth + 1,
                          max(self.level_sizes)), dtype=np.intp)
        for a, g in enumerate(self.spec.generators):
            for n, level in enumerate(self.tables[g]):
                table[a, n, :len(level)] = level
        return read_only(table)


@dataclass(frozen=True)
class ProfinitePoint:
    """A root-to-leaf path through the chain's levels."""

    chain: QuotientChain
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.path) != self.chain.depth + 1:
            raise ValueError("path length must be depth + 1")
        if self.path[0] != 0:
            raise ValueError("path must start at the root class")
        for n in range(1, len(self.path)):
            if self.chain.parents[n][self.path[n]] != self.path[n - 1]:
                raise ValueError(f"path breaks refinement at level {n}")


def act_point(chain: QuotientChain, g: GroupElement,
              x: ProfinitePoint) -> ProfinitePoint:
    """Left action of an arbitrary element, composed along a geodesic word."""
    word = chain.geometry.word(g, _WORD_SEARCH_RADIUS)
    if word is None:
        raise CapacityError(f"no generator word for {g!r} within "
                            f"radius {_WORD_SEARCH_RADIUS}")
    path = x.path
    for gen in reversed(word):
        tables = chain.tables[gen]
        path = tuple(tables[n][c] for n, c in enumerate(path))
    return ProfinitePoint(chain, path)


def random_point(chain: QuotientChain, rng: Random) -> ProfinitePoint:
    path = [0]
    for n in range(1, chain.depth + 1):
        path.append(rng.choice(chain.children(n, path[-1])))
    return ProfinitePoint(chain, tuple(path))


def odometer_chain(base: int, depth: int) -> QuotientChain:
    """Adding one with carry: level n is the residues mod base^n."""
    if base < 2:
        raise ValueError("odometer base must be at least 2")
    spec = integer_line_spec()
    sizes = [base ** n for n in range(depth + 1)]
    parents: list[Optional[tuple[int, ...]]] = [None]
    for n in range(1, depth + 1):
        parents.append(tuple(i % sizes[n - 1] for i in range(sizes[n])))
    tables = {}
    for g in spec.generators:
        k = g.payload[0]
        tables[g] = [tuple((i + k) % sizes[n] for i in range(sizes[n]))
                     for n in range(depth + 1)]
    return QuotientChain(spec, sizes, parents, tables)


def plane_lattice_chain(depth: int) -> QuotientChain:
    """Z^2 acting by translation on its quotients mod 2^n, coordinatewise."""
    spec = GroupSpec(IntegerLattice(2))
    sizes = [4 ** n for n in range(depth + 1)]
    parents: list[Optional[tuple[int, ...]]] = [None]
    for n in range(1, depth + 1):
        side, prev = 2 ** n, 2 ** (n - 1)
        parents.append(tuple((i // side % prev) * prev + (i % side % prev)
                             for i in range(sizes[n])))
    tables = {}
    for g in spec.generators:
        du, dv = g.payload
        tables[g] = []
        for n in range(depth + 1):
            side = 2 ** n
            tables[g].append(tuple(((i // side + du) % side) * side
                                   + (i % side + dv) % side
                                   for i in range(sizes[n])))
    return QuotientChain(spec, sizes, parents, tables)


def chain_from_csv(path: str) -> QuotientChain:
    """Load a chain from a coset table file, as ``chain_to_csv`` writes it.

    Expected columns: level, index, parent (use -1 at level 0), then one
    image column per generator of Z^d, named by the generator's label; d is
    the number of coordinates in the first action column's label.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty coset table")
        missing = [c for c in _TABLE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing table columns {missing}")
        actions = [c for c in reader.fieldnames if c not in _TABLE_COLUMNS]
        d = actions[0].count(",") + 1 if actions else 1
        # Z^d has 2d generators, so a label cannot claim more coordinates
        spec = GroupSpec(IntegerLattice(max(1, min(d, len(actions) // 2))))
        labels = {spec.family.label(g.payload): g for g in spec.generators}
        missing = set(labels) - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing action columns {sorted(missing)}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no table rows")
    by_level: dict[int, list[dict]] = {}
    for r in rows:
        if None in r:
            raise ValueError(f"{path}: level {r['level']} index {r['index']} "
                             "has more cells than the header")
        try:
            cells = {c: int(r[c]) for c in (*_TABLE_COLUMNS, *labels)}
        except (TypeError, ValueError):
            raise ValueError(f"{path}: level {r['level']} index {r['index']} "
                             "has a missing or non-integer cell") from None
        by_level.setdefault(cells["level"], []).append(cells)
    if min(by_level) < 0:
        raise ValueError(f"{path}: level {min(by_level)} is negative")
    depth = max(by_level)
    sizes = [len(by_level.get(n, [])) for n in range(depth + 1)]
    parents: list[Optional[tuple[int, ...]]] = [None]
    table_data = {g: [] for g in spec.generators}
    for n in range(depth + 1):
        level_rows = sorted(by_level.get(n, []), key=lambda c: c["index"])
        if [c["index"] for c in level_rows] != list(range(sizes[n])):
            raise ValueError(f"{path}: level {n} indices are not 0..{sizes[n]-1}")
        if n >= 1:
            parents.append(tuple(c["parent"] for c in level_rows))
        for label, g in labels.items():
            table_data[g].append(tuple(c[label] for c in level_rows))
    return QuotientChain(spec, sizes, parents, table_data)


def chain_to_csv(chain: QuotientChain, path: str) -> None:
    labels = [(chain.spec.family.label(g.payload), g)
              for g in chain.spec.generators]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_TABLE_COLUMNS) + [lb for lb, _ in labels])
        for n in range(chain.depth + 1):
            for i in range(chain.level_sizes[n]):
                parent = chain.parents[n][i] if n >= 1 else -1
                writer.writerow([n, i, parent]
                                + [chain.tables[g][n][i] for _, g in labels])


@dataclass(frozen=True)
class ChainTraceReport:
    radius: int
    modulus: int
    preserved_levels: int
    delta: Fraction
    epsilon: Fraction
    entry_count: int
    perturbed_levels: int
    step_ok: bool
    worst_step: Optional[DyadicDistance]
    trace_ok: bool
    worst_residual: Optional[DyadicDistance]


def _orbit_rows(chain: QuotientChain, radius: int, path) -> np.ndarray:
    """Row j is g_j . path: in ball order, each element first reached gets
    the row it was reached from, moved by a generator (well defined, as the
    validated tables commute and cancel their inverses)."""
    levels = np.arange(chain.depth + 1)
    rows = np.full((chain.geometry.ball_size(radius), chain.depth + 1), -1)
    rows[0] = path
    for i, steps in enumerate(chain.geometry.step_table(radius)):
        for a, j in steps:
            if rows[j, 0] < 0:
                rows[j] = chain.level_table[a, levels, rows[i]]
    return rows


def _field_exponents(chain: QuotientChain, radius: int, field: np.ndarray):
    """First-difference exponents, level n at 2^-(n-1), of the step faces
    a . x_g against x_{ag} in ``step_faces`` order and of the identity
    entry's orbit against the field; the root, level 0, never differs."""
    levels = np.arange(chain.depth + 1)
    exponents = levels - 1
    src, gen, dst = chain.geometry.step_faces(radius)
    moved = chain.level_table[gen[:, None], levels, field[src]]
    orbit = _orbit_rows(chain, radius, field[0])
    return (first_exponents(moved != field[dst], exponents),
            first_exponents(orbit != field, exponents))


def _verdict(exponents: np.ndarray, k: int):
    """(no definite distance refutes threshold exponent k, the largest
    definite one: the least exponent past the marker -1, or None)."""
    definite = exponents[exponents >= 0]
    worst = DyadicDistance(int(definite.min())) if definite.size else None
    return worst is None or worst.exponent > k, worst


def chain_trace_experiment(chain: QuotientChain, radius: int, modulus: int,
                           rng: Random) -> ChainTraceReport:
    """Build a strict step field over ball(radius) and trace it.

    Entries keep the orbit's path through level m+2 and re-walk deeper
    levels at random, row by row in ball order.  The step tolerance
    2^-(m+1) and tracing tolerance 2^-m are then checked, not assumed, on
    threshold exponents m + 1 and m; the trace is the identity entry and
    its residuals are verified over the whole index ball.
    """
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
    keep = modulus + 2
    if chain.depth < keep:
        raise ValueError(f"chain depth {chain.depth} cannot certify modulus "
                         f"{modulus}; need at least {keep} levels")
    exact = _orbit_rows(chain, radius, random_point(chain, rng).path)
    rows = exact.tolist()
    for row in rows:
        for n in range(keep + 1, chain.depth + 1):
            row[n] = rng.choice(chain.children(n, row[n - 1]))
    field = np.array(rows)
    steps, residuals = _field_exponents(chain, radius, field)
    step_ok, worst_step = _verdict(steps, modulus + 1)
    trace_ok, worst_residual = _verdict(residuals, modulus)
    if not step_ok:
        raise GenerationError("chain step field violated its own tolerance; "
                              "level bookkeeping is broken")
    return ChainTraceReport(radius, modulus, keep, Fraction(1, 2 ** (modulus + 1)),
                            Fraction(1, 2 ** modulus), len(field),
                            int(np.count_nonzero(field != exact)), step_ok,
                            worst_step, trace_ok, worst_residual)


@dataclass(frozen=True)
class ModulusCertificate:
    system: str
    epsilon_exponent: int
    tested_moduli: tuple[int, ...]
    found: bool
    modulus: Optional[int]
    detail: str


def chain_modulus_certificate(chain: QuotientChain, radius: int, modulus: int,
                              trials: int, rng: Random) -> ModulusCertificate:
    """Empirical certificate: repeated randomized step fields, all traced."""
    for t in range(trials):
        report = chain_trace_experiment(chain, radius, modulus,
                                        Random(rng.getrandbits(64)))
        if not (report.step_ok and report.trace_ok):
            return ModulusCertificate("quotient-chain", modulus, (modulus,),
                                      False, None,
                                      f"trial {t} failed tracing")
    return ModulusCertificate("quotient-chain", modulus, (modulus,), True,
                              modulus,
                              f"{trials} randomized fields all traced with "
                              f"{modulus + 2} preserved levels")


# --- the counterweight: a rotation with no cylinder structure -------------


@dataclass(frozen=True)
class NecklaceShift:
    """Cyclic coordinate rotation on binary tuples of fixed width.

    Coordinate i plays the role of level i+1, so the metric is 2^-i at the
    first differing coordinate.  The rotation mixes all levels, so nothing
    like the quotient-chain argument applies; and indeed no step tolerance
    yields tracing at any useful resolution, which ``necklace_modulus_search``
    verifies by exhausting the (finite) point set.
    """

    width: int

    def __post_init__(self) -> None:
        if not 2 <= self.width <= 20:
            raise ValueError("width must stay in the desk-scale range 2..20")

    def step(self, p: tuple[int, ...]) -> tuple[int, ...]:
        return p[1:] + p[:1]


def _necklace_pseudo_orbit(system: NecklaceShift,
                           dwell: int) -> list[tuple[int, ...]]:
    """Sit on the all-zeros fixed point, then hop to a legal neighbor whose
    trailing one rotates into view.  The hop changes only the last
    coordinate, so it stays legal for any tolerance the caller re-checks."""
    zeros = (0,) * system.width
    hop = (0,) * (system.width - 1) + (1,)
    orbit = [zeros] * dwell
    cur = hop
    for _ in range(system.width):
        orbit.append(cur)
        cur = system.step(cur)
    return orbit


def necklace_modulus_search(width: int, epsilon_exponent: int,
                            max_modulus: Optional[int] = None) -> ModulusCertificate:
    """Try every step tolerance the width allows; none yields tracing.

    For each candidate modulus m the adversarial field above is a legal
    2^-(m+1) step sequence, and an exhaustive scan shows no point traces it
    within 2^-epsilon_exponent.  Neither the field nor the tracing test
    depends on m, so one scan serves every modulus, and legality at the
    tightest modulus covers the looser ones.  The search is honest: a
    tracer, if one existed, would be found and reported.
    """
    system = NecklaceShift(width)
    if max_modulus is None:
        max_modulus = width - 3
    if epsilon_exponent >= width - 1:
        raise ValueError("epsilon too fine for the width")
    # coordinates 0..m+1 agree <=> distance < 2^-(m+1), and the field's
    # step gap sits at coordinate width - 1
    moduli = tuple(range(epsilon_exponent, min(max_modulus, width - 3) + 1))
    if not moduli:
        raise ConfigError(f"no step modulus to test: epsilon_exponent "
                          f"{epsilon_exponent} exceeds max_modulus {max_modulus} "
                          f"or width {width} - 3")
    orbit = _necklace_pseudo_orbit(system, dwell=width + 2)
    steps = np.array([system.step(p) for p in orbit[:-1]])
    gaps = first_exponents(steps != np.array(orbit[1:]), np.arange(width))
    if ((0 <= gaps) & (gaps < moduli[-1] + 2)).any():
        raise GenerationError("adversarial field broke its own tolerance")
    # point p as the int whose bit width-1-i holds coordinate i: product
    # order is numeric order, a step is a left rotation, and p agrees with
    # t on coordinates 0..epsilon_exponent when (p ^ t) & top == 0; one
    # pass over every point per target keeps the points still tracing
    full = (1 << width) - 1
    top = full ^ ((1 << (width - 1 - epsilon_exponent)) - 1)
    cur = np.arange(1 << width, dtype=np.uint32)
    alive = np.ones(1 << width, dtype=bool)
    for target in orbit:
        alive &= ((cur ^ int("".join(map(str, target)), 2)) & top) == 0
        cur = ((cur << 1) | (cur >> (width - 1))) & full
    if alive.any():
        z = int(alive.argmax())
        tracer = tuple((z >> (width - 1 - i)) & 1 for i in range(width))
        return ModulusCertificate("necklace-rotation", epsilon_exponent,
                                  moduli[:1], True, moduli[0],
                                  f"unexpected tracer {tracer}")
    return ModulusCertificate("necklace-rotation", epsilon_exponent,
                              moduli, False, None,
                              "every admissible step tolerance admits an "
                              "untraceable field")
