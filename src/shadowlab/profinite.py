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
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterable, Optional

from .errors import CapacityError, GenerationError
from .groups import (
    GroupElement,
    GroupGeometry,
    GroupSpec,
    IntegerLattice,
    integer_line_spec,
)
from .shadowing import step_distances, trace_distances
from .shifts import DyadicDistance, refutes

_WORD_SEARCH_RADIUS = 32


class QuotientChain:
    """Shared machinery: level tables, refinement maps, levelwise action.

    Concrete chains fill ``level_sizes``, ``parents`` (parents[n][i] is the
    level n-1 class refined by class i at level n) and ``tables`` (one
    permutation per generator per level).  Only free abelian acting groups
    are accepted: for them, commutation of the generator tables (checked
    here) makes the word-composed action of arbitrary elements well defined.
    Finite acting groups are rejected outright; their chains stabilize and
    the truncated theory collapses to the finite group itself.
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

    def word_for(self, g: GroupElement) -> list[GroupElement]:
        word = self.geometry.word(g, _WORD_SEARCH_RADIUS)
        if word is None:
            raise CapacityError(f"no generator word for {g!r} within "
                                f"radius {_WORD_SEARCH_RADIUS}")
        return word


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
    path = x.path
    for gen in reversed(chain.word_for(g)):
        tables = chain.tables[gen]
        path = tuple(tables[n][c] for n, c in enumerate(path))
    return ProfinitePoint(chain, path)


def level_distance(x: ProfinitePoint, y: ProfinitePoint) -> DyadicDistance:
    """2^-(n-1) for the first level n where the paths split; marker if never."""
    if x.chain is not y.chain:
        raise ValueError("points belong to different chains")
    for n in range(1, len(x.path)):
        if x.path[n] != y.path[n]:
            return DyadicDistance(n - 1, False)
    return DyadicDistance(x.chain.depth, True)


def random_point(chain: QuotientChain, rng: Random) -> ProfinitePoint:
    path = [0]
    for n in range(1, chain.depth + 1):
        path.append(rng.choice(chain.children(n, path[-1])))
    return ProfinitePoint(chain, tuple(path))


def randomize_deep_levels(chain: QuotientChain, x: ProfinitePoint,
                          keep_levels: int, rng: Random) -> ProfinitePoint:
    """Keep the path through ``keep_levels``, re-walk the tree below it."""
    if keep_levels >= chain.depth:
        return x
    path = list(x.path[: keep_levels + 1])
    for n in range(keep_levels + 1, chain.depth + 1):
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


def chain_from_csv(path: str, spec: Optional[GroupSpec] = None) -> QuotientChain:
    """Load a chain from a coset table file.

    Expected columns: level, index, parent (use -1 at level 0), then one
    image column per generator, named by the generator's label.
    """
    if spec is None:
        spec = integer_line_spec()
    labels = {spec.family.label(g.payload): g for g in spec.generators}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty coset table")
        missing = set(labels) - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing action columns {sorted(missing)}")
        for row in reader:
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no table rows")
    depth = max(int(r["level"]) for r in rows)
    sizes = [0] * (depth + 1)
    for r in rows:
        sizes[int(r["level"])] += 1
    parents: list[Optional[tuple[int, ...]]] = [None]
    table_data = {g: [] for g in spec.generators}
    by_level: dict[int, dict[int, dict]] = {}
    for r in rows:
        by_level.setdefault(int(r["level"]), {})[int(r["index"])] = r
    for n in range(depth + 1):
        level_rows = by_level.get(n, {})
        if sorted(level_rows) != list(range(sizes[n])):
            raise ValueError(f"{path}: level {n} indices are not 0..{sizes[n]-1}")
        if n >= 1:
            parents.append(tuple(int(level_rows[i]["parent"])
                                 for i in range(sizes[n])))
        for label, g in labels.items():
            table_data[g].append(tuple(int(level_rows[i][label])
                                       for i in range(sizes[n])))
    return QuotientChain(spec, sizes, parents, table_data)


def chain_to_csv(chain: QuotientChain, path: str) -> None:
    labels = [(chain.spec.family.label(g.payload), g)
              for g in chain.spec.generators]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "parent"] + [lb for lb, _ in labels])
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


def _worst(dists: Iterable[DyadicDistance]) -> Optional[DyadicDistance]:
    definite = [d for d in dists if not d.marker]
    if not definite:
        return None
    return max(definite, key=lambda d: d.value)


def chain_trace_experiment(chain: QuotientChain, radius: int, modulus: int,
                           rng: Random) -> ChainTraceReport:
    """Build a strict step field over ball(radius) and trace it.

    Entries keep the orbit's path through level m+2 and re-walk deeper
    levels at random.  The step tolerance 2^-(m+1) and tracing tolerance
    2^-m are then checked, not assumed, by the step check and trace
    comparison that shift fields use; the trace is the identity entry and
    its residuals are verified over the whole index ball.
    """
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
    keep = modulus + 2
    if chain.depth < keep:
        raise ValueError(f"chain depth {chain.depth} cannot certify modulus "
                         f"{modulus}; need at least {keep} levels")
    delta = Fraction(1, 2 ** (modulus + 1))
    epsilon = Fraction(1, 2 ** modulus)
    geo = chain.geometry
    ball = geo.ball(radius)
    base = random_point(chain, rng)
    entries = []
    perturbed = 0
    for g in ball:
        exact = act_point(chain, g, base)
        entry = randomize_deep_levels(chain, exact, keep, rng)
        perturbed += sum(1 for n in range(keep + 1, chain.depth + 1)
                         if entry.path[n] != exact.path[n])
        entries.append(entry)
    act = partial(act_point, chain)
    gens = chain.spec.generators
    steps = step_distances(lambda a, x: act(gens[a], x), level_distance, geo,
                           radius, entries)
    residuals = tuple(trace_distances(act, level_distance, ball, entries[0],
                                      entries))
    step_ok = not any(refutes(d, delta) for d in steps)
    trace_ok = not any(refutes(d, epsilon) for d in residuals)
    if not step_ok:
        raise GenerationError("chain step field violated its own tolerance; "
                              "level bookkeeping is broken")
    return ChainTraceReport(radius, modulus, keep, delta, epsilon, len(ball),
                            perturbed, step_ok, _worst(steps), trace_ok,
                            _worst(residuals))


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

    def distance_exponent(self, p: tuple[int, ...],
                          q: tuple[int, ...]) -> Optional[int]:
        """First differing coordinate, or None for equal tuples."""
        for i in range(self.width):
            if p[i] != q[i]:
                return i
        return None

    def all_points(self):
        return itertools.product((0, 1), repeat=self.width)


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
    within 2^-epsilon_exponent.  The search is honest: a tracer, if one
    existed, would be found and reported.
    """
    system = NecklaceShift(width)
    if max_modulus is None:
        max_modulus = width - 3
    if epsilon_exponent >= width - 1:
        raise ValueError("epsilon too fine for the width")
    tested = []
    for m in range(epsilon_exponent, max_modulus + 1):
        agree_prefix = m + 2  # coordinates 0..m+1 agree <=> distance < 2^-(m+1)
        if agree_prefix > width - 1:
            break
        orbit = _necklace_pseudo_orbit(system, dwell=width + 2)
        for i in range(len(orbit) - 1):
            gap = system.distance_exponent(system.step(orbit[i]), orbit[i + 1])
            if gap is not None and gap < agree_prefix:
                raise GenerationError("adversarial field broke its own tolerance")
        tested.append(m)
        for z in system.all_points():
            cur = z
            traced = True
            for target in orbit:
                gap = system.distance_exponent(cur, target)
                if gap is not None and gap <= epsilon_exponent:
                    traced = False
                    break
                cur = system.step(cur)
            if traced:
                return ModulusCertificate("necklace-rotation", epsilon_exponent,
                                          tuple(tested), True, m,
                                          f"unexpected tracer {z}")
    return ModulusCertificate("necklace-rotation", epsilon_exponent,
                              tuple(tested), False, None,
                              "every admissible step tolerance admits an "
                              "untraceable field")
