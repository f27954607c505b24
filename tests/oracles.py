"""The tracing pipeline written out point by point, as the oracle that the
array kernels are checked against.

A distance is a ``DyadicDistance`` and a tolerance a ``Fraction``:
``refutes`` compares their values.  The step check and the trace
comparison take any action ``act`` and metric ``distance``; a quotient
chain field is a list of ``ProfinitePoint`` paths, acted on through
``act_point`` and compared level by level with ``level_distance``.
``chain_trace_experiment`` is the chain experiment built on these, draw
for draw as the package draws.
"""

from fractions import Fraction
from functools import partial

from shadowlab.errors import GenerationError
from shadowlab.profinite import (
    ChainTraceReport,
    ProfinitePoint,
    act_point,
    random_point,
)
from shadowlab.shifts import DyadicDistance


def refutes(d, threshold):
    """True when an observed (non-marker) distance is at least the
    threshold; a marker never refutes."""
    return (not d.marker) and d.value >= threshold


def exponent(d):
    """A distance as the kernels report it: its exponent, or -1 for a
    marker."""
    return -1 if d.marker else d.exponent


def step_distances(act, distance, geometry, radius, entries):
    """The step faces d(a . x_g, x_{ag}) of a field indexed by ball(radius),
    in step-table order; ``act`` takes the generator's index."""
    return tuple(distance(act(a, x), entries[j])
                 for x, steps in zip(entries, geometry.step_table(radius))
                 for a, j in steps)


def trace_distances(act, distance, ball, trace, entries):
    """The residuals d(g . trace, x_g) over ``ball``, in ball order."""
    return [distance(act(g, trace), entries[i]) for i, g in enumerate(ball)]


def level_distance(x, y):
    """2^-(n-1) for the first level n where the paths split; marker if never."""
    for n in range(1, len(x.path)):
        if x.path[n] != y.path[n]:
            return DyadicDistance(n - 1, False)
    return DyadicDistance(x.chain.depth, True)


def randomize_deep_levels(chain, x, keep_levels, rng):
    """Keep the path through ``keep_levels``, re-walk the tree below it."""
    if keep_levels >= chain.depth:
        return x
    path = list(x.path[: keep_levels + 1])
    for n in range(keep_levels + 1, chain.depth + 1):
        path.append(rng.choice(chain.children(n, path[-1])))
    return ProfinitePoint(chain, tuple(path))


def coordinate_exponent(p, q):
    """The necklace metric's exponent: the first differing coordinate of
    two tuples, or None for equal tuples."""
    return next((i for i, (a, b) in enumerate(zip(p, q)) if a != b), None)


def worst(dists):
    """The largest definite distance, or None when every one is a marker."""
    definite = [d for d in dists if not d.marker]
    return max(definite, key=lambda d: d.value) if definite else None


def chain_steps(chain, radius, entries):
    gens = chain.spec.generators
    return step_distances(lambda a, x: act_point(chain, gens[a], x),
                          level_distance, chain.geometry, radius, entries)


def chain_residuals(chain, radius, entries):
    return trace_distances(partial(act_point, chain), level_distance,
                           chain.geometry.ball(radius), entries[0], entries)


def chain_trace_experiment(chain, radius, modulus, rng):
    """The chain experiment on points: every entry acted on with
    ``act_point``, re-walked below level m+2, and checked face by face."""
    keep = modulus + 2
    if chain.depth < keep:
        raise ValueError("chain too shallow")
    delta = Fraction(1, 2 ** (modulus + 1))
    epsilon = Fraction(1, 2 ** modulus)
    ball = chain.geometry.ball(radius)
    base = random_point(chain, rng)
    entries = []
    perturbed = 0
    for g in ball:
        exact = act_point(chain, g, base)
        entry = randomize_deep_levels(chain, exact, keep, rng)
        perturbed += sum(1 for n in range(keep + 1, chain.depth + 1)
                         if entry.path[n] != exact.path[n])
        entries.append(entry)
    steps = chain_steps(chain, radius, entries)
    residuals = chain_residuals(chain, radius, entries)
    step_ok = not any(refutes(d, delta) for d in steps)
    trace_ok = not any(refutes(d, epsilon) for d in residuals)
    if not step_ok:
        raise GenerationError("chain step field violated its own tolerance")
    return ChainTraceReport(radius, modulus, keep, delta, epsilon, len(ball),
                            perturbed, step_ok, worst(steps), trace_ok,
                            worst(residuals))
