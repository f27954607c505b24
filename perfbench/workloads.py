"""The two benchmark workloads, their items, output checks and replays.

An item is one traced field (batch workloads) or one ``run_config`` call
rendered the way the CLI prints it (config workloads).  Each workload is a
fixed cycle of slots; the run executes whole cycles, so every run sees the
same mix of item kinds and percentiles land inside the same kind on every
run.  The workload seed picks which cycles of the recorded pool a run uses,
so the program only ever sees generated inputs whose reference digests were
recorded by ``record.py``.

Item execution goes through a tracer-shaped object: ``DIRECT`` runs calls
plainly, ``tracing.Tracer`` wraps each in a span.  In the traced run each
item is followed by a replay of the calls that are internal to the public
functions it made, on the same inputs, so the lower layers get spans
without touching the package source.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from random import Random

import numpy as np

from shadowlab import harness
from shadowlab.groups import GroupGeometry, free_rank2_spec, integer_plane_spec
from shadowlab.harness import run_config, to_jsonable, validate_config
from shadowlab.profinite import (
    act_point,
    chain_trace_experiment,
    necklace_modulus_search,
    odometer_chain,
    plane_lattice_chain,
    random_point,
)
from shadowlab.shadowing import (
    TracingPlan,
    construct_trace,
    delta_profile,
    generate_pseudo_orbit,
    potp_modulus,
    separation_window_exhaustive_check,
    separation_window_flip_scan,
    synthesize_window_spec,
    uniqueness_scan,
    verify_trace,
)
from shadowlab.shifts import (
    ShiftSpace,
    distance,
    enumerate_admissible,
    hard_square_sft,
    locally_admissible,
    one_forbidden_window_sft,
    random_admissible,
    shift,
)
from shadowlab.torus import (
    PerturbedMap,
    as_int_matrix,
    conjugacy_points,
    correct_segment,
    expansiveness_certificate,
    generating_set_transfer,
    heisenberg_block_action,
    random_displacement,
    random_grid,
    spectral_splitting,
    stability_report,
)


class Direct:
    """Runs calls without spans: the untimed-overhead path of every item."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name, n=1):
        pass


DIRECT = Direct()


def render(report: dict) -> str:
    """The report text exactly as ``shadowlab run`` prints it."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _count_all(iterator) -> int:
    return sum(1 for _ in iterator)


# --- batch workloads: one process, geometry shared across the batch --------


class FieldFamily:
    """Perturbed-orbit fields of one SFT, traced as the acceptance battery
    traces them: generate, step check, construct, verify."""

    known_defect = None

    def __init__(self, name, spec_fn, sft_fn, radius, inner, epsilon):
        self.name = name
        self.spec_fn = spec_fn
        self.sft_fn = sft_fn
        self.radius = radius
        self.inner = inner
        self.epsilon = epsilon

    def build(self) -> None:
        self.space = ShiftSpace(GroupGeometry(self.spec_fn()))
        self.sft = self.sft_fn(self.space)
        self.plan = potp_modulus(self.sft.window_radius, self.epsilon)
        self.space.geometry.ball(self.radius + self.inner)

    def run(self, seed: int, params: dict, t):
        orbit = t.call("shadowing.generate", generate_pseudo_orbit, self.sft,
                       self.radius, self.plan, Random(seed),
                       mode="perturbed_orbit", inner_radius=self.inner)
        step_ok, worst_step, _ = t.call("shadowing.step_check", delta_profile, orbit)
        trace = t.call("shadowing.construct", construct_trace, orbit)
        outcome = t.call("shadowing.verify", verify_trace, orbit, trace, self.plan)
        t.count("shadowing.checks", len(outcome.checks))
        passed = step_ok and outcome.passed
        text = json.dumps({
            "trace": trace.serialize(),
            "step_ok": step_ok,
            "admissible": outcome.admissible,
            "passed": outcome.passed,
            "worst_step": str(worst_step),
            "worst_residual": str(outcome.worst_definite),
            "checks": len(outcome.checks),
            "perturbed_cells": orbit.perturbation_count,
        }, sort_keys=True)
        return text, passed, (orbit, trace)

    def expected(self, passed: bool, detail) -> bool:
        return passed

    def replay(self, seed: int, params: dict, detail, t) -> None:
        """The shifts, fills, distances and word lengths that generate,
        step check and verify make internally, in their order."""
        orbit, trace = detail
        space, sft, plan = self.space, self.sft, self.plan
        geo = space.geometry
        R, inner = self.radius, self.inner
        rng = Random(seed)
        base = t.call("shifts.fill", random_admissible, space, sft, R + inner, rng)
        t.count("shifts.fill_calls")
        seeds = [rng.getrandbits(64) for _ in range(geo.ball_size(R))]
        kept = geo.ball_size(min(plan.modulus + 3, inner))
        for gi, g in enumerate(geo.ball(R)):
            exact = self._shift(t, g, base).restrict(inner)
            if kept < len(exact.cells):
                t.call("shifts.fill", random_admissible, space, sft, inner,
                       Random(seeds[gi]), prefix=exact.cells[:kept])
                t.count("shifts.fill_calls")
        for gi, g in enumerate(geo.ball(R)):
            for a in space.spec.generators:
                ag = a * g
                if t.call("groups.word_length", geo.word_length, ag, R) is None:
                    continue
                target = orbit.entries[geo.position(ag, R)].restrict(inner - 1)
                stepped = self._shift(t, a, orbit.entries[gi])
                t.call("shifts.distance", distance, stepped, target)
        scan = max(R - plan.modulus, 0)
        for gi, g in enumerate(geo.ball(scan)):
            length = t.call("groups.word_length", geo.word_length, g, scan)
            c = min(R - length, inner)
            moved = self._shift(t, g, trace).restrict(c)
            t.call("shifts.distance", distance, moved, orbit.entries[gi].restrict(c))
        t.call("shifts.admissible", locally_admissible, trace, sft)

    @staticmethod
    def _shift(t, g, x):
        y = t.call("shifts.shift", shift, g, x)
        t.count("shifts.cells_shifted", len(y.cells))
        return y

    def replay_geometry(self, t) -> None:
        """Cold ball growth and the translation table of every element the
        field shifts by (base, generator and trace shifts)."""
        top = self.radius + self.inner
        with t.span("groups.ball"):
            geo = GroupGeometry(self.spec_fn())
            size = len(geo.ball(top))
        t.count("groups.ball_elements", size)
        jobs = [(g, top) for g in geo.ball(self.radius)]
        jobs += [(a, self.inner) for a in geo.spec.generators]
        jobs += [(g, self.radius)
                 for g in geo.ball(max(self.radius - self.plan.modulus, 0))]
        for g, dst in jobs:
            src = dst - geo.word_length(g, dst)
            t.call("groups.translation", geo.right_translation, src, g, dst)
            t.count("groups.translation_tables")


# --- config workloads: a fresh geometry and report per run_config call ----


class ConfigFamily:
    """One experiment config shape; the item seed becomes the config seed."""

    def __init__(self, name, experiment, parameters, expect_passed=True,
                 expect_verdict=None, known_defect=None):
        self.name = name
        self.experiment = experiment
        self.parameters = parameters
        self.expect_passed = expect_passed
        self.expect_verdict = expect_verdict
        self.known_defect = known_defect

    def build(self) -> None:
        pass

    def config(self, seed: int, params: dict) -> dict:
        return {"experiment": self.experiment, "seed": seed,
                "parameters": {**self.parameters, **params}}

    def run(self, seed: int, params: dict, t):
        report, passed = t.call("harness.run_config", run_config,
                                self.config(seed, params))
        text = t.call("harness.serialize", render, report)
        t.count("harness.report_bytes", len(text))
        return text, passed, report

    def expected(self, passed: bool, report: dict) -> bool:
        if passed != self.expect_passed:
            return False
        if self.expect_verdict is not None:
            verdict = report["results"]["certificate"]["verdict"]
            return verdict == self.expect_verdict
        return True

    def replay(self, seed: int, params: dict, report: dict, t) -> None:
        """Validation and serialization as run_config does them, then the
        experiment's own public calls, in the order its runner makes them."""
        config = self.config(seed, params)
        t.call("harness.validate", validate_config, config)
        t.call("harness.serialize", to_jsonable, report)
        _REPLAYS[self.experiment](config["parameters"], seed, t)

    def replay_geometry(self, t) -> None:
        pass


def _fresh_space(t, params: dict, radius: int) -> ShiftSpace:
    """A cold ``GroupGeometry(spec).ball(radius)`` at the config's largest
    radius, timed; returns a fresh space for the replays that follow."""
    spec_fn = harness._GROUPS[params["group"]]
    with t.span("groups.ball"):
        size = len(GroupGeometry(spec_fn()).ball(radius))
    t.count("groups.ball_elements", size)
    return ShiftSpace(GroupGeometry(spec_fn()))


def _replay_sft_trace(params: dict, seed: int, t) -> None:
    space = _fresh_space(t, params, params["radius"] + params["inner_radius"])
    sft = harness._SFT_BUILDERS[params["sft"]](space)
    epsilon = Fraction(1, 2 ** params["epsilon_exponent"])
    m = params.get("modulus")
    plan = (TracingPlan(sft.window_radius, epsilon, m, Fraction(1, 2 ** (m + 1)))
            if m is not None else potp_modulus(sft.window_radius, epsilon))
    orbit = t.call("shadowing.generate", generate_pseudo_orbit, sft,
                   params["radius"], plan, Random(seed),
                   mode=params.get("mode", "perturbed_orbit"),
                   inner_radius=params.get("inner_radius"),
                   flip_attempts=params.get("flip_attempts", 16))
    u = params["uniqueness"]
    report = t.call("shadowing.uniqueness", uniqueness_scan, orbit, plan,
                    Fraction(u["eta"]), scan_radius=u.get("scan_radius"),
                    comparison_cap=u.get("comparison_cap"))
    t.count("shadowing.candidates_scanned", report.candidates_scanned)
    n = t.call("shifts.enumerate", _count_all,
               enumerate_admissible(space, sft, orbit.radius))
    t.count("shifts.enumerated", n)


def _replay_synthesize(params: dict, seed: int, t) -> None:
    m, slack = params["modulus"], params["slack"]
    space = _fresh_space(t, params, max(m + 1 + slack, params["agreement_radius"]))
    sft = harness._SFT_BUILDERS[params["sft"]](space)
    t.call("shadowing.synthesize", synthesize_window_spec, sft, m, slack)
    n = t.call("shifts.enumerate", _count_all,
               enumerate_admissible(space, sft, params["agreement_radius"]))
    t.count("shifts.enumerated", n)


def _replay_window(params: dict, seed: int, t) -> None:
    test_radius, max_window = params["test_radius"], params["max_window"]
    space = _fresh_space(t, params, test_radius + max_window)
    eta = Fraction(params["eta"])
    epsilon = Fraction(1, 2 ** params["epsilon_exponent"])
    scan = t.call("shadowing.window_scan", separation_window_flip_scan, space,
                  eta, epsilon, test_radius, max_window)
    if scan.window is not None:
        check = t.call("shadowing.window_check", separation_window_exhaustive_check,
                       space, eta, epsilon, scan.window, test_radius)
        t.count("shadowing.subsets_checked", check.subsets_checked)


def _replay_cantor(params: dict, seed: int, t) -> None:
    if params["system"] == "necklace":
        t.call("profinite.necklace", necklace_modulus_search, params["width"],
               params["epsilon_exponent"], params.get("max_modulus"))
        return
    chain_cfg = params["chain"]
    if chain_cfg["kind"] == "odometer":
        chain = t.call("profinite.chain_build", odometer_chain,
                       chain_cfg.get("base", 2), chain_cfg.get("depth", 6))
    else:
        chain = t.call("profinite.chain_build", plane_lattice_chain,
                       chain_cfg.get("depth", 4))
    trials = params.get("trials", 1)
    if trials == 1:
        trial_seeds = [seed]
    else:
        rng = Random(seed)
        trial_seeds = [rng.getrandbits(64) for _ in range(trials)]
    ball = chain.geometry.ball(params["radius"])
    for trial_seed in trial_seeds:
        base = random_point(chain, Random(trial_seed))
        for g in ball:
            t.call("profinite.act_point", act_point, chain, g, base)
        t.count("profinite.act_calls", len(ball))
        t.call("profinite.trace", chain_trace_experiment, chain,
               params["radius"], params["modulus"], Random(trial_seed))


def _replay_toral(params: dict, seed: int, t) -> None:
    A = as_int_matrix(params["matrix"])
    cert = t.call("torus.certificate", expansiveness_certificate, A)
    if not cert.is_expansive:
        return
    rng = Random(seed)
    amplitude, window = params["amplitude"], params["window"]
    disp = random_displacement(len(A), amplitude, rng, terms=params.get("terms", 3))
    pts = random_grid(len(A), params["grid_points"], rng)
    t.count("torus.grid_points", len(pts))
    _, whole = t.timed("torus.stability", stability_report, A, disp, window, pts)
    pmap = PerturbedMap(A, disp)
    splitting = spectral_splitting(A)
    conjugacy = 0.0
    for start in (pts, pmap.forward(pts)):
        _, spent = t.timed("torus.conjugacy", conjugacy_points, A, pmap,
                           splitting, start, window)
        conjugacy += spent
        # the segment conjugacy_points builds, then its correction
        seg = np.zeros((2 * window + 1,) + start.shape)
        seg[window] = start
        cur = start
        for i in range(1, window + 1):
            cur = pmap.forward(cur)
            seg[window + i] = cur
        cur = start
        for i in range(1, window + 1):
            cur = t.call("torus.backward", pmap.backward, cur)
            seg[window - i] = cur
        t.call("torus.correct", correct_segment, A, splitting, seg,
               error_bound=amplitude)
    # what stability_report does besides its two conjugacy calls: the
    # collision loop and the defect computation
    t.count("torus.stability_rest_s", whole - conjugacy)


def _replay_transfer(params: dict, seed: int, t) -> None:
    grid = params["grid_points"]
    t.call("torus.transfer", generating_set_transfer, as_int_matrix(params["matrix"]),
           params["target_tolerance"], Random(seed), grid_count=grid)
    t.count("torus.grid_points", grid)


_REPLAYS = {
    "sft-trace": _replay_sft_trace,
    "sft-synthesize": _replay_synthesize,
    "expansiveness-window": _replay_window,
    "cantor-trace": _replay_cantor,
    "toral-stability": _replay_toral,
    "generating-set-compare": _replay_transfer,
}


# --- the workloads ------------------------------------------------------------

CAT = [[2, 1], [1, 1]]
# companion matrix of t^3 + t^2 - 5t - 1: three real roots, none near the
# unit circle, so window 30 resolves the conjugacy to roundoff
COMPANION3 = [[0, 1, 0], [0, 0, 1], [1, 5, -1]]
HEISENBERG6 = [list(row) for row in
               heisenberg_block_action(((2, 1), (1, 1)), ((2, 1), (1, 1))).matrix_for("a")]
# characteristic polynomial (t - 1)^2: not expansive
JORDAN_UNIPOTENT = [[3, 1], [-4, -1]]


def _toral(name, matrix, **kw):
    return ConfigFamily(name, "toral-stability",
                        {"matrix": matrix, "amplitude": 0.001, "window": 30,
                         "grid_points": 512}, **kw)


def _window(name, group, test_radius, max_window):
    return ConfigFamily(name, "expansiveness-window",
                        {"group": group, "eta": "1/2", "epsilon_exponent": 3,
                         "test_radius": test_radius, "max_window": max_window,
                         "method": "exhaustive"})


class Workload:
    """A fixed cycle of (family, parameter overrides) slots over a pool of
    ``pool_cycles`` recorded cycles."""

    def __init__(self, name, families, slots, pool_cycles, nominal_cycle_s):
        self.name = name
        self.families = {f.name: f for f in families}
        self.slots = slots
        self.pool_cycles = pool_cycles
        # untraced seconds per cycle on a 2-core x86 box; sizes the traced run
        self.nominal_cycle_s = nominal_cycle_s
        # per slot: (family, its occurrence in the cycle, its count per cycle)
        self._slot_keys = []
        seen: dict[str, int] = {}
        for name, _ in slots:
            self._slot_keys.append((self.families[name], seen.get(name, 0),
                                    sum(1 for s, _ in slots if s == name)))
            seen[name] = seen.get(name, 0) + 1

    def build(self) -> None:
        for family in self.families.values():
            family.build()

    def start_cycle(self, seed: int) -> int:
        return Random(f"{self.name}:{seed}").randrange(self.pool_cycles)

    def pool_cycle(self, c: int) -> list:
        """Items of pool cycle c: (pool index, family, item seed, overrides).

        A family's item seed counts its own slots, so the first pool cycles
        of a batch family are the acceptance battery's field seeds."""
        return [(c * len(self.slots) + s, family, c * per_cycle + k, params)
                for s, ((family, k, per_cycle), (_, params))
                in enumerate(zip(self._slot_keys, self.slots))]

    def run_cycle(self, seed: int, k: int) -> list:
        return self.pool_cycle((self.start_cycle(seed) + k) % self.pool_cycles)


PLANE = FieldFamily("plane", integer_plane_spec, hard_square_sft, 5, 7, Fraction(1, 4))
# inner radius 5 keeps every layer, so these are exact orbit restrictions on
# ball(9), as in the acceptance battery
FREE = FieldFamily("free", free_rank2_spec, one_forbidden_window_sft, 4, 5, Fraction(1, 4))

GSC = ConfigFamily("transfer", "generating-set-compare",
                   {"matrix": CAT, "target_tolerance": 0.05, "grid_points": 40})
TORAL = [
    _toral("cat", CAT),
    _toral("companion3", COMPANION3),
    _toral("heisenberg6", HEISENBERG6),
    # ROADMAP F1: today's certificate says "expansive / numeric"; the
    # correct outcome is recorded, so this item fails until F1 is fixed
    _toral("jordan2", JORDAN_UNIPOTENT, expect_passed=False,
           expect_verdict="not_expansive", known_defect="F1"),
]

CERTIFY = [
    _window("window-line", "integer-line", 8, 8),
    _window("window-plane", "integer-plane", 2, 4),
    _window("window-free", "free-rank-2", 2, 4),
    ConfigFamily("uniqueness", "sft-trace",
                 {"group": "integer-line", "sft": "full-shift", "radius": 4,
                  "epsilon_exponent": 3, "modulus": 2, "mode": "random_flip",
                  "inner_radius": 5, "flip_attempts": 8,
                  "uniqueness": {"eta": "1/2", "scan_radius": 4}}),
    ConfigFamily("synthesize", "sft-synthesize",
                 {"group": "integer-line", "sft": "golden-mean", "modulus": 4,
                  "slack": 2, "agreement_radius": 6, "exact_cross_check": True}),
    ConfigFamily("odometer", "cantor-trace",
                 {"system": "chain", "chain": {"kind": "odometer", "base": 2, "depth": 12},
                  "radius": 5, "modulus": 5, "trials": 8}),
    ConfigFamily("plane-lattice", "cantor-trace",
                 {"system": "chain", "chain": {"kind": "plane-lattice", "depth": 5},
                  "radius": 2, "modulus": 1, "trials": 8}),
    # the expected outcome of a necklace search is that no modulus traces
    ConfigFamily("necklace", "cantor-trace",
                 {"system": "necklace", "width": 12, "epsilon_exponent": 5,
                  "max_modulus": 9}),
]


def _grid(n: int) -> dict:
    return {"grid_points": n}


WORKLOADS = {w.name: w for w in (
    # a fifth of the items are the heavy free-group fields, so p90 is their
    # median and p50 falls among the plane fields
    Workload("tree-batch", [PLANE, FREE],
             [("plane", {}), ("plane", {}), ("free", {}), ("plane", {}), ("plane", {})],
             512, 0.36),
    # Per 40-item cycle, by cost: 12 transfers (~0.01 s); 16 light certify
    # items (~0.02-0.03 s: necklace, plane-lattice, uniqueness, odometer,
    # synthesize), whose middle is p50; 6 items of 0.04-0.5 s; 4 exhaustive
    # window-line certificates (~0.6 s), whose middle is p90; and the two
    # heaviest, heisenberg6 and cat/4096 (~2 s).  Each family's first slot is
    # its smallest grid, which the warm-up uses.
    Workload("config-mix", [GSC] + TORAL + CERTIFY,
             [("transfer", {}), ("necklace", {}), ("cat", _grid(512)),
              ("uniqueness", {}), ("transfer", {}), ("window-line", {}),
              ("plane-lattice", {}), ("transfer", {}), ("odometer", {}),
              ("heisenberg6", _grid(512)), ("transfer", {}), ("uniqueness", {}),
              ("window-plane", {}), ("necklace", {}), ("transfer", {}),
              ("window-line", {}), ("synthesize", {}), ("companion3", _grid(1024)),
              ("transfer", {}), ("plane-lattice", {}), ("jordan2", _grid(512)),
              ("uniqueness", {}), ("transfer", {}), ("window-free", {}),
              ("odometer", {}), ("transfer", {}), ("window-line", {}),
              ("necklace", {}), ("cat", _grid(4096)), ("transfer", {}),
              ("synthesize", {}), ("plane-lattice", {}), ("transfer", {}),
              ("uniqueness", {}), ("odometer", {}), ("window-line", {}),
              ("transfer", {}), ("cat", _grid(1024)), ("necklace", {}),
              ("transfer", {})],
             40, 7.9),
)}
