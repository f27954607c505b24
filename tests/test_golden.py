"""Golden report gate: pinned sha256 digests of CLI-rendered reports.

Each config runs through ``shadowlab run --out`` and the digest of the
written file (``json.dumps(report, indent=2, sort_keys=True) + "\\n"``) must
match.  The configs are the README examples plus an expansiveness-window
config for every method on each of the line, the plane and the free group
(``pairs`` on a small ball and on a larger one; the larger ones keep the
``-sampled`` names they had when a sampled estimator ran them), and the
tracing pipeline: sft-trace fields in every generation mode on the line,
the plane, the free group and the Heisenberg group (one with the uniqueness
scan), and single-trial quotient-chain traces, whose reports carry the
worst step and residual faces.  A refactor
that is meant to keep reports byte for byte must keep every digest here;
an intended change of report bytes updates the digest and says so.

The toral-stability and generating-set-compare examples are left out:
their float fields can differ in the last bits between BLAS builds.
"""

import hashlib
import json
import types
from pathlib import Path

import pytest

from shadowlab.cli import main
from shadowlab.harness import parameter_schema

README_CONFIGS = {
    "readme-sft-trace": (
        {"experiment": "sft-trace", "seed": 7,
         "parameters": {"group": "integer-line", "sft": "golden-mean",
                        "radius": 8, "epsilon_exponent": 3,
                        "mode": "perturbed_orbit", "inner_radius": 8}},
        "42db2534575b644ae88a26c6bedca0a42eacc3a21da245e81c3a308713ebdef4"),
    "readme-sft-synthesize": (
        {"experiment": "sft-synthesize", "seed": 1,
         "parameters": {"group": "integer-line", "sft": "golden-mean",
                        "modulus": 4, "slack": 2, "agreement_radius": 6,
                        "exact_cross_check": True}},
        "5b88a6518ff3032727c2e23ba648d64fb58ac4828fdc63a6ee95fa2341af6d9a"),
    "readme-expansiveness-window": (
        {"experiment": "expansiveness-window", "seed": 0,
         "parameters": {"group": "integer-line", "eta": "1/2",
                        "epsilon_exponent": 3, "test_radius": 5,
                        "max_window": 6, "method": "exhaustive"}},
        "867bff1f134d40c2f1d56a5858a8b5d0ba0dd46128015faad4e3fc55af3af6d5"),
    "readme-cantor-chain": (
        {"experiment": "cantor-trace", "seed": 11,
         "parameters": {"system": "chain",
                        "chain": {"kind": "odometer", "base": 2, "depth": 9},
                        "radius": 4, "modulus": 4, "trials": 16},
         "output": {"chain_csv": "chain.csv"}},
        "9da50abb5f31693485ed5b97c41c9aee4ab87c5133a97664c7374942cb5c7178"),
    "readme-cantor-necklace": (
        {"experiment": "cantor-trace", "seed": 0,
         "parameters": {"system": "necklace", "width": 10,
                        "epsilon_exponent": 5, "max_modulus": 7}},
        "596309ad0c4f2d747c4a4bbe0608c9490f489b030dbdaf45f44ac4330240d5f4"),
}


def _window(group, method, test_radius, max_window, eta, epsilon_exponent,
            **extra):
    params = {"group": group, "eta": eta,
              "epsilon_exponent": epsilon_exponent,
              "test_radius": test_radius, "max_window": max_window,
              "method": method}
    params.update(extra)
    return {"experiment": "expansiveness-window", "seed": 3,
            "parameters": params}


WINDOW_CONFIGS = {
    "line-flip": (
        _window("integer-line", "flip", 6, 7, "1/2", 3),
        "350d0470a9ea3ba0381adb438004430bdef1479f17e9bbe3cbd18d1e0c800598"),
    "line-exhaustive": (
        _window("integer-line", "exhaustive", 7, 8, "1/3", 4),
        "debe7015ad58b745ba2174b5e0b5cbc8961457d4e9a233df681fd1ad259fe23b"),
    "line-pairs": (
        _window("integer-line", "pairs", 3, 4, "1/2", 2, sft="golden-mean"),
        "402dab4f63f3a53deed8fa42febb6f3e29d3a966599dfd2b24439d9e7ef7cb90"),
    "line-sampled": (
        _window("integer-line", "pairs", 6, 7, "3/4", 3, sft="even-window"),
        "b0690a43a0add67ff683e50e0cc58fb9d5b06f3ab6070835c739d97d55d6a25d"),
    "plane-flip": (
        _window("integer-plane", "flip", 3, 4, "1/2", 2),
        "2929702eb18def1dd9a36e4ac8b2f43516c7d30c2179648024caacd8e9053b19"),
    "plane-exhaustive": (
        _window("integer-plane", "exhaustive", 2, 3, "1/2", 2),
        "4ca95628f76129d2ee6f45e23b89e7dd0bc47d3edd814b261d902a25242c2b8b"),
    "plane-pairs": (
        _window("integer-plane", "pairs", 1, 2, "1/2", 1),
        "7e10a792e58fec46d434dfe351711014b97782f54e6de6c5e25346005c196d4d"),
    "plane-sampled": (
        _window("integer-plane", "pairs", 3, 4, "1/3", 2, sft="hard-square"),
        "5794f7830a3b35cc848fdb68a6d241d1f41e1bd2c2bd51f44aebf8fe9e519343"),
    "free-flip": (
        _window("free-rank-2", "flip", 3, 4, "1/2", 2),
        "4fad0043664d9555f46cbc434f0b2f822e56f71c3c9c12b02ed88b06179fac42"),
    "free-exhaustive": (
        _window("free-rank-2", "exhaustive", 2, 3, "3/4", 2),
        "52c4bcef64dbc01f393c47061a35de5e094b3b00bdbf925410025c208b26fd58"),
    "free-pairs": (
        _window("free-rank-2", "pairs", 1, 2, "1", 1,
                sft="one-forbidden-window"),
        "a91ca9cdab6002acff50670911b806935b156d4a926823048ba5b6dd4a07cfb7"),
    "free-sampled": (
        _window("free-rank-2", "pairs", 2, 3, "1/2", 2),
        "32ace0ba4ece2ce6493127b83157a0dc61d060168c0bd647c498069cbeebd56e"),
}

def _field(seed, **params):
    return {"experiment": "sft-trace", "seed": seed, "parameters": params}


def _chain(seed, chain, radius, modulus):
    return {"experiment": "cantor-trace", "seed": seed,
            "parameters": {"system": "chain", "chain": chain,
                           "radius": radius, "modulus": modulus,
                           "trials": 1}}


PIPELINE_CONFIGS = {
    "field-line-perturbed": (
        _field(5, group="integer-line", sft="golden-mean", radius=6,
               epsilon_exponent=3, inner_radius=9, scan_radius=6),
        "2163c32713a57cd89eef511e0259dc79fb30dc39ed0017d8373c7b5f1ef9319d"),
    "field-plane-perturbed": (
        _field(2, group="integer-plane", sft="hard-square", radius=4,
               epsilon_exponent=2, inner_radius=7, scan_radius=3),
        "f0cb45524d9c892d49bfcad674988ad12c42a072b87441a1a077544cd1e9452b"),
    "field-free-perturbed": (
        _field(4, group="free-rank-2", sft="one-forbidden-window", radius=1,
               epsilon_exponent=2, modulus=2, inner_radius=6),
        "77111c0fb38a928bbb1ca7e6501931581d4a86f1147b59cd1f8d5a12e80dd229"),
    "field-line-flip": (
        _field(10, group="integer-line", sft="golden-mean", radius=6,
               epsilon_exponent=3, mode="random_flip", inner_radius=9,
               flip_attempts=24),
        "994d133d05b0c7d00df756d24fc1d7c4137174002834ef3cc118bed00342061e"),
    "field-line-exact": (
        _field(6, group="integer-line", sft="even-window", radius=7,
               epsilon_exponent=3, mode="exact_orbit"),
        "b79a36ec04a837cc4452343426f6f1e3994ff768f4f8ad1313898a7d40f8cfdf"),
    "field-line-flip-uniqueness": (
        _field(9, group="integer-line", sft="full-shift", radius=4,
               epsilon_exponent=3, modulus=2, mode="random_flip",
               inner_radius=5, flip_attempts=8,
               uniqueness={"eta": "1/2", "scan_radius": 4}),
        "d73d9a1c1606c1fd46d99f7b264dad54ed692a813f9000450960a2d5fec05d9a"),
    "field-heisenberg": (
        _field(8, group="heisenberg", sft="full-shift", radius=2,
               epsilon_exponent=1, inner_radius=6),
        "1966d7abb76ccefece13ca016b774e335cbfb176ccc7d4d564fb75d8840f3849"),
    "chain-odometer-trial": (
        _chain(12, {"kind": "odometer", "base": 3, "depth": 9}, 4, 4),
        "eefd8ee34d0ca3200b6c6d3f523a6cebdee88f8fc95d4d2f73484ae43043f404"),
    "chain-plane-lattice-trial": (
        _chain(13, {"kind": "plane-lattice", "depth": 5}, 3, 1),
        "da5d75009e1514efb7ced6d6fe91820528e6bd34ced50d7db15a29ac2e942498"),
}

GOLDEN = {**README_CONFIGS, **WINDOW_CONFIGS, **PIPELINE_CONFIGS}


def test_window_configs_cover_every_method_on_every_group():
    """Every value of the schema's window ``method`` enum has a config on
    each of the three groups, and no config names a method it lacks."""
    schema = parameter_schema("expansiveness-window")
    methods = schema["properties"]["method"]["enum"]
    covered = {(config["parameters"]["group"], config["parameters"]["method"])
               for config, _ in WINDOW_CONFIGS.values()}
    groups = ("integer-line", "integer-plane", "free-rank-2")
    assert covered == {(group, method) for group in groups for method in methods}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_pinned(name, tmp_path, monkeypatch, capsys):
    config, digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)  # relative CSV side files land here
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = main(["run", "cfg.json", "--out", "report.json"])
    capsys.readouterr()
    assert code in (0, 1)
    got = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert got == digest


def _bench_workloads():
    """The benchmark's workload module, compiled from its source so that
    nothing under ``perfbench/`` is written."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    source = (bench / "workloads.py").read_text()
    wl = types.ModuleType("perfbench_workloads")
    exec(compile(source, str(bench / "workloads.py"), "exec"), wl.__dict__)
    return wl, bench / "refs"


def test_tree_batch_items_match_the_benchmark_refs():
    """The first eight tree-batch pool cycles of the benchmark (40 fields,
    8 of them free-group fields) reproduce the digests recorded in
    ``perfbench/refs``.  The benchmark's workload module is compiled from
    its source and nothing under ``perfbench/`` is written."""
    wl, refs_dir = _bench_workloads()
    refs = json.loads((refs_dir / "tree-batch.json").read_text())["digests"]
    workload = wl.WORKLOADS["tree-batch"]
    workload.build()
    for c in range(8):
        for index, family, seed, params in workload.pool_cycle(c):
            text, passed, _ = family.run(seed, params, wl.DIRECT)
            assert passed
            assert wl.digest(text) == refs[index], (index, family.name)


LIGHT_CONFIG_MIX = ("uniqueness", "window-plane", "window-free", "synthesize",
                    "odometer", "plane-lattice")


def test_light_config_mix_items_match_the_benchmark_refs():
    """The light certify items of the first config-mix pool cycle, run
    through ``run_config``, reproduce the digests in ``perfbench/refs``."""
    wl, refs_dir = _bench_workloads()
    refs = json.loads((refs_dir / "config-mix.json").read_text())["digests"]
    seen = set()
    for index, family, seed, params in wl.WORKLOADS["config-mix"].pool_cycle(0):
        if family.name not in LIGHT_CONFIG_MIX:
            continue
        text, passed, report = family.run(seed, params, wl.DIRECT)
        assert family.expected(passed, report), (index, family.name)
        assert wl.digest(text) == refs[index], (index, family.name)
        seen.add(family.name)
    assert seen == set(LIGHT_CONFIG_MIX)
