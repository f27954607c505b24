"""Golden report gate: pinned sha256 digests of CLI-rendered reports.

Each config runs through ``shadowlab run --out`` and the digest of the
written file (``json.dumps(report, indent=2, sort_keys=True) + "\\n"``) must
match.  The configs are the README examples plus one expansiveness-window
config per method on the line, the plane and the free group.  A refactor
that is meant to keep reports byte for byte must keep every digest here;
an intended change of report bytes updates the digest and says so.

The toral-stability and generating-set-compare examples are left out:
their float fields can differ in the last bits between BLAS builds.
"""

import hashlib
import json

import pytest

from shadowlab.cli import main

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
        "118f0b63892ac54620719e828205a0a95733b66304baadd1dd0224ac33a98161"),
    "line-sampled": (
        _window("integer-line", "sampled", 6, 7, "3/4", 3, sft="even-window",
                samples=300),
        "239e81375385f006da7dabeb746b6dadcfaa2e91d55ce21a16dac14f803232dc"),
    "plane-flip": (
        _window("integer-plane", "flip", 3, 4, "1/2", 2),
        "2929702eb18def1dd9a36e4ac8b2f43516c7d30c2179648024caacd8e9053b19"),
    "plane-exhaustive": (
        _window("integer-plane", "exhaustive", 2, 3, "1/2", 2),
        "4ca95628f76129d2ee6f45e23b89e7dd0bc47d3edd814b261d902a25242c2b8b"),
    "plane-pairs": (
        _window("integer-plane", "pairs", 1, 2, "1/2", 1),
        "ef21fc177601e181faca6de5304082c1d9a2d915492304414b63a3956bfef30c"),
    "plane-sampled": (
        _window("integer-plane", "sampled", 3, 4, "1/3", 2, sft="hard-square",
                samples=200),
        "931e1c0ef95868d776b8a55f76cbb5aa8efc55ca466a4811a6c001a1d4f082c8"),
    "free-flip": (
        _window("free-rank-2", "flip", 3, 4, "1/2", 2),
        "4fad0043664d9555f46cbc434f0b2f822e56f71c3c9c12b02ed88b06179fac42"),
    "free-exhaustive": (
        _window("free-rank-2", "exhaustive", 2, 3, "3/4", 2),
        "52c4bcef64dbc01f393c47061a35de5e094b3b00bdbf925410025c208b26fd58"),
    "free-pairs": (
        _window("free-rank-2", "pairs", 1, 2, "1", 1,
                sft="one-forbidden-window"),
        "6e9433517ed28ccc488b412e4791c3b31b7a2f959c52b25b9fc6401f0d1faf95"),
    "free-sampled": (
        _window("free-rank-2", "sampled", 2, 3, "1/2", 2, samples=200),
        "84e66026473e1354a797beb366806153b0cefa152568eafedf6b7009bb665350"),
}

GOLDEN = {**README_CONFIGS, **WINDOW_CONFIGS}


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
