"""Golden outputs: every shipped scenario must reproduce its recorded bytes.

Criterion 13 of the acceptance suite only proves that two reruns of one
build agree; this module pins the bytes across changes to the code. The
manifest is excluded because it embeds library versions. A change that
moves a hash on purpose must say so and show that the numeric moves are
within the solver tolerance.
"""

import hashlib
from pathlib import Path

import pytest

from swnet.cli import execute, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "analyze_ex2.json": {
        "analysis.json": "8fce73403d31b65c0b49251c334ad7542d3907674592c5bfccd97a18bfc0e3d5",
    },
    "analyze_iq3.json": {
        "analysis.json": "ba8784bd4c131965f744f919d486c96b4e3d216b5dada5581267fe59590013e1",
    },
    "collapse_iq2_canonical.json": {
        "mssc.csv": "2fa420786930be2d6b8f4eba52d87bfa9998141a74af234c7135e5622543e0b4",
        "summary.json": "77d0ae6718c191345e7fef3c59a0f15588e24c559198c72258d84408b02a1585",
    },
    "fluid_ex2.json": {
        "fluid.csv": "7a651817ef03900e0fc8c90c3770deb7e6e3741727ef782c37deb21d8b110812",
    },
    "iqcheck_m2.json": {
        "iqcheck.json": "16b9f0f18bad5f02eb41582ffa4eaf36509fabac017ce09f527c38e95a45bab3",
    },
    "lift_ex2.json": {
        "lift.json": "a4a8e7721d57fac7c271680e87c3082b8c0a10ef44b7dd12fa553b20c15d08d8",
    },
    "simulate_ex2.json": {
        "audit.json": "41a8f9c739ae3d522e4d24d59d724547131e8649d3d0c91526f11074f62f9a6b",
        "trajectory.csv": "f32a0f2f360e0d46e65e806393c1813643c3ca75eba8a232197f31b551e61a00",
    },
    "simulate_tandem_backpressure.json": {
        "audit.json": "509114a3e5d97f10b0e5b1110a98d5b8eb729e268fdffc5a7568b230ea78fa83",
        "trajectory.csv": "4ae56475ba11a1d1081e09bded3cf301668625caf56474c860ea0147246a8d85",
    },
}


def test_every_scenario_has_golden_hashes():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_scenario_outputs_match_golden(scenario, tmp_path):
    out = tmp_path / "out"
    assert execute(parse_scenario(str(SCENARIOS / scenario)), out) == 0
    produced = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.name != "manifest.json"
    }
    assert produced == GOLDEN[scenario]
