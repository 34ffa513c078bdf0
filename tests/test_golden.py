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
        "mssc.csv": "b99c88ddacd32ffd877c4c828af1c535d787ac66ad4a431e983a94f6d51402e9",
        "summary.json": "89a4350f9ce4a17cad16aec203c247790952988cf9dca231c028d711f3ec273d",
    },
    "fluid_ex2.json": {
        "fluid.csv": "14a5b927351283ce8c233e5f58811b052b1a10da0746e04e1902e99d85260ff2",
    },
    "fluid_iq2_msmw_log.json": {
        "fluid.csv": "bf5b26f70195191fff67afe68b18a0e903c15dd9e80703c1679b922f5ffe8e6e",
    },
    "fluid_iq2_random_ties.json": {
        "fluid.csv": "b602e477490b0a4ec1178a4d358530451e6cc26c063e72b2e02bca764dad154b",
    },
    "fluid_iq2_round_robin.json": {
        "fluid.csv": "d40e775b57ca84612f1e428becc88c08889b3e9744fd59b8eadde5046df0cfcd",
    },
    "fluid_iq2_sliding.json": {
        "fluid.csv": "0c39a39d735685252e9050ea563e05c9f853604e4769e060fbf230e7bfae35f2",
    },
    "fluid_tandem3_backpressure.json": {
        "fluid.csv": "fe06648f4273aee7fb73e40420e0e96567eefb371d66753f95f52bff44f710f4",
    },
    "iqcheck_m2.json": {
        "iqcheck.json": "16b9f0f18bad5f02eb41582ffa4eaf36509fabac017ce09f527c38e95a45bab3",
    },
    "lift_ex2.json": {
        "lift.json": "a178eb10672c424132cf8a3cd1022dbcc946a9c8553af8d1225696d6518b4368",
    },
    "simulate_ex2.json": {
        "audit.json": "41a8f9c739ae3d522e4d24d59d724547131e8649d3d0c91526f11074f62f9a6b",
        "trajectory.csv": "f32a0f2f360e0d46e65e806393c1813643c3ca75eba8a232197f31b551e61a00",
    },
    "simulate_iq2_random_ties.json": {
        "audit.json": "ab6a0a352b882ceec15fe153f836b03378092a5a51ae77228183f1f1a4804f8c",
        "trajectory.csv": "5c62a9013f5e8ff5d8cabdb0d299726e954b8011917f295a04783c5e00ea2326",
    },
    "simulate_tandem_backpressure.json": {
        "audit.json": "509114a3e5d97f10b0e5b1110a98d5b8eb729e268fdffc5a7568b230ea78fa83",
        "trajectory.csv": "4ae56475ba11a1d1081e09bded3cf301668625caf56474c860ea0147246a8d85",
    },
    "simulate_tandem_fractional.json": {
        "audit.json": "0623f0a0f65a947ce9133329ecbe5f104420f3677c8a492cd722ea241407ca79",
        "trajectory.csv": "c83da337b0b84eb3f74395b4a3044b8450b43444a84a3cfab5c0cc126df0731a",
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
