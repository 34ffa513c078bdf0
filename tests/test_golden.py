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
        "mssc.csv": "20d5d50010ec8bbb414ae84a06810c5dad24e0db95263cba5fd2a6aa6695bf32",
        "summary.json": "85ac51fb7f926bdbeb4371a02f49bbcce9a5feb41e136a263c196715def5ed79",
    },
    "fluid_ex2.json": {
        "fluid.csv": "5fb71577ab0d900cb4dd45c2af4d0169f0d143399784777ee7f9ab81d2f02547",
    },
    "fluid_iq2_msmw_log.json": {
        "fluid.csv": "7f62f3532a1e2068811b5917a15aab90bdd88de8c7123e074571e1892d58e25a",
    },
    "fluid_iq2_random_ties.json": {
        "fluid.csv": "2e2a0314f6143d4b7c72234df4a25b2d59916fdd58c67f5886a96ec0311a7213",
    },
    "fluid_iq2_round_robin.json": {
        "fluid.csv": "eb53908cb47bebbc66667c4fd82582aea27a361626eb1bea364b14efdc655979",
    },
    "fluid_iq2_sliding.json": {
        "fluid.csv": "bf8e0faa105bbafa37ec912baa103be280bdb7247bc07b79a287b1f669ee9f1b",
    },
    "fluid_tandem3_backpressure.json": {
        "fluid.csv": "fe06648f4273aee7fb73e40420e0e96567eefb371d66753f95f52bff44f710f4",
    },
    "iqcheck_m2.json": {
        "iqcheck.json": "16b9f0f18bad5f02eb41582ffa4eaf36509fabac017ce09f527c38e95a45bab3",
    },
    "lift_ex2.json": {
        "lift.json": "bc4e80a6cb40f19906013c6328a0ad0d9aa9b330239912d660f7392074251f7f",
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
