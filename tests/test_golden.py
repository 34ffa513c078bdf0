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
        "mssc.csv": "5c485af5ea5f852e38341092cd7f1fe50afd41160f12fda36c05c201467d69e8",
        "summary.json": "0d90175098496e11ac7053d85b10649d9040bbad9d57b2952b36b09dad1593f4",
    },
    "fluid_ex2.json": {
        "fluid.csv": "7a651817ef03900e0fc8c90c3770deb7e6e3741727ef782c37deb21d8b110812",
    },
    "fluid_iq2_msmw_log.json": {
        "fluid.csv": "89a0452598ac131d5068930d49bdb92f634f75fcd9f7e2a9ed785904b0b82689",
    },
    "fluid_iq2_random_ties.json": {
        "fluid.csv": "d8761d2124febfc9fe028e26e1cc6a3b455b72f30e110b2dc4ae4c17ffc3208e",
    },
    "fluid_iq2_round_robin.json": {
        "fluid.csv": "8cc2f0214af3e4e71f96576639a2ba21791acebf36df9529b4ef05f9287f1ebb",
    },
    "fluid_iq2_sliding.json": {
        "fluid.csv": "8afd304f49e44e750cee37613fc413dc07018a8bc3918ca1235528edac1b3c7a",
    },
    "fluid_tandem3_backpressure.json": {
        "fluid.csv": "fe06648f4273aee7fb73e40420e0e96567eefb371d66753f95f52bff44f710f4",
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
