"""Regression pin: generated circuits and their measures must not drift."""

import json
import pathlib

from archpi.circuits import circuit_measures, random_circuit
from archpi.dyadic import Dyadic
from archpi.interval import Interval

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "circuits.json"


def test_circuit_fixtures_reproduce():
    for fixture in json.loads(FIXTURES.read_text()):
        cap = Interval.exact(Dyadic(1, -fixture["mesh_cap_exp"]), 64)
        circuit = random_circuit(3, cap, fixture["seed"], 64)
        assert len(circuit) == fixture["points"]
        assert circuit.gaps == fixture["gaps"]
        assert circuit.ring_m == fixture["ring_m"]
        measures = circuit_measures(circuit)
        assert measures.serialize() == fixture["measures"]
