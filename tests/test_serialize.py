"""Round-trip exactness of the JSON/CSV interchange."""

import json
import math

import pytest

from jetspace import serialize as ser
from jetspace.cubes import Cube
from jetspace.jets import Jet
from jetspace.modulus import Modulus
from jetspace.poly import Poly
from jetspace.selection import ConvexSetSpec, SelectionInstance
from jetspace.whitney import SampleSet


def test_float_formatting_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, 12345.6789, 2.0, -0.0, 1e308):
        s = ser._fmt_float(x)
        assert float(s) == x
        assert "." in s or "e" in s or "E" in s
    assert ser._fmt_float(math.inf) == "Infinity"
    assert ser._fmt_float(math.nan) == "NaN"


def test_dumps_parses_back():
    payload = {"a": [1, 2.5, True, None], "b": {"nested": 1.0 / 3.0}, "s": "text"}
    text = ser.dumps(payload)
    back = json.loads(text)
    assert back["b"]["nested"] == 1.0 / 3.0
    assert back["a"] == [1, 2.5, True, None]


def test_modulus_round_trip():
    for mod in (
        Modulus.power(1.5, 2),
        Modulus.power_log(0.5, 2),
        Modulus.table([(0.5, 0.6), (2.0, 1.4)], m=1),
    ):
        assert ser.modulus_from_dict(ser.modulus_to_dict(mod)) == mod


def test_modulus_order_consistency():
    with pytest.raises(ValueError):
        ser.modulus_from_dict({"family": "power", "q": 1.0, "m": 2}, default_m=1)
    mod = ser.modulus_from_dict({"family": "power", "q": 1.0}, default_m=3)
    assert mod.m == 3


def test_cube_round_trip():
    q = Cube((0.5, -1.0), 0.25)
    assert ser.cube_from_dict(ser.cube_to_dict(q)) == q


def test_poly_round_trip_with_array_keys():
    p = Poly(2, 2, {(1, 0): 1.5, (0, 2): -0.25})
    d = ser.poly_to_dict(p)
    assert set(d["coef"].keys()) == {"[1,0]", "[0,2]"}
    assert ser.poly_from_dict(d) == p
    # tolerant of spaced keys
    assert ser.poly_from_dict({"n": 1, "L": 1, "coef": {"[ 1 ]": 2.0}}) == Poly(
        1, 1, {(1,): 2.0}
    )


def test_jet_round_trip():
    jet = Jet(Poly(1, 1, {(1,): 1.0}), Cube((0.0,), 1.0))
    assert ser.jet_from_dict(ser.jet_to_dict(jet)) == jet


def test_sample_set_round_trip_scalar():
    sample = SampleSet(n=1, points=((0.0,), (1.0,)), values=(0.5, -2.0))
    mod = Modulus.power(1, 2)
    d = ser.sample_set_to_dict(sample, mod, k=0, m=2)
    back, mod2, k, m = ser.sample_set_from_dict(d)
    assert back == sample and mod2 == mod and (k, m) == (0, 2)


def test_sample_set_round_trip_jets():
    jets = (Poly(1, 0, {(0,): 1.0}), Poly(1, 0, {(0,): 2.0}))
    sample = SampleSet(n=1, points=((0.0,), (1.0,)), jets=jets)
    mod = Modulus.power(1, 1)
    d = ser.sample_set_to_dict(sample, mod, k=0, m=1)
    back, _, _, _ = ser.sample_set_from_dict(d)
    assert back == sample


def test_sample_set_rejects_mixed_scalar_and_jet_data():
    d = ser.sample_set_to_dict(
        SampleSet(n=1, points=((0.0,), (1.0,)), values=(0.5, -2.0)), Modulus.power(1, 1), 0, 1
    )
    d["points"][1] = {"x": [1.0], "jet": ser.poly_to_dict(Poly.zero(1, 0))}
    with pytest.raises(ValueError, match="mixing scalar and jet sample data"):
        ser.sample_set_from_dict(d)


def test_selection_instance_round_trip():
    spec = ConvexSetSpec(
        base=Poly.zero(1, 0),
        directions=(Poly(1, 0, {(0,): 1.0}),),
        inequalities=(((1.0,), 0.5), ((-1.0,), 0.0)),
    )
    inst = SelectionInstance(
        n=1, k=0, m=1, modulus=Modulus.power(1, 1),
        nodes=((spec, Cube((0.0,), 1.0)), (spec, Cube((1.0,), 2.0))),
    )
    back = ser.selection_instance_from_dict(ser.selection_instance_to_dict(inst))
    assert back == inst


def test_csv_projection():
    text = ser.write_csv(("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


def test_dumps_rejects_objects_outside_the_json_types():
    with pytest.raises(TypeError, match="cannot serialize Cube"):
        ser.dumps({"cube": Cube((0.0,), 1.0)})
