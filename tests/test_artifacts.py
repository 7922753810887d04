from gmr.artifacts import write_csv, write_json


def test_csv_bytes(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ["t", "value"], [(0.0, 0.1), (0.5, -2), (1.0, 1e-300)])
    assert path.read_bytes() == (
        b"t,value\r\n0,0.10000000000000001\r\n0.5,-2\r\n1,1e-300\r\n"
    )


def test_json_bytes(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": [0.1, 2], "a": {"z": True, "y": None}})
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "y": null,\n    "z": true\n  },\n'
        b'  "b": [\n    0.1,\n    2\n  ]\n}\n'
    )
