"""Every MetricsRecord field of a fixed 218-point set against the values
tests/make_records.py wrote to tests/data/records.json, so a refactor that
moves a record is caught: each float field to 1e-12, failed_inputs exactly.
A change meant to move records regenerates the file with that script."""

import json
import math

from make_records import FLOAT_FIELDS, PATH, compute, points

TOLERANCE = 1e-12


def _deviation(got: str, want: str) -> float:
    dev = abs(float(got) - float(want))
    # a nan on either side counts as the largest deviation
    return math.inf if math.isnan(dev) else dev


def test_records_match_the_committed_set():
    entries = json.loads(PATH.read_text())
    assert [e["point"] for e in entries] == points()
    worst, where, failed = 0.0, None, []
    for entry in entries:
        got = compute(entry["point"])
        for name in FLOAT_FIELDS:
            dev = _deviation(got[name], entry["record"][name])
            if dev > worst:
                worst, where = dev, (entry["point"], name)
        if got["failed_inputs"] != entry["record"]["failed_inputs"]:
            failed.append((entry["point"], got["failed_inputs"]))
    assert worst <= TOLERANCE, f"largest deviation {worst:.3e} at {where}"
    assert not failed, f"failed_inputs differ at {failed}"
