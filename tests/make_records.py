"""Write tests/data/records.json: the MetricsRecord of each point of a fixed
218-point set, every float field as its repr and failed_inputs as a list,
which tests/test_records.py recomputes.

The set: both protocols; alpha 0, 0.6 and 1; gamma 0, 0.03 and 0.5 at
dt = 0.25; both rate conventions and log bases; all three measurement
pairs; plus alpha 0.73 and gamma 0.041 at dt = 0.01 for each protocol.

    PYTHONPATH=src python tests/make_records.py

A change meant to move records reruns this and reports the largest
deviation; a refactor leaves the file as it is.
"""

import dataclasses
import itertools
import json
import math
from pathlib import Path

from teleportsim.evolution import EvolutionConfig
from teleportsim.metrics import MetricsRecord, average_over_inputs
from teleportsim.protocol import MEASUREMENT_PAIRS, EncodingKind

PATH = Path(__file__).parent / "data" / "records.json"
FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsRecord)
                     if f.name not in ("kind", "failed_inputs"))
_LOG_BASES = {"2": 2.0, "e": math.e}


def points() -> list[dict]:
    """The set, each point as average_over_inputs' arguments."""
    kinds = [kind.value for kind in EncodingKind]
    coarse = [dict(kind=kind, alpha=alpha, gamma=gamma, dt=0.25,
                   rate_convention=rate, log_base=base, measurement_pair=list(pair))
              for kind, alpha, gamma, rate, base, pair in itertools.product(
                  kinds, (0.0, 0.6, 1.0), (0.0, 0.03, 0.5), ("kraus", "lindblad"),
                  tuple(_LOG_BASES), MEASUREMENT_PAIRS)]
    fine = [dict(kind=kind, alpha=0.73, gamma=0.041, dt=0.01, rate_convention="kraus",
                 log_base="2", measurement_pair=[3, 4]) for kind in kinds]
    return coarse + fine


def compute(point: dict) -> dict:
    """The point's record: each float field's repr, and failed_inputs."""
    rec = average_over_inputs(
        EncodingKind(point["kind"]), point["alpha"], point["gamma"],
        EvolutionConfig(point["dt"]), rate_convention=point["rate_convention"],
        log_base=_LOG_BASES[point["log_base"]],
        measurement_pair=tuple(point["measurement_pair"]))
    return {**{name: repr(getattr(rec, name)) for name in FLOAT_FIELDS},
            "failed_inputs": rec.failed_inputs}


def main() -> None:
    entries = [{"point": p, "record": compute(p)} for p in points()]
    PATH.parent.mkdir(exist_ok=True)
    # one point per line
    PATH.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} records to {PATH}")


if __name__ == "__main__":
    main()
