"""Field (de)serialization dispatch.

Field descriptions are plain JSON objects; the key set identifies the
kind: {"generators": [...]} is a multiquadratic tower, and Q, the tower
of height 0, writes {"generators": []} and also reads {"rationals": true};
{"p": ...} alone is GF(p), with "nonresidue" it is GF(p^2) and with
"m"/"modulus" it is GF(p^m).
"""

from __future__ import annotations

from .exactfield import QQ, MultiquadraticField
from .gf import ExtField, PrimeField, QuadExtField


def field_from_json(data):
    if "generators" in data:
        return MultiquadraticField.from_json(data)
    if "rationals" in data:
        return QQ
    if "nonresidue" in data:
        return QuadExtField(int(data["p"]), int(data["nonresidue"]))
    if "m" in data:
        return ExtField(int(data["p"]), int(data["m"]), data.get("modulus"))
    if "p" in data:
        return PrimeField(int(data["p"]))
    raise ValueError(f"unrecognized field description: {data!r}")
