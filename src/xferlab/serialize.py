"""JSON descriptors for carriers, observables, measures, operators, filters.

Complex numbers are encoded as two-element [re, im] arrays; plain numbers are
accepted wherever a complex value is expected.  These loaders back the CLI
config format; ``jsonify`` turns results into JSON types for the reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .statespace import CircleSpace, FiniteSpace, Measure, Observable, Space
from .transferop import (
    CircleRuelleOperator,
    MatrixOperator,
    TransferOperator,
    invariant_measure,
    ruelle_from_endo,
    ruelle_from_filter,
)
from .wavelet import QMFFilter


def complex_from_json(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError("complex values are encoded as [re, im]")
        return complex(float(v[0]), float(v[1]))
    return complex(float(v))


def complex_to_json(c: complex):
    c = complex(c)
    if c.imag == 0:
        return c.real
    return [c.real, c.imag]


def space_from_json(d: Mapping[str, Any]) -> Space:
    kind = d["kind"]
    if kind == "finite":
        endo = d.get("endo")
        return FiniteSpace(tuple(d["states"]), tuple(endo) if endo is not None else None)
    if kind == "circle":
        return CircleSpace(degree=int(d.get("degree", 64)), grid=int(d.get("grid", 1024)))
    raise ValueError(f"unknown space kind {kind!r}")


def observable_from_json(space: Space, d: Mapping[str, Any]) -> Observable:
    if "values" in d:
        vals = [complex_from_json(v) for v in d["values"]]
        arr = np.asarray(vals)
        if np.all(arr.imag == 0):
            arr = arr.real
        return Observable.from_values(space, arr)
    if "fourier" in d:
        coeffs = {int(n): complex_from_json(c) for n, c in d["fourier"].items()}
        return Observable.from_fourier(space, coeffs)
    raise ValueError("an observable needs 'values' or 'fourier'")


def measure_from_json(space: Space, d: Mapping[str, Any], R: TransferOperator | None = None) -> Measure:
    kind = d["kind"]
    if kind == "weights":
        return Measure.from_weights(space, [float(w) for w in d["weights"]])
    if kind == "uniform":
        return Measure.uniform(space)
    if kind == "point":
        return Measure.point_mass(space, d["state"])
    if kind == "haar":
        return Measure.haar_measure(space)
    if kind == "stationary":
        if R is None:
            raise ValueError("a stationary measure needs an operator in scope")
        return invariant_measure(R)
    raise ValueError(f"unknown measure kind {kind!r}")


def operator_from_json(space: Space, d: Mapping[str, Any]) -> TransferOperator:
    kind = d["kind"]
    if kind == "matrix":
        return MatrixOperator(space, np.asarray(d["rows"], dtype=float))
    if kind == "endo":
        return ruelle_from_endo(space)
    if kind == "ruelle":
        if "m0" in d:
            m0 = {int(n): complex_from_json(c) for n, c in d["m0"].items()}
            return ruelle_from_filter(space, m0)
        weight = {int(n): complex_from_json(c) for n, c in d["weight"].items()}
        return CircleRuelleOperator(space, weight)
    raise ValueError(f"unknown operator kind {kind!r}")


def filter_from_json(d: Mapping[str, Any]) -> QMFFilter:
    coeffs = [complex_from_json(c) for c in d["coeffs"]]
    return QMFFilter.make(
        coeffs,
        offset=int(d.get("offset", 0)),
        require_normalization=bool(d.get("require_normalization", True)),
    )


def angle_from_json(v) -> Fraction:
    """Exact angle mod 1 from an integer, an integral float, or a "p/q" string (``CircleSpace.point``)."""
    return CircleSpace.point(v)


def jsonify(obj):
    """Recursively convert numpy scalars/arrays and complexes to JSON types."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return complex_to_json(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj
