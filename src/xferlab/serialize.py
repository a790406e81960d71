"""JSON descriptors for carriers, observables, measures, operators, filters.

Every config field is read once, where it is used, by ``field`` (or, for an
object with integer keys, by ``int_keyed``).  A field that is missing, of
the wrong JSON type or out of range raises ``ValueError`` naming it; nothing
is coerced.  Complex numbers are encoded as two-element [re, im] arrays;
plain numbers are accepted wherever a complex value is expected.  These
loaders back the CLI config format; ``jsonify`` turns results into JSON
types for the reports.
"""

from __future__ import annotations

import json
import math
import re
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

REQUIRED = object()
_NUMBER = (int, float)
_KINDS = {int: "an integer", float: "a number", complex: "a number or an [re, im] pair of numbers",
          bool: "true or false", str: "a string", list: "an array", dict: "an object"}
_INT_KEY = re.compile(r"-?[0-9]+")


def field(d, key: str, kind: type, default=REQUIRED, minimum=None, dims: int = 0, at: str = ""):
    """``d[key]`` read strictly as ``kind``; ``at`` names the section ``d`` ("" for the config itself).

    ``d`` must be a JSON object.  An absent key gives ``default``, and is an
    error without one; a present key, even ``null``, is read.  With ``dims``
    the field is an array nested that deep whose leaves are read as ``kind``.
    """
    if type(d) is not dict:
        raise ValueError(f"{at or 'the config'} must be an object, not {d!r:.40}")
    name = f"{at}.{key}" if at else key
    if key not in d:
        if default is REQUIRED:
            raise ValueError(f"{name} is required")
        return default
    return value(d[key], kind, name, minimum, dims)


def value(v, kind: type, name: str, minimum=None, dims: int = 0):
    """One JSON value read strictly as ``kind``; ``name`` names it in the error.

    ``int`` takes an integer or an integral float and returns an int (JSON
    Schema's rule); ``float`` takes an int or a float and returns it as given;
    ``complex`` also takes an [re, im] pair of those and returns a complex.
    None of them takes a boolean or a string.  ``bool``, ``str``, ``list`` and
    ``dict`` are checked by type; ``object`` takes any value.  ``minimum``
    bounds a number from below.
    """
    if dims:
        if type(v) is not list:
            raise ValueError(f"{name} must be an array, not {v!r:.40}")
        return [value(x, kind, f"{name}[{i}]", minimum, dims - 1) for i, x in enumerate(v)]
    if kind is complex and type(v) is list and len(v) == 2 and type(v[0]) in _NUMBER and type(v[1]) in _NUMBER:
        return complex(v[0], v[1])
    if kind is int and type(v) is float and v.is_integer():
        v = int(v)
    if not (kind is object or type(v) is kind or kind in (float, complex) and type(v) in _NUMBER):
        raise ValueError(f"{name} must be {_KINDS[kind]}, not {v!r:.40}")
    if minimum is not None and v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, not {v!r}")
    return complex(v) if kind is complex else v


def int_keyed(d, key: str, kind: type, at: str = "") -> dict:
    """``d[key]``, an object whose keys are decimal integers, with its values read as ``kind``."""
    m = field(d, key, dict, at=at)
    name = f"{at}.{key}" if at else key
    out = {}
    for k, v in m.items():
        if not _INT_KEY.fullmatch(k):
            raise ValueError(f"{name} keys must be decimal integers, not {k!r}")
        n = int(k)
        if n in out:
            raise ValueError(f"{name} gives index {n} twice")
        out[n] = value(v, kind, f"{name}.{k}")
    return out


def point_from_json(space: Space, v, name: str):
    """``space.point(v)``, refused with a ValueError that begins with the field ``name``."""
    try:
        return space.point(v)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def space_from_json(d: Mapping[str, Any], at: str = "space") -> Space:
    kind = field(d, "kind", str, at=at)
    if kind == "finite":
        endo = field(d, "endo", int, None, dims=1, at=at)
        return FiniteSpace(tuple(field(d, "states", list, at=at)), None if endo is None else tuple(endo))
    if kind == "circle":
        return CircleSpace(degree=field(d, "degree", int, 64, minimum=1, at=at))
    raise ValueError(f"unknown space kind {kind!r}")


def observable_from_json(space: Space, d: Mapping[str, Any], at: str = "observable") -> Observable:
    values = field(d, "values", complex, None, dims=1, at=at)
    if values is not None:
        arr = np.asarray(values)
        if np.all(arr.imag == 0):
            arr = arr.real
        return Observable.from_values(space, arr)
    if "fourier" in d:
        return Observable.from_fourier(space, int_keyed(d, "fourier", complex, at))
    raise ValueError(f"{at} needs 'values' or 'fourier'")


def measure_from_json(space: Space, d: Mapping[str, Any], R: TransferOperator, at: str = "measure") -> Measure:
    kind = field(d, "kind", str, at=at)
    if kind == "weights":
        return Measure.from_weights(space, field(d, "weights", float, dims=1, at=at))
    if kind == "uniform":
        return Measure.uniform(space)
    if kind == "point":
        state = point_from_json(space, field(d, "state", object, at=at), f"{at}.state")
        return Measure.point_mass(space, state)
    if kind == "haar":
        return Measure.haar_measure(space)
    if kind == "stationary":
        return invariant_measure(R)
    raise ValueError(f"unknown measure kind {kind!r}")


def operator_from_json(space: Space, d: Mapping[str, Any], at: str = "operator") -> TransferOperator:
    kind = field(d, "kind", str, at=at)
    if kind == "matrix":
        return MatrixOperator(space, np.asarray(field(d, "rows", float, dims=2, at=at), dtype=float))
    if kind == "endo":
        return ruelle_from_endo(space)
    if kind == "ruelle":
        if "m0" in d:
            return ruelle_from_filter(space, int_keyed(d, "m0", complex, at))
        return CircleRuelleOperator(space, int_keyed(d, "weight", complex, at))
    raise ValueError(f"unknown operator kind {kind!r}")


def filter_from_json(d: Mapping[str, Any], at: str = "filter") -> QMFFilter:
    return QMFFilter.make(
        field(d, "coeffs", complex, dims=1, at=at),
        offset=field(d, "offset", int, 0, at=at),
        require_normalization=field(d, "require_normalization", bool, True, at=at),
    )


def angle_from_json(v) -> Fraction:
    """Exact angle mod 1 from an integer, an integral float, or a "p/q" string (``CircleSpace.point``)."""
    return CircleSpace.point(v)


def jsonify(obj):
    """Recursively convert floats (numpy's float64 too) and complexes ([re, im], or re when real) to JSON types.

    A non-finite float becomes the string "NaN", "Infinity" or "-Infinity", so the report stays valid JSON.
    """
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, float):
        x = float(obj)
        return x if math.isfinite(x) else json.dumps(x)
    if isinstance(obj, complex):  # numpy's complex128 too
        c = complex(obj)
        return jsonify(c.real) if c.imag == 0 else [jsonify(c.real), jsonify(c.imag)]
    return obj
