"""Library refusals that no other test reaches: one row each, (call, exception type, message fragment)."""

import re

import numpy as np
import pytest

import xferlab as X
from xferlab.solenoid import translate_word

TWO = X.FiniteSpace(("a", "b"))
SWAP = X.FiniteSpace(("a", "b"), endo=(1, 0))
EDGE = [[0.0, 1.0], [1.0, 0.0]]


def _one(space):
    return X.Observable.constant(space, 1.0)


REFUSALS = {
    "network-not-square": (lambda: X.Network(TWO, np.zeros((3, 3)), (0,)), ValueError, "square over the vertex set"),
    "network-self-loop": (lambda: X.Network(TWO, [[1.0, 1.0], [1.0, 0.0]], (0,)), ValueError, "self-loops"),
    "network-boundary-past-the-end": (lambda: X.Network(TWO, EDGE, (5,)), ValueError, "boundary vertex out of range"),
    "path-without-edges": (lambda: X.path_network([]), ValueError, "at least one edge"),
    "path-zero-conductance": (lambda: X.path_network([1.0, 0.0]), ValueError, "must be positive"),
    "random-network-all-boundary": (lambda: X.random_network(3, 3, 0), ValueError, "one interior vertex"),
    "pad-to-a-shorter-depth": (lambda: X.CylinderFunctional((_one(TWO), _one(TWO))).padded_to(1), ValueError,
                               "shorter depth"),
    "solenoid-word-empty": (lambda: X.SolenoidWord(SWAP, ()), ValueError, "at least one entry"),
    "shift-of-one-entry": (lambda: X.shift(X.SolenoidWord(SWAP, (0,))), ValueError, "length >= 2"),
    "translate-word-too-short": (lambda: translate_word(X.CylinderFunctional((_one(SWAP), _one(SWAP))),
                                                        X.SolenoidWord(SWAP, (0,))), ValueError, "at least as deep"),
    "endo-too-short": (lambda: X.FiniteSpace(("a", "b"), endo=(0,)), ValueError, "image to every state"),
    "circle-degree-zero": (lambda: X.CircleSpace(degree=0), ValueError, "degree must be >= 1"),
    "values-too-long": (lambda: X.Observable.from_values(TWO, [1.0, 2.0, 3.0]), ValueError, "match the state count"),
    "degree-on-finite": (lambda: _one(TWO).degree, TypeError, "only defined on the circle"),
    "add-a-number": (lambda: _one(TWO) + 1.0, TypeError, "expected an Observable"),
    "kernel-not-square": (lambda: X.MatrixOperator(TWO, [[1.0]]), ValueError, "must be square"),
    "filter-empty": (lambda: X.QMFFilter([]), ValueError, "nonempty 1-d"),
    "filter-two-dimensional": (lambda: X.QMFFilter(np.eye(2)), ValueError, "nonempty 1-d"),
    "cascade-negative-iterations": (lambda: X.cascade(X.haar_filter(), -1), ValueError, "iterations must be >= 0"),
    "cascade-one-tap": (lambda: X.cascade(X.QMFFilter.make([1.0], require_normalization=False), 1), ValueError,
                        "length >= 2"),
    "cascade-resolution-zero": (lambda: X.cascade(X.haar_filter(), 1, resolution=0), ValueError,
                                "resolution must be >= 1"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
