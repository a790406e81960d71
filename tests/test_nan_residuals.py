"""A NaN in the input of a residual check never reads as a pass.

Each exported check (a name ending in ``_residual``, ``_check``, ``_defect`` or
``_invariance``) gets one input holding a single NaN.  The check must either
return NaN, in every float it reports, or refuse the input.  Python's
``max(0.0, nan)`` is 0.0, so a battery folded with it would read 0.0 here and
pass any tolerance; the batteries fold through ``statespace.worst`` instead.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

import xferlab as X
from xferlab import transferop

NAN = float("nan")
HAAR = [2**-0.5, 2**-0.5]


def _cycle():
    """The 3-cycle r(x) = x + 1 with its Ruelle operator, uniform mu, and two words holding phi = (NaN, 1, 2)."""
    sp = X.FiniteSpace(("a", "b", "c"), endo=(1, 2, 0))
    phi = X.Observable.from_values(sp, [NAN, 1, 2])
    one = X.Observable.constant(sp, 1.0)
    words = [X.CylinderFunctional((phi,)), X.CylinderFunctional((one, phi))]
    return sp, X.ruelle_from_endo(sp), X.Measure.uniform(sp), phi, words


def characterization():
    sp, R, mu, phi, words = _cycle()
    return X.characterization_check(mu, R, words)


def consistency():
    sp, R, mu, phi, words = _cycle()
    return X.consistency_residual(R, 0, words[1])


def multiplier():
    sp, R, mu, phi, words = _cycle()
    return X.multiplier_identity_residual(R, mu, words)


def covariance():
    sp, R, mu, phi, words = _cycle()
    return X.covariance_check(R, mu, [phi], words)


def lift():
    sp, R, mu, phi, words = _cycle()
    return X.lift_conditional_residual(R, words, [0, 1, 2])


def shift_invariance():
    sp, R, mu, phi, words = _cycle()
    return X.shift_invariance_residual(mu, R, words)


def group_translation():
    space = X.CircleSpace(degree=16)
    f = X.CylinderFunctional((X.Observable.from_fourier(space, {0: 1.0, 1: NAN}),))
    translate = X.SolenoidWord(space, (Fraction(1, 3), Fraction(2, 3)))
    return X.group_translation_invariance(X.uniform_circle_operator(space), X.Measure.haar_measure(space), f, translate)


def intertwining():
    h = X.haar_filter()
    return X.intertwining_check(h, [{0: 1.0}, {0: NAN}], X.cascade(h, iterations=4, resolution=4))


def orthogonality():
    return X.orthogonality_defect({0: 1.0, 1: NAN})


def qmf():
    return X.qmf_check(X.QMFFilter.make([NAN, HAAR[1]], require_normalization=False), grid=16)


def representation():
    h = X.QMFFilter.make([NAN, HAAR[1]], require_normalization=False)
    return X.representation_check(h, depth=2, levels=2, max_char=1, space=X.CircleSpace(degree=32))


def harmonicity():
    net = X.path_network([1.0, 1.0])
    return X.harmonicity_residual(net, X.Observable.from_values(net.space, [0.0, NAN, 1.0]))


def detailed_balance():
    return X.detailed_balance_residual(X.path_network([NAN, 1.0]))


def composition_isometry():
    return transferop.composition_isometry_residual({0: NAN, 1: HAAR[1]}, X.CircleSpace(degree=32))


def pullout():
    return X.pullout_check(X.MatrixOperator(X.FiniteSpace(("a", "b")), [[NAN, 1.0], [0.5, 0.5]]))


def stationarity():
    sp, R, mu, phi, words = _cycle()
    return X.stationarity_residual(R, X.Measure.from_weights(sp, [NAN, 0.5, 0.5]))


def strong_invariance():
    sp, R, mu, phi, words = _cycle()
    return X.strong_invariance_check(X.Measure.from_weights(sp, [NAN, 0.5, 0.5]))


# check -> (the call on a NaN input, the error that refuses it, or None when the check must return NaN)
ROWS = {
    "characterization_check": (characterization, None),
    "consistency_residual": (consistency, None),
    "multiplier_identity_residual": (multiplier, None),
    "covariance_check": (covariance, None),
    "lift_conditional_residual": (lift, None),
    "shift_invariance_residual": (shift_invariance, None),
    "group_translation_invariance": (group_translation, None),
    "intertwining_check": (intertwining, None),
    "orthogonality_defect": (orthogonality, None),
    "qmf_check": (qmf, None),
    "representation_check": (representation, X.NormalizationError),
    "harmonicity_residual": (harmonicity, None),
    "detailed_balance_residual": (detailed_balance, X.NormalizationError),
    "composition_isometry_residual": (composition_isometry, None),
    "pullout_check": (pullout, X.NormalizationError),
    "stationarity_residual": (stationarity, X.NormalizationError),
    "strong_invariance_check": (strong_invariance, X.NormalizationError),
}


def _floats(out):
    """Every float a check reports: the value itself, each value of a dict, or each float field of a report."""
    if isinstance(out, dict):
        return list(out.values())
    if dataclasses.is_dataclass(out):
        return [v for v in vars(out).values() if isinstance(v, float)]
    return [out]


@pytest.mark.parametrize("name", ROWS)
def test_a_nan_input_reads_nan_or_is_refused(name):
    call, refusal = ROWS[name]
    if refusal is not None:
        with pytest.raises(refusal):
            call()
        return
    values = _floats(call())
    assert values and all(isinstance(v, float) and math.isnan(v) for v in values), values


def test_every_exported_check_has_a_row():
    exported = {n for n in dir(X) if n.endswith(("_residual", "_check", "_defect", "_invariance"))}
    assert exported | {"composition_isometry_residual"} == set(ROWS)
