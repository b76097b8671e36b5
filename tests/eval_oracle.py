"""Exact evaluation of a packed ``PolyElem``: the brute-force oracle of the
image spans that ``relcalc._image_rows`` reads off coefficients, and of the
packed ring against ``ring_oracle``."""

from relroots.polyring import _SLOT_MAX, _decode
from relroots.rootcore import require


def evaluate(p, values):
    """The exact value of ``p`` at variable i = ``values.get(i, 0)``.

    A term with a zero-valued variable is skipped by one mask test on its
    key; a term carrying w never is, and a polynomial with any such term
    (an eps denominator) cannot be evaluated."""
    n = len(p.registry.names)
    zero = 0
    for i, unit in enumerate(p.registry.units):
        if not values.get(i, 0):
            zero |= _SLOT_MAX * unit
    w1 = p.registry.w_unit
    total = 0  # exact: ints stay ints, a Fraction stays a Fraction
    for key, coeff in p.terms.items():
        if key & zero and key < w1:
            continue
        exp, w = _decode(key, n)
        require(not w, "cannot evaluate a polynomial with an eps denominator")
        for k, e in enumerate(exp):
            if e:
                coeff *= values[k] ** e
        total += coeff
    return total
