"""Canonical text rendering of elements.

The ASCII form round-trips through the expression parser; a Unicode form
with the conventional generator glyphs, and q̄ for ``qb``, is available for
human eyes.  An element prints as a sum of coefficient and word terms
through :func:`scalars.join_terms`, the same joiner that prints the
polynomials inside a coefficient.
"""

import itertools

from .scalars import join_terms

_UNICODE_NAMES = {
    "g": "γ",
    "g'": "γ*",
    "a": "α",
    "a'": "α*",
    "z'": "z*",
    "U'": "U*",
    "V'": "V*",
}
_UNICODE_QBAR = "q̄"


def _render_letters(pres, letters, unicode_names):
    parts = []
    for idx, run in itertools.groupby(letters):
        count = len(list(run))
        name = pres.generators[idx].name
        if unicode_names:
            name = _UNICODE_NAMES.get(name, name)
        parts.append(name if count == 1 else f"{name}^{count}")
    return "*".join(parts)


def render_word(pres, word, unicode_names=False):
    if not word:
        return "1"
    if pres.factors is None:
        return _render_letters(pres, word, unicode_names)
    # a normal word is sorted by leg: one j<leg>(...) per nonempty leg
    legs = zip(pres.factors, pres.split_legs(word))
    return "*".join(
        f"j{leg}({_render_letters(factor, local, unicode_names)})"
        for leg, (factor, local) in enumerate(legs, start=1)
        if local
    )


def render_element(el, unicode_names=False):
    if el.is_zero():
        return "0"
    terms = []
    for word, coeff in el.terms():
        cs = coeff.render()
        if unicode_names:
            cs = cs.replace("qb", _UNICODE_QBAR)
        # a coefficient that is a sum or a fraction of sums prints in parentheses
        if " " in cs:
            cs = f"({cs})"
        terms.append((cs, render_word(el.pres, word, unicode_names) if word else ""))
    return join_terms(terms)
