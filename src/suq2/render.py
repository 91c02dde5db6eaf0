"""Canonical text rendering of elements.

The ASCII form round-trips through the expression parser; a Unicode form
with the conventional generator glyphs is available for human eyes.
"""

import itertools

_UNICODE_NAMES = {
    "g": "γ",
    "g'": "γ*",
    "a": "α",
    "a'": "α*",
    "z'": "z*",
    "U'": "U*",
    "V'": "V*",
}


def _letter_name(pres, idx, unicode_names):
    name = pres.generators[idx].name
    if unicode_names:
        return _UNICODE_NAMES.get(name, name)
    return name


def _render_letters(pres, letters, unicode_names):
    parts = []
    for idx, run in itertools.groupby(letters):
        count = len(list(run))
        name = _letter_name(pres, idx, unicode_names)
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
    pieces = []
    for word, coeff in el.terms():
        cs = coeff.render_unicode() if unicode_names else coeff.render()
        if not word:
            text = f"({cs})" if " " in cs else cs
        else:
            ws = render_word(el.pres, word, unicode_names)
            if cs == "1":
                text = ws
            elif cs == "-1":
                text = f"-{ws}"
            else:
                if " " in cs:
                    cs = f"({cs})"
                text = f"{cs}*{ws}"
        pieces.append(text)
    out = pieces[0]
    for text in pieces[1:]:
        if text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out
