"""Homomorphisms defined on generators.

A :class:`GenMorphism` stores images for the unstarred generators only; the
starred images are forced by ``x' -> image(x).adjoint()``, so every morphism
is a *-homomorphism by construction.  Whether it is an algebra homomorphism
at all is exactly the question whether the images satisfy the source's
rewrite rules in the target -- ``check()`` computes those residuals, and
``apply()`` refuses to run before the verdict is in.

``catalog(q)`` builds the named maps used by the verification suite:
the comultiplications of the braided and ordinary algebras, the two
embeddings into the tensor square of the circle-extended algebra, the
parameter-inversion isomorphism, the grading-reversing symmetry, and the
degree-scaling automorphisms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import suq2_presentation, uq2_presentation
from .braided import embed, grading_flip, twisted_tensor
from .errors import PresentationMismatchError, UnverifiedMorphismError
from .scalars import Scalar


class GenMorphism:
    """A map defined by generator images, extended multiplicatively."""

    def __init__(self, source, target, images, name="morphism"):
        self.source = source
        self.target = target
        self.name = name
        self.images = {}
        for i, el in images.items():
            g = source.generators[i]
            if i > g.adjoint:
                raise ValueError("give images for unstarred generators only")
            if el.pres is not target:
                raise PresentationMismatchError()
            self.images[i] = el
        for i, g in enumerate(source.generators):
            if min(i, g.adjoint) not in self.images:
                raise ValueError(f"missing image for generator {g.name}")
        self._letter = {}
        self._verdict = None
        self._residuals = None
        self._equivariant = None

    # -- structure ---------------------------------------------------------------

    def letter_image(self, i):
        el = self._letter.get(i)
        if el is None:
            j = self.source.adjoint_index(i)
            el = self.images[i] if i <= j else self.images[j].adjoint()
            self._letter[i] = el
        return el

    def _image_of_word(self, word):
        out = self.target.unit()
        for i in word:
            out = out * self.letter_image(i)
        return out

    # -- well-definedness -----------------------------------------------------------

    def check(self):
        """Residual image(lhs) - image(rhs) for every source rule; pass iff all zero."""
        if self._verdict is None:
            residuals = []
            for rule in self.source.rules.values():
                img = self._image_of_word(rule.lhs)
                for coeff, w in rule.rhs:
                    img = img - self._image_of_word(w).scale(coeff)
                if not img.is_zero():
                    residuals.append((rule, img))
            self._residuals = residuals
            self._verdict = not residuals
        return self._verdict

    @property
    def residuals(self):
        self.check()
        return self._residuals

    # -- application ------------------------------------------------------------------

    def apply(self, x):
        if x.pres is not self.source:
            raise PresentationMismatchError()
        if not self.check():
            raise UnverifiedMorphismError(
                f"unverified-morphism: '{self.name}' does not respect the relations"
            )
        out = self.target.zero()
        for word, coeff in x.terms():
            out = out + self._image_of_word(word).scale(coeff)
        return out

    def __call__(self, x):
        return self.apply(x)

    # -- properties -----------------------------------------------------------------

    def is_equivariant(self):
        """Every generator image homogeneous of the source generator's degree."""
        if self._equivariant is None:
            ok = True
            for i in range(self.source.n_gens):
                d = self.letter_image(i).degree()
                if d == "zero":
                    continue
                if d != self.source.generators[i].degree:
                    ok = False
                    break
            self._equivariant = ok
        return self._equivariant

    def __repr__(self):
        return f"<GenMorphism {self.name}: {self.source.label} -> {self.target.label}>"


def identity_morphism(pres):
    images = {
        i: pres.gen(i)
        for i, g in enumerate(pres.generators)
        if i <= g.adjoint
    }
    return GenMorphism(pres, pres, images, name="id")


def compose(outer, inner):
    """The composite outer o inner (apply ``inner`` first)."""
    if inner.target is not outer.source:
        raise PresentationMismatchError()
    if not (inner.check() and outer.check()):
        raise UnverifiedMorphismError()
    images = {
        i: outer.apply(inner.letter_image(i))
        for i, g in enumerate(inner.source.generators)
        if i <= g.adjoint
    }
    return GenMorphism(
        inner.source, outer.target, images, name=f"{outer.name} o {inner.name}"
    )


def equal_on_generators(f, g):
    """Morphism equality, decided on generators (they generate the source)."""
    if f.source is not g.source or f.target is not g.target:
        raise PresentationMismatchError()
    return all(
        f.letter_image(i) == g.letter_image(i) for i in range(f.source.n_gens)
    )


# ---------------------------------------------------------------------------
# Named morphisms
# ---------------------------------------------------------------------------


def delta_su(qparam=None, source=None):
    """The comultiplication of the braided algebra into its twisted square.

    a |-> j1(a) j2(a) - q j1(g') j2(g),  g |-> j1(g) j2(a) + j1(a') j2(g).
    Passing a grading-flipped source builds the same formulas over the
    flipped presentation (used by the symmetry check).
    """
    A = source if source is not None else suq2_presentation(qparam)
    q = A.params["q"]
    AA = twisted_tensor([A, A], A.params["zeta"])
    j1 = lambda x: embed(AA, 1, x)
    j2 = lambda x: embed(AA, 2, x)
    a, g, gs, as_ = A.gen("a"), A.gen("g"), A.gen("g'"), A.gen("a'")
    images = {
        A.gen_index("a"): j1(a) * j2(a) - (j1(gs) * j2(g)).scale(q),
        A.gen_index("g"): j1(g) * j2(a) + j1(as_) * j2(g),
    }
    return GenMorphism(A, AA, images, name="delta")


def delta_uq2(qparam=None):
    """The comultiplication of the circle-extended algebra into its square.

    z |-> z (x) z,  a |-> a (x) a - q g'z (x) g,  g |-> g (x) a + a'z (x) g.
    The tensor square is the ordinary one (twist 1): all degrees vanish.
    """
    B = uq2_presentation(qparam)
    q = B.params["q"]
    BB = twisted_tensor([B, B], Scalar.one())
    j1 = lambda x: embed(BB, 1, x)
    j2 = lambda x: embed(BB, 2, x)
    a, g, gs, as_, z = B.gen("a"), B.gen("g"), B.gen("g'"), B.gen("a'"), B.gen("z")
    images = {
        B.gen_index("a"): j1(a) * j2(a) - (j1(gs * z) * j2(g)).scale(q),
        B.gen_index("g"): j1(g) * j2(a) + j1(as_ * z) * j2(g),
        B.gen_index("z"): j1(z) * j2(z),
    }
    return GenMorphism(B, BB, images, name="delta_B")


def iota1(qparam=None):
    """First embedding of the braided algebra into the extended tensor square."""
    A = suq2_presentation(qparam)
    B = uq2_presentation(qparam)
    BB = twisted_tensor([B, B], Scalar.one())
    images = {
        A.gen_index("a"): embed(BB, 1, B.gen("a")),
        A.gen_index("g"): embed(BB, 1, B.gen("g")),
    }
    return GenMorphism(A, BB, images, name="iota1")


def iota2(qparam=None):
    """Second embedding: a |-> 1 (x) a,  g |-> z (x) g."""
    A = suq2_presentation(qparam)
    B = uq2_presentation(qparam)
    BB = twisted_tensor([B, B], Scalar.one())
    images = {
        A.gen_index("a"): embed(BB, 2, B.gen("a")),
        A.gen_index("g"): embed(BB, 1, B.gen("z")) * embed(BB, 2, B.gen("g")),
    }
    return GenMorphism(A, BB, images, name="iota2")


def su_to_uq2(qparam=None):
    """The inclusion of the braided algebra into the circle-extended one."""
    A = suq2_presentation(qparam)
    B = uq2_presentation(qparam)
    images = {
        A.gen_index("a"): B.gen("a"),
        A.gen_index("g"): B.gen("g"),
    }
    return GenMorphism(A, B, images, name="inclusion")


def q_inverse_iso(qparam=None):
    """The isomorphism onto the algebra at inverse parameter: a |-> a', g |-> q^-1 g."""
    A = suq2_presentation(qparam)
    q = A.params["q"]
    A_inv = suq2_presentation(q.inverse())
    images = {
        A.gen_index("a"): A_inv.gen("a'"),
        A.gen_index("g"): A_inv.gen("g").scale(q.inverse()),
    }
    return GenMorphism(A, A_inv, images, name="q_inverse_iso")


def phi_symmetry(qparam=None):
    """Grading-reversing isomorphism onto the algebra at parameter 1/conj(q).

    Defined on the grading flip of the source so that it is degree-preserving:
    a |-> a'~,  g |-> q~ g'~  with q~ = 1/conj(q).
    """
    A = suq2_presentation(qparam)
    S = grading_flip(A)
    qt = A.params["q"].conjugate().inverse()
    At = suq2_presentation(qt)
    images = {
        S.gen_index("a"): At.gen("a'"),
        S.gen_index("g"): At.gen("g'").scale(qt),
    }
    return GenMorphism(S, At, images, name="phi")


def rho_scale(pres, m):
    """The degree automorphism x |-> zeta^(m deg x) x."""
    zeta = pres.params["zeta"]
    images = {}
    for i, g in enumerate(pres.generators):
        if i <= g.adjoint:
            images[i] = pres.gen(i).scale(zeta ** (m * g.degree))
    return GenMorphism(pres, pres, images, name=f"rho_scale({m})")


def catalog(qparam=None):
    """All named morphisms, constructed and verified."""
    entries = {
        "delta_su": delta_su(qparam),
        "delta_uq2": delta_uq2(qparam),
        "iota1": iota1(qparam),
        "iota2": iota2(qparam),
        "su_to_uq2": su_to_uq2(qparam),
        "q_inverse_iso": q_inverse_iso(qparam),
        "phi_symmetry": phi_symmetry(qparam),
        "rho_scale(1)": rho_scale(suq2_presentation(qparam), 1),
    }
    for name, mor in entries.items():
        if not mor.check():
            raise UnverifiedMorphismError(
                f"unverified-morphism: catalog entry {name} failed its relation check"
            )
    return entries


# ---------------------------------------------------------------------------
# Cancellation witness
# ---------------------------------------------------------------------------


@dataclass
class CancellationReport:
    matrix_one_residuals: list = field(default_factory=list)
    matrix_two_residuals: list = field(default_factory=list)
    closure_failures: list = field(default_factory=list)
    words_checked: int = 0

    @property
    def ok(self):
        return not (
            self.matrix_one_residuals
            or self.matrix_two_residuals
            or self.closure_failures
        )


def cancellation_witness(qparam=None, max_len=3):
    """Finite-level witnesses for the cancellation law of the comultiplication.

    Checks the two 2x2 matrix identities

        j1(u) = delta(u) * j2(u)^*      and      j2(u) = j1(u)^* * delta(u)

    entrywise, then exhibits, for every word w of length <= max_len in the
    generators, an explicit finite sum  j1(w) = sum c_i delta(a_i) j2(b_i)
    built by the inductive commutation argument, and verifies it by rewriting.
    """
    from .repcalc import fundamental_matrix

    delta = delta_su(qparam)
    A, AA = delta.source, delta.target
    delta.check()
    u = fundamental_matrix(A).entries
    j1 = lambda x: embed(AA, 1, x)
    j2 = lambda x: embed(AA, 2, x)

    report = CancellationReport()

    # matrix identity one: j1(u) = delta(u) j2(u)*
    for r in range(2):
        for c in range(2):
            acc = AA.zero()
            for k in range(2):
                acc = acc + delta.apply(u[r][k]) * j2(u[c][k].adjoint())
            res = acc - j1(u[r][c])
            if not res.is_zero():
                report.matrix_one_residuals.append(((r, c), res))
    # matrix identity two: j2(u) = j1(u)* delta(u)
    for r in range(2):
        for c in range(2):
            acc = AA.zero()
            for k in range(2):
                acc = acc + j1(u[k][r].adjoint()) * delta.apply(u[k][c])
            res = acc - j2(u[r][c])
            if not res.is_zero():
                report.matrix_two_residuals.append(((r, c), res))

    # per-letter expansions j1(x) = sum c delta(a) j2(b), read off matrix one
    q = A.params["q"]
    one = Scalar.one()
    letter_rep = {}
    for (r, c), coeff, idx in [
        ((0, 0), one, A.gen_index("a")),
        ((1, 0), one, A.gen_index("g")),
        ((1, 1), one, A.gen_index("a'")),
        ((0, 1), -q.inverse(), A.gen_index("g'")),
    ]:
        letter_rep[idx] = [
            (coeff, u[r][k], u[c][k].adjoint()) for k in range(2)
        ]

    def scale_by_degree(x, m):
        """zeta^(m deg) on each homogeneous component of x."""
        zeta = A.params["zeta"]
        out = A.zero()
        for d, comp in x.homogeneous_components().items():
            out = out + comp.scale(zeta ** (m * d))
        return out

    def representation(word):
        rep = [(one, A.unit(), A.unit())]
        for letter in word:
            k = A.generators[letter].degree
            new = []
            for c1, a1, b1 in rep:
                moved = scale_by_degree(b1, -k)
                for c2, a2, b2 in letter_rep[letter]:
                    new.append((c1 * c2, a1 * a2, b2 * moved))
            rep = new
        return rep

    for length in range(0, max_len + 1):
        for word in itertools.product(range(A.n_gens), repeat=length):
            report.words_checked += 1
            acc = AA.zero()
            for coeff, a_el, b_el in representation(word):
                acc = acc + (delta.apply(a_el) * j2(b_el)).scale(coeff)
            target = j1(A.element([(one, word)]))
            if acc != target:
                report.closure_failures.append(word)
    return report
