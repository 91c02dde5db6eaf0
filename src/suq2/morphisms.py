"""Homomorphisms defined on generators.

A :class:`GenMorphism` stores images for the unstarred generators only; the
starred images are forced by ``x' -> image(x).adjoint()``, so every morphism
is a *-homomorphism by construction.  Whether it is an algebra homomorphism
at all is exactly the question whether the images satisfy the source's
rewrite rules in the target.  ``residuals`` lists the rules whose images
differ, ``check()`` passes iff that list is empty, and ``apply()`` refuses
to run on a map that does not pass.

Residuals come about in two ways.  A map built directly as a ``GenMorphism``
(the named maps below, or any user map) is *expanded*: ``residuals`` pushes
every source rule through the images.  A map built by
:func:`identity_morphism`, :func:`compose` or :func:`braided.tensor_morphism`
from verified parts is *proved*: it is a homomorphism by construction (the
identity, a composite of homomorphisms, the twisted tensor product functor
on equivariant maps), so its residuals are empty when it is built and
nothing is expanded.  The
expansion stays available as an oracle: rebuilding a proved map as a plain
``GenMorphism`` from its images must pass it.

``catalog(q)`` builds the named maps used by the verification suite:
the comultiplications of the braided and ordinary algebras, the two
embeddings into the tensor square of the circle-extended algebra, the
parameter-inversion isomorphism, the grading-reversing symmetry, and the
degree-scaling automorphisms.  The two comultiplications, which many
checks use, are built once per source presentation and kept in the
presentation cache, so their relations are expanded once per process.  They
are shared: callers must not mutate them, but build a new ``GenMorphism``
from ``images`` instead.
"""

from __future__ import annotations

from functools import partial

from .algebra import Element, _accumulate, _cached, suq2_presentation, uq2_presentation
from .braided import braiding_failures, embed, grading_flip, twisted_tensor
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
        """Pass iff there are no residuals: the images satisfy every source rule."""
        return not self.residuals

    @property
    def residuals(self):
        """``(rule, image(lhs) - image(rhs))`` for every rule whose residual is nonzero.

        The expansion runs once, on the first access.  Maps built by
        ``identity_morphism``, ``compose`` and ``tensor_morphism`` are proved
        at construction, so for them this expands nothing.
        """
        if self._residuals is None:
            residuals = []
            for rule in self.source.rules.values():
                img = self._image_of_word(rule.lhs)
                for coeff, w in rule.rhs:
                    img = img - self._image_of_word(w).scale(coeff)
                if not img.is_zero():
                    residuals.append((rule, img))
            self._residuals = residuals
        return self._residuals

    # -- application ------------------------------------------------------------------

    def apply(self, x):
        if x.pres is not self.source:
            raise PresentationMismatchError()
        self._require_verified()
        acc = {}
        for word, coeff in x.terms():
            for w, c in self._image_of_word(word)._terms.items():
                _accumulate(acc, w, c * coeff)
        return Element(self.target, acc)

    def __call__(self, x):
        return self.apply(x)

    def _require_verified(self):
        if not self.check():
            raise UnverifiedMorphismError(
                f"unverified-morphism: '{self.name}' does not respect the relations"
            )

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


def _proved(source, target, images, name):
    """A morphism that is a homomorphism by construction: it has no residuals."""
    mor = GenMorphism(source, target, images, name=name)
    mor._residuals = []
    return mor


def identity_morphism(pres):
    """The identity of ``pres``; proved, since it maps every relation to itself."""
    images = {
        i: pres.gen(i)
        for i, g in enumerate(pres.generators)
        if i <= g.adjoint
    }
    return _proved(pres, pres, images, "id")


def compose(outer, inner):
    """The composite outer o inner (apply ``inner`` first).

    Both parts must pass ``check()``; ``UnverifiedMorphismError`` names the
    first that fails.  The composite is then proved, not expanded: for every
    source rule lhs -> rhs, inner(lhs - rhs) = 0 in the middle algebra, and
    outer, a well-defined *-homomorphism, sends 0 to 0.
    """
    if inner.target is not outer.source:
        raise PresentationMismatchError()
    inner._require_verified()
    outer._require_verified()
    images = {
        i: outer.apply(inner.letter_image(i))
        for i, g in enumerate(inner.source.generators)
        if i <= g.adjoint
    }
    return _proved(inner.source, outer.target, images, f"{outer.name} o {inner.name}")


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

    def build():
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

    return _cached(("delta", A._token), build)


def delta_uq2(qparam=None):
    """The comultiplication of the circle-extended algebra into its square.

    z |-> z (x) z,  a |-> a (x) a - q g'z (x) g,  g |-> g (x) a + a'z (x) g.
    The tensor square is the ordinary one (twist 1): all degrees vanish.
    """
    B = uq2_presentation(qparam)

    def build():
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

    return _cached(("delta_B", B._token), build)


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
    """All named morphisms, constructed and verified; the two comultiplications
    are shared, so never mutate them."""
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


def cancellation_witness(qparam=None):
    """Finite base identities that prove the cancellation law of delta.

    Checks that delta respects the defining relations, the two 2x2 matrix
    identities

        j1(u) = delta(u) j2(u)^*      and      j2(u) = j1(u)^* delta(u)

    and the cross-leg law j1(x) j2(y) = zeta^(deg x deg y) j2(y) j1(x) on the
    16 generator pairs.  Lemma: then every word w has a span witness
    j1(w) = sum c_i delta(a_i) j2(b_i).  By induction on the length of w:
    j1(1) = delta(1) j2(1); entry (r, c) of identity one expands each letter x
    as j1(x) = sum c delta(a) j2(b); and for a witness of w,

        j1(w x) = sum c_i delta(a_i) j2(b_i) j1(x)
                = sum c_i zeta^(-deg b_i deg x) delta(a_i) j1(x) j2(b_i),

    by the cross-leg law on monomials (both sides are multiplicative in each
    leg and the degree pairing is a bicharacter).  Substituting the expansion
    of x and using that delta and j2 are multiplicative gives a witness for
    w x.  Identity two gives the twin witness j2(w) = sum c_i j1(a_i)^*
    delta(b_i) the same way.

    Returns one residual line per failing base identity; the law is proved
    iff there are none.  The matrix identities are checked only when delta
    respects the relations, since otherwise delta(u) is not defined.
    """
    from .repcalc import fundamental_matrix, matrix_apply, matrix_embed

    delta = delta_su(qparam)
    AA = delta.target
    residuals = [
        f"delta image of rule {rule.lhs} leaves {el.render()}"
        for rule, el in delta.residuals
    ]
    if not residuals:
        u = fundamental_matrix(delta.source)
        du = matrix_apply(delta, u)
        j1u, j2u = matrix_embed(AA, 1, u), matrix_embed(AA, 2, u)
        one, two = du * j2u.adjoint() - j1u, j1u.adjoint() * du - j2u
        for which, res in (("first", one), ("second", two)):
            residuals += [
                f"{which} matrix identity fails at {rc}: {el.render()}"
                for rc, el in res.nonzero_entries()
            ]
    failures = braiding_failures(delta.source, partial(embed, AA, 1), partial(embed, AA, 2))
    return residuals + [f"braiding fails for x={x}, y={y}" for x, y in failures]
