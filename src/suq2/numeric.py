"""Independent numerical oracle: truncated ladder-operator models.

For a numeric complex parameter ``0 < |q| < 1`` the pair of operators on the
basis ``e(n, k)`` (0 <= n <= N radial, k cyclic mod M)

    gamma e(n, k) = conj(q)^n e(n, k+1 mod M)
    alpha e(n, k) = sqrt(1 - |q|^(2n)) e(n-1, k),    alpha e(0, k) = 0

satisfies the five defining relations exactly on every column with
n <= N - 1; truncating the radial ladder at n = N leaves a defect only in
the relation ``alpha alpha* + |q|^2 gamma* gamma = 1`` on the boundary row.
The winding direction is cyclic so gamma stays exactly normal.  Checking by
hand on basis vectors: the ratio of ``alpha gamma`` to ``gamma alpha`` is
conj(q) (both sides move (n,k) to (n-1,k+1), with weights conj(q)^n
sqrt(1-|q|^(2n)) and sqrt(1-|q|^(2n)) conj(q)^(n-1)); similarly
``alpha gamma* = q gamma* alpha``; ``alpha* alpha + gamma* gamma`` is diagonal
with entries (1-|q|^(2n)) + |q|^(2n) = 1; ``alpha alpha* + |q|^2 gamma* gamma``
is diagonal with entries (1-|q|^(2n+2)) + |q|^(2n+2) = 1 for n < N; and
``gamma`` is normal because gamma* gamma and gamma gamma* are both the
diagonal |q|^(2n).  That derivation is this oracle's certificate.

Parameters with ``|q| >= 1`` are handled by building the model at ``1/q``
and transporting the generators along the parameter-inversion isomorphism
(alpha -> alpha*, gamma -> q^-1 gamma).

The oracle is deliberately independent of how normal forms are computed, by
rewriting or by suq2's closed form: it evaluates concrete operators, so
agreement between a raw word and its normal form is evidence that the
engine computes honest algebra.

Every letter is a weighted shift of the ladder basis whose weight depends on
the radial index alone: it sends e(n, k) to amp[n] e(n + dn, k + dk mod M).
The letters g, g' move k by +-1; a, a' move n by -+1 (the other way round
on a transported model).  The winding index k carries only the circle
grading.  ``build`` writes the model as one table (dn, dk, amp) per letter,
``TruncatedRep.radial_tables``: the tables of gamma and alpha from the
formulas above, those of g' and a' as their adjoints, so no amplitude
depends on k by construction.  A word is then a product of slices of the
N+1 radial amplitudes, one multiply per letter, and its summed shift sends
every column to its row.  Columns a word kills carry amplitude 0: a
lowering letter at n = 0 or the truncated raising letter at n = N
multiplies by 0, and the zero padding around each table keeps them at 0
while the word's running shift is off the model.
``oracle_compare`` sums each side per summed shift and radial level, in
term order: those are the additions a dense accumulation performs on each
entry, and each radial sum repeats over the M winding columns, so the
deviation is the same float.  Dense matrices exist only where a caller asks
for one: ``alpha``, ``gamma``, ``letter_matrices()`` and ``evaluate_element``
scatter radial amplitudes into one, and the relation residuals and the
spectrum check the model by dense products and an SVD, a route that does
not share the radial kernel.

``oracle_compare`` evaluates each coefficient object and each normal-form
word once per model, in two tables on the model, and a one-term expression
that is its own normal form returns 0.0 without evaluating its word.  A
table hit is the float a fresh evaluation gives and the sums keep their
term order, so every deviation is the float it was without the tables.
The coefficient table admits a fixed number of entries,
``_COEFF_VALUES_CAP``; a coefficient met after that is evaluated each time.
``evaluate_element`` fills neither table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


# Largest (N+1)*M that ``build`` accepts.  The model itself is four radial
# tables; the dense dim x dim complex matrices that relations, spectrum and
# ``evaluate_element`` scatter from them take 16 MiB each at this size.
MAX_DIM = 1024

# Entries ``_coeff_values`` admits per model; later coefficients are
# evaluated each time they are met.  Fixed, like the term tables' cap in
# ``scalars``: a long-lived model holds at most this many coefficients.
_COEFF_VALUES_CAP = 4096

# generator names of the 4-letter algebra, in the order words index them
LETTERS = ("g", "g'", "a", "a'")

RELATION_NAMES = (
    "alpha* alpha + gamma* gamma = 1",
    "alpha alpha* + |q|^2 gamma* gamma = 1",
    "gamma gamma* = gamma* gamma",
    "alpha gamma = conj(q) gamma alpha",
    "alpha gamma* = q gamma* alpha",
)


@dataclass
class TruncatedRep:
    """One parameter value on the truncated ladder, as the radial tables of its letters.

    ``radial_tables`` holds ``(dn, dk, amp)`` for each letter, in generator
    order.  The letter sends e(n, k) to ``amp[N + 1 + n] e(n + dn, k + dk mod M)``;
    ``amp`` holds the weights on n = 0 .. N with N + 1 zeros on either side,
    so a word's slices stay inside it while its running n-shift stays within
    N + 1.  The dense matrices are scattered from the tables on demand.

    ``oracle_compare`` alone fills two private tables, left out of ``repr``
    and of ``==``: ``_coeff_values`` maps ``id(coeff)`` to the coefficient
    and its value at ``qval``, and ``_word_values`` maps ``(word, levels)``
    of a normal-form word to its ``_radial_word``.  They hold one entry per
    coefficient object and per normal word and level count the model has
    compared, and nothing else.  A raw coefficient 1 keeps the engine's own
    coefficient objects; any other makes new products on each call, and
    each of those adds an entry until ``_coeff_values`` holds
    ``_COEFF_VALUES_CAP`` entries; after that a new coefficient is evaluated
    and not stored.
    """

    qval: complex
    N: int
    M: int
    radial_tables: tuple
    transported: bool = False

    def __post_init__(self):
        self._coeff_values, self._word_values = {}, {}

    @property
    def dim(self):
        return (self.N + 1) * self.M

    def interior_mask(self, depth=1):
        """Column selector for n <= N - depth: the leading columns."""
        mask = np.zeros(self.dim, dtype=bool)
        mask[: max(self.N + 1 - depth, 0) * self.M] = True
        return mask

    @property
    def gamma(self):
        return self._dense_letter(self.radial_tables[0])

    @property
    def alpha(self):
        return self._dense_letter(self.radial_tables[2])

    def letter_matrices(self):
        """Matrices for the letters (g, g', a, a') in generator order."""
        return tuple(map(self._dense_letter, self.radial_tables))

    def _dense_letter(self, table):
        dn, dk, amp = table
        return self._scatter({(dn, dk): amp[self.N + 1 : 2 * (self.N + 1)]})

    def _scatter(self, shifts):
        """Dense matrix sending e(n, k) to amp[n] e(n + dn, k + dk mod M).

        ``shifts`` maps each ``(dn, dk)`` to its amplitudes on n = 0 .. N; a
        column whose target level n + dn is off the model is left at 0.
        """
        N, M = self.N, self.M
        out = np.zeros((self.dim, self.dim), dtype=complex)
        k = np.arange(M)
        for (dn, dk), amp in shifts.items():
            lo, hi = max(0, -dn), min(N + 1, N + 1 - dn)
            n = np.arange(lo, hi)[:, None]
            out[(n + dn) * M + (k + dk) % M, n * M + k] = amp[n]
        return out


def _adjoint(table, M):
    """Table of the adjoint letter: amp*[m] = conj(amp[m - dn]), shifted by (-dn, -dk)."""
    dn, dk, amp = table
    return -dn, -dk % M, np.roll(amp, dn).conj()


def _tables(M, gamma, alpha):
    """Read-only tables of (g, g', a, a') from those of gamma and alpha."""
    tables = (gamma, _adjoint(gamma, M), alpha, _adjoint(alpha, M))
    for _, _, amp in tables:
        amp.flags.writeable = False
    return tables


def build(qval, N, M):
    """Build the truncated model; transports through 1/q when |q| >= 1."""
    qval = complex(qval)
    if not (math.isfinite(qval.real) and math.isfinite(qval.imag)):
        raise ValueError("qval must be finite")
    if qval == 0:
        raise ValueError("qval must be nonzero")
    if abs(qval) == 1.0:
        raise ValueError("the ladder model needs |q| != 1")
    if not (2 <= M):
        raise ValueError("winding modulus M must be at least 2")
    if not (2 <= N):
        raise ValueError("radial cutoff N must be at least 2")
    if (N + 1) * M > MAX_DIM:
        raise ValueError(
            f"model-size: (N+1)*M = {(N + 1) * M} exceeds {MAX_DIM} basis vectors"
        )
    if abs(qval) > 1:
        # alpha -> alpha*, gamma -> q^-1 gamma
        g, _, _, astar = build(1 / qval, N, M).radial_tables
        gamma = (0, 1, g[2] / qval)
        return TruncatedRep(qval, N, M, _tables(M, gamma, astar), transported=True)
    qc = qval.conjugate()
    mod2 = abs(qval) ** 2
    gamma = [qc**n for n in range(N + 1)]
    alpha = [0.0] + [math.sqrt(1 - mod2**n) for n in range(1, N + 1)]
    # amplitudes on n = 0 .. N with N + 1 zeros on either side
    gamma = (0, 1, np.pad(np.array(gamma, dtype=complex), N + 1))
    alpha = (-1, 0, np.pad(np.array(alpha, dtype=complex), N + 1))
    return TruncatedRep(qval, N, M, _tables(M, gamma, alpha))


def relation_residuals(rep):
    """Max-norm residuals of the five relations, on the interior and in full.

    Returns ``{name: (interior, full)}``; only interior residuals are exact
    up to rounding, the boundary row carries the expected truncation defect
    which is reported but never asserted small.
    """
    g, gstar, a, astar = rep.letter_matrices()
    eye = np.eye(rep.dim)
    mod2 = abs(rep.qval) ** 2
    qc = rep.qval.conjugate()
    diffs = (
        astar @ a + gstar @ g - eye,
        a @ astar + mod2 * (gstar @ g) - eye,
        g @ gstar - gstar @ g,
        a @ g - qc * (g @ a),
        a @ gstar - rep.qval * (gstar @ a),
    )
    # N >= 2, so the interior is never empty
    mask = rep.interior_mask(1)
    return {
        name: (float(np.max(np.abs(diff[:, mask]))), float(np.max(np.abs(diff))))
        for name, diff in zip(RELATION_NAMES, diffs)
    }


def _radial_word(rep, word, levels):
    """Summed shift ``(dn, dk)`` of ``word`` and its amplitudes on n = 0 .. levels-1.

    The letters act right to left.  A word of one letter returns a read-only
    view of its table.  A word of at most N + 2 letters keeps its slices
    inside the padded tables.  A longer one may run past the padding, but
    only after every level has crossed a boundary that kills it, so its
    offset is clamped to an all-zero slice.
    """
    tables = rep.radial_tables
    pad = rep.N + 1
    clamp = len(word) > pad + 1
    top = 3 * pad - levels
    val = None
    dn = dk = 0
    for letter in reversed(word):
        shift, kshift, amp = tables[letter]
        o = min(max(pad + dn, 0), top) if clamp else pad + dn
        part = amp[o : o + levels]
        val = part if val is None else val * part
        dn += shift
        dk += kshift
    if val is None:
        val = np.ones(levels, dtype=complex)
    return dn, dk % rep.M, val


def _check_four_letters(pres):
    if tuple(g.name for g in pres.generators) != LETTERS:
        raise ValueError("element must live over the 4-generator algebra")


def evaluate_element(rep, x):
    """Substitute the model's operators into an element over the 4-letter algebra."""
    _check_four_letters(x.pres)
    groups = {}
    for word, coeff in x.terms():
        _add(groups, 0, coeff.evaluate(rep.qval), _radial_word(rep, word, rep.N + 1))
    return rep._scatter({shift: sums[0] for shift, sums in groups.items()})


def _add(groups, side, value, radial):
    """Add ``value`` times a word's radial amplitudes to its summed-shift group."""
    dn, dk, val = radial
    sums = groups.setdefault((dn, dk), [0.0, 0.0])
    sums[side] = sums[side] + value * val


def _coeff_value(rep, coeff):
    """``coeff`` at the model's q, from its table: an int or a Fraction is ``complex()`` of it.

    The table is keyed by identity: equal Scalars may hold their terms in
    different orders, and so evaluate to different last bits.  Each entry
    holds its coefficient, so an id is not reused while its entry stands.
    """
    entry = rep._coeff_values.get(id(coeff))
    if entry is not None:
        return entry[1]
    value = complex(coeff) if isinstance(coeff, numbers.Rational) else coeff.evaluate(rep.qval)
    if len(rep._coeff_values) < _COEFF_VALUES_CAP:
        rep._coeff_values[id(coeff)] = (coeff, value)
    return value


def oracle_compare(rep, pres, raw_terms):
    """Max deviation between a raw expression and its engine normal form.

    The comparison is restricted to columns with n <= N - depth, where depth
    is the longest raw word: raising chains started there never touch the
    truncated boundary row, so the model is exact on that block.  Only those
    interior columns are evaluated.

    Every letter is a radial weighted shift, its ``radial_tables`` entry, so
    all words with one summed shift ``(dn, dk mod M)`` send a column to the
    same row, and words with different shifts never share a (row, column) entry.
    Each side is therefore kept as one vector per summed shift, indexed by
    the radial level n <= N - depth, and the terms are added into it in term
    order.  The entry at level n stands for the M columns (n, k), which hold
    that same float, so the maximum over the levels is the maximum over the
    columns.  A killed level carries amplitude 0 and adds only a zero, so
    every sum is bit for bit the one a dense accumulation into a zeroed
    matrix produces.  The modulus is ``np.abs`` of the complex difference, as
    in a dense comparison; entries no word reaches are |0 - 0| = 0, so the
    maximum over the groups is the dense maximum, and 0.0 when there are no
    terms.

    The model remembers what it has evaluated: each coefficient object's
    value, and each normal-form word's ``(dn, dk, amp)`` at each level count.
    Both are pure functions of the model and of their key, and the arrays
    are never written, so a table hit is the float a fresh evaluation
    gives, and every sum is still formed in term order.  A raw expression
    of one term whose normal form is that same word with that same
    coefficient object would put one product on both sides, whose
    difference is exactly 0, so it returns 0.0 without evaluating the word.
    Its coefficient is evaluated first, so a pole still raises, and a value
    too large to multiply without overflow is compared as before.
    """
    raw = [(coeff, tuple(word)) for coeff, word in raw_terms]
    depth = max((len(word) for _, word in raw), default=0)
    if depth > rep.N - 1:
        raise ValueError(
            f"depth-beyond-interior: word length {depth} exceeds the exact interior "
            f"of the model (at most N - 1 = {rep.N - 1})"
        )
    _check_four_letters(pres)
    # normalizing first refuses an out-of-range letter before any evaluation
    normal = pres.normalize_raw(raw).terms()
    if len(raw) == 1 and len(normal) == 1:
        (coeff, word), ((nword, ncoeff),) = raw[0], normal
        if ncoeff is coeff and nword == word and abs(_coeff_value(rep, coeff)) <= 1e300:
            # every amplitude has modulus <= 1, so value * amp cannot overflow
            return 0.0
    levels = rep.N - depth + 1
    words = rep._word_values
    groups = {}
    for coeff, word in raw:
        _add(groups, 0, _coeff_value(rep, coeff), _radial_word(rep, word, levels))
    for word, coeff in normal:
        radial = words.get((word, levels))
        if radial is None:
            radial = words[word, levels] = _radial_word(rep, word, levels)
        _add(groups, 1, _coeff_value(rep, coeff), radial)
    return max((float(np.abs(d - n).max()) for d, n in groups.values()), default=0.0)


def gamma_singular_values(rep):
    """Singular values of gamma, descending; compare with expected_singular_values."""
    return np.linalg.svd(rep.gamma, compute_uv=False)


def expected_singular_values(rep):
    """|q|^n for 0 <= n <= N, each M times, in descending order.

    A model transported from 1/q has gamma = gamma(1/q) / q, whose singular
    values are |q|^-(n+1) instead.
    """
    r = abs(rep.qval)
    base = [r ** (-n - 1 if rep.transported else n) for n in range(rep.N + 1)]
    return np.repeat(sorted(base, reverse=True), rep.M)


def spectrum_deviation(rep):
    """Largest relative deviation of gamma's singular values from the expected ones."""
    want = expected_singular_values(rep)
    return float(np.max(np.abs(gamma_singular_values(rep) - want) / want))
