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

The oracle is deliberately independent of the rewrite engine: it multiplies
concrete matrices, so agreement between a raw word and its normal form is
evidence that the directed rule system computes honest algebra.

Every letter matrix has at most one nonzero per column, so words are never
multiplied densely.  Each letter is stored in column form (target row and
amplitude per column, plus a sink slot at index ``dim`` that collects killed
columns), and a word costs two gathers per letter.  Each letter is also a
fixed shift of the basis (g, g' move k by +-1 mod M; a, a' move n by -+1),
so a word's bidegree ``(#a - #a', (#g - #g') mod M)`` alone fixes the row it
sends every surviving column to.  ``oracle_compare`` evaluates only the
interior columns it compares and sums each side per bidegree and column, in
term order: those are the additions a dense accumulation performs on each
entry, so the deviation is the same float.  ``evaluate_element`` returns
the dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError


RELATION_NAMES = (
    "alpha* alpha + gamma* gamma = 1",
    "alpha alpha* + |q|^2 gamma* gamma = 1",
    "gamma gamma* = gamma* gamma",
    "alpha gamma = conj(q) gamma alpha",
    "alpha gamma* = q gamma* alpha",
)


@dataclass
class TruncatedRep:
    """Concrete matrices for one parameter value on the truncated ladder."""

    qval: complex
    N: int
    M: int
    alpha: np.ndarray
    gamma: np.ndarray
    transported: bool = False

    @property
    def dim(self):
        return (self.N + 1) * self.M

    def index(self, n, k):
        return n * self.M + (k % self.M)

    def interior_columns(self, depth=1):
        """Number of leading columns with n <= N - depth."""
        return min(max(self.N - depth + 1, 0), self.N + 1) * self.M

    def interior_mask(self, depth=1):
        """Column selector for n <= N - depth."""
        mask = np.zeros(self.dim, dtype=bool)
        mask[: self.interior_columns(depth)] = True
        return mask

    def letter_matrices(self):
        """Matrices for the letters (g, g', a, a') in generator order."""
        return (
            self.gamma,
            self.gamma.conj().T,
            self.alpha,
            self.alpha.conj().T,
        )

    def letter_columns(self):
        """Sparse (target_row, amplitude) column form of each letter matrix.

        Every letter has at most one nonzero per column, and products of such
        matrices keep that shape, so words evaluate in O(columns) per letter.
        Both arrays have one extra sink slot at index ``dim``: a killed column
        maps there with amplitude 0, and the sink maps to itself, so a word is
        evaluated by plain gathers and a killed column stays killed.
        """
        if not hasattr(self, "_letters"):
            forms = []
            for mat in self.letter_matrices():
                rows, cols = np.nonzero(mat)
                if len(set(cols)) != len(cols):
                    raise AssertionError("letter matrix is not column-sparse")
                perm = np.full(self.dim + 1, self.dim, dtype=int)
                amp = np.zeros(self.dim + 1, dtype=complex)
                perm[cols] = rows
                amp[cols] = mat[rows, cols]
                forms.append((perm, amp))
            self._letters = tuple(forms)
        return self._letters


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
    if abs(qval) > 1:
        inner = build(1 / qval, N, M)
        return TruncatedRep(
            qval=qval,
            N=N,
            M=M,
            alpha=inner.alpha.conj().T,
            gamma=inner.gamma / qval,
            transported=True,
        )
    dim = (N + 1) * M
    alpha = np.zeros((dim, dim), dtype=complex)
    gamma = np.zeros((dim, dim), dtype=complex)
    qc = qval.conjugate()
    mod2 = abs(qval) ** 2
    for n in range(N + 1):
        for k in range(M):
            col = n * M + k
            gamma[n * M + ((k + 1) % M), col] = qc**n
            if n > 0:
                alpha[(n - 1) * M + k, col] = math.sqrt(1 - mod2**n)
    return TruncatedRep(qval=qval, N=N, M=M, alpha=alpha, gamma=gamma)


def relation_residuals(rep):
    """Max-norm residuals of the five relations, on the interior and in full.

    Returns ``{name: (interior, full)}``; only interior residuals are exact
    up to rounding, the boundary row carries the expected truncation defect
    which is reported but never asserted small.
    """
    a = rep.alpha
    g = rep.gamma
    astar = a.conj().T
    gstar = g.conj().T
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
    mask = rep.interior_mask(1)
    out = {}
    for name, diff in zip(RELATION_NAMES, diffs):
        interior = float(np.max(np.abs(diff[:, mask]))) if mask.any() else 0.0
        full = float(np.max(np.abs(diff)))
        out[name] = (interior, full)
    return out


def _word_columns(rep, word, ncols):
    """(target_row, amplitude) of one operator word on the columns ``0 .. ncols-1``.

    A killed column ends in the sink slot ``rep.dim`` with amplitude 0.
    """
    letters = rep.letter_columns()
    idx = np.arange(ncols)
    val = np.ones(ncols, dtype=complex)
    for i in reversed(word):
        perm, amp = letters[i]
        val = val * amp[idx]
        idx = perm[idx]
    return idx, val


def _letter_degree(word, M):
    """Bidegree ``(#a - #a', (#g - #g') mod M)`` of a word in the letters (g, g', a, a')."""
    return word.count(2) - word.count(3), (word.count(0) - word.count(1)) % M


def _check_four_letters(pres):
    if pres.n_gens != 4 or [g.name for g in pres.generators] != ["g", "g'", "a", "a'"]:
        raise ValueError("element must live over the 4-generator algebra")


def evaluate_element(rep, x):
    """Substitute the model's operators into an element over the 4-letter algebra."""
    _check_four_letters(x.pres)
    # one extra sink row collects the killed columns and is dropped at the end
    total = np.zeros((rep.dim + 1, rep.dim), dtype=complex)
    cols = np.arange(rep.dim)
    for word, coeff in x.terms():
        idx, val = _word_columns(rep, word, rep.dim)
        total[idx, cols] += coeff.evaluate(rep.qval) * val
    return total[: rep.dim]


def _accumulate(rep, terms, ncols, groups, side):
    """Add each ``(coeff, word)`` term's column amplitudes to its bidegree group."""
    for coeff, word in terms:
        amp = coeff.evaluate(rep.qval) * _word_columns(rep, word, ncols)[1]
        sums = groups.setdefault(_letter_degree(word, rep.M), [0.0, 0.0])
        sums[side] = sums[side] + amp


def oracle_compare(rep, pres, raw_terms, depth=None):
    """Max deviation between a raw expression and its engine normal form.

    The comparison is restricted to columns with n <= N - depth, where depth
    bounds the word length: raising chains started there never touch the
    truncated boundary row, so the model is exact on that block.  Only those
    interior columns are evaluated.  A ``depth`` below the longest raw word
    would let the direct side reach the boundary row and is rejected.

    Every letter shifts the ladder basis by a fixed step (g and g' move k by
    +-1 mod M, a and a' move n by -+1), so all words of one bidegree
    ``(#a - #a', (#g - #g') mod M)`` send a column to the same row, and words
    of different bidegrees never share a (row, column) entry.  Each side is
    therefore kept as one amplitude vector per bidegree, indexed by column,
    and the terms are added into it in term order.  A killed column carries
    amplitude 0 and adds only a zero, so every sum is bit for bit the one a
    dense accumulation into a zeroed matrix produces.  The modulus is
    ``np.abs`` of the complex difference, as in a dense comparison; entries
    no word reaches are |0 - 0| = 0, so the maximum over the groups is the
    dense maximum, and 0.0 when there are no terms.
    """
    raw = []
    maxlen = 0
    for coeff, word in raw_terms:
        word = tuple(word)
        maxlen = max(maxlen, len(word))
        raw.append((coeff, word))
    if depth is None:
        depth = maxlen
    if depth < maxlen:
        raise ValueError("depth must be at least the longest word length")
    if depth > rep.N - 1:
        raise ValueError("word length exceeds the exact interior of the model")
    _check_four_letters(pres)
    ncols = rep.interior_columns(depth)
    groups = {}
    _accumulate(rep, raw, ncols, groups, 0)
    normal = pres.normalize_raw(raw)
    _accumulate(rep, ((c, w) for w, c in normal.terms()), ncols, groups, 1)
    return max((float(np.max(np.abs(d - n))) for d, n in groups.values()), default=0.0)


def gamma_singular_values(rep):
    """Singular values of gamma, descending; compare with expected_singular_values."""
    return np.linalg.svd(rep.gamma, compute_uv=False)


def expected_singular_values(rep):
    """|q|^n for 0 <= n <= N, each M times, in descending order.

    A model transported from 1/q has gamma = gamma(1/q) / q, whose singular
    values are |q|^-(n+1) instead.
    """
    r = abs(rep.qval)
    if rep.transported:
        base = [r ** -(n + 1) for n in range(rep.N + 1)]
    else:
        base = [r**n for n in range(rep.N + 1)]
    return np.repeat(sorted(base, reverse=True), rep.M)
