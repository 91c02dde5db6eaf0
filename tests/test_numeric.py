"""The truncated ladder oracle and its agreement with the rewrite engine."""

import itertools
import random

import numpy as np
import pytest

from suq2 import Scalar, suq2_presentation
from suq2 import numeric
from suq2.algebra import Presentation, RewriteRule

A = suq2_presentation()
ONE = Scalar.one()


def _wrong_r2():
    """The suq2 presentation with R2 miswritten as a g -> q g a (q for qb)."""
    q = A.params["q"]
    rules = [
        RewriteRule(r.lhs, ((q, (0, 2)),)) if r.lhs == (2, 0) else r
        for r in A.rules.values()
    ]
    return Presentation("wrong-r2", A.generators, rules, params=dict(A.params))


def _dense(rep, terms):
    """Sum of coeff * (product of letter matrices) by plain dense products."""
    letters = rep.letter_matrices()
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for coeff, word in terms:
        mat = np.eye(rep.dim, dtype=complex)
        for i in word:
            mat = mat @ letters[i]
        total += coeff.evaluate(rep.qval) * mat
    return total


def _dense_deviation(rep, pres, raw, depth):
    normal = pres.normalize_raw(raw)
    diff = _dense(rep, raw) - _dense(rep, [(c, w) for w, c in normal.terms()])
    return float(np.max(np.abs(diff[:, rep.interior_mask(depth)])))


def _keyed_side(rep, terms, ncols):
    """Surviving entries of all terms as flat ``row * ncols + col`` keys and values."""
    keys, values = [np.empty(0, dtype=int)], [np.empty(0, dtype=complex)]
    for coeff, word in terms:
        idx, val = numeric._word_columns(rep, word, ncols)
        keep = np.flatnonzero(idx < rep.dim)
        keys.append(idx[keep] * ncols + keep)
        values.append(coeff.evaluate(rep.qval) * val[keep])
    return np.concatenate(keys), np.concatenate(values)


def _keyed_merge_deviation(rep, pres, raw, depth):
    """Reference oracle: both sides merged by entry key, each summed with ``bincount``.

    ``bincount`` adds the weights in input order starting from 0.0, so each
    sum is the one a dense accumulation into a zeroed matrix produces.
    """
    ncols = rep.interior_columns(depth)
    dkeys, dvals = _keyed_side(rep, raw, ncols)
    normal = pres.normalize_raw(raw)
    nkeys, nvals = _keyed_side(rep, [(c, w) for w, c in normal.terms()], ncols)
    keys, inverse = np.unique(np.concatenate((dkeys, nkeys)), return_inverse=True)
    if not len(keys):
        return 0.0
    size = len(keys)

    def summed(inv, vals):
        out = np.empty(size, dtype=complex)
        out.real = np.bincount(inv, weights=vals.real, minlength=size)
        out.imag = np.bincount(inv, weights=vals.imag, minlength=size)
        return out

    dsum = summed(inverse[: len(dkeys)], dvals)
    nsum = summed(inverse[len(dkeys):], nvals)
    return float(np.max(np.abs(dsum - nsum)))


def test_build_validates_arguments():
    with pytest.raises(ValueError):
        numeric.build(0, 10, 4)
    with pytest.raises(ValueError):
        numeric.build(0.5, 1, 4)
    with pytest.raises(ValueError):
        numeric.build(0.5, 10, 1)
    with pytest.raises(ValueError, match="model-size"):
        numeric.build(2.0, numeric.MAX_DIM, 2)
    assert numeric.build(0.5, numeric.MAX_DIM // 4 - 1, 4).dim == numeric.MAX_DIM


def test_singular_values_of_gamma():
    rep = numeric.build(0.5, 3, 4)
    got = numeric.gamma_singular_values(rep)
    assert np.allclose(got, numeric.expected_singular_values(rep), atol=1e-12)
    distinct = sorted({float(round(s, 10)) for s in got})
    assert distinct == [0.125, 0.25, 0.5, 1.0]


def test_singular_values_of_transported_gamma():
    rep = numeric.build(2.0, 3, 4)
    got = numeric.gamma_singular_values(rep)
    want = numeric.expected_singular_values(rep)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    distinct = sorted({float(round(s, 10)) for s in got})
    assert distinct == [0.0625, 0.125, 0.25, 0.5]


def test_alpha_kills_the_bottom_row():
    rep = numeric.build(0.7, 4, 3)
    for k in range(rep.M):
        assert not rep.alpha[:, rep.index(0, k)].any()


def test_gamma_is_normal_even_after_truncation():
    rep = numeric.build(0.6 + 0.3j, 10, 6)
    g = rep.gamma
    assert np.max(np.abs(g.conj().T @ g - g @ g.conj().T)) <= 1e-15


@pytest.mark.parametrize("qv", [0.5, 0.9, 0.3 + 0.4j, 0.6 - 0.3j])
def test_interior_relation_residuals(qv):
    rep = numeric.build(qv, 30, 8)
    residuals = numeric.relation_residuals(rep)
    for name, (interior, _) in residuals.items():
        assert interior <= 1e-12, name


def test_boundary_defect_is_reported_not_asserted():
    rep = numeric.build(0.5, 10, 4)
    residuals = numeric.relation_residuals(rep)
    # the second relation carries the truncation defect on the boundary row
    interior, full = residuals[numeric.RELATION_NAMES[1]]
    assert interior <= 1e-13
    assert full > 0.5


def test_evaluate_element_unit_and_diagonal():
    rep = numeric.build(0.5, 8, 4)
    assert np.allclose(numeric.evaluate_element(rep, A.unit()), np.eye(rep.dim))
    mat = numeric.evaluate_element(rep, A.gen("g") * A.gen("g'"))
    expected = np.diag([0.25**n for n in range(9) for _ in range(4)])
    assert np.allclose(mat, expected, atol=1e-13)


def test_first_relation_is_interior_exact():
    rep = numeric.build(0.4 + 0.2j, 12, 5)
    el = A.gen("a'") * A.gen("a") + A.gen("g'") * A.gen("g")
    mat = numeric.evaluate_element(rep, el)
    mask = rep.interior_mask(1)
    assert np.max(np.abs((mat - np.eye(rep.dim))[:, mask])) <= 1e-13


def test_oracle_compare_worked_example():
    rep = numeric.build(0.5, 20, 6)
    dev = numeric.oracle_compare(rep, A, [(ONE, (1, 0, 2, 3))])
    assert dev <= 1e-12


def test_oracle_compare_already_normal_word():
    rep = numeric.build(0.5, 10, 4)
    dev = numeric.oracle_compare(rep, A, [(ONE, (0, 2))])
    assert dev == 0.0


def test_oracle_compare_halmosh_monomial():
    rep = numeric.build(0.4 + 0.3j, 20, 6)
    qb = A.params["qb"]
    raw = [(ONE, (2, 0, 0, 0)), (-(qb**3), (0, 0, 0, 2))]
    assert numeric.oracle_compare(rep, A, raw) <= 1e-12


def test_oracle_compare_random_words_random_parameters():
    rng = random.Random(11)
    for _ in range(5):
        radius = 0.15 + 0.7 * rng.random()
        angle = 2 * np.pi * rng.random()
        qv = radius * complex(np.cos(angle), np.sin(angle))
        rep = numeric.build(qv, 12, 5)
        for _ in range(40):
            word = tuple(rng.randrange(4) for _ in range(rng.randint(1, 6)))
            assert numeric.oracle_compare(rep, A, [(ONE, word)]) <= 1e-11


def test_oracle_detects_a_wrong_rule():
    rep = numeric.build(0.5 + 0.3j, 12, 5)
    assert numeric.oracle_compare(rep, A, [(ONE, (2, 0))]) <= 1e-12
    assert numeric.oracle_compare(rep, _wrong_r2(), [(ONE, (2, 0))]) > 1e-11


def test_oracle_compare_nothing_survives():
    # alpha^3 kills every column with n <= 2, which is the whole interior
    rep = numeric.build(0.5, 4, 3)
    assert numeric.oracle_compare(rep, A, [(ONE, (2, 2, 2))]) == 0.0


def test_oracle_compare_cancelling_terms():
    rep = numeric.build(0.4 + 0.3j, 10, 4)
    w = (1, 0, 2, 3)
    assert numeric.oracle_compare(rep, A, [(ONE, w), (-ONE, w)]) == 0.0


def test_oracle_compare_merges_repeated_words_across_terms():
    rep = numeric.build(0.4 + 0.3j, 10, 4)
    q = Scalar.q()
    w, w2 = (2, 0, 3), (0, 3, 2)
    raw = [(q, w), (q, w), (ONE, w2)]
    depth = len(w) + 1
    # the normal form carries 2q nf(w): both raw copies of w must be summed
    dev = numeric.oracle_compare(rep, A, raw, depth=depth)
    assert dev <= 1e-12
    assert abs(dev - _dense_deviation(rep, A, raw, depth)) <= 1e-13


@pytest.mark.parametrize("qv", [0.5 + 0.3j, 0.9, 1.7 - 0.4j])
def test_oracle_compare_matches_dense_products(qv):
    rep = numeric.build(qv, 10, 4)
    rng = random.Random(5)
    coeffs = [ONE, -ONE, Scalar.q(), Scalar.qbar(), Scalar.imag_unit() + Scalar.q()]
    worst_wrong = 0.0
    for pres in (A, _wrong_r2()):
        for _ in range(15):
            raw = [
                (rng.choice(coeffs), tuple(rng.randrange(4) for _ in range(rng.randint(0, 5))))
                for _ in range(rng.randint(1, 3))
            ]
            depth = max(len(w) for _, w in raw)
            got = numeric.oracle_compare(rep, pres, raw)
            assert abs(got - _dense_deviation(rep, pres, raw, depth)) <= 1e-13
            if pres is not A:
                worst_wrong = max(worst_wrong, got)
            x = pres.normalize_raw(raw)
            dense = _dense(rep, [(c, w) for w, c in x.terms()])
            assert np.max(np.abs(numeric.evaluate_element(rep, x) - dense)) <= 1e-13
    # the wrong rule makes the comparison non-trivial at complex q
    if qv.imag:
        assert worst_wrong > 1e-3


@pytest.mark.parametrize(
    "qv, N, M", [(0.5 + 0.3j, 10, 4), (1.7 - 0.4j, 10, 4), (0.4 - 0.2j, 8, 2), (0.9, 7, 3)]
)
def test_oracle_compare_equals_the_keyed_merge(qv, N, M):
    # bidegree groups and the keyed merge add the same floats in the same order
    rep = numeric.build(qv, N, M)
    rng = random.Random(17)
    coeffs = [
        ONE, -ONE, Scalar.q(), Scalar.qbar(), Scalar.imag_unit() + Scalar.q(),
        ONE / (Scalar.from_int(3) + Scalar.q()),
    ]
    for pres in (A, _wrong_r2()):
        for _ in range(40):
            raw = [
                (rng.choice(coeffs), tuple(rng.randrange(4) for _ in range(rng.randint(0, 5))))
                for _ in range(rng.randint(1, 4))
            ]
            depth = max(len(w) for _, w in raw) + rng.randint(0, 1)
            got = numeric.oracle_compare(rep, pres, raw, depth=depth)
            assert got == _keyed_merge_deviation(rep, pres, raw, depth), raw


def _shifted_rows(rep, word):
    """Row each column of ``rep`` goes to under ``word``, by the bidegree alone."""
    da, dg = numeric._letter_degree(word, rep.M)
    n, k = np.divmod(np.arange(rep.dim), rep.M)
    # a lowers n on the plain model; transport swaps alpha and alpha*
    n = n + da if rep.transported else n - da
    return n * rep.M + (k + dg) % rep.M


@pytest.mark.parametrize("qv, M", [(0.5 + 0.3j, 3), (1.7 - 0.4j, 3), (0.6, 2)])
def test_surviving_rows_follow_the_bidegree(qv, M):
    rep = numeric.build(qv, 7, M)
    words = (w for length in range(7) for w in itertools.product(range(4), repeat=length))
    for word in words:
        idx, _ = numeric._word_columns(rep, word, rep.dim)
        alive = idx < rep.dim
        assert np.array_equal(idx[alive], _shifted_rows(rep, word)[alive]), word


@pytest.mark.parametrize("depth", [1, -3])
def test_depth_below_the_longest_word_rejected(depth):
    # the direct side would run into the truncated boundary row
    rep = numeric.build(0.5, 6, 3)
    with pytest.raises(ValueError, match="depth"):
        numeric.oracle_compare(rep, A, [(ONE, (2, 2, 3, 3))], depth=depth)


@pytest.mark.parametrize("depth", [None, 4, 5])
def test_depth_at_or_above_the_longest_word_accepted(depth):
    rep = numeric.build(0.5, 6, 3)
    assert numeric.oracle_compare(rep, A, [(ONE, (2, 2, 3, 3))], depth=depth) <= 1e-12


def test_word_length_beyond_interior_rejected():
    rep = numeric.build(0.5, 4, 3)
    with pytest.raises(ValueError, match="interior"):
        numeric.oracle_compare(rep, A, [(ONE, (3,) * 4)])


def test_conjugation_consistency_on_core_block():
    rep = numeric.build(0.5, 16, 5)
    x = A.element([(Scalar.q(), (2, 0, 1)), (ONE, (3, 3))])
    direct = numeric.evaluate_element(rep, x)
    star = numeric.evaluate_element(rep, x.adjoint())
    mask = rep.interior_mask(4)
    core = np.ix_(mask, mask)
    assert np.max(np.abs(star[core] - direct.conj().T[core])) <= 1e-11


def test_unit_modulus_rejected():
    with pytest.raises(ValueError, match="!= 1"):
        numeric.build(0.6 + 0.8j, 6, 4)


def test_pole_propagates():
    from suq2 import PoleError

    rep = numeric.build(0.5, 6, 4)
    # denominator 1 - 4 q qb vanishes exactly at |q| = 1/2
    el = A.unit().scale(ONE / (ONE - Scalar.q() * Scalar.qbar() * 4))
    with pytest.raises(PoleError, match="pole-at-q"):
        numeric.evaluate_element(rep, el)


def test_transport_for_large_parameter():
    rep = numeric.build(2.0, 12, 5)
    assert rep.transported
    residuals = numeric.relation_residuals(rep)
    for name, (interior, _) in residuals.items():
        assert interior <= 1e-11, name
    # the engine agrees with the transported model too
    dev = numeric.oracle_compare(rep, A, [(ONE, (2, 0, 3))])
    assert dev <= 1e-11
