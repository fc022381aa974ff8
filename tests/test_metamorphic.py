"""Metamorphic tests: how a synthesis transforms when its problem does.

A passive change of basis on one side, x -> S x with S the quadrature form
of a unitary, is orthogonal and symplectic.  It maps a problem
(r_bar_a, c_bar_a, r_ab) to (S r_bar_a S.T, c_bar_a S.T, S r_ab) on side a,
and r_ab to r_ab S.T on side b.  The realization must follow: the loop (x
and sigma) is unchanged, and the moved side's corrected Hamiltonian and
coupling Gram matrix c.T c transform by S, while the other side's stay.
Where singular values repeat, the special SVD may rotate channels, so the
comparison is of invariants (c.T c, not c).
"""

import numpy as np
import pytest

from conftest import random_symmetric, random_unitary
from hamlink import check_equivalence, demo_problem, synthesize
from hamlink.lqss import DirectInteraction, LqssParams
from hamlink.symcore import max_abs, scale, unitary_to_quadrature

DRAWS = 25
# Scaled bound on the transformed r and c.T c; over 200 draws of each side
# the worst was 5.6e-15.
BOUND = 1e-13


def drawn_problem(rng):
    """The demo's coupling scaled by U(0.1, 10), with random symmetric r_bar."""
    demo = demo_problem().interaction
    sys_a, sys_b = (
        LqssParams(n=s.n, r=random_symmetric(rng, 2 * s.n), c=s.c, d=s.d)
        for s in (demo.sys_a, demo.sys_b)
    )
    return DirectInteraction(sys_a, sys_b, rng.uniform(0.1, 10) * demo.r_ab)


def change_basis(di, side, s):
    """di in the quadratures S x of one side."""
    old = di.sys_a if side == "a" else di.sys_b
    new = LqssParams(n=old.n, r=s @ old.r @ s.T, c=old.c @ s.T, d=old.d)
    if side == "a":
        return DirectInteraction(new, di.sys_b, s @ di.r_ab)
    return DirectInteraction(di.sys_a, new, di.r_ab @ s.T)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("seed", range(DRAWS))
def test_passive_change_of_basis(seed, side):
    rng = np.random.default_rng([seed, 15])
    di = drawn_problem(rng)
    n = (di.sys_a if side == "a" else di.sys_b).n
    s = unitary_to_quadrature(random_unitary(rng, n))
    moved = change_basis(di, side, s)
    before = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
    after = synthesize(moved.sys_a.r, moved.sys_b.r, moved.r_ab)

    assert np.array_equal(after.x, before.x)
    assert np.array_equal(after.sigma, before.sigma)
    for which in ("a", "b"):
        r, r_new = getattr(before, f"r_{which}"), getattr(after, f"r_{which}")
        c, c_new = getattr(before, f"c_{which}"), getattr(after, f"c_{which}")
        t = s if which == side else np.eye(len(r))
        assert max_abs(r_new - t @ r @ t.T) <= BOUND * scale(r)
        gram, gram_new = c.T @ c, c_new.T @ c_new
        assert max_abs(gram_new - t @ gram @ t.T) <= BOUND * scale(gram)
    report = check_equivalence(moved, after)
    assert report.passed, report.failing()
