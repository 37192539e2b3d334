"""The integer ball kernel against plain group arithmetic.

HeckeBall keeps lengths, inverses, generator products, Omega cosets and
Omega translations as integer tables over ball indices, and the Omega
representatives come in closed form.  Here every table entry is rebuilt
with `pres.multiply`, every length with the alcove-walk formula computed
from scratch, and every Omega representative with a brute-force box
search.  The T-basis routines are then exercised on elements with a
nontrivial Omega part, which the dihedral group does not have.
"""

import itertools

import pytest

from heckequot.asymptotic import JElement, JRing
from heckequot.coxeter import (
    extended_affine_b2,
    extended_affine_pgl,
    infinite_dihedral,
    vec_mat,
)
from heckequot.hecke import BallOverflowError, HeckeBall, UncertifiedError

SKIP = (UncertifiedError, BallOverflowError)


def alcove_length(pres, x):
    """Sum over positive roots of |<lam, alpha>|, or |<lam, alpha> - 1|
    when u^-1(alpha) < 0, with u^-1(alpha) computed as a covector."""
    u = pres.wf_elems[x.fin]
    neg = {tuple(-c for c in a) for a in pres.pos_roots}
    total = 0
    for alpha in pres.pos_roots:
        pairing = sum(t * a for t, a in zip(x.trans, alpha))
        total += abs(pairing - 1) if vec_mat(alpha, u) in neg else abs(pairing)
    return total


def box_search_omega(pres):
    """Minimum length-zero element of each Omega coset among translations
    in [-2, 2]^rank; every coset must hold exactly one."""
    found = {}
    for fin in range(pres.wf_order):
        for trans in itertools.product(range(-2, 3), repeat=pres.rank):
            x = pres.element(trans, fin)
            if alcove_length(pres, x) == 0:
                found.setdefault(x.omega_index(), set()).add(x)
    assert all(len(xs) == 1 for xs in found.values())
    return [min(found[c], key=lambda e: (e.trans, e.fin)) for c in sorted(found)]


@pytest.fixture(
    scope="module",
    params=[(infinite_dihedral, 8), (extended_affine_b2, 10),
            (lambda: extended_affine_pgl(3), 8)],
    ids=["dihedral-r8", "b2-r10", "pgl3-r8"],
)
def hb(request):
    factory, radius = request.param
    return HeckeBall(factory(), radius)


# ---- tables ---------------------------------------------------------------


def test_ball_tables_match_multiply(hb):
    pres, elems = hb.pres, hb.ball.elements
    ngen = len(hb.gens)
    for i, x in enumerate(elems):
        assert hb._len[i] == x.length == pres.length_of(x.trans, x.fin) == alcove_length(pres, x)
        assert elems[hb._inv[i]] == pres.inverse(x)
        for s, g in enumerate(hb.gens):
            y = pres.multiply(x, g)
            j = hb._rm[i * ngen + s]
            assert (elems[j] if j >= 0 else None) == (y if y in hb.ball else None)
        assert pres.multiply(hb.wp[hb._wpi[i]], hb.omega_elems[hb._omi[i]]) == x
        for k, om in enumerate(hb.omega_elems):
            assert elems[hb._right_omega(i, k)] == pres.multiply(x, om)
            assert elems[hb._left_omega(i, k)] == pres.multiply(om, x)
        word, k = hb._word(i)
        assert ([pres.gen_names[s] for s in word], hb.omega_elems[k]) == pres.reduced_word(x)


def test_wprime_tables_match_multiply(hb):
    pres = hb.pres
    ngen = len(hb.gens)
    for j, x in enumerate(hb.wp):
        assert hb.wp[hb.wp_inv[j]] == pres.inverse(x)
        for s, g in enumerate(hb.gens):
            y = pres.multiply(x, g)
            t = hb._wrm[j * ngen + s]
            assert (hb.wp[t] if t >= 0 else None) == (y if y in hb.wp_index else None)
        if j:
            pj, s = hb.parent[j]
            assert pres.multiply(hb.wp[pj], hb.gens[s]) == x
            assert hb.wp_len[pj] == hb.wp_len[j] - 1
        for k, om in enumerate(hb.omega_elems):
            conj = pres.multiply(pres.multiply(om, x), pres.inverse(om))
            assert hb.wp[hb._conj(j, k)] == conj


def test_omega_tables_match_multiply(hb):
    pres, oms = hb.pres, hb.omega_elems
    for a, oa in enumerate(oms):
        for b, ob in enumerate(oms):
            assert oms[hb._om_mul[a][b]] == pres.multiply(oa, ob)
        assert pres.multiply(oa, oms[hb._om_inv[a]]) == pres.identity()
        for s, g in enumerate(hb.gens):
            conj = pres.multiply(pres.multiply(oa, g), pres.inverse(oa))
            assert hb.gens[hb._omconj[a][s]] == conj


@pytest.mark.parametrize(
    "factory",
    [extended_affine_b2] + [lambda n=n: extended_affine_pgl(n) for n in (2, 3, 4)],
    ids=["b2", "pgl2", "pgl3", "pgl4"],
)
def test_closed_form_omega_matches_box_search(factory):
    pres = factory()
    reps = pres.omega_elements()
    assert len(reps) == pres.omega_count
    assert reps == box_search_omega(pres)


# ---- T-basis with a nontrivial Omega part -----------------------------------


@pytest.fixture(scope="module")
def b2_12():
    return HeckeBall(extended_affine_b2(), 12)


def short(hb, length):
    pool = [x for x in hb.ball if x.length <= length]
    assert any(x.omega_index() for x in pool)
    return pool


def test_t_mul_omega_unit_and_associativity(b2_12):
    hb = b2_12
    one = hb.kl_element(hb.pres.identity())
    tau = hb.omega_elems[1]
    assert hb.mul_T(hb.kl_element(tau), hb.kl_element(tau)) == one
    pool = short(hb, 1)
    units = assoc = 0
    for x in pool:
        cx = hb.kl_element(x)
        assert hb.mul_T(one, cx) == cx and hb.mul_T(cx, one) == cx
        units += bool(x.omega_index())
    for x, y, z in itertools.product(pool, repeat=3):
        a, b, c = (hb.kl_element(w) for w in (x, y, z))
        assert hb.mul_T(hb.mul_T(a, b), c) == hb.mul_T(a, hb.mul_T(b, c)), (x, y, z)
        assoc += any(w.omega_index() for w in (x, y, z))
    assert units > 0 and assoc > 0


def test_dagger_with_omega(b2_12):
    hb = b2_12
    pool = short(hb, 2)
    inv = mult = 0
    for x in pool:
        cx = hb.kl_element(x)
        assert hb.dagger(hb.dagger(cx)) == cx
        inv += bool(x.omega_index())
    for x, y in itertools.product(short(hb, 1), repeat=2):
        a, b = hb.kl_element(x), hb.kl_element(y)
        assert hb.dagger(hb.mul_T(a, b)) == hb.mul_T(hb.dagger(a), hb.dagger(b)), (x, y)
        mult += bool(x.omega_index() or y.omega_index())
    assert inv > 0 and mult > 0


def test_phi_hom_with_omega(b2_12):
    # J is the direct product of its two-sided cell ideals, so phi is
    # multiplicative exactly when each cell component is; the ball decides
    # the components whose gamma rows are certified
    hb = b2_12
    J = JRing(hb)
    cell = hb.cell_partition().two_sided_id

    def part(a, c):
        return JElement({w: v for w, v in a.coeffs.items() if cell[w] == c})

    checked = 0
    for x, y in itertools.product(short(hb, 2), repeat=2):
        cx, cy = hb.kl_element(x), hb.kl_element(y)
        try:
            lhs, px, py = J.phi(hb.mul_T(cx, cy)), J.phi(cx), J.phi(cy)
        except SKIP:
            continue
        for c in {cell[w] for a in (lhs, px, py) for w in a.coeffs}:
            try:
                rhs = J.j_mul(part(px, c), part(py, c))
            except SKIP:
                continue
            assert part(lhs, c) == rhs, (x, y, c)
            checked += bool(x.omega_index() or y.omega_index())
    assert checked > 0
