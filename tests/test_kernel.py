"""The integer ball kernel against plain group arithmetic.

HeckeBall keeps lengths, inverses, generator products, Omega cosets and
Omega translations as integer tables over ball indices, and the Omega
representatives come in closed form.  Here every table entry is rebuilt
with `pres.multiply`, every length with the alcove-walk formula computed
from scratch, and every Omega representative with a brute-force box
search.  The T-basis routines are then exercised on elements with a
nontrivial Omega part, which the dihedral group does not have.
"""

import contextlib
import functools
import itertools
import random

import pytest

from heckequot.asymptotic import UNDECIDED, JElement, JRing, decide
from heckequot.coxeter import (
    extended_affine_b2,
    extended_affine_pgl,
    infinite_dihedral,
    vec_mat,
)
from heckequot.hecke import BallOverflowError, HeckeBall, HeckeElement, HeckeError, UncertifiedError
from heckequot.laurent import LaurentPoly, acc_mul, pack, unpack
from oracles import (
    cdag_coords,
    element,
    h_constants,
    h_to_distinguished,
    reduced_word,
    right_descents,
    t_product_by_words,
)

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
    for fin in range(len(pres.wf_elems)):
        for trans in itertools.product(range(-2, 3), repeat=pres.rank):
            x = element(pres, trans, fin)
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
        assert ([pres.gen_names[s] for s in word], hb.omega_elems[k]) == reduced_word(pres, x)


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
            assert hb.wp[hb._syms[k][j]] == conj
            assert hb.wp[hb._syms[len(hb.omega_elems) + k][j]] == pres.inverse(conj)


@pytest.mark.parametrize(
    "factory,radius",
    [(extended_affine_b2, 8), (lambda: extended_affine_pgl(4), 5)],
    ids=["b2-r8", "pgl4-r5"],
)
def test_tables_walked_along_the_right_table_match_multiply(factory, radius):
    # _inv, _wpi and parent are read off the ball's right table, from each
    # element's first right descent; rebuild them with group arithmetic
    hb = HeckeBall(factory(), radius)
    pres, elems = hb.pres, hb.ball.elements
    om_inv = [pres.inverse(om) for om in hb.omega_elems]
    for i, x in enumerate(elems):
        assert elems[hb._inv[i]] == pres.inverse(x)
        assert hb.wp[hb._wpi[i]] == pres.multiply(x, om_inv[hb._omi[i]])
    assert hb.parent[0] is None
    for j, x in enumerate(hb.wp[1:], 1):
        pj, s = hb.parent[j]
        assert s == right_descents(pres, x)[0]
        assert hb.wp[pj] == pres.multiply(x, hb.gens[s])


def test_omega_tables_match_multiply(hb):
    pres, oms = hb.pres, hb.omega_elems
    for a, oa in enumerate(oms):
        for b, ob in enumerate(oms):
            assert oms[hb._om_mul[a][b]] == pres.multiply(oa, ob)
        assert pres.multiply(oa, oms[hb._om_inv[a]]) == pres.identity()


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


def _outcome(f, *args):
    try:
        return f(*args)
    except UNDECIDED as e:
        return type(e)


@pytest.mark.parametrize(
    "factory, radius",
    [(infinite_dihedral, 12), (extended_affine_b2, 10), (lambda: extended_affine_pgl(3), 8)],
    ids=["dihedral-r12", "b2-r10", "pgl3-r8"],
)
def test_shared_mul_t_matches_the_word_by_word_oracle(factory, radius):
    # mul_T shares a T_{ws} between the terms of b along right descents; the
    # oracle replays a reduced word of each w through pres.multiply
    hb = HeckeBall(factory(), radius)
    rng = random.Random(13)
    one = LaurentPoly.one()

    def coeff():
        return LaurentPoly({e: rng.choice([-2, -1, 1, 2]) for e in rng.sample(range(-2, 3), 2)})

    def element(n, longest, shortest=0):
        pool = [w for w in hb.ball if shortest <= w.length <= longest]
        return HeckeElement("T", {w: coeff() for w in rng.sample(pool, n)})

    omegas = [HeckeElement("T", {om: one}) for om in hb.omega_elems]
    kl = [hb.kl_element(w) for w in hb.ball if w.length <= 2]
    cases = [(a, b) for a in omegas + kl[:6] for b in omegas + kl[:6]]
    cases += [(element(rng.randint(1, 3), radius // 2), element(rng.randint(1, 4), radius // 2))
              for _ in range(25)]
    cases += [(element(2, radius, radius - 2), element(2, 4, 3)) for _ in range(10)]  # these leave the ball
    outcomes = [(_outcome(hb.mul_T, a, b), _outcome(t_product_by_words, hb, a, b)) for a, b in cases]
    for (got, want), case in zip(outcomes, cases):
        assert got == want, case
    assert {type(got) if isinstance(got, HeckeElement) else got
            for got, _ in outcomes} == {HeckeElement, BallOverflowError}
    translated = sum(all(any(w.omega_index() for w in h.terms) for h in case) for case in cases)
    assert bool(translated) == (len(hb.omega_elems) > 1)


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


def test_dagger_kernel_drops_cancelled_terms(b2_12):
    # dagger(dagger(T_w)) = T_w: every lower term cancels, and the index
    # kernel must drop it, or phi would look up an image it does not need
    hb = b2_12
    J = JRing(hb)
    cancelled = 0
    for w in short(hb, 3):
        h = hb.dagger(HeckeElement("T", {w: LaurentPoly.one()}))
        assert hb._dagger_idx(hb._to_idx(h)) == {hb._idx(w): {0: 1}}
        cancelled += len(h.terms) - 1
        coords = J._cdag_idx(h)
        assert all(coords.values()), w
        assert hb._from_idx("cdag", coords) == cdag_coords(J, h)
    assert cancelled > 0


def test_phi_hom_with_omega(b2_12):
    # J is the direct product of its two-sided cell ideals, so phi is
    # multiplicative exactly when each cell component is; the ball decides
    # the components whose gamma rows are certified
    hb = b2_12
    J = JRing(hb)
    elems, ids = hb.ball.elements, hb.cell_partition().two_sided_id
    cell = [ids[w] for w in elems]

    def part(a, c):
        return JElement({w: v for w, v in a.coeffs.items() if cell[w] == c}, hb.ball)

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


def test_j_mul_is_zero_across_cells(b2_12):
    # gamma_row refuses 35 ordered pairs in the support of phi(c_e) as
    # tainted; a is constant on two-sided cells and J_c J_c' = 0, so j_mul
    # decides the 20 pairs at different a-values as zero and still refuses
    # the 15 at equal a-values
    hb = b2_12
    J = JRing(hb)
    a = {x: hb.a_function(x)[0] for x in J.phi(hb.kl_element(hb.pres.identity())).support()}
    tainted = []
    for x, y in itertools.product(a, repeat=2):
        with contextlib.suppress(UncertifiedError):
            hb.gamma_row(x, y)
            continue
        tainted.append((x, y))
    assert len(tainted) == 35
    cross = [(x, y) for x, y in tainted if a[x] != a[y]]
    assert sorted({(a[x], a[y]) for x, y in cross}) == [(1, 2), (2, 1), (2, 4), (4, 2)]
    assert len(cross) == 20
    for x, y in cross:
        assert J.j_mul(J.basis_element(x), J.basis_element(y)) == JElement({})
    same = [(x, y) for x, y in tainted if a[x] == a[y]]
    assert sorted(a[x] for x, _ in same) == [2] * 13 + [4] * 2
    for x, y in same:
        with pytest.raises(UncertifiedError):
            J.j_mul(J.basis_element(x), J.basis_element(y))


def test_h_to_distinguished_refuses_a_wrong_d_as_an_error_not_a_truncation(b2_12):
    # d not distinguished is a wrong argument: decide must let it through
    # rather than count it as a skipped case; a distinguished d in the
    # budget still gets its row, h_{x,d,z} as the T-basis product gives it
    hb = b2_12
    dist = [d for d, _ in hb.distinguished_involutions()]
    x = next(w for w in hb.ball if w.length == 2 and w.omega_index())
    in_budget = [d for d in dist if x.length + d.length <= hb.radius]
    assert len(in_budget) > 1
    for d in in_budget:
        assert h_to_distinguished(hb, x, d) == h_constants(hb, x, d)
    wrong = [w for w in short(hb, 3) if w not in dist and not w.omega_index()]
    assert wrong
    for d in wrong:
        with pytest.raises(HeckeError) as err:
            h_to_distinguished(hb, x, d)
        assert type(err.value) is HeckeError
        with pytest.raises(HeckeError):
            decide([d], lambda d: h_to_distinguished(hb, x, d))


# ---- the product stream over symmetry orbits ---------------------------------


@pytest.mark.parametrize(
    "factory, radius",
    [(extended_affine_b2, 8), (lambda: extended_affine_pgl(3), 6)],
    ids=["b2-r8", "pgl3-r6"],
)
def test_stream_visits_each_pair_once_and_relabels_exactly(factory, radius, streamed_pairs):
    # rows are computed for the first x of each Omega-conjugacy orbit with
    # 2 l(x) <= radius, and each is visited once; every other pair is
    # resolved by conjugation or as an inverse mirror, and must equal the
    # T-basis route pair by pair
    hb = HeckeBall(factory(), radius)
    pres, wl, n = hb.pres, hb.wp_len, len(hb.wp)
    visits = []
    hb._stream_products(lambda xi, yi, P: visits.append((xi, yi)))

    def conj(om, x):
        return pres.multiply(pres.multiply(om, x), pres.inverse(om))

    first = {min(hb.wp_index[conj(om, x)] for om in hb.omega_elems) for x in hb.wp}
    assert visits == [(x, y) for x in sorted(first) if 2 * wl[x] <= radius
                      for y in range(n) if wl[x] + wl[y] <= radius]
    k = hb._pack_bits()
    rows = {pair: {zi: unpack(H, -radius - 1, k) for zi, H in P.items()}
            for pair, P in streamed_pairs(hb).items()}
    assert sorted(rows) == [(x, y) for x in range(n) for y in range(n)
                            if wl[x] + wl[y] <= radius]
    conjugated = mirrored = 0
    for (xi, yi), P in rows.items():
        prod = h_constants(hb, hb.wp[xi], hb.wp[yi])
        assert {hb.wp_index[z]: dict(p.c) for z, p in prod.items()} == P, (xi, yi)
        mirrored += 2 * wl[xi] > radius
        conjugated += 2 * wl[xi] <= radius and xi not in first
    assert conjugated and mirrored


def augmentation(hb):
    """eps(c_w) = sum_y p_{y,w}(1) for each w in W', from c_w at v = 1."""
    return [int(sum(p.evaluate(1) for p in hb.kl_element(w).terms.values())) for w in hb.wp]


STREAM_BALLS = pytest.mark.parametrize(
    "factory, radius",
    [(infinite_dihedral, 10), (extended_affine_b2, 12),
     (lambda: extended_affine_pgl(3), 10), (lambda: extended_affine_pgl(4), 9)],
    ids=["dihedral-r10", "b2-r12", "pgl3-r10", "pgl4-r9"],
)


@STREAM_BALLS
def test_a_values_from_representative_rows_match_all_pairs(factory, radius, streamed_pairs):
    # _ensure_a_data reads only the computed rows and takes the max of
    # their degree profile over each symmetry orbit; here every pair is
    # visited, each row decoded and its degree taken as max(h), as the
    # a-function reads
    hb = HeckeBall(factory(), radius)
    R, m, wl, k = radius, hb.margin, hb.wp_len, hb._pack_bits()
    decode = functools.cache(lambda H: unpack(H, -R - 1, k))
    profile = [dict() for _ in hb.wp]
    # the width from the augmentation: k = bitlen(M) + 2, M the largest
    # eps(c_x) eps(c_y) over l(x) + l(y) <= R, eps(c_w) the coefficient sum of c_w at v = 1
    eps = augmentation(hb)
    n = len(hb.wp)
    M = max(eps[x] * eps[y] for x in range(n) for y in range(n) if wl[x] + wl[y] <= R)
    assert k == M.bit_length() + 2
    # a fact about h, not about k: with S the largest L1 norm of a generator
    # row (v + v^-1 counts 2), sum_z |h_{x,y,z}|_1 <= (2S)^l(y), and the
    # same for l(x) by the mirror symmetry
    S = max(sum(2 if isinstance(A, dict) else abs(A) for A in row.values())
            for s in range(len(hb.gens)) for row in hb._cs_table(s))
    top = []
    for (xi, yi), P in streamed_pairs(hb).items():
        rho = wl[xi] + wl[yi]
        norm = sum(abs(c) for H in P.values() for c in decode(H).values())
        assert norm <= (2 * S) ** min(wl[xi], wl[yi])
        top.append(max(c for H in P.values() for c in decode(H).values()))
        for zi, H in P.items():
            profile[zi][rho] = max(profile[zi].get(rho, -R - 1), max(decode(H)))
    assert max(top) < 1 << (k - 2)
    hb._ensure_a_data()
    values, certs = [], []
    for zi, prof in enumerate(profile):
        assert {rho: d for rho, d in enumerate(hb._a_profile[zi]) if d > -R - 1} == prof
        by_budget = list(itertools.accumulate((prof.get(rho, -R - 1) for rho in range(R + 1)), max))
        values.append(by_budget[R])
        certs.append(all(b == by_budget[R] for b in by_budget[R - m:])
                     and 0 <= by_budget[R] <= hb.n_pos_roots and wl[zi] <= R - 2 * m)
    assert hb._a_values == values
    assert hb._a_cert == certs
    assert any(certs) and not all(certs)


@pytest.mark.parametrize(
    "factory, radius, rows, top",
    [(infinite_dihedral, 10, 171, 2), (extended_affine_b2, 12, 3239, 6),
     (lambda: extended_affine_pgl(3), 8, 584, 3), (lambda: extended_affine_pgl(4), 6, 698, 2)],
    ids=["dihedral-r10", "b2-r12", "pgl3-r8", "pgl4-r6"],
)
def test_streamed_structure_constants_are_nonnegative(factory, radius, rows, top):
    # Lusztig's positivity for affine Weyl groups: every h_{x,y,z} of
    # c_x c_y = sum_z h_{x,y,z} c_z has nonnegative coefficients
    hb = HeckeBall(factory(), radius)
    k = hb._pack_bits()
    streamed = []
    hb._stream_products(lambda xi, yi, P: streamed.append(P))
    coeffs = [c for P in streamed for H in P.values()
              for c in unpack(H, -radius - 1, k).values()]
    assert len(streamed) == rows
    assert min(coeffs) >= 0
    assert max(coeffs) == top


def checksum_failures(pairs, eps, k):
    """The pairs whose packed row breaks sum_z (H_z mod (B - 1)) eps(c_z)
    = eps(c_x) eps(c_y): B = 2^k is 1 mod B - 1, so H_z mod (B - 1) is
    h_{x,y,z}(1) whenever that is below B - 1, and eps is a ring
    homomorphism at v = 1."""
    m = (1 << k) - 1
    return [(xi, yi) for (xi, yi), P in pairs.items()
            if sum(H % m * eps[zi] for zi, H in P.items()) != eps[xi] * eps[yi]]


@STREAM_BALLS
def test_every_streamed_row_passes_the_augmentation_checksum(factory, radius, streamed_pairs):
    hb = HeckeBall(factory(), radius)
    assert checksum_failures(streamed_pairs(hb), augmentation(hb), hb._pack_bits()) == []


def test_the_checksum_catches_a_width_too_narrow(b2_12, monkeypatch, streamed_pairs):
    # at k = 3, H mod 7 is h(1) mod 7: exactly the pairs with some h(1) >= 7,
    # read at the ball's own width, fail
    hb, eps = b2_12, augmentation(b2_12)
    R, k = hb.radius, hb._pack_bits()
    at_one = functools.cache(lambda H: sum(unpack(H, -R - 1, k).values()))
    pairs = streamed_pairs(hb)
    wide = {pair for pair, P in pairs.items() if any(at_one(H) >= 7 for H in P.values())}
    monkeypatch.setattr(hb, "_pack_bits", lambda: 3)
    narrow = streamed_pairs(hb)
    bad = checksum_failures(narrow, eps, 3)
    assert len(narrow) == len(pairs) == 7581
    assert len(bad) == 421 and set(bad) == wide


def all_products(hb):
    """h_{x,y,.} over W' for every pair in the budget, by the route of
    h_constants: c_x c_y = sum_w p_{w,y} c_x T_w in the T-basis, rewritten
    in the canonical basis; c_x T_w is shared along the parents of w."""
    n, wl, R, nom, rom = len(hb.wp), hb.wp_len, hb.radius, hb._nom, hb._rom
    out = {}
    for x in range(n):
        X = {0: {rom[y * nom]: dict(q) for y, q in hb._p[x].items()}}
        for w in range(1, n):
            if wl[x] + wl[w] > R:
                break
            j, s = hb.parent[w]
            X[w] = hb._t_mul_gen(X[j], s)
        for y in X:
            T = {}
            for w, p in hb._p[y].items():
                for b, q in X[w].items():
                    acc_mul(T.setdefault(b, {}), q, p)
            c = hb._t_to_c_idx({b: q for b, q in T.items() if q})
            out[(x, y)] = {hb._wpi[b]: q for b, q in c.items()}
    return out


@pytest.mark.parametrize(
    "factory, radius",
    [(infinite_dihedral, 8), (infinite_dihedral, 24), (extended_affine_b2, 12),
     (lambda: extended_affine_pgl(3), 10), (lambda: extended_affine_pgl(4), 6)],
    ids=["dihedral-r8", "dihedral-r24", "b2-r12", "pgl3-r10", "pgl4-r6"],
)
def test_the_resolver_gives_every_pair_its_gamma_taint_and_h_row(factory, radius):
    # the gamma table holds one entry per computed row; _rep relabels it for
    # every pair in the budget, by an Omega-conjugation or an inverse mirror
    hb = HeckeBall(factory(), radius)
    hb._ensure_gamma()
    wp, wl = hb.wp, hb.wp_len
    a, cert, dset = hb._a_values, hb._a_cert, set(hb._dist_idx)
    oracle = all_products(hb)
    for x, y in list(oracle)[::97]:
        assert oracle[(x, y)] == {hb.wp_index[z]: dict(p.c)
                                  for z, p in h_constants(hb, wp[x], wp[y]).items()}
    decided = 0
    for (x, y), h in oracle.items():
        key, g = hb._rep(x, y)
        gamma = {z: q[a[z]] for z, q in h.items() if q.get(a[z])}
        assert {g[z]: c for z, c in hb._gamma.get(key, {}).items()} == gamma, (x, y)
        assert (key in hb._gamma_tainted) == (not all(cert[z] for z in h)), (x, y)
        if y in dset:
            assert h_to_distinguished(hb, wp[x], wp[y]) == {wp[z]: LaurentPoly(q) for z, q in h.items()}
        if cert[x] and cert[y] and all(cert[z] for z in h):
            decided += 1
            assert hb.gamma_row(wp[x], wp[y]) == {wp[z]: c for z, c in gamma.items()}
            assert all(hb.gamma(wp[x], wp[y], wp[z]) == gamma.get(z, 0) for z in h)
    assert decided
    # a pair one step over the budget is refused
    R, e = radius, hb.pres.identity()
    over = [(x, y) for x in range(len(wp)) for y in range(len(wp)) if wl[x] + wl[y] == R + 1]
    for x, y in over:
        with pytest.raises(BallOverflowError):
            hb._rep(x, y)
    for x, d in [(x, d) for x, d in over if d in dset][:20]:
        with pytest.raises(BallOverflowError):
            h_to_distinguished(hb, wp[x], wp[d])
    refused = [(x, y) for x, y in over if cert[x] and cert[y]][:20]
    for x, y in refused:
        for lookup in (lambda: hb.gamma(wp[x], wp[y], e), lambda: hb.gamma_row(wp[x], wp[y])):
            with pytest.raises(BallOverflowError):
                lookup()
    assert bool(refused) == (R >= 4 * hb.margin + 1)
    # the a-value profile is constant on every symmetry orbit
    assert all(hb._a_profile[g[z]] == hb._a_profile[z] for g in hb._syms for z in range(len(wp)))


@pytest.mark.parametrize(
    "factory, radius",
    [(infinite_dihedral, 24), (extended_affine_b2, 12), (lambda: extended_affine_pgl(3), 10)],
    ids=["dihedral-r24", "b2-r12", "pgl3-r10"],
)
def test_gamma_first_streams_once_and_agrees_with_a_values_first(factory, radius, monkeypatch):
    # asked for gamma first, a ball fills the a-value columns in the same
    # pass; asked for the a-values first, it runs the plain a-value pass and
    # then the gamma pass
    fused, split = HeckeBall(factory(), radius), HeckeBall(factory(), radius)
    passes, stream = [], fused._stream_products
    monkeypatch.setattr(fused, "_stream_products", lambda visit: passes.append(visit) or stream(visit))
    fused._ensure_gamma()
    assert len(passes) == 1
    split._ensure_a_data()
    plain = split._a_values, split._a_cert, split._a_profile
    split._ensure_gamma()
    assert (fused._a_values, fused._a_cert, fused._a_profile) == plain
    for name in ("_a_values", "_a_cert", "_a_profile", "_dist_idx", "_gamma", "_gamma_tainted"):
        assert getattr(fused, name) == getattr(split, name), name
    assert split._dist_idx and split._gamma and split._gamma_tainted

    def h_row(hb, i, di):
        try:
            return hb._h_dist_idx(i, di)
        except BallOverflowError:
            return None

    dists = [split._rom[d * split._nom] for d in split._dist_idx]
    rows = [h_row(split, i, di) for i in range(len(split.ball)) for di in dists]
    assert rows == [h_row(fused, i, di) for i in range(len(fused.ball)) for di in dists]
    assert any(rows) and None in rows


@pytest.mark.parametrize(
    "factory, radius, distinct",
    [(extended_affine_b2, 16, 573), (lambda: extended_affine_pgl(4), 9, 73)],
    ids=["b2-r16", "pgl4-r9"],
)
def test_kl_table_holds_one_dict_per_distinct_polynomial(factory, radius, distinct):
    hb = HeckeBall(factory(), radius)
    objects = {id(q): q for row in hb._p for q in row.values()}
    values = {tuple(sorted(q.items())) for q in objects.values()}
    assert len(objects) == len(values) == distinct


def test_kl_recursion_refuses_a_width_too_narrow(b2_12, monkeypatch):
    # B2 r12 has KL coefficients up to 6: 4-bit digits hold them and give
    # the same table as the default width R + 2; at 3 bits some value
    # decodes outside [0, 4) and the table is refused
    assert max(c for row in b2_12._p for q in row.values() for c in q.values()) == 6
    monkeypatch.setattr(HeckeBall, "_kl_bits", lambda self: 4)
    assert HeckeBall(extended_affine_b2(), 12)._p == b2_12._p
    monkeypatch.setattr(HeckeBall, "_kl_bits", lambda self: 3)
    with pytest.raises(HeckeError, match="overflows the 3-bit digits"):
        HeckeBall(extended_affine_b2(), 12)


def test_packed_rows_decode_and_give_degree_and_top_digit():
    # a packed h is sum_e c_e B^(e+R+1) with B = 2^k and |c_e| < 2^(k-2)
    hb = HeckeBall(extended_affine_b2(), 8)
    R, k = hb.radius, hb._pack_bits()
    big = (1 << (k - 2)) - 1
    cases = [
        {-R: 1}, {R: 1}, {-R: -1}, {R: -1}, {-R: big}, {R: -big},
        {0: -3, 1: 5, -1: -7},
        {e: big if e % 2 else -big for e in range(-R, R + 1)},
        {e: -big if e % 3 else big for e in range(-R, R + 1)},
        {R: -big, -R: big, 0: 1},
    ]
    for h in cases:
        H = pack(h, -R - 1, k)
        assert unpack(H, -R - 1, k) == h
        deg = max(h)
        assert abs(H).bit_length() // k - R - 1 == deg
        # the digit of v^a rounded as the gamma pass reads it, H cut below
        # the digit of v^(a-1) first: (H + B^p / 2) >> kp with p = a + R + 1
        for a in range(deg, R + 1):
            top = ((H >> k * (a + R)) + (1 << (k - 1))) >> k
            assert top == (H + (1 << (k * (a + R + 1) - 1))) >> k * (a + R + 1)
            assert top == (h[deg] if a == deg else 0)
        # multiplying by v + v^-1 is a shift each way, exact inside -R..R
        if deg < R and min(h) > -R and max(map(abs, h.values())) <= big // 2:
            shifted = {e: c for e, c in ((e, h.get(e - 1, 0) + h.get(e + 1, 0))
                                         for e in range(-R, R + 1)) if c}
            assert unpack((H << k) + (H >> k), -R - 1, k) == shifted
