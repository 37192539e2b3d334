"""Canonical basis tables, structure constants, a-values, cells, caching.

The dihedral family has a closed-form canonical basis (every lower term
carries a single power of the variable), which gives an exact oracle for
the whole table.  The streamed structure constants are cross-checked by
recomputing every row along an independent multiplication route.
"""

import pytest

from heckequot.coxeter import extended_affine_b2, extended_affine_pgl, infinite_dihedral
from heckequot.hecke import (
    BallOverflowError,
    CACHE_SCHEMA,
    HeckeBall,
    HeckeElement,
    UncertifiedError,
    _sccs,
)
from heckequot.laurent import LaurentPoly, unpack
from oracles import barred, c_to_t, h_constants, mu, p_poly


@pytest.fixture(scope="module")
def dih8():
    return HeckeBall(infinite_dihedral(), 8)


@pytest.fixture(scope="module")
def dih10():
    return HeckeBall(infinite_dihedral(), 10)


@pytest.fixture(scope="module")
def b2_12():
    return HeckeBall(extended_affine_b2(), 12)


# ---- canonical basis ------------------------------------------------------


def test_dihedral_closed_form_oracle(dih10):
    # lower coefficients are the single monomials v^(len(y) - len(z))
    for z in dih10.wp:
        expect = {
            y: LaurentPoly.monomial(y.length - z.length)
            for y in dih10.wp
            if y.length < z.length
        }
        expect[z] = LaurentPoly.one()
        assert dih10.kl_element(z).terms == expect


def test_unitriangular_with_negative_lower_degrees(b2_12):
    for z in b2_12.wp:
        if z.length > 5:
            continue
        terms = b2_12.kl_element(z).terms
        assert terms[z] == LaurentPoly.one()
        for y, p in terms.items():
            if y == z:
                continue
            assert y.length < z.length
            assert max(p.c) <= -1


@pytest.mark.parametrize(
    "factory, radius",
    [(extended_affine_b2, 12), (lambda: extended_affine_pgl(3), 10)],
    ids=["b2-r12", "pgl3-r10"],
)
def test_kl_rows_are_the_canonical_basis(factory, radius):
    # the defining properties, checked without the recursion on every row,
    # those filled by relabelling an Omega-conjugate or inverse row included:
    # c_z = sum_y p_{y,z} T_y is fixed by bar, where bar(T_y) is
    # (-1)^l(y) dagger(T_y) and bar sends v to v^-1; p_{z,z} = 1 and every
    # other p_{y,z} lies in v^-1 Z[v^-1]
    hb = HeckeBall(factory(), radius)
    assert len(hb.omega_elems) > 1
    for z in hb.wp:
        c = hb.kl_element(z)
        assert c.terms[z] == LaurentPoly.one()
        assert all(max(p.c) <= -1 for y, p in c.terms.items() if y != z)
        signed = {y: barred(p) * (-1) ** y.length for y, p in c.terms.items()}
        assert hb.dagger(HeckeElement("T", signed)) == c, z


def test_p_poly_lookup(dih8):
    e = dih8.pres.identity()
    s1 = dih8.pres.generator("s1")
    z = s1 * dih8.pres.generator("s2")
    assert p_poly(dih8, e, z) == LaurentPoly.monomial(-2)
    assert p_poly(dih8, z, z) == LaurentPoly.one()
    assert p_poly(dih8, z, e) == LaurentPoly()


def test_mu_values(dih8):
    e = dih8.pres.identity()
    s1 = dih8.pres.generator("s1")
    z = s1 * dih8.pres.generator("s2")
    assert mu(dih8, e, s1) == 1
    assert mu(dih8, s1, z) == 1
    assert mu(dih8, e, z) == 0


@pytest.mark.parametrize(
    "factory, radius",
    [(extended_affine_b2, 10), (lambda: extended_affine_pgl(4), 6)],
    ids=["b2-r10", "pgl4-r6"],
)
def test_generator_tables_match_a_per_entry_oracle(factory, radius):
    # c_z c_s = (v + v^-1) c_z when zs < z, else c_{zs} + sum of mu(y, z) c_y
    # over the y < z with ys < y; the key -1 stands for a c_{zs} outside the
    # ball.  Built from mu and group arithmetic, one entry at a time.
    hb = HeckeBall(factory(), radius)
    pres, wp, index = hb.pres, hb.wp, hb.wp_index
    mus = {z: [(y, m) for y in wp if y.length < z.length and (m := mu(hb, y, z))] for z in wp}
    markers = 0
    for s, gen in enumerate(hb.gens):
        want = []
        for z in wp:
            zs = pres.multiply(z, gen)
            if zs.length < z.length:
                want.append({index[z]: {1: 1, -1: 1}})
                continue
            row = {index.get(zs, -1): 1}
            row.update((index[y], m) for y, m in mus[z] if pres.multiply(y, gen).length < y.length)
            want.append(row)
        markers += sum(-1 in row for row in want)
        assert hb._cs_table(s) == want, s
    assert markers


# ---- multiplication and basis changes --------------------------------------


def test_unit_element(dih8):
    e = dih8.pres.identity()
    for z in dih8.wp:
        if z.length > 4:
            continue
        cz = dih8.kl_element(z)
        assert dih8.mul_T(dih8.kl_element(e), cz) == cz
        assert dih8.mul_T(cz, dih8.kl_element(e)) == cz


def test_t_to_c_inverts_kl_expansion(dih8):
    for z in dih8.wp:
        back = dih8.t_to_c(dih8.kl_element(z))
        assert back.terms == {z: LaurentPoly.one()}
        assert back.basis == "c"


def test_c_to_t_roundtrip(dih8):
    s1 = dih8.pres.generator("s1")
    s2 = dih8.pres.generator("s2")
    a = dih8.kl_element(s1 * s2) + dih8.kl_element(s1).scaled(LaurentPoly({1: 1}))
    assert c_to_t(dih8, dih8.t_to_c(a)) == a


def test_dagger_is_an_involution(dih8):
    z = dih8.pres.generator("s1") * dih8.pres.generator("s2")
    a = dih8.kl_element(z)
    assert dih8.dagger(dih8.dagger(a)) == a


def test_h_constants_match_streamed_rows(dih8, streamed_pairs):
    # two independent routes: per-pair T-basis multiplication vs the
    # streamed c-basis recursion, spread to every pair in the budget
    k = dih8._pack_bits()
    streamed = {pair: {zi: unpack(H, -dih8.radius - 1, k) for zi, H in P.items()}
                for pair, P in streamed_pairs(dih8).items()}
    compared = 0
    for (xi, yi), row in streamed.items():
        assert dih8.wp_len[xi] + dih8.wp_len[yi] <= dih8.radius
        prod = h_constants(dih8, dih8.wp[xi], dih8.wp[yi])
        got = {
            dih8.wp_index[z]: dict(p.c) for z, p in prod.items() if p
        }
        assert got == row, (xi, yi)
        compared += len(row)
    assert compared == 281


def test_h_constants_overflow(dih8):
    deep = [x for x in dih8.wp if x.length == 8]
    with pytest.raises(BallOverflowError):
        h_constants(dih8, deep[0], deep[1])


# ---- a-function and distinguished involutions -------------------------------


def test_dihedral_a_values(dih10):
    e = dih10.pres.identity()
    assert dih10.a_function(e) == (0, True)
    for z in dih10.wp:
        value, certified = dih10.a_function(z)
        if 1 <= z.length <= 4:
            assert (value, certified) == (1, True)
        if z.length > dih10.radius - 2 * dih10.margin:
            assert not certified


def test_dihedral_distinguished(dih10):
    got = [(d.key_str(), nd) for d, nd in dih10.distinguished_involutions()]
    assert got == [("0;0", 1), ("0;1", 1), ("1;1", 1)]


def test_gamma_values(dih8):
    s1 = dih8.pres.generator("s1")
    assert dih8.gamma(s1, s1, s1) == 1
    row = dih8.gamma_row(s1, s1)
    assert {z.key_str(): g for z, g in row.items()} == {"0;1": 1}


def test_gamma_uncertified_raises(dih8):
    deep = [x for x in dih8.wp if x.length == 4][0]
    far = [x for x in dih8.wp if x.length == 8][0]
    with pytest.raises((UncertifiedError, BallOverflowError)):
        dih8.gamma(far, far, deep)


def test_delta_and_nhat(dih10):
    e = dih10.pres.identity()
    s1 = dih10.pres.generator("s1")
    # the leading term of p_{1,z} is n_z v^-Delta(z)
    for z, delta, n in ((e, 0, 1), (s1, 1, 1)):
        p = p_poly(dih10, e, z)
        assert (-max(p.c), p.c[max(p.c)]) == (delta, n)
    assert dih10.nhat(e) == 1
    assert dih10.nhat(s1) == 1


# ---- cells ------------------------------------------------------------------


def test_dihedral_cells(dih10):
    cp = dih10.cell_partition()
    assert [(len(c), c.a_value, c.fully_certified) for c in cp.two_sided] == [
        (1, 0, True),
        (20, 1, False),
    ]
    assert sorted(len(c) for c in cp.left) == [1, 10, 10]
    assert sorted(len(c) for c in cp.right) == [1, 10, 10]
    assert cp.lr_order_pairs == {(1, 0), (1, 1)}
    e = dih10.pres.identity()
    assert cp.two_sided_id[e] == 0
    assert len(cp.certified_cells()) == 2


def test_b2_cells_frozen(b2_12):
    cp = b2_12.cell_partition()
    stats = [
        (len(c), len(c.certified_elements), c.a_value) for c in cp.two_sided
    ]
    certified = [s for s in stats if s[1] > 0]
    assert certified == [(2, 2, 0), (98, 50, 1), (96, 38, 2), (200, 12, 4)]
    assert sum(len(c) for c in cp.two_sided) == len(b2_12.ball) == 418
    assert len(b2_12.wp) == 209
    # lowest cell is exactly the length-zero subgroup
    omega = {o.key_str() for o in b2_12.pres.omega_elements()}
    assert {x.key_str() for x in cp.two_sided[0].elements} == omega


def test_sccs_lists_the_components_in_topological_order():
    adj = [{1}, {2}, {0, 3}, {4}, {3}, set(), {5, 0}]
    comps = _sccs(adj)
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4], [5], [6]]
    position = {v: k for k, c in enumerate(comps) for v in c}
    assert all(position[v] <= position[w] for v, out in enumerate(adj) for w in out)


def _components(edges):
    """The strongly connected components of a graph on range(n), as
    frozensets, and reach[i], the nodes reached from i by one edge or more."""
    reach = []
    for out in edges:
        seen, todo = set(out), list(out)
        while todo:
            for j in edges[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    comps = {frozenset({i} | {j for j in r if i in reach[j]}) for i, r in enumerate(reach)}
    return comps, reach


@pytest.mark.parametrize(
    "factory, radius",
    [(infinite_dihedral, 10), (extended_affine_b2, 12), (lambda: extended_affine_pgl(3), 10),
     (lambda: extended_affine_pgl(4), 6)],
    ids=["dihedral-r10", "b2-r12", "pgl3-r10", "pgl4-r6"],
)
def test_right_cells_by_inversion_match_the_right_preorder(factory, radius):
    # the cells read the right preorder off the left one by inversion; here
    # both are built from the generator tables: c_s c_y = iota(c_{y^-1} c_s),
    # and c_y c_s = c_{y'} c_{omega s omega^-1} T_omega for y = y' omega,
    # with Omega translations, from group arithmetic, linking both ways
    hb = HeckeBall(factory(), radius)
    pres, elems, index, nom, rom = hb.pres, hb.ball.elements, hb.ball.index, hb._nom, hb._rom
    tbls = [hb._cs_table(s) for s in range(len(hb.gens))]
    n, inv = len(elems), [index[e.inverse()] for e in elems]
    left, right = [set() for _ in elems], [set() for _ in elems]
    for i, y in enumerate(elems):
        yi, om = hb._wpi[i], hb._omi[i]
        for tbl in tbls:
            left[i].update(rom[hb.wp_inv[wi] * nom + om] for wi in tbl[hb.wp_inv[yi]] if wi >= 0)
        for s in range(len(hb.gens)):
            s2 = pres.omega_conj_generator(hb.omega_elems[om], s)
            right[i].update(rom[wi * nom + om] for wi in tbls[s2][yi] if wi >= 0)
        for o in hb.omega_elems[1:]:
            for edges, j in ((left, index[pres.multiply(o, y)]), (right, index[pres.multiply(y, o)])):
                edges[i].add(j)
                edges[j].add(i)
    assert right == [{inv[j] for j in left[inv[i]]} for i in range(n)]

    cp = hb.cell_partition()
    assert _components(left)[0] == {frozenset(map(index.get, c)) for c in cp.left}
    assert _components(right)[0] == {frozenset(map(index.get, c)) for c in cp.right}
    comps, reach = _components([a | b for a, b in zip(left, right)])
    assert comps == {frozenset(map(index.get, c.elements)) for c in cp.two_sided}
    cell = [cp.two_sided_id[e] for e in elems]
    assert {(cell[j], cell[i]) for i in range(n) for j in reach[i]} == cp.lr_order_pairs


def test_b2_distinguished_count(b2_12):
    invs = b2_12.distinguished_involutions()
    assert len(invs) == 10
    for d, nd in invs:
        assert d * d == b2_12.pres.identity()
        assert nd in (-1, 1)


# ---- structural properties ---------------------------------------------------


def test_property_suite_dihedral(dih8):
    checks = {c.name: c for c in dih8.check_properties()}
    assert set(checks) == {f"P{i}" for i in range(1, 9)}
    for c in checks.values():
        assert c.passed, (c.name, c.counterexamples)
    assert {n: c.checked for n, c in checks.items()} == {
        "P1": 5, "P2": 5, "P3": 3, "P4": 2, "P5": 5, "P6": 3, "P7": 9, "P8": 9,
    }


def test_property_suite_b2(b2_12):
    for c in b2_12.check_properties():
        assert c.passed, (c.name, c.counterexamples)
        assert c.checked > 0


# ---- cache serialization ------------------------------------------------------


def test_cache_header(dih8):
    assert (
        dih8.cache_header()
        == f"# {CACHE_SCHEMA} family=InfiniteDihedral radius=8 elements=17"
    )


def test_cache_line_counts(dih8):
    # one P row per orbit of w -> w^-1: 105 of the 145 nonzero p_{y,z}
    assert len(dih8.element_lines()) == 17
    assert len(dih8.p_lines()) == 105
    lines = dih8.cache_lines()
    assert lines[0] == dih8.cache_header()
    assert len(lines) == 1 + 17 + 105


@pytest.mark.parametrize(
    "factory, radius",
    [(infinite_dihedral, 8), (extended_affine_b2, 8), (lambda: extended_affine_pgl(3), 6)],
    ids=["dihedral-r8", "b2-r8", "pgl3-r6"],
)
def test_cache_rows_expand_through_the_symmetries_to_the_whole_table(factory, radius):
    # the dump holds one row per _syms orbit; p_{g(y),g(z)} = p_{y,z} for g in
    # _syms gives back every row of the table, each entry with one text
    hb = HeckeBall(factory(), radius)
    dumped = [line.split(" ", 3) for line in hb.p_lines()]
    assert {tag for tag, *_ in dumped} == {"P"}
    rows = {int(z) for _, _, z, _ in dumped}
    expanded: dict[tuple[int, int], str] = {}
    for _, y, z, text in dumped:
        for g in hb._syms:
            assert expanded.setdefault((g[int(y)], g[int(z)]), text) == text
    table = {(yi, zi): LaurentPoly(q).to_str() for zi, row in enumerate(hb._p) for yi, q in row.items()}
    assert expanded == table
    assert all(g[zi] >= zi for zi in rows for g in hb._syms)
    assert len(rows) < len(hb.wp)


def test_cache_lines_deterministic(dih8):
    fresh = HeckeBall(infinite_dihedral(), 8)
    assert fresh.cache_lines() == dih8.cache_lines()
