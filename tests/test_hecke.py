"""Canonical basis tables, structure constants, a-values, cells, caching.

The dihedral family has a closed-form canonical basis (every lower term
carries a single power of the variable), which gives an exact oracle for
the whole table.  The streamed structure constants are cross-checked by
recomputing every row along an independent multiplication route.
"""

from collections import Counter

import pytest

from heckequot.coxeter import extended_affine_b2, extended_affine_pgl, infinite_dihedral
from heckequot.hecke import (
    BallOverflowError,
    CACHE_SCHEMA,
    HeckeBall,
    UncertifiedError,
    _sccs,
)
from heckequot.laurent import LaurentPoly, unpack
from oracles import (
    barred,
    c_to_t,
    cache_lines,
    dagger_by_words,
    h_constants,
    h_scaled,
    h_sum,
    hecke_element,
    monomial,
    mu,
    named,
    p_poly,
    p_row,
)


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
            y: monomial(y.length - z.length)
            for y in dih10.wp
            if y.length < z.length
        }
        expect[z] = LaurentPoly.one()
        assert named(dih10.kl_element(z)) == expect


def test_unitriangular_with_negative_lower_degrees(b2_12):
    for z in b2_12.wp:
        if z.length > 5:
            continue
        terms = named(b2_12.kl_element(z))
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
    # other p_{y,z} lies in v^-1 Z[v^-1].  The program's dagger reads the KL
    # table, so the oracle's, along reduced words, stands in for it
    hb = HeckeBall(factory(), radius)
    assert len(hb.omega_elems) > 1
    prefixes = {}
    bars = {y: dagger_by_words(hb, hecke_element(hb, "T", {y: LaurentPoly.const((-1) ** y.length)}),
                               prefixes) for y in hb.wp}
    for z in hb.wp:
        c = hb.kl_element(z)
        terms = named(c)
        assert terms[z] == LaurentPoly.one()
        assert all(max(p.c) <= -1 for y, p in terms.items() if y != z)
        assert h_sum(*(h_scaled(bars[y], barred(p)) for y, p in terms.items())) == c, z


def test_p_poly_lookup(dih8):
    e = dih8.pres.identity()
    s1 = dih8.pres.generator("s1")
    z = s1 * dih8.pres.generator("s2")
    assert p_poly(dih8, e, z) == monomial(-2)
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
    # c_z c_s = (v + v^-1) c_z when zs < z, a None row, else c_{zs} + sum of
    # mu(y, z) c_y over the y < z with ys < y, c_{zs} first; the target -1
    # stands for a c_{zs} outside the ball.  Built from mu and group
    # arithmetic, one entry at a time; the order of the mu terms is free.
    hb = HeckeBall(factory(), radius)
    pres, wp, index = hb.pres, hb.wp, hb.wp_index
    mus = {z: [(y, m) for y in wp if y.length < z.length and (m := mu(hb, y, z))] for z in wp}
    markers = 0
    for s, gen in enumerate(hb.gens):
        want = []
        for z in wp:
            zs = pres.multiply(z, gen)
            if zs.length < z.length:
                want.append(None)
                continue
            top = (index.get(zs, -1), 1)
            lower = [(index[y], m) for y, m in mus[z] if pres.multiply(y, gen).length < y.length]
            want.append((top, sorted([top, *lower])))
        markers += sum(row is not None and row[0][0] == -1 for row in want)
        assert [None if row is None else (row[0], sorted(row))
                for row in hb._cs_table(s)] == want, s
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
        assert named(back) == {z: LaurentPoly.one()}
        assert back.basis == "c"


def test_c_to_t_roundtrip(dih8):
    s1 = dih8.pres.generator("s1")
    s2 = dih8.pres.generator("s2")
    a = h_sum(dih8.kl_element(s1 * s2), h_scaled(dih8.kl_element(s1), LaurentPoly({1: 1})))
    assert c_to_t(dih8, dih8.t_to_c(a)) == a


def test_dagger_is_an_involution(dih8):
    z = dih8.pres.generator("s1") * dih8.pres.generator("s2")
    a = dih8.kl_element(z)
    assert dih8.dagger(dih8.dagger(a)) == a


@pytest.mark.parametrize(
    "factory, radius, top",
    [(infinite_dihedral, 10, 10), (extended_affine_b2, 10, 7), (lambda: extended_affine_pgl(3), 8, 6)],
    ids=["dihedral-r10", "b2-r10", "pgl3-r8"],
)
def test_dagger_matches_the_word_oracle(factory, radius, top):
    # dagger(T_w) as the sign-twisted bar of one inverse-KL column, against
    # -T_s + (v - v^-1) multiplied out along a reduced word, Omega included
    hb = HeckeBall(factory(), radius)
    pool = [w for w in hb.ball if w.length <= top]
    prefixes = {}
    for w in pool:
        tw = hecke_element(hb, "T", {w: LaurentPoly.one()})
        assert hb.dagger(tw) == dagger_by_words(hb, tw, prefixes), w
    assert any(w.omega_index() for w in pool) == (factory is not infinite_dihedral)


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

    def support(tbl, zi):  # of c_z c_s in the ball; a None row is (v + v^-1) c_z
        return [zi] if tbl[zi] is None else [wi for wi, _ in tbl[zi] if wi >= 0]

    left, right = [set() for _ in elems], [set() for _ in elems]
    for i, y in enumerate(elems):
        yi, om = hb._wpi[i], hb._omi[i]
        for tbl in tbls:
            left[i].update(rom[hb.wp_inv[wi] * nom + om] for wi in support(tbl, hb.wp_inv[yi]))
        for s in range(len(hb.gens)):
            s2 = pres.omega_conj_generator(hb.omega_elems[om], s)
            right[i].update(rom[wi * nom + om] for wi in support(tbls[s2], yi))
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
        assert not c.counterexamples, c.name
    assert {n: c.checked for n, c in checks.items()} == {
        "P1": 5, "P2": 5, "P3": 3, "P4": 2, "P5": 5, "P6": 3, "P7": 9, "P8": 9,
    }


def test_property_suite_b2(b2_12):
    checks = {c.name: c for c in b2_12.check_properties()}
    for c in checks.values():
        assert not c.counterexamples, c.name
        assert c.claim
    assert {n: c.checked for n, c in checks.items()} == {
        "P1": 51, "P2": 49, "P3": 21, "P4": 10, "P5": 49, "P6": 10, "P7": 307, "P8": 307,
    }


# One fault per property, planted in a built dihedral r8 ball.  There W'
# holds e = wp[0], s0 = wp[1], s1 = wp[2] and wp[3], wp[4] of length 2,
# inverse to each other; e, s0 and s1 are the distinguished involutions,
# each with n_d = 1, and the two-sided cells are {e} (a = 0) and the rest
# (a = 1).  Each fault returns the witnesses it must produce.
def _a_above_delta(hb):
    hb._a_values[1] += 1  # a(s0) = 2 > Delta(s0) = 1
    return [hb.wp[1]]


def _gamma_against_d_off_the_inverse(hb):
    hb._gamma[(3, 2)][0] = 1  # gamma_{x,s1,e} with s1 != x^-1, and its mirror
    wp = hb.wp
    return [(wp[2], wp[4], wp[0]), (wp[3], wp[2], wp[0])]


def _e_not_distinguished(hb):
    del hb._dist[0]  # gamma_{e,e,.} meets no d
    return [(hb.wp[0], 0)]


def _a_swapped_between_cells(hb):
    cells = hb._cells.two_sided
    cells[0].a_value, cells[1].a_value = cells[1].a_value, cells[0].a_value
    return [(1, 0, 0, 1)]  # cell 1 lies below cell 0, now with a lower a


def _sign_flipped(hb):
    hb._dist[0] = -1  # n_e = -1, but gamma_{e,e,e} = 1
    return [(hb.wp[0], hb.wp[0], 1, -1)]


def _non_involution_distinguished(hb):
    hb._dist[3] = 1
    return [hb.wp[3]]


def _gamma_digit_bumped(hb):
    hb._gamma[(3, 4)][1] += 1  # gamma_{x,x^-1,s0} = 2, its rotations read 1
    wp = hb.wp
    return [(wp[1], wp[3], wp[4], 1, 2), (wp[3], wp[4], wp[1], 2, 1)]


def _left_cell_remapped(hb):
    hb._cells.left_id[hb.wp[3]] = -1  # wp[3] alone in a new left cell
    wp = hb.wp
    return [(wp[2], wp[4], wp[4]), (wp[3], wp[2], wp[3]), (wp[4], wp[3], wp[2])]


PLANTED_FAULTS = {
    "P1": _a_above_delta, "P2": _gamma_against_d_off_the_inverse, "P3": _e_not_distinguished,
    "P4": _a_swapped_between_cells, "P5": _sign_flipped, "P6": _non_involution_distinguished,
    "P7": _gamma_digit_bumped, "P8": _left_cell_remapped,
}


@pytest.mark.parametrize("name", sorted(PLANTED_FAULTS))
def test_each_property_reports_a_planted_fault(name):
    hb = HeckeBall(infinite_dihedral(), 8)
    assert not {c.name: c for c in hb.check_properties()}[name].counterexamples
    witnesses = PLANTED_FAULTS[name](hb)  # the tables are built, so the checks read the fault
    assert {c.name: c for c in hb.check_properties()}[name].counterexamples == witnesses


@pytest.mark.parametrize(
    "factory, radius, without_d",
    [(extended_affine_b2, 12, 2), (lambda: extended_affine_pgl(3), 10, 3),
     (lambda: extended_affine_pgl(4), 9, 4), (infinite_dihedral, 16, 0)],
    ids=["b2-r12", "pgl3-r10", "pgl4-r9", "dihedral-r16"],
)
def test_no_left_cell_holds_two_distinguished_involutions(factory, radius, without_d):
    # Lusztig's P13: each left cell holds exactly one distinguished
    # involution.  A computed left cell lies inside a true one, so "at most
    # one" holds on the ball.  Some left cells with a certified element hold
    # none, and nhat refuses their elements: each holds an involution z with
    # a(z) = Delta(z) whose a-value is not certified
    hb = HeckeBall(factory(), radius)
    cells = hb.cell_partition()
    lid = cells.left_id
    per_cell = Counter(lid[hb.wp[di]] for di in hb._dist)
    assert set(per_cell.values()) == {1}
    certified = {lid[x] for x in hb.ball if hb.a_function(x)[1]}
    assert len(certified - set(per_cell)) == without_d
    p, a = hb._p, hb._a_values
    for c in certified - set(per_cell):
        uncertified_d = [zi for zi in map(hb.wp_index.get, cells.left[c]) if zi is not None
                         and hb.wp_inv[zi] == zi and 0 in p[zi] and -max(p[zi][0]) == a[zi]]
        assert uncertified_d and not any(hb._a_cert[zi] for zi in uncertified_d)


# ---- cache serialization ------------------------------------------------------


def test_cache_header(dih8):
    assert (
        "".join(dih8.cache_chunks()).splitlines()[0]
        == f"# {CACHE_SCHEMA} family=InfiniteDihedral radius=8 elements=17"
    )


def test_cache_line_counts(dih8):
    # one P row per orbit of w -> w^-1: 105 of the 145 nonzero p_{y,z}
    lines = "".join(dih8.cache_chunks()).splitlines()
    tags = [line.split(" ", 1)[0] for line in lines]
    assert tags.count("E") == 17
    assert tags.count("P") == 105
    assert tags == ["#"] + ["E"] * 17 + ["P"] * 105
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
    # the P lines are all that follow the header and the |W'| E lines
    lines = "".join(hb.cache_chunks()).splitlines()
    dumped = [line.split(" ", 3) for line in lines[1 + len(hb.wp):]]
    assert {tag for tag, *_ in dumped} == {"P"}
    rows = {int(z) for _, _, z, _ in dumped}
    expanded: dict[tuple[int, int], str] = {}
    for _, y, z, text in dumped:
        for g in hb._syms:
            assert expanded.setdefault((g[int(y)], g[int(z)]), text) == text
    table = {(yi, zi): LaurentPoly(q).to_str() for zi in range(len(hb.wp)) for yi, q in p_row(hb, zi).items()}
    assert expanded == table
    assert all(g[zi] >= zi for zi in rows for g in hb._syms)
    assert len(rows) < len(hb.wp)


def test_cache_lines_deterministic(dih8):
    fresh = HeckeBall(infinite_dihedral(), 8)
    assert list(fresh.cache_chunks()) == list(dih8.cache_chunks())


@pytest.mark.parametrize(
    "factory, radius",
    [(infinite_dihedral, 8), (infinite_dihedral, 24), (extended_affine_b2, 12),
     (extended_affine_b2, 16), (lambda: extended_affine_pgl(3), 8),
     (lambda: extended_affine_pgl(4), 9)],
    ids=["dihedral-r8", "dihedral-r24", "b2-r12", "b2-r16", "pgl3-r8", "pgl4-r9"],
)
def test_cache_chunks_are_the_reference_text_one_orbit_row_each(factory, radius):
    # byte for byte the line-at-a-time dump with words from the group's own
    # multiplication; after the header and the E lines, each chunk is the
    # whole row of one orbit's least z (PGL(4) has |Omega| > 1, so rows shared
    # along an orbit are dumped once)
    hb = HeckeBall(factory(), radius)
    chunks = list(hb.cache_chunks())
    assert "".join(chunks) == "".join(line + "\n" for line in cache_lines(hb))
    assert all(chunk.endswith("\n") for chunk in chunks)
    rows = [chunk.splitlines() for chunk in chunks if chunk.startswith("P ")]
    heads = [zi for zi, g in enumerate(hb._pg) if g is hb._syms[0]]
    assert [{line.split(" ")[2] for line in row} for row in rows] == [{str(zi)} for zi in heads]
    assert [len(row) for row in rows] == [len(hb._p[zi]) for zi in heads]
    assert sum(map(len, rows)) + 1 + len(hb.wp) == sum(chunk.count("\n") for chunk in chunks)
