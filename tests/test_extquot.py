"""Fixed loci and extended quotients of finite torus actions.

Component counts from the analytic route are cross-checked against brute
force enumeration of torsion points, the integer orbits and stabilizers
on the components against the Fraction route through points, the Smith
normal form against its defining identities under hypothesis, the
fraction-free eliminator against Gauss-Jordan elimination over Fractions,
and each action's centralizers, classes and SL(n) restriction against its
matrices and the partial-sum route.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckequot.extquot import (
    LINE,
    LINE_INV,
    POINT,
    ExtQuotError,
    TorusAction,
    _component_orbits,
    _sym_parts,
    census,
    clear_denominators,
    cycle_type,
    extended_quotient,
    fixed_locus,
    full_torus_descriptor,
    sl_dual_torus,
    smith_normal_form,
    row_reduce,
    so5_weyl_on_torus,
    sym_product,
    symmetric_on_torus,
    torsion_orbit_census,
    torus_mod,
)
from heckequot.coxeter import mat_mul
from oracles import (
    brute_force_component_count,
    fraction_component_orbits,
    fraction_row_reduce,
    inversion_on_gm,
    sl_restriction,
    trivial_on_torus,
)

# ---- integer linear algebra -------------------------------------------------

int_mats = st.integers(min_value=1, max_value=3).flatmap(
    lambda r: st.integers(min_value=1, max_value=3).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: tuple(tuple(x) for x in rows))
    )
)


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def test_snf_frozen_example():
    u, d, v, v_inv = smith_normal_form(((2, 4), (6, 8)))
    assert [list(r) for r in d] == [[2, 0], [0, 4]]


@given(int_mats)
def test_snf_defining_identities(a):
    u, d, v, v_inv = smith_normal_form(a)
    u, d, v, v_inv = (tuple(tuple(r) for r in m) for m in (u, d, v, v_inv))
    assert matmul(matmul(u, a), v) == d
    n = len(v)
    assert matmul(v, v_inv) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert det(u) in (-1, 1)
    assert det(v) in (-1, 1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)


# ---- rational linear algebra ------------------------------------------------

rationals = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(Fraction, st.integers(min_value=-4, max_value=4),
              st.integers(min_value=1, max_value=6)),
)


@st.composite
def rational_mats(draw):
    """Rows of ints and Fractions with mixed denominators, some of them
    rational combinations of others or zero, and a column cut for the
    pivot search (None for all columns)."""
    width = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(rationals, min_size=width, max_size=width), max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if rows and draw(st.booleans()):
            x, y = (draw(st.sampled_from(rows)) for _ in range(2))
            a, b = draw(rationals), draw(rationals)
            new = [a * p + b * q for p, q in zip(x, y)]
        else:
            new = [0] * width
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), new)
    return rows, draw(st.none() | st.integers(min_value=0, max_value=width))


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 5]) == [3, -4, 30]
    assert clear_denominators([Fraction(4, 2), 0, -1]) == [2, 0, -1]
    assert clear_denominators([]) == []


def test_row_reduce_frozen_example():
    # pivot rows keep their scale; a combined row is divided by its content
    assert row_reduce([[2, 4, 6], [1, 2, 4]]) == ([[1, 2, 0], [0, 0, 1]], [0, 2])
    assert row_reduce([[2, 4, 6], [1, 2, 4]], 2) == ([[2, 4, 6], [0, 0, 1]], [0])
    assert row_reduce([]) == ([], [])
    assert row_reduce([], 3) == ([], [])


@given(rational_mats())
def test_row_reduce_matches_the_fraction_elimination(case):
    rows, ncols = case
    work, pivots = row_reduce(rows, ncols)
    want, want_pivots = fraction_row_reduce(rows, ncols)
    assert pivots == want_pivots
    assert all(type(x) is int for row in work for x in row)
    assert len(work) == len(want)
    for got, ref in zip(work, want):
        j = next((j for j, x in enumerate(ref) if x), None)
        if j is None:
            assert not any(got)
        else:
            scale = Fraction(got[j]) / ref[j]
            assert scale and got == [scale * x for x in ref]


def test_row_reduce_builds_no_fraction(monkeypatch):
    rows = [[Fraction(1, 2), Fraction(2, 3), 1], [Fraction(3, 4), Fraction(1, 5), Fraction(-5, 6)],
            [Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)]]
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert built  # the counter sees constructions
    built.clear()
    assert row_reduce(rows)[1] == [0, 1, 2]
    assert built == []


def test_cycle_type():
    assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)


# ---- descriptors ------------------------------------------------------------


def test_descriptor_dims_and_strings():
    assert (POINT.dim, str(POINT)) == (0, "point")
    assert (LINE.dim, str(LINE)) == (1, "line")
    assert (LINE_INV.dim, str(LINE_INV)) == (1, "line/inv")
    sp = sym_product((1, 2))
    assert (sp.dim, str(sp)) == (3, "sym(1,2)")
    tm = torus_mod(2, "W(B2)")
    assert (tm.dim, str(tm)) == (2, "torus(2)/W(B2)")
    # censuses sort by (dim, text)
    assert sorted([sp, tm, LINE_INV, LINE, POINT]) == [POINT, LINE, LINE_INV, tm, sp]


def test_sym_parts():
    assert _sym_parts((1, 1, 1)) == (3,)
    assert _sym_parts((2, 1)) == (1, 1)
    assert _sym_parts((3,)) == (1,)


# ---- group structure --------------------------------------------------------


def test_torus_action_group_laws():
    # products are read off the matrices themselves
    so5 = so5_weyl_on_torus()
    m = so5.matrices
    e = so5.identity_index()
    assert e == 0
    n = len(so5)
    assert n == 8

    def mult(i, j):
        return m.index(mat_mul(m[i], m[j]))  # raises unless closed

    for i in range(n):
        assert mult(e, i) == i == mult(i, e)
        assert any(mult(i, j) == e for j in range(n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert mult(mult(i, j), k) == mult(i, mult(j, k))


def test_perms_must_list_all_of_the_symmetric_group():
    s3 = symmetric_on_torus(3)
    with pytest.raises(ExtQuotError):
        TorusAction(rank=3, matrices=s3.matrices[:3], names=s3.names[:3],
                    group_label="part of S3", perms=s3.perms[:3])


def test_so5_conjugacy_classes():
    so5 = so5_weyl_on_torus()
    classes = so5.conjugacy_classes()
    assert len(classes) == 5
    members = sorted(i for cl in classes for i in cl.members)
    assert members == list(range(8))
    assert [cl.name for cl in classes][0] == "gamma1"


def test_a_matrix_action_not_closed_under_products_is_refused():
    # the quarter turn squares to -I, which is not listed
    with pytest.raises(ExtQuotError, match="not closed under products"):
        TorusAction(rank=2, matrices=[[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
                    names=["1", "r"], group_label="not a group")


def test_perms_and_matrices_must_list_groups_of_one_order():
    s3 = symmetric_on_torus(3)
    with pytest.raises(ExtQuotError, match="different orders"):
        TorusAction(rank=3, matrices=s3.matrices[:3], names=s3.names[:3],
                    group_label="S3", perms=s3.perms)


def test_names_and_matrices_must_list_groups_of_one_order():
    # a short names list would only fail later, naming the classes
    with pytest.raises(ExtQuotError, match="names and matrices"):
        TorusAction(rank=1, matrices=[[[1]], [[-1]]], names=["1"], group_label="x")


GROUP_ACTIONS = {
    "so5": so5_weyl_on_torus,
    **{f"s{n}": lambda n=n: symmetric_on_torus(n) for n in range(1, 7)},
    **{f"pgl{n}": lambda n=n: sl_dual_torus(n) for n in range(2, 7)},
    "inv": inversion_on_gm,
    **{f"trivial{r}": lambda r=r: trivial_on_torus(r) for r in range(1, 4)},
}
# the conjugation check is cubic in the order: S4 is the largest group it runs on
SMALL_GROUPS = [k for k in GROUP_ACTIONS if k not in ("s5", "s6", "pgl5", "pgl6")]


@pytest.mark.parametrize("key", GROUP_ACTIONS)
def test_centralizers_are_the_matrix_commutants(key):
    # a perms action tests commutation on its tuples, a matrix action on
    # its Cayley table; either must agree with the matrices
    action = GROUP_ACTIONS[key]()
    m = action.matrices
    for cls in action.conjugacy_classes():
        i = cls.rep
        assert action.centralizer(i) == [
            g for g, x in enumerate(m) if mat_mul(x, m[i]) == mat_mul(m[i], x)]


@pytest.mark.parametrize("key", SMALL_GROUPS)
def test_classes_are_the_matrix_conjugacy_classes(key):
    action = GROUP_ACTIONS[key]()
    m = action.matrices
    ident = m[action.identity_index()]
    inv = [next(h for h, y in enumerate(m) if mat_mul(x, y) == ident) for x in m]
    by_matrices = {tuple(sorted({m.index(mat_mul(mat_mul(m[g], m[i]), m[inv[g]]))
                                 for g in range(len(m))}))
                   for i in range(len(m))}
    assert sorted(c.members for c in action.conjugacy_classes()) == sorted(by_matrices)


@pytest.mark.parametrize("n", range(2, 7))
def test_sl_restriction_matches_the_partial_sum_route(n):
    mats, embed = sl_restriction(n)
    action = sl_dual_torus(n)
    assert action.matrices == [tuple(map(tuple, x)) for x in mats]
    assert action.embed == embed


# ---- extended quotients -----------------------------------------------------


def test_sl2_census():
    comps = extended_quotient(inversion_on_gm())
    assert census(comps) == [(0, "point", 2), (1, "line/inv", 1)]
    assert [(c.class_tag, str(c.descriptor)) for c in comps] == [
        ("1", "line/inv"),
        ("inv", "point"),
        ("inv", "point"),
    ]


def test_so5_census():
    comps = extended_quotient(so5_weyl_on_torus())
    assert census(comps) == [
        (0, "point", 5),
        (1, "line/inv", 3),
        (2, "torus(2)/W(B2)", 1),
    ]
    tags = [(c.class_tag, str(c.descriptor)) for c in comps]
    assert tags == [
        ("gamma1", "torus(2)/W(B2)"),
        ("gamma2", "line/inv"),
        ("gamma3", "line/inv"),
        ("gamma3", "line/inv"),
        ("gamma5", "point"),
        ("gamma5", "point"),
        ("gamma6", "point"),
        ("gamma6", "point"),
        ("gamma6", "point"),
    ]


def test_sl_dual_censuses():
    assert census(extended_quotient(sl_dual_torus(2))) == [
        (0, "point", 2),
        (1, "line/inv", 1),
    ]
    assert census(extended_quotient(sl_dual_torus(3))) == [
        (0, "point", 3),
        (1, "line", 1),
        (2, "torus(2)/S3", 1),
    ]


def test_symmetric_censuses_match_partition_counts():
    comps3 = extended_quotient(symmetric_on_torus(3))
    assert [(c.cycle, str(c.descriptor)) for c in comps3] == [
        ((1, 1, 1), "sym(3)"),
        ((2, 1), "sym(1,1)"),
        ((3,), "sym(1)"),
    ]
    comps4 = extended_quotient(symmetric_on_torus(4))
    assert census(comps4) == [
        (1, "sym(1)", 1),
        (2, "sym(1,1)", 1),
        (2, "sym(2)", 1),
        (3, "sym(1,2)", 1),
        (4, "sym(4)", 1),
    ]


@pytest.mark.parametrize("factory, n", [
    (symmetric_on_torus, 0), (symmetric_on_torus, 7), (sl_dual_torus, 1), (sl_dual_torus, 7),
])
def test_coordinate_permutation_actions_refuse_a_rank_outside_their_range(factory, n):
    with pytest.raises(ExtQuotError, match="kept small"):
        factory(n)


def test_trivial_action_single_component():
    assert census(extended_quotient(trivial_on_torus(2))) == [(2, "torus(2)/1", 1)]


def test_full_torus_descriptor():
    assert str(full_torus_descriptor(so5_weyl_on_torus())) == "torus(2)/W(B2)"


# ---- brute force cross-checks -------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        inversion_on_gm,
        so5_weyl_on_torus,
        lambda: sl_dual_torus(2),
        lambda: sl_dual_torus(3),
        lambda: symmetric_on_torus(3),
    ],
)
def test_component_counts_agree_with_enumeration(factory):
    action = factory()
    for gamma in range(len(action)):
        res = brute_force_component_count(action, gamma)
        assert res["agrees"], (gamma, res)


def test_fixed_locus_of_torsion_class():
    so5 = so5_weyl_on_torus()
    gamma6 = so5.names.index("gamma6")
    fl = fixed_locus(so5, gamma6)
    assert fl.component_count() == 4


def test_torsion_orbits_frozen():
    so5 = so5_weyl_on_torus()
    gamma6 = so5.names.index("gamma6")
    orbits = torsion_orbit_census(so5, gamma6)
    h = Fraction(1, 2)
    z = Fraction(0)
    assert [o["size"] for o in orbits] == [1, 2, 1]
    assert orbits[0]["points"] == [(z, z)]
    assert orbits[1]["points"] == [(z, h), (h, z)]
    assert orbits[2]["points"] == [(h, h)]


# ---- centralizer orbits on components ------------------------------------------

ORBIT_ACTIONS = [so5_weyl_on_torus, *(lambda n=n: sl_dual_torus(n) for n in range(2, 7))]
ORBIT_IDS = ["so5", *(f"pgl{n}" for n in range(2, 7))]


@pytest.mark.parametrize("factory", ORBIT_ACTIONS, ids=ORBIT_IDS)
def test_component_orbits_match_the_fraction_route(factory):
    # on every class of the sl2 (= PGL(2)), so5 and PGL(3)-PGL(6) actions:
    # the same orbits and stabilizers as mapping Fraction points, and the
    # line/inv verdict of each dim-1 piece of the quotient as the oracle's
    # comparison of kernel vectors
    action = factory()
    quotient = extended_quotient(action)
    for cls in action.conjugacy_classes():
        fl = fixed_locus(action, cls.rep)
        cent = action.centralizer(cls.rep)
        got = _component_orbits(action, fl, cent)
        want = fraction_component_orbits(action, cls.rep, cent)
        assert [(orbit, sorted(stab)) for orbit, stab in got] == [(o, s) for o, s, _ in want]
        if fl.dim == 1 and cls.rep != action.identity_index():
            shapes = sorted(c.descriptor for c in quotient if c.class_tag == cls.name)
            assert shapes == sorted(shape for _, _, shape in want)


def test_the_orbit_code_builds_no_fraction(monkeypatch):
    action = sl_dual_torus(4)
    fls = [(fixed_locus(action, c.rep), action.centralizer(c.rep))
           for c in action.conjugacy_classes()]
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for fl, cent in fls:
        _component_orbits(action, fl, cent)
    assert built == []


def test_an_element_outside_the_centralizer_is_refused():
    # the swap gamma2 fixes the line x = y, which gamma3 = (x, -y) does
    # not keep: every element handed to the orbit code is checked, not
    # only the stabilizers
    so5 = so5_weyl_on_torus()
    g2, g3 = so5.names.index("gamma2"), so5.names.index("gamma3")
    assert g3 not in so5.centralizer(g2)
    fl = fixed_locus(so5, g2)
    assert fl.component_count() == 1
    with pytest.raises(ExtQuotError, match="kernel"):
        _component_orbits(so5, fl, [so5.identity_index(), g3])
    # a shear moves the point (1/2, 1/2) fixed by the quarter turn gamma5
    # to (0, 1/2), off its fixed locus
    fl = fixed_locus(so5, so5.names.index("gamma5"))
    with pytest.raises(ExtQuotError, match="does not lie on the fixed locus"):
        fl.action(((1, 1), (0, 1)))


@pytest.mark.parametrize("factory", [so5_weyl_on_torus, lambda: sl_dual_torus(4)],
                         ids=["so5", "pgl4"])
def test_kernel_blocks_multiply_like_the_group(factory):
    # over each stabilizer, g -> (its block on the kernel lattice) is a
    # homomorphism: block(g) block(h) = block(gh), the identity to 1
    action = factory()
    for cls in action.conjugacy_classes():
        fl = fixed_locus(action, cls.rep)
        for _, stab in _component_orbits(action, fl, action.centralizer(cls.rep)):
            blocks = {g: tuple(map(tuple, b)) for g, b in stab.items()}
            assert blocks[action.identity_index()] == tuple(
                tuple(int(i == j) for j in range(fl.dim)) for i in range(fl.dim))
            for g, h in itertools.product(stab, repeat=2):
                gh = action.matrices.index(mat_mul(action.matrices[g], action.matrices[h]))
                assert mat_mul(blocks[g], blocks[h]) == blocks[gh]


def test_fixed_locus_points_are_printed_from_signatures():
    # the regular class of PGL(4) fixes the four points of the center's
    # 4-torsion, diagonal in the ambient torus
    action = sl_dual_torus(4)
    cycle = next(c for c in action.conjugacy_classes() if c.cycle == (4,))
    fl = fixed_locus(action, cycle.rep)
    assert (fl.dim, fl.invariant_factors) == (0, (4,))
    ambient = [action.ambient_point(fl.point(sig)) for sig in fl.signatures]
    assert sorted(ambient) == [(Fraction(j, 4),) * 4 for j in range(4)]
    assert all(type(x) is Fraction for pt in ambient for x in pt)
