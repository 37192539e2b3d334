"""Fixed loci and extended quotients of finite torus actions.

Component counts from the analytic route are cross-checked against brute
force enumeration of torsion points, and the Smith normal form against
its defining identities under hypothesis.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckequot.extquot import (
    LINE,
    LINE_INV,
    POINT,
    ExtQuotError,
    TorusAction,
    _sym_parts,
    census,
    cycle_type,
    extended_quotient,
    fixed_locus,
    full_torus_descriptor,
    sl_dual_torus,
    smith_normal_form,
    so5_weyl_on_torus,
    sym_product,
    symmetric_on_torus,
    torsion_orbit_census,
    torus_mod,
)
from oracles import brute_force_component_count, inversion_on_gm, trivial_on_torus

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
    so5 = so5_weyl_on_torus()
    e = so5.identity_index()
    assert e == 0
    n = len(so5)
    assert n == 8
    for i in range(n):
        assert so5.mult(e, i) == i == so5.mult(i, e)
        assert so5.mult(i, so5.inverse_of(i)) == e
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert so5.mult(so5.mult(i, j), k) == so5.mult(i, so5.mult(j, k))


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
