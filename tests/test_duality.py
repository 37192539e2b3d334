"""Dual-side centralizer catalogs and census matching.

Partition routines are property-tested; the matchers are pinned to the
exact verdicts and censuses they must produce, including the one case
that is required to come out as a discrepancy rather than a pass.
"""

import pytest
from hypothesis import given, strategies as st

from heckequot.duality import (
    SO5_CATALOG,
    DisconnectedCentralizer,
    DualityError,
    bernstein_point_gl,
    centralizer_reductive,
    cyclic,
    dual_partition,
    gl_product,
    gl_product_in_sl,
    lowest_cell_check,
    match_conjecture,
    partitions,
    rep_ring_descriptor,
)

# ---- partitions -------------------------------------------------------------


def test_partition_counts():
    assert [len(partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_partitions_reverse_lex():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions(0) == [()]


@given(st.integers(min_value=0, max_value=8))
def test_dual_partition_involution(n):
    for lam in partitions(n):
        mu = dual_partition(lam)
        assert sum(mu) == n
        assert all(a >= b for a, b in zip(mu, mu[1:]))
        assert dual_partition(mu) == lam


def test_dual_partition_examples():
    assert dual_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert dual_partition((3,)) == (1, 1, 1)
    assert dual_partition(()) == ()


def test_dual_partition_validates():
    with pytest.raises(DualityError):
        dual_partition((1, 2))


# ---- centralizer catalog ------------------------------------------------------


def test_gl_centralizers():
    # the key is the cell label; the Jordan type of the class is its dual
    assert str(centralizer_reductive("gl", (3,))) == "GL(3)"
    assert str(centralizer_reductive("gl", (2, 1))) == "GL(1)xGL(1)"
    assert str(centralizer_reductive("gl", (1, 1, 1))) == "GL(1)"


def test_pgl_centralizers():
    assert centralizer_reductive("pgl", (1, 1, 1)) == cyclic(3)
    assert centralizer_reductive("pgl", (2,)) == gl_product_in_sl((2,), (1,))
    assert centralizer_reductive("pgl", (2, 2)) == gl_product_in_sl((2,), (2,))
    assert str(centralizer_reductive("pgl", (2, 1))) == "(GL(1)xGL(1))_det[2,1]"


def test_so5_catalog():
    assert [(k, str(v)) for k, v in SO5_CATALOG] == [
        ("c_e", "Z/2"),
        ("c_1", "Gm : Z/2"),
        ("c_2", "Z/2 x SL(2)"),
        ("c_0", "Sp(4)"),
    ]


def test_component_group_orders():
    so5 = dict(SO5_CATALOG)
    assert cyclic(5).components == 5
    assert gl_product((2, 1)).components == 1
    assert so5["c_2"].components == 2
    assert so5["c_1"].components == 2
    assert so5["c_0"].components == 1
    assert gl_product_in_sl((2,), (2,)).components == 2


# ---- representation-ring census -------------------------------------------------


def test_rep_ring_descriptors():
    as_strs = lambda rd: [str(d) for d in rep_ring_descriptor(rd)]
    so5 = dict(SO5_CATALOG)
    assert as_strs(cyclic(3)) == ["point", "point", "point"]
    assert as_strs(so5["c_2"]) == ["line/inv", "line/inv"]
    assert as_strs(so5["c_1"]) == ["point", "line/inv", "point", "point"]
    assert as_strs(so5["c_0"]) == ["torus(2)/W(B2)"]
    assert as_strs(gl_product((2, 1))) == ["sym(2,1)"]
    assert as_strs(gl_product_in_sl((2,), (1,))) == ["line/inv"]
    assert as_strs(gl_product_in_sl((3,), (1,))) == ["torus(2)/S3"]
    assert as_strs(gl_product_in_sl((1, 1), (2, 1))) == ["line"]
    assert as_strs(gl_product_in_sl((2, 1), (1, 1))) == ["torus(2)/symbolic"]


def test_disconnected_centralizer_raises():
    with pytest.raises(DisconnectedCentralizer) as exc:
        rep_ring_descriptor(gl_product_in_sl((2,), (2,)))
    assert exc.value.order == 2


# ---- matchers ---------------------------------------------------------------


def test_sl2_match_passes():
    rep = match_conjecture("sl2")
    assert rep.verdict == "PASS"
    assert rep.dual_census == rep.quotient_census
    assert rep.dual_census == [(0, "point", 2), (1, "line/inv", 1)]


def test_so5_match_passes():
    rep = match_conjecture("so5")
    assert rep.verdict == "PASS"
    assert rep.dual_census == rep.quotient_census
    assert rep.dual_census == [
        (0, "point", 5),
        (1, "line/inv", 3),
        (2, "torus(2)/W(B2)", 1),
    ]
    assert "cell count 4, class count 5" in rep.note


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gl_match_passes(n):
    rep = match_conjecture("gl", n)
    assert rep.verdict == "PASS"
    assert len(rep.records) == len(partitions(n))
    assert all(r.verdict == "pass" for r in rep.records)


@pytest.mark.parametrize("n", [2, 3])
def test_pgl_match_passes_small(n):
    rep = match_conjecture("pgl", n)
    assert rep.verdict == "PASS"
    assert all(r.verdict == "pass" for r in rep.records)


def test_pgl4_reports_honest_discrepancy():
    rep = match_conjecture("pgl", 4)
    assert rep.verdict == "DISCREPANCY"
    by_cell = {r.cell: r for r in rep.records}
    bad = by_cell["lambda=(2, 2)"]
    assert bad.verdict == "discrepancy"
    assert "disconnected" in bad.note
    others = [r for c, r in by_cell.items() if c != "lambda=(2, 2)"]
    assert all(r.verdict == "pass" for r in others)


def test_match_rejects_unknown_tag():
    with pytest.raises(DualityError):
        match_conjecture("e8")


@pytest.mark.parametrize("family", ["gl", "pgl"])
def test_linear_families_need_the_rank(family):
    with pytest.raises(DualityError, match="need the rank"):
        match_conjecture(family)
    with pytest.raises(DualityError, match="need the rank"):
        lowest_cell_check(family)


# ---- lowest cell ------------------------------------------------------------


@pytest.mark.parametrize(
    "family,n,expected",
    [
        ("sl2", None, "line/inv"),
        ("so5", None, "torus(2)/W(B2)"),
        ("gl", 3, "sym(3)"),
        ("gl", 4, "sym(4)"),
        ("pgl", 2, "line/inv"),
        ("pgl", 3, "torus(2)/S3"),
        ("pgl", 4, "torus(3)/S4"),
    ],
)
def test_lowest_cell_agreement(family, n, expected):
    res = lowest_cell_check(family, n)
    assert res["agrees"] is True
    assert [str(d) for d in res["dual"]] == [expected]
    assert [str(d) for d in res["quotient"]] == [expected]


# ---- unramified points ------------------------------------------------------------


def test_bernstein_point_single_block():
    out = bernstein_point_gl((1,))
    assert [str(c) for c in out["census"]] == ["sym(1)"]
    assert out["count"] == 1


def test_bernstein_point_two_blocks_with_torsion():
    out = bernstein_point_gl((2, 1), torsions=(1, 2))
    assert [(f["size"], f["parameter"]) for f in out["factors"]] == [
        (2, "q^1"),
        (1, "q^2"),
    ]
    assert [str(c) for c in out["census"]] == ["sym(1,1)", "sym(2,1)"]
    assert out["count"] == 2
    with pytest.raises(DualityError, match="positive"):
        bernstein_point_gl((2, 1), torsions=(0, 2))


def test_bernstein_point_counts_multiply():
    out = bernstein_point_gl((4,))
    assert out["count"] == 5
    assert [str(c) for c in out["census"]] == [
        "sym(1)",
        "sym(1,1)",
        "sym(2)",
        "sym(2,1)",
        "sym(4)",
    ]
    out22 = bernstein_point_gl((2, 2))
    assert out22["count"] == 4
    assert [str(c) for c in out22["census"]] == [
        "sym(1,1)",
        "sym(2,1)",
        "sym(2,1)",
        "sym(2,2)",
    ]
