"""The ten end-to-end acceptance criteria, one test and one report line each.

Each criterion rebuilds everything it needs inside its own timing scope,
so the recorded runtime covers the full computation, not a warm cache.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction

from heckequot import cli
from heckequot.asymptotic import JRing, bernstein_central_dihedral, specialize
from heckequot.coxeter import extended_affine_b2, infinite_dihedral
from heckequot.crossprod import (
    check_injectivity,
    check_psi_hom,
    check_realization_hom,
    check_spectrum_hom,
    evaluate_module,
)
from heckequot.duality import lowest_cell_check, match_conjecture, partitions
from heckequot.extquot import (
    census,
    extended_quotient,
    so5_weyl_on_torus,
    torsion_orbit_census,
)
from heckequot.hecke import BallOverflowError, HeckeBall, UncertifiedError
from heckequot.laurent import LaurentPoly
from oracles import inversion_on_gm

SKIP = (UncertifiedError, BallOverflowError)


def test_c01_sl2_extended_quotient_census(criterion):
    with criterion(1, "rank-one inversion census: 2 points + 1 line/inv", 1.0):
        comps = extended_quotient(inversion_on_gm())
        assert census(comps) == [(0, "point", 2), (1, "line/inv", 1)]


def test_c02_dihedral_basis_cells_properties(criterion):
    with criterion(2, "dihedral ball: closed form, a-values, cells, P1-P8", 30.0):
        hb = HeckeBall(infinite_dihedral(), 10, margin=3)
        assert len(hb.wp) == 21

        for z in hb.wp:
            expect = {
                y: LaurentPoly.monomial(y.length - z.length)
                for y in hb.wp
                if y.length < z.length
            }
            expect[z] = LaurentPoly.one()
            assert hb.kl_element(z).terms == expect

        e = hb.pres.identity()
        assert hb.a_function(e) == (0, True)
        for z in hb.wp:
            value, certified = hb.a_function(z)
            if certified and z != e:
                assert value == 1

        cp = hb.cell_partition()
        assert len(cp.two_sided) == 2

        got = [(d.key_str(), nd) for d, nd in hb.distinguished_involutions()]
        assert got == [("0;0", 1), ("0;1", 1), ("1;1", 1)]

        for check in hb.check_properties():
            assert check.passed, (check.name, check.counterexamples)
            assert check.checked > 0


def test_c03_asymptotic_ring(criterion):
    with criterion(3, "asymptotic ring: unit, associativity, transport, center", 120.0):
        hb = HeckeBall(infinite_dihedral(), 24, margin=3)
        J = JRing(hb)
        certified = [x for x in hb.wp if hb.a_function(x)[1]]

        u = J.unit()
        unit_ok = unit_skip = 0
        for x in certified:
            t_x = J.basis_element(x)
            try:
                assert J.j_mul(u, t_x) == t_x
                assert J.j_mul(t_x, u) == t_x
                unit_ok += 1
            except SKIP:
                unit_skip += 1
        assert (unit_ok, unit_skip) == (35, 2)

        pool = [x for x in certified if x.length <= 6]
        assert len(pool) == 13
        for a, b, c in itertools.product(pool, repeat=3):
            ta, tb, tc = (J.basis_element(w) for w in (a, b, c))
            assert J.j_mul(J.j_mul(ta, tb), tc) == J.j_mul(ta, J.j_mul(tb, tc))

        base_ok = base_skip = 0
        for x in certified:
            try:
                assert J.base_point_check(x)
                base_ok += 1
            except SKIP:
                base_skip += 1
        assert (base_ok, base_skip) == (35, 2)

        interior = hb.radius - 2 * hb.margin - 1
        sample_pool = [x for x in certified if x.length <= interior // 2]
        rng = random.Random(0)
        pairs = [
            (rng.choice(sample_pool), rng.choice(sample_pool)) for _ in range(50)
        ]
        for q in (1, 4):
            for x, y in pairs:
                lhs = specialize(J.phi(hb.mul_T(hb.kl_element(x), hb.kl_element(y))), q)
                rhs = J.j_mul(specialize(J.phi(hb.kl_element(x)), q), specialize(J.phi(hb.kl_element(y)), q))
                assert lhs == rhs, (x, y, q)

        z = bernstein_central_dihedral(hb)
        r1, r4 = J.center_commutation_check(z, (1, 4))
        for res in (r1, r4):
            assert res["central"] is True
            assert res["failures"] == []
            assert res["commuted"] == 31


def test_c04_so5_cells_certified(criterion):
    with criterion(4, "rank-two affine cells: four cells, a in {0,1,2,4}, lowest = Omega", 300.0):
        hb = HeckeBall(extended_affine_b2(), 12, margin=3)
        cp = hb.cell_partition()
        certified = cp.certified_cells()
        # honest gate: four certified cells or the criterion fails; the
        # radius is the knob to turn, not this assertion
        assert len(certified) == 4, [
            (len(c), c.a_value) for c in cp.two_sided
        ]
        assert sorted(c.a_value for c in certified) == [0, 1, 2, 4]
        lowest = next(c for c in certified if c.a_value == 0)
        omega = {o.key_str() for o in hb.pres.omega_elements()}
        assert {x.key_str() for x in lowest.elements} == omega
        assert lowest.fully_certified


def test_c05_so5_extended_quotient(criterion):
    with criterion(5, "rank-two census: 5 points, 3 line/inv, 1 surface; orbits 1,2,1", 1.0):
        action = so5_weyl_on_torus()
        comps = extended_quotient(action)
        assert census(comps) == [
            (0, "point", 5),
            (1, "line/inv", 3),
            (2, "torus(2)/W(B2)", 1),
        ]
        gamma6 = action.names.index("gamma6")
        orbits = torsion_orbit_census(action, gamma6)
        assert [o["size"] for o in orbits] == [1, 2, 1]


def test_c06_so5_census_match(criterion):
    with criterion(6, "rank-two dual-side multiset equals quotient census", 1.0):
        rep = match_conjecture("so5")
        assert rep.verdict == "PASS"
        assert rep.dual_census == rep.quotient_census


def test_c07_crossed_product(criterion):
    with criterion(7, "crossed product: homs on 100 pairs, spectra, module splits", 30.0):
        assert check_realization_hom(100, 8, 0) == {"checked": 100, "failures": 0}
        assert check_psi_hom(100, 8, 0) == {"checked": 100, "failures": 0}
        assert check_spectrum_hom(100, 8, 0) == {"checked": 100, "failures": 0}
        assert check_injectivity(8)
        for z in (2, 3, Fraction(5, 2), -2, Fraction(7, 3)):
            assert evaluate_module(z)["dims"] == [4]
        for z in (1, -1):
            out = evaluate_module(z)
            assert out["dims"] == [3, 1]
            assert out["split"]["V1"] == "span(e1, e2, e3 + e4)"


def test_c08_gl_family_bijection(criterion):
    with criterion(8, "general linear family: partitionwise census match, n = 2..5", 5.0):
        for n in range(2, 6):
            rep = match_conjecture("gl", n)
            assert rep.verdict == "PASS"
            assert len(rep.records) == len(partitions(n))
            for record in rep.records:
                assert record.verdict == "pass"
                assert record.dual_side == record.quotient_side


def test_c09_pgl_family_with_honest_discrepancy(criterion):
    with criterion(9, "projective family: orbits, n <= 3 pass, n = 4 discrepancy", None):
        for n in (2, 3, 4):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", "pgl-iwahori", "--n", str(n), "--format", "records"])
            assert rc == (2 if n == 4 else 0), n
        rep = match_conjecture("pgl", 4)
        assert rep.verdict == "DISCREPANCY"
        bad = [r for r in rep.records if r.verdict == "discrepancy"]
        assert [r.cell for r in bad] == ["lambda=(2, 2)"]


def test_c10_lowest_cells(criterion):
    with criterion(10, "lowest cell matches the full dual group, every family", 1.0):
        cases = [("sl2", None), ("so5", None)]
        cases += [("gl", n) for n in range(2, 6)]
        cases += [("pgl", n) for n in range(2, 5)]
        for family, n in cases:
            res = lowest_cell_check(family, n)
            assert res["agrees"] is True, (family, n)
            assert res["dual"] == res["quotient"]
