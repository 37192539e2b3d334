"""Group presentations: lengths, balls, omega structure, serialization.

The length function is validated against an independent oracle: breadth
first search over the Cayley graph starting from the length-zero coset
representatives.
"""

from collections import deque
from dataclasses import replace

import pytest

from heckequot.coxeter import (
    CoxeterError,
    close_group,
    dump_element,
    extended_affine_b2,
    extended_affine_pgl,
    infinite_dihedral,
    mat_identity,
    mat_mul,
    mat_vec,
)
from oracles import element, finite_a, finite_b2, reduced_word, right_descents


def bfs_distances(pres, radius):
    """Graph distance from the Omega coset, by plain BFS."""
    dist = {}
    queue = deque()
    for o in pres.omega_elements():
        dist[o] = 0
        queue.append(o)
    gens = pres.generators()
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        for s in gens:
            y = x * s
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


# ---- matrix helpers -------------------------------------------------------


def test_mat_helpers_return_tuples():
    eye = mat_identity(3)
    assert isinstance(eye, tuple) and isinstance(eye[0], tuple)
    a = ((0, 1), (1, 0))
    assert mat_mul(a, a) == mat_identity(2)
    assert mat_vec(a, (3, 7)) == (7, 3)


def test_close_group_b2_weyl():
    s1 = ((0, 1), (1, 0))
    s2 = ((1, 0), (0, -1))
    elems, index = close_group([s1, s2], 2)
    assert len(elems) == 8
    assert index[mat_identity(2)] == 0


# ---- infinite dihedral ----------------------------------------------------


def test_dihedral_relations():
    d = infinite_dihedral()
    e = d.identity()
    s1, s2 = d.generators()
    assert s1 * s1 == e
    assert s2 * s2 == e
    assert s1 * s2 != s2 * s1
    w = e
    for k in range(1, 8):
        w = w * (s1 if k % 2 else s2)
        assert w.length == k


def test_dihedral_ball_sizes():
    d = infinite_dihedral()
    # 1 + 2r elements: two alternating words per positive length
    for r in (0, 1, 4, 10):
        assert len(d.ball(r)) == 1 + 2 * r


@pytest.mark.parametrize(
    "factory,radius",
    [(infinite_dihedral, 6), (extended_affine_b2, 4), (lambda: extended_affine_pgl(3), 3)],
)
def test_length_matches_cayley_bfs(factory, radius):
    pres = factory()
    dist = bfs_distances(pres, radius)
    for x, k in dist.items():
        assert x.length == k
    assert set(pres.ball(radius)) == set(dist)


def test_ball_sorted_by_length_then_key():
    b = extended_affine_b2().ball(3)
    keys = [x.key() for x in b]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "factory,radius",
    [
        (infinite_dihedral, 8),
        (extended_affine_b2, 8),
        (lambda: extended_affine_pgl(3), 6),
        (lambda: extended_affine_pgl(4), 5),
        (lambda: finite_a(3), 8),
        (finite_b2, 6),
    ],
    ids=["dihedral-r8", "b2-r8", "pgl3-r6", "pgl4-r5", "finite-a3", "finite-b2"],
)
def test_ball_right_table_and_shell_lengths_match_group_arithmetic(factory, radius):
    # the ball's BFS records each product x * s as a table entry, both ways,
    # and gives each element the length of its shell; check both against
    # multiply and the alcove-walk length
    pres = factory()
    ball = pres.ball(radius)
    gens = pres.generators()
    assert len(ball.index) == len(ball)
    assert len(ball.rm) == len(ball) * len(gens)
    for i, x in enumerate(ball):
        assert x.length == pres.length_of(x.trans, x.fin) <= radius
        for s, g in enumerate(gens):
            assert ball.rm[i * len(gens) + s] == ball.index.get(pres.multiply(x, g), -1)


def test_frozen_ball_sizes():
    assert len(extended_affine_b2().ball(4)) == 56
    assert len(extended_affine_pgl(3).ball(4)) == 93


# ---- group element basics -------------------------------------------------


def test_inverse_and_parity():
    b2 = extended_affine_b2()
    ball = list(b2.ball(3))
    for x in ball:
        assert x * x.inverse() == b2.identity()
        assert x.inverse().length == x.length
    for x in ball[:8]:
        for y in ball[:8]:
            assert ((x * y).length - x.length - y.length) % 2 == 0


def test_element_validation():
    b2 = extended_affine_b2()
    with pytest.raises(CoxeterError):
        element(b2, (0, 0), 99)
    with pytest.raises(CoxeterError):
        element(b2, (0,), 0)


def test_reduced_word_roundtrip():
    b2 = extended_affine_b2()
    for x in b2.ball(4):
        word, omega = reduced_word(b2, x)
        assert len(word) == x.length
        prod = b2.identity()
        for name in word:
            prod = b2.multiply(prod, b2.generator(name))
        assert b2.multiply(prod, omega) == x


def test_descents_bound_length():
    d = infinite_dihedral()
    s1, s2 = d.generators()
    w = s1 * s2 * s1
    assert right_descents(d, w) == [0]
    assert right_descents(d, d.identity()) == []


# ---- omega structure ------------------------------------------------------


def test_b2_omega_is_an_involution_swapping_the_ends():
    b2 = extended_affine_b2()
    omegas = b2.omega_elements()
    assert [o.key_str() for o in omegas] == ["0,0;0", "1,0;5"]
    assert all(o.length == 0 for o in omegas)
    tau = omegas[1]
    table = [b2.omega_conj_generator(tau, i) for i in range(3)]
    assert table == [1, 0, 2]
    gens = b2.generators()
    for i, j in enumerate(table):
        assert tau * gens[i] * tau.inverse() == gens[j]
    # diagram automorphism: braid orders survive the relabeling
    for (i, j), m in b2.coxeter_m.items():
        a, b = sorted((table[i], table[j]))
        assert b2.coxeter_m[(a, b)] == m


def test_pgl3_omega_rotates_the_diagram():
    p3 = extended_affine_pgl(3)
    omegas = p3.omega_elements()
    assert len(omegas) == 3
    tables = [[p3.omega_conj_generator(o, i) for i in range(3)] for o in omegas]
    assert tables == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    om = omegas[1]
    assert (om * om).omega_index() == 2
    assert (om * om * om).omega_index() == 0


def test_omega_index_additive():
    p3 = extended_affine_pgl(3)
    ball = list(p3.ball(2))
    for x in ball:
        for y in ball:
            assert (x * y).omega_index() == (x.omega_index() + y.omega_index()) % 3


# ---- finite families ------------------------------------------------------


def test_finite_a3_is_s4():
    fa = finite_a(3)
    ball = fa.ball(20)
    assert len(ball) == 24
    assert len(fa.wf_elems) == 24
    assert fa.num_positive_roots == 6
    assert max(x.length for x in ball) == 6


def test_finite_b2_order_8():
    fb = finite_b2()
    ball = fb.ball(10)
    assert len(ball) == 8
    assert fb.num_positive_roots == 4
    assert max(x.length for x in ball) == 4


@pytest.mark.parametrize(
    "factory",
    [extended_affine_b2] + [lambda n=n: extended_affine_pgl(n) for n in range(2, 6)],
    ids=["B2"] + [f"PGL{n}" for n in range(2, 6)],
)
def test_weyl_table_matches_matrix_products(factory):
    pres = factory()
    elems, index = pres.wf_elems, pres.wf_index
    table = [[index[mat_mul(a, b)] for b in elems] for a in elems]
    assert pres._wf_table == table
    assert pres._wf_inv == [row.index(0) for row in table]


def test_weyl_table_needs_generating_finite_parts():
    pres = extended_affine_b2()
    s1 = pres.gen_specs[1]
    with pytest.raises(CoxeterError, match="generate"):
        replace(pres, gen_specs=[s1], gen_names=["s1"])


# ---- serialization --------------------------------------------------------


def _word(x):
    names, omega = reduced_word(x.pres, x)
    return names, omega.omega_index()



@pytest.mark.parametrize(
    "factory,radius",
    [
        (infinite_dihedral, 6),
        (extended_affine_b2, 3),
        (lambda: extended_affine_pgl(3), 3),
        (lambda: finite_a(2), 6),
        (finite_b2, 6),
    ],
)
def test_dump_element_lines_distinct(factory, radius):
    # cache E lines must identify their element
    ball = factory().ball(radius)
    assert len({dump_element(x, _word(x)) for x in ball}) == len(ball)


def test_dump_format():
    d = infinite_dihedral()
    s1, s2 = d.generators()
    w = s1 * s2
    assert dump_element(w, _word(w)) == "word=s1.s2 omega=w0 len=2 trans=(-1) fin=f0"
