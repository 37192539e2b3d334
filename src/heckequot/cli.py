"""Scenario runner.

    heckequot run <scenario> [flags]     run one named verification scenario
    heckequot scenarios                  print the catalog

A report depends only on the scenario name, its parameters and the seed,
never on wall time or cache state, so identical invocations print
identical bytes.  --format records emits one JSON object per line with
sorted keys; --format table emits an aligned plain-text mirror.  Every
check carries a claim (what is being asserted), a verdict and a witness.

Exit status: 0 every check passed, 1 some check failed, 2 an honest
discrepancy was found (a claim that the computation contradicts rather
than confirms), 3 usage or parameter error.

The cache directory defaults to ~/.cache/heckequot, overridden by
--cache-dir or the HECKEQUOT_CACHE environment variable; one that cannot
be made is a usage error, before any ball is built, and so is a cache
file that cannot be written or read.  Ball scenarios write their KL table
(elements and p-polynomials) there on first run, one chunk per orbit
row as HeckeBall.cache_chunks() yields it, under a temporary name renamed
into place after the last chunk, so a write cut short leaves no file;
later runs compare the file with recomputation chunk by chunk, up to its
last byte, and require the stored bytes to match exactly (line ends
included: the file is read without newline translation).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import asymptotic, crossprod, duality, extquot
from .asymptotic import decide
from .coxeter import CoxeterError
from .hecke import CACHE_SCHEMA, HeckeBall, HeckeError

REPORT_SCHEMA = "heckequot-report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_DISCREPANCY = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


# ---------------- report plumbing ----------------------------------------------

@dataclass
class Check:
    id: str
    claim: str
    verdict: str  # pass | fail | discrepancy | info
    witness: object = None


def _plain(x):
    """Strip everything down to JSON-safe values, deterministically."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(_plain(k)): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return str(x)


def overall_verdict(checks: list[Check]) -> tuple[str, int]:
    if any(c.verdict == "fail" for c in checks):
        return "FAIL", EXIT_FAIL
    if any(c.verdict == "discrepancy" for c in checks):
        return "DISCREPANCY", EXIT_DISCREPANCY
    return "PASS", EXIT_PASS


def emit_report(scenario: str, params: dict, checks: list[Check],
                fmt: str, out) -> int:
    verdict, code = overall_verdict(checks)
    params = {k: _plain(v) for k, v in sorted(params.items())}
    if fmt == "records":
        head = {"record": "header", "schema": REPORT_SCHEMA,
                "scenario": scenario, "parameters": params}
        print(json.dumps(head, sort_keys=True), file=out)
        for c in checks:
            rec = {"record": "check", "id": c.id, "claim": c.claim,
                   "verdict": c.verdict, "witness": _plain(c.witness)}
            print(json.dumps(rec, sort_keys=True), file=out)
        tail = {"record": "summary", "verdict": verdict,
                "checks": len(checks), "exit": code}
        print(json.dumps(tail, sort_keys=True), file=out)
    else:
        print(f"scenario: {scenario}", file=out)
        print("parameters: " + (" ".join(f"{k}={v}" for k, v in params.items())
                                or "(none)"), file=out)
        print(f"schema: {REPORT_SCHEMA}", file=out)
        print("", file=out)
        width = max((len(c.id) for c in checks), default=4)
        for c in checks:
            print(f"{c.verdict.upper():<12} {c.id:<{width}}  {c.claim}", file=out)
            if c.witness is not None:
                wit = json.dumps(_plain(c.witness), sort_keys=True)
                print(f"{'':<12} {'':<{width}}  witness: {wit}", file=out)
        print("", file=out)
        print(f"verdict: {verdict} ({len(checks)} checks)", file=out)
    return code


def _tally(name: str, claim: str, checked: int, skipped: int,
           failures: list, extra: dict | None = None) -> Check:
    """A pass/fail check from exhaustive-or-skipped counting."""
    witness = {"checked": checked, "skipped": skipped,
               "failures": failures[:5]}
    if extra:
        witness.update(extra)
    return Check(name, claim, "pass" if not failures else "fail", witness)


# ---------------- cache layer ---------------------------------------------------

def cache_directory(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("HECKEQUOT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "heckequot"


def _slug(family: str) -> str:
    out = []
    for ch in family:
        if ch.isalnum():
            out.append(ch.lower())
        elif ch == "'":
            out.append("p")
    return "".join(out)


def cache_filename(family: str, radius: int) -> str:
    # each cache schema has its own file name, "_v<N>" for heckequot-ball/N,
    # so files of another schema (/1 "_w...", /2 "_r<R>.txt") are left alone
    return f"{_slug(family)}_r{radius}_v{CACHE_SCHEMA.rsplit('/', 1)[1]}.txt"


def cache_store(hb: HeckeBall, directory: Path) -> tuple[Path, str]:
    """Write the ball's KL table into an existing directory, or compare it
    with what is already there, chunk by chunk as hb.cache_chunks() yields
    it (one chunk per orbit row), up to the file's last byte.
    A file is written whole, under a temporary name renamed into place,
    or not at all.  Returns (path, "written" | "hit" | "mismatch")."""
    path = directory / cache_filename(hb.pres.family, hb.radius)
    chunks = hb.cache_chunks()
    if path.exists():
        try:
            # newline="": line ends are written and compared untranslated,
            # and the file must end where the dump does
            with path.open(encoding="utf-8", newline="") as f:
                same = all(f.read(len(chunk)) == chunk for chunk in chunks) and not f.read(1)
        except UnicodeDecodeError:  # not text this program wrote
            same = False
        return path, "hit" if same else "mismatch"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path, "written"


# ---------------- scenario helpers ----------------------------------------------

def _ball_scenario(ns, family: str, default_radius: int):
    radius = ns.radius if ns.radius is not None else default_radius
    directory = cache_directory(ns.cache_dir)
    try:  # before the ball is built, so an unusable directory costs nothing
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use cache directory {directory}: {exc.strerror}") from exc
    pres = duality.FAMILIES[family].presentation()
    path = directory / cache_filename(pres.family, radius)
    if path.exists() and not path.is_file():
        raise UsageError(f"cannot use cache file {path}: it is not a regular file")
    hb = HeckeBall(pres, radius, margin=ns.margin)
    checks: list[Check] = []
    try:
        path, status = cache_store(hb, directory)
    except OSError as exc:
        raise UsageError(f"cannot use cache file {path}: {exc.strerror}") from exc
    if status == "mismatch":
        checks.append(Check(
            "cache", "the cached KL table is byte-identical to recomputation",
            "fail", {"file": path.name,
                     "hint": f"stale or corrupt; delete {path} and run again"}))
    params = {"radius": radius, "margin": ns.margin}
    return hb, params, checks


def _q_list(ns) -> list[Fraction]:
    if ns.q is not None:
        return [Fraction(ns.q)]
    return [Fraction(1), Fraction(4)]


# ---------------- scenarios -----------------------------------------------------

def scen_sl2_extquot(ns):
    comps = extquot.extended_quotient(duality.FAMILIES["sl2"].torus(None))
    rows = extquot.census(comps)
    expected = [(0, "point", 2), (1, "line/inv", 1)]
    checks = [Check(
        "census",
        "the inversion action on the rank-one dual torus has exactly two "
        "isolated points and one line modulo inversion",
        "pass" if rows == expected else "fail",
        {"got": rows, "expected": expected})]
    return {"n": 2}, checks


def _count_check(name: str, claim: str, res: dict) -> Check:
    return Check(name, claim, "pass" if res["failures"] == 0 else "fail",
                 {"checked": res["checked"], "failures": res["failures"]})


def scen_sl2_crossprod(ns):
    samples = ns.samples if ns.samples is not None else 100
    checks = []
    checks.append(_count_check(
        "realization-hom",
        "the two-by-two balanced/antibalanced realization is multiplicative "
        "on random crossed elements",
        crossprod.check_realization_hom(pairs=samples, max_deg=8,
                                        seed=ns.seed)))
    checks.append(_count_check(
        "spectrum-hom",
        "the spectral change of variables is multiplicative and keeps all "
        "entries balanced (image inside the quotient-line functions)",
        crossprod.check_spectrum_hom(pairs=samples, max_deg=8, seed=ns.seed)))
    inj = crossprod.check_injectivity(window=8)
    checks.append(Check(
        "realization-injective",
        "the realization separates crossed elements through degree 8",
        "pass" if inj else "fail", {"window": 8}))
    checks.append(_count_check(
        "psi-hom",
        "the four-by-four corner embedding is multiplicative",
        crossprod.check_psi_hom(pairs=samples, max_deg=8, seed=ns.seed)))
    checks.append(_count_check(
        "constrained-assoc",
        "the constrained four-by-four product is associative and preserves "
        "the bar ties",
        crossprod.check_cm4_associativity(triples=min(50, samples), max_deg=4,
                                          seed=ns.seed)))
    generic = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-2), Fraction(7, 3)]
    dims = {str(z): crossprod.evaluate_module(z)["dims"] for z in generic}
    ok = all(v == [4] for v in dims.values())
    checks.append(Check(
        "modules-generic",
        "evaluation at five generic points gives a single four dimensional "
        "simple module", "pass" if ok else "fail", dims))
    special = {}
    ok = True
    for z in (Fraction(1), Fraction(-1)):
        res = crossprod.evaluate_module(z)
        special[str(z)] = res
        ok = ok and res["dims"] == [3, 1]
    checks.append(Check(
        "modules-split",
        "evaluation at the self-inverse points splits as dimensions 3 and 1, "
        "the large part spanned by the first two coordinates and the sum of "
        "the last two", "pass" if ok else "fail", special))
    refl = crossprod.evaluate_reflection_class()
    checks.append(Check(
        "module-reflection",
        "the reflection-class evaluation carries one two dimensional module",
        "pass" if refl["dims"] == [2] else "fail", refl))
    bb = {str(z): crossprod.bottom_block_dim(z)
          for z in (Fraction(2), Fraction(3), Fraction(1), Fraction(-1))}
    ok = bb["2"] == 4 and bb["3"] == 4 and bb["1"] == 2 and bb["-1"] == 2
    checks.append(Check(
        "bottom-block",
        "the embedded crossed-product block evaluates to dimension 4 "
        "generically and 2 at the self-inverse points",
        "pass" if ok else "fail", bb))
    return {"samples": samples, "seed": ns.seed}, checks


_CLOSED_FORM_CLAIM = (
    "every canonical basis element is the length-descending sum "
    "T_z + sum_{l(y) < l(z)} v^(l(y)-l(z)) T_y"
)


def scen_infdihedral_cells(ns):
    hb, params, checks = _ball_scenario(ns, "sl2", 10)
    bad = []
    idx = hb.ball.index
    for z in hb.wp:
        expect = {idx[y]: {y.length - z.length: 1} for y in hb.wp if y.length < z.length}
        expect[idx[z]] = {0: 1}
        if hb.kl_element(z).terms != expect:
            bad.append(z)
    checks.append(_tally("closed-form", _CLOSED_FORM_CLAIM, len(hb.wp), 0, bad))

    cert = [z for z in hb.ball if hb.a_function(z)[1]]
    bad = [z for z in cert
           if hb.a_function(z)[0] != (0 if z.is_identity() else 1)]
    checks.append(_tally(
        "a-values",
        "certified a-values are 0 at the identity and 1 everywhere else",
        len(cert), len(hb.ball) - len(cert), bad,
        {"ball": len(hb.ball)}))

    part = hb.cell_partition()
    # a cell with no certified or with mixed a-values has a_value None
    sizes = sorted(((len(c), c.a_value) for c in part.two_sided),
                   key=lambda t: (t[0], -1 if t[1] is None else t[1]))
    ok = (len(part.two_sided) == 2
          and {c.a_value for c in part.two_sided} == {0, 1})
    checks.append(Check(
        "cells", "the ball splits into exactly two two-sided cells, with "
        "a-values 0 and 1",
        "pass" if ok else "fail", {"sizes_and_a": sizes}))

    dist = hb.distinguished_involutions()
    names = sorted(d.key_str() for d, _ in dist)
    want = sorted(x.key_str() for x in
                  [hb.pres.identity(), hb.pres.generator("s1"),
                   hb.pres.generator("s2")])
    ok = names == want and all(nd == 1 for _, nd in dist)
    checks.append(Check(
        "distinguished",
        "the distinguished involutions are the identity and the two "
        "generators, each with unit leading sign",
        "pass" if ok else "fail",
        {"got": [(d.key_str(), nd) for d, nd in dist]}))
    return params, checks


def scen_infdihedral_p_properties(ns):
    hb, params, checks = _ball_scenario(ns, "sl2", 8)
    for pc in hb.check_properties():
        checks.append(_tally(pc.name, pc.claim, pc.checked, 0, [_plain(c) for c in pc.counterexamples]))
    return params, checks


def scen_infdihedral_j(ns):
    qs = _q_list(ns)
    for q in qs:  # reject a bad q before any ball is built or cached
        asymptotic._sqrt_fraction(q)
    radius = ns.radius if ns.radius is not None else 24
    if radius < 2 * ns.margin + 1:
        raise UsageError(f"radius {radius} leaves no certified interior to sample "
                         f"pairs from at margin {ns.margin}; it must be at least "
                         f"2*margin + 1 = {2 * ns.margin + 1}")
    hb, params, checks = _ball_scenario(ns, "sl2", radius)
    jr = asymptotic.JRing(hb)
    samples = ns.samples if ns.samples is not None else 50
    params.update({"samples": samples, "seed": ns.seed,
                   "q": [str(q) for q in qs]})

    certified = [x for x in hb.ball if hb.a_function(x)[1]]
    unit = jr.unit()
    checks.append(_tally(
        "unit",
        "the signed sum over distinguished involutions is a two-sided unit "
        "on every decidable basis vector",
        *decide(certified, lambda x: jr.is_unit_on(unit, x))))

    small = [x for x in certified if x.length <= 6]
    t = [jr.basis_element(x) for x in small]  # triples run on positions in small
    pair = functools.cache(lambda i, j: jr.j_mul(t[i], t[j]))
    checked, skipped, bad = decide(
        itertools.product(range(len(small)), repeat=3),
        lambda c: jr.j_mul(pair(c[0], c[1]), t[c[2]]) == jr.j_mul(t[c[0]], pair(c[1], c[2])))
    checks.append(_tally(
        "associativity",
        "the basis product is associative on all certified triples of "
        "length at most 6",
        checked, skipped, [[small[i] for i in c] for c in bad],
        {"triple_pool": len(small)}))

    checks.append(_tally(
        "base-point",
        "acting by t_x on the distinguished base classes reproduces the "
        "graded image of the dagger basis element",
        *decide(certified, jr.base_point_check)))

    rng = random.Random(ns.seed)
    # pairs are drawn so the product support stays inside the certified
    # interior: lengths add to at most radius - 2*margin - 1
    interior = hb.radius - 2 * hb.margin - 1
    pool = [x for x in hb.wp
            if x.length <= interior // 2 and hb.a_function(x)[1]]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(samples)]
    kl = hb.kl_element
    # Laurent images, computed once and specialized at each q
    img = functools.cache(lambda x: jr.phi(kl(x)))
    prod = functools.cache(lambda x, y: jr.phi(hb.mul_T(kl(x), kl(y))))
    for q in qs:
        spec = functools.partial(asymptotic.specialize, q=q)
        checks.append(_tally(
            f"phi-hom-q={q}",
            "the q-specialized transport to the asymptotic ring is "
            "multiplicative on sampled canonical-basis pairs",
            *decide(pairs, lambda p: spec(prod(*p))
                    == jr.j_mul(spec(img(p[0])), spec(img(p[1]))))))

    z = asymptotic.bernstein_central_dihedral(hb)
    for q, res in zip(qs, jr.center_commutation_check(z, qs)):
        ok = res["central"] and not res["failures"]
        checks.append(Check(
            f"center-q={q}",
            "the image of a verified-central element commutes with every "
            "decidable basis vector",
            "pass" if ok else "fail",
            {"central_precondition": res["central"],
             "witness": res["witness"],
             "commuted": res["commuted"], "skipped": res["skipped"],
             "failures": [_plain(w) for w in res["failures"][:5]]}))
    return params, checks


def scen_so5_cells(ns):
    hb, params, checks = _ball_scenario(ns, "so5", 12)
    part = hb.cell_partition()
    cert = part.certified_cells()
    ok = len(cert) == 4 and {c.a_value for c in cert} == {0, 1, 2, 4}
    witness = {
        "certified_cells": [
            {"a": c.a_value, "size": len(c),
             "certified": len(c.certified_elements)} for c in cert],
        "total_components": len(part.two_sided),
    }
    if not ok:
        witness["hint"] = ("certification incomplete at this radius; raise "
                           "--radius instead of trusting the truncation")
    checks.append(Check(
        "cells", "exactly four certified two-sided cells, with a-values "
        "0, 1, 2 and 4", "pass" if ok else "fail", witness))

    low = [c for c in cert if c.a_value == 0]
    ok = (len(low) == 1
          and sorted(x.key_str() for x in low[0].elements)
          == sorted(x.key_str() for x in hb.omega_elems))
    checks.append(Check(
        "lowest-is-omega",
        "the a = 0 cell is exactly the group of length-zero elements",
        "pass" if ok else "fail",
        {"cell": [x.key_str() for x in low[0].elements] if low else []}))

    dist = hb.distinguished_involutions()
    checks.append(Check(
        "distinguished", "distinguished involutions with their leading signs",
        "info", [(d.key_str(), nd) for d, nd in dist]))
    return params, checks


def scen_so5_extquot(ns):
    action = duality.FAMILIES["so5"].torus(None)
    rows = extquot.census(extquot.extended_quotient(action))
    expected = [(0, "point", 5), (1, "line/inv", 3),
                (2, "torus(2)/W(B2)", 1)]
    checks = [Check(
        "census",
        "the full-Weyl-group action on the rank-two dual torus has five "
        "points, three lines modulo inversion and one two dimensional "
        "component", "pass" if rows == expected else "fail",
        {"got": rows, "expected": expected})]

    cls = [c for c in action.conjugacy_classes() if c.name == "gamma6"]
    orbits = extquot.torsion_orbit_census(action, cls[0].rep)
    sizes = [o["size"] for o in orbits]
    checks.append(Check(
        "negation-orbits",
        "the centralizer of the negation element acts on its four fixed "
        "points with orbit sizes 1, 2, 1",
        "pass" if sizes == [1, 2, 1] else "fail",
        {"sizes": sizes,
         "points": [[str(Fraction(c)) for c in o["points"][0]]
                    for o in orbits]}))
    return {}, checks


def scen_so5_jc1(ns):
    hb, params, checks = _ball_scenario(ns, "so5", 12)
    jr = asymptotic.JRing(hb)
    cells = [c for c in hb.cell_partition().certified_cells()
             if c.a_value == 1]
    if len(cells) != 1:
        checks.append(Check(
            "locate", "there is exactly one certified cell with a = 1",
            "fail", {"found": len(cells)}))
        return params, checks
    res = jr.cell_ideal(cells[0])
    checks.append(Check(
        "closed",
        "every decidable product of basis vectors of the a = 1 cell stays "
        "inside the cell",
        "pass" if res["closed"] else "fail",
        {"basis": len(res["basis"]), "checked_pairs": res["checked_pairs"],
         "skipped_pairs": res["skipped_pairs"],
         "escapes": [_plain(e) for e in res["escapes"][:5]]}))
    checks.append(Check(
        "unit",
        "the signed distinguished sum inside the cell is a unit on every "
        "decidable basis vector",
        "pass" if not res["unit_failures"] else "fail",
        {"unit_support": len(res["unit"].coeffs),
         "checked": res["unit_checked"], "skipped": res["unit_skipped"],
         "failures": [_plain(w) for w in res["unit_failures"][:5]]}))
    census = duality.rep_ring_descriptor(duality.centralizer_reductive("so5", "c_1"))
    checks.append(Check(
        "module-census",
        "the matching dual-side centralizer census: one extra point plus "
        "the crossed-product census",
        "info", [str(d) for d in census]))
    return params, checks


def scen_so5_match(ns):
    report = duality.match_conjecture("so5")
    checks = _match_checks(report)
    return {}, checks


def _match_checks(report) -> list[Check]:
    checks = []
    for rec in report.records:
        witness = {
            "dual": None if rec.dual_side is None
            else [str(d) for d in rec.dual_side],
            "quotient": None if rec.quotient_side is None
            else [str(d) for d in rec.quotient_side],
        }
        if rec.note:
            witness["note"] = rec.note
        claim = ("dual-side component census equals the quotient-side census"
                 if rec.verdict != "info" else "dual-side component census")
        checks.append(Check(f"cell[{rec.cell}]", claim, rec.verdict, witness))
    checks.append(Check(
        "totals", "total censuses on the two sides",
        "info", {"dual": report.dual_census,
                 "quotient": report.quotient_census}))
    return checks


def _rank(ns, family: str, default: int, what: str) -> int | None:
    """--n of a family, default when absent, checked before any action is
    built; None for a family that takes no rank, where --n is refused."""
    ranks = duality.FAMILIES[family].ranks
    if ranks is None:
        if ns.n is not None:
            raise UsageError(f"{what} takes no --n")
        return None
    n = ns.n if ns.n is not None else default
    if n not in ranks:
        raise UsageError(f"{what} needs {ranks[0]} <= n <= {ranks[-1]}")
    return n


def scen_pgl_iwahori(ns):
    n = _rank(ns, "pgl", 2, "pgl-iwahori")
    fam = duality.FAMILIES["pgl"]
    action = fam.torus(n)  # built once: the census match below reads it too
    cls = [c for c in action.conjugacy_classes() if c.cycle == (n,)]
    orbits = extquot.torsion_orbit_census(action, cls[0].rep)
    singleton = all(o["size"] == 1 for o in orbits)
    ambient = [o["ambient"][0] for o in orbits]
    diag = all(len(set(pt)) == 1 for pt in ambient)
    ok = len(orbits) == n and singleton and diag
    checks = [Check(
        "center-points",
        f"the regular class fixes exactly {n} isolated points, singly "
        "permuted, sitting diagonally at the n-torsion of the center",
        "pass" if ok else "fail",
        {"orbits": len(orbits),
         "ambient": [[str(Fraction(c)) for c in pt] for pt in ambient]})]
    checks.extend(_match_checks(fam.match(fam, extquot.extended_quotient(action), n)))
    return {"n": n}, checks


def scen_gl_match(ns):
    n = _rank(ns, "gl", 4, "gl-match")
    report = duality.match_conjecture("gl", n)
    checks = _match_checks(report)
    expected = len(duality.partitions(n))
    cells = [c for c in checks if c.id.startswith("cell[lambda")]
    ok = len(cells) == expected
    checks.append(Check(
        "count",
        "there is one matched component per partition",
        "pass" if ok else "fail",
        {"partitions": expected, "matched": len(cells)}))
    return {"n": n}, checks


def scen_gl_bernstein_point(ns):
    try:
        exponents = tuple(int(t) for t in ns.blocks.split(","))
        torsions = (tuple(int(t) for t in ns.torsions.split(","))
                    if ns.torsions else None)
    except ValueError as exc:
        raise UsageError(f"bad block spec: {exc}") from exc
    if any(e < 1 for e in exponents):
        raise UsageError("block sizes must be positive")
    res = duality.bernstein_point_gl(exponents, torsions)
    expected = 1
    for e in exponents:
        expected *= len(duality.partitions(e))
    checks = [
        Check("factors",
              "one symmetric block per exponent, with its parameter",
              "info",
              [{"size": f["size"], "parameter": f["parameter"],
                "components": len(f["census"])} for f in res["factors"]]),
        Check("census",
              "the component census of the parameter point is the product "
              "of the block censuses, one symmetric shape per choice",
              "pass" if res["count"] == expected else "fail",
              {"count": res["count"], "expected": expected,
               "census": [str(d) for d in res["census"]]}),
    ]
    return {"blocks": list(exponents),
            "torsions": list(torsions) if torsions else None}, checks


def scen_lowest_cell(ns):
    group = ns.group or "so5"
    if group not in duality.FAMILIES:
        raise UsageError(f"lowest-cell needs --group {'|'.join(duality.FAMILIES)}")
    n = _rank(ns, group, 3, f"lowest-cell --group {group}")
    res = duality.lowest_cell_check(group, n)
    params = {"group": group} if n is None else {"group": group, "n": n}
    checks = [Check(
        "lowest-cell",
        "the full dual group's representation-ring census equals the "
        "identity-class component of the extended quotient",
        "pass" if res["agrees"] else "fail",
        {"dual": [str(d) for d in res["dual"]],
         "quotient": [str(d) for d in res["quotient"]]})]
    return params, checks


SCENARIOS = {
    "sl2-extquot": (scen_sl2_extquot,
                    "census of the inversion action on the rank-one torus"),
    "sl2-crossprod": (scen_sl2_crossprod,
                      "crossed product of the Laurent ring by inversion: "
                      "realizations, spectra, module dimensions"),
    "infdihedral-cells": (scen_infdihedral_cells,
                          "closed-form canonical basis, a-values, cells and "
                          "distinguished involutions of the rank-one affine "
                          "group"),
    "infdihedral-P-properties": (scen_infdihedral_p_properties,
                                 "the structural properties P1-P8 of the "
                                 "gamma table, exhaustively"),
    "infdihedral-J": (scen_infdihedral_j,
                      "asymptotic ring: unit, associativity, base points, "
                      "multiplicative transport, center"),
    "so5-cells": (scen_so5_cells,
                  "two-sided cells of the rank-two affine group with their "
                  "certified a-values"),
    "so5-extquot": (scen_so5_extquot,
                    "census of the full Weyl action on the rank-two torus "
                    "and the negation-class orbit structure"),
    "so5-jc1": (scen_so5_jc1,
                "the ideal spanned by the a = 1 cell: closure and unit"),
    "so5-match": (scen_so5_match,
                  "dual-side censuses against the quotient census, rank two"),
    "pgl-iwahori": (scen_pgl_iwahori,
                    "regular-class fixed points and the full match for the "
                    "projective linear family (--n)"),
    "gl-match": (scen_gl_match,
                 "partition-by-partition census match for the general "
                 "linear family (--n)"),
    "gl-bernstein-point": (scen_gl_bernstein_point,
                           "component census at a product parameter point "
                           "(--blocks, --torsions)"),
    "lowest-cell": (scen_lowest_cell,
                    "identity-class component against the full dual group "
                    "(--group, --n)"),
}


# ---------------- argument parsing ----------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache  # parse_args never changes the parser: one per process
def build_parser() -> _Parser:
    p = _Parser(prog="heckequot", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one verification scenario")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("--radius", type=int, default=None,
                     help="ball radius (scenario-specific default)")
    run.add_argument("--margin", type=int, default=3,
                     help="stabilization margin for certification")
    run.add_argument("--q", default=None,
                     help="rational specialization point, e.g. 4 or 1/4 "
                          "(must be the square of a rational)")
    run.add_argument("--samples", type=_at_least_one, default=None,
                     help="number of random samples where applicable")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for all sampling in the scenario")
    run.add_argument("--format", choices=("table", "records"),
                     default="table")
    run.add_argument("--cache-dir", default=None,
                     help="cache directory (default ~/.cache/heckequot or "
                          "HECKEQUOT_CACHE)")
    run.add_argument("--n", type=int, default=None,
                     help="rank parameter for the linear families")
    run.add_argument("--group", default=None,
                     help="family for lowest-cell: " + "|".join(duality.FAMILIES))
    run.add_argument("--blocks", default="2,1",
                     help="block sizes for gl-bernstein-point, e.g. 2,1")
    run.add_argument("--torsions", default=None,
                     help="one torsion number per block, e.g. 1,2")

    sub.add_parser("scenarios", help="list the scenario catalog")
    return p


def cmd_run(ns, out) -> int:
    fn, _ = SCENARIOS[ns.scenario]
    params, checks = fn(ns)
    params.setdefault("seed", ns.seed)
    return emit_report(ns.scenario, params, checks, ns.format, out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "scenarios":
            width = max(len(n) for n in SCENARIOS)
            for name in sorted(SCENARIOS):
                print(f"{name:<{width}}  {SCENARIOS[name][1]}")
            return EXIT_PASS
        return cmd_run(ns, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError, CoxeterError, HeckeError,
            extquot.ExtQuotError, crossprod.CrossProdError,
            duality.DualityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
