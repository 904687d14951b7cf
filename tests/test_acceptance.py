"""The acceptance gate: one test per criterion, every check exact, with the
stated configurations and degree ranges pinned.  Each test prints a single
pass/fail line (visible with -s or in the captured output)."""

import sys
import time

from cycloschur.coeff import LaurentRing
from cycloschur.combinatorics import Shape
from cycloschur.hecke import HeckeContext
from cycloschur.liealg import LieContext
from cycloschur.reporting import check
from cycloschur.schurops import SchurContext
from cycloschur.suites.hecke import verify_hecke
from cycloschur.suites.lie import (
    verify_antisymmetry,
    verify_eval_map,
    verify_gr,
    verify_jacobi,
    verify_vtau,
)
from cycloschur.suites.schur import verify_divided_powers, verify_hw_eigenvalues
from cycloschur.suites.symfun import (
    verify_char_products,
    verify_characters,
    verify_phi_q1,
    verify_phi_recursions,
)
from cycloschur.symfun import char_product_check

from api_helpers import small_multipartitions, verify_q1, verify_relations


def report(criterion, label, checks, elapsed, budget):
    bad = [c for c in checks if not c["ok"]]
    status = "PASS" if not bad and elapsed < budget else "FAIL"
    print(
        f"criterion {criterion} ({label}): {status} "
        f"[{len(checks)} checks, {elapsed:.1f}s / budget {budget:.0f}s]",
        file=sys.stderr,
    )
    assert not bad, f"criterion {criterion}: {len(bad)} failing checks, first: {bad[:2]}"
    assert elapsed < budget, f"criterion {criterion}: {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_phi_recursions():
    t0 = time.time()
    ring = LaurentRing(1)
    checks = verify_phi_recursions(6, 5, ring)
    report(1, "Phi recursions, t <= 6, k <= 5, both signs", checks, time.time() - t0, 10)


def test_criterion_2_hecke_engine():
    t0 = time.time()
    checks = []
    for n, r, m in [(3, 2, (2, 2)), (3, 3, (2, 2, 2)), (4, 2, (2, 2))]:
        ctx = HeckeContext(n, r)
        checks += verify_hecke(
            ctx, Shape(m), t_comm=4, t_mmult=3, t_etc=2, dmax=3
        )
    report(2, "Hecke engine lemmas, three configurations", checks, time.time() - t0, 300)


def test_criterion_3_psi_relations():
    t0 = time.time()
    checks = []
    for n, r, m in [(2, 2, (2, 2)), (3, 2, (2, 2)), (2, 3, (1, 1, 1))]:
        sctx = SchurContext(n, Shape(m))
        checks += verify_relations(sctx, deg=2)
    report(3, "(R1)-(R8) and CI-CX expansions", checks, time.time() - t0, 600)


def test_criterion_4_divided_powers():
    t0 = time.time()
    sctx = SchurContext(3, Shape((2, 2)))
    checks = verify_divided_powers(sctx, dmax=3)
    report(4, "divided powers d <= 3, t <= 1", checks, time.time() - t0, 120)


def test_criterion_5_q1_images():
    t0 = time.time()
    sctx = SchurContext(3, Shape((2, 2)), q_one=True)
    checks = verify_q1(sctx, deg=2)
    report(5, "q = 1: K, I, wtKJ0, (L1)-(L6) images", checks, time.time() - t0, 300)


def test_criterion_6_characters():
    t0 = time.time()
    shape = Shape((2, 2))
    ring = LaurentRing(2)
    checks = verify_characters(shape, 4, ring)
    checks += verify_char_products(shape, 5, ring)
    report(
        6,
        "character formulas (i)-(iii) with LR oracle",
        checks,
        time.time() - t0,
        120,
    )


def test_criterion_7_hw_eigenvalues():
    t0 = time.time()
    checks = verify_hw_eigenvalues(LaurentRing(2), lam_max=5, j_max=3, t_max=4)
    checks += verify_hw_eigenvalues(
        LaurentRing(2, q_one=True), lam_max=5, j_max=3, t_max=4
    )
    report(7, "highest-weight eigenvalue closed forms", checks, time.time() - t0, 60)


def test_criterion_8_lie_algebra():
    t0 = time.time()
    checks = []
    for m in [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
        lctx = LieContext(Shape(m))
        checks += verify_jacobi(lctx, deg_cap=2)
    for m in [(3, 3), (2, 2, 2)]:
        checks += verify_jacobi(LieContext(Shape(m)), deg_cap=2, sample=400, seed=0)
    lctx = LieContext(Shape((2, 2)))
    checks += verify_antisymmetry(lctx, deg_cap=3)
    checks += verify_vtau(lctx, deg_cap=3)
    checks += verify_gr(lctx, deg_cap=2)
    checks += verify_gr(LieContext(Shape((4,))), deg_cap=2)
    checks += verify_eval_map(lctx, deg_cap=2)
    report(8, "Jacobi, V_tau, graded comparison, evaluation", checks, time.time() - t0, 300)


def test_criterion_9_tensor_character_identity():
    t0 = time.time()
    shape = Shape((2, 2))
    ring = LaurentRing(2)
    checks = []
    for n1 in range(0, 6):
        for n2 in range(0, 6 - n1):
            for lam in small_multipartitions(n1, shape):
                for mu in small_multipartitions(n2, shape):
                    rep = char_product_check(lam, mu, shape, ring)
                    params = {"lambda": lam, "mu": mu}
                    checks.append(check("tensor-character", params, rep["verified"]))
    assert len(checks) == 316
    report(9, "tensor product character identity", checks, time.time() - t0, 120)
