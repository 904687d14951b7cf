import collections
import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cycloschur import cli, hecke, schurops
from cycloschur.liealg import mat_unit
from cycloschur.suites import hecke as hecke_suite
from cycloschur.suites import lie as lie_suite
from cycloschur.suites import schur as schur_suite
from cycloschur.cli import main
from cycloschur.coeff import EngineError
from cycloschur.combinatorics import Shape


class TestVerifyCommand:
    def test_symfun_suite_passes(self, capsys):
        code = main(["verify", "--suite", "symfun", "-n", "2", "-r", "2", "-m", "2,2"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 2
        assert "points" not in report["config"]
        assert report["passed"] is True
        assert report["suites"]["symfun"]["failed"] == []

    def test_config_derives_r_from_m(self):
        # there is no r to set apart from m, so no run can pair a rank-3
        # ring with a 2-component shape
        config = cli.RunConfig(n=3, m=(2, 2, 2))
        assert config.shape == Shape((2, 2, 2))
        assert config.as_json()["r"] == 3
        with pytest.raises(TypeError):
            cli.RunConfig(r=3, m=(2, 2))

    def test_lie_suite_passes(self, capsys):
        code = main(["verify", "--suite", "lie", "-r", "2", "-m", "1,1", "--deg", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_unknown_suite_exit_2(self):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_mismatched_m_exit_2(self):
        assert main(["verify", "--suite", "lie", "-r", "2", "-m", "3"]) == 2

    def test_r_defaults_to_the_block_count(self, capsys):
        # -r unset is len(-m), as RunConfig derives it
        assert main(["verify", "--suite", "lie", "-m", "2,2,2", "--deg", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["r"] == 3 and report["passed"] is True
        assert main(["verify", "--suite", "lie", "-r", "2", "-m", "2,2,2"]) == 2
        assert capsys.readouterr().err.startswith("error: -r must be 3, ")

    @pytest.mark.parametrize("argv", [
        ["--suite", "lie", "-m", "2,2", "-r", "2", "--deg", "-1"],
        ["--suite", "hecke", "-n", "-1", "-r", "1", "-m", "2"],
        ["--suite", "hecke", "-n", "1", "-r", "1", "-m", "2", "--dmax", "0"],
    ])
    def test_out_of_range_numbers_exit_2(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_reports_byte_identical(self, tmp_path):
        args = [
            "verify", "--suite", "lie", "-r", "1", "-m", "2",
            "--deg", "1", "--seed", "42",
        ]
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_verify_hecke_small(self, capsys):
        code = main(["verify", "--suite", "hecke", "-n", "2", "-r", "2", "-m", "1,1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"]["hecke"]["passed"] is True

    def test_verify_schur_tiny(self, capsys):
        code = main([
            "verify", "--suite", "schur", "-n", "1", "-r", "2", "-m", "1,1",
            "--deg", "1", "--dmax", "1",
        ])
        assert code == 0

    def test_verify_q1_tiny(self, capsys):
        code = main([
            "verify", "--suite", "q1", "-n", "1", "-r", "2", "-m", "1,1", "--deg", "1",
        ])
        assert code == 0

    def test_verify_schur_q1_single_parameter(self, capsys):
        code = main([
            "verify", "--suite", "schur,q1", "-n", "1", "-r", "1", "-m", "2",
            "--deg", "1", "--dmax", "1",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "hecke", "-r", "2", "-m", "2,x"],
        ["verify", "--suite", "hecke", "-r", "2", "-m", "0,2"],
        ["verify", "--suite", "hecke,hecke"],
    ])
    def test_bad_input_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "lie", "-r", "1", "-m", "2", "--deg", "0"],
    ])
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unwritable_out_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                             command, where):
        # rejected before any suite runs
        def not_run(*args):
            raise AssertionError("ran before --out was checked")

        monkeypatch.setitem(cli.RUNNERS, "lie", (not_run,))
        out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
        assert main([*command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(out) in line
        assert list(tmp_path.iterdir()) == []

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(self, a, b):
            raise ValueError("broken multiply")

        monkeypatch.setattr(hecke.HeckeContext, "mul", broken)
        argv = ["verify", "--suite", "hecke", "-n", "2", "-r", "1", "-m", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("internal error: ")

    def test_points_option_removed(self, capsys):
        assert main(["verify", "--suite", "lie", "--points", "3"]) == 2

    def test_compute_command_removed(self, capsys):
        # verify is the one command: character tables are printed by
        # scripts/character_tables.py
        assert main(["compute", "phi", "1", "3", "+"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "invalid choice" in line]) == 1

    def test_engine_error_exit_3(self, capsys, monkeypatch):
        # doubling phi_jm makes the X_t induction check disagree
        real = schurops.phi_jm
        monkeypatch.setattr(schurops, "phi_jm", lambda *a: real(*a).scale(2))
        argv = ["verify", "--suite", "schur", "-n", "2", "-r", "1", "-m", "2", "--deg", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("engine error: ")

    def test_broken_stacked_bracket_fails_the_cofactor_check(self, capsys, monkeypatch):
        # the cofactor reconstruction is a recorded check, not an engine error
        real = hecke_suite.stacked_bracket
        monkeypatch.setattr(hecke_suite, "stacked_bracket", lambda *a: real(*a).scale(2))
        assert main(["verify", "--suite", "hecke", "-n", "2", "-r", "1", "-m", "2"]) == 1
        failed = json.loads(capsys.readouterr().out)["suites"]["hecke"]["failed"]
        assert any(c["check"] == "divided-bracket-cofactor" for c in failed)
        assert all(not c["ok"] for c in failed)

    def test_non_divisible_image_fails_the_divided_power_check(self, capsys, monkeypatch):
        # a divisor [d]! (1 + q^2) leaves a remainder on the nonzero images
        real = schur_suite.qfactorial

        def qfactorial(d, ring):
            fact = real(d, ring)
            return fact * (ring.one + ring.q_pow(2)) if d >= 2 else fact

        monkeypatch.setattr(schur_suite, "qfactorial", qfactorial)
        argv = ["verify", "--suite", "schur", "-n", "3", "-r", "2", "-m", "2,2", "--deg", "0"]
        assert main(argv) == 1
        failed = json.loads(capsys.readouterr().out)["suites"]["schur"]["failed"]
        assert failed
        for c in failed:
            assert c["check"] == "divided-power-integral" and c["params"]["d"] >= 2
            assert set(c["detail"]) == {"target_weight", "image"}
            assert len(c["detail"]["target_weight"]) == 2
            assert 1 <= len(c["detail"]["image"]) <= 3


# Per-family check counts and the sha256 of the canonical ``suites`` section
# for ``verify --suite schur,q1 -n 2 -r 2 -m 1,2 --deg 1 --dmax 1``: a run
# that reaches every schur and q1 family, the R6 junction case and
# R7-adjacent in both signs.
PINNED_FAMILIES = {
    "schur": {
        "CI-CX-minus-form1": 48, "CI-CX-minus-form2": 48,
        "CI-CX-plus-form1": 48, "CI-CX-plus-form2": 48, "CJ0": 2,
        "R1-K-inverse": 3, "R1-K-inverse-rev": 3, "R1-K-square": 6,
        "R2-II": 96, "R2-KI": 36, "R2-KK": 6, "R3-KXK": 24,
        "R4-minus": 24, "R4-plus": 24, "R5-minus": 48, "R5-plus": 48,
        "R6-diagonal": 8, "R6-offdiagonal": 8, "R7-adjacent-minus": 4,
        "R7-adjacent-plus": 4, "R7-same-index": 16, "R8-serre": 24,
        "divided-power-integral": 48, "hw-eigenvalue": 160, "wtKJ0-cleared": 2,
    },
    "q1": {
        "hw-eigenvalue": 160, "q1-I-plus-minus": 9, "q1-K-trivial": 6,
        "q1-L1": 24, "q1-L2": 48, "q1-L3-diag": 8, "q1-L3-offdiag": 8,
        "q1-L4": 16, "q1-L5": 16, "q1-L6": 32, "q1-wtKJ0": 2,
    },
}
PINNED_SHA256 = "a257e0637ca8f48c1eb4878b076e8e547c0cd34efc3dde5f10ee8498f644a7a2"


# The q1, schur and hecke workloads of the benchmark at seed 0, with the
# digests recorded in bench/expected.json.
@pytest.mark.parametrize("argv,digest", [
    (["--suite", "q1", "-n", "3", "-r", "2", "-m", "2,2"],
     "28e7fe4adf9c064cd1df46aca3ac2355a78283302d5c18dfc2c120533ac1f79e"),
    (["--suite", "schur", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "2"],
     "4f887598b545da69dc477aa70926cf48cb1fbd605c5b3553cd77bea4f1df1c5b"),
    (["--suite", "hecke", "-n", "3", "-r", "3", "-m", "2,2,2"],
     "b8d2414b1297fc86a6152fdd1a3da40d83e25139121329801a143e0254b2526d"),
    (["--suite", "lie,symfun", "-n", "3", "-r", "3", "-m", "2,2,2", "--deg", "2"],
     "20e1e05b1dc47080fb6819c3471b196be23090f3afddc1e0aa5e88ba1b8e51cf"),
])
def test_benchmark_suites_pinned(capsys, argv, digest):
    assert main(["verify", *argv, "--seed", "0"]) == 0
    assert _suites_sha256(capsys) == digest


# A heavier Hecke run, with blocks of size up to 4 through the m_mu coset
# sweep: 7741 checks, digest recorded before m_mu_mul replaced the expanded
# m_mu.
def test_heavy_hecke_suites_pinned(capsys):
    assert main(["verify", "--suite", "hecke", "-n", "4", "-r", "3", "-m", "2,2,2"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites["hecke"]["total"] == 7741
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "5b71fa65dfd97df3f36d7e134111bcbd2b87b37f8e98bbf31389fef3c3fbd29f"
    )


# The coset-heavy run, blocks of size up to 5: 4167 checks, digest recorded
# while every m_mu identity still multiplied in the whole m_mu.
def test_coset_heavy_hecke_suites_pinned(capsys):
    assert main(["verify", "--suite", "hecke", "-n", "5", "-r", "2", "-m", "2,2"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites["hecke"]["total"] == 4167
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "bbcce3374b680176e04d4a9e90354e0cacf9ad9d3d647af94eb0b0426c1c3e40"
    )


# The largest coset-heavy run, blocks of size up to 6: 7006 checks, digest
# recorded while every m_mu identity was decided by the coset sweep.
def test_largest_hecke_suites_pinned(capsys):
    assert main(["verify", "--suite", "hecke", "-n", "6", "-r", "2", "-m", "2,2"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites["hecke"]["total"] == 7006
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "528ba3e9bc0eaf3ac32f759ef309383b5dd3045580e68b272b771881b3e40e1f"
    )


# Heavier Schur runs, digests recorded before the operator identities were
# decided block by block: degree 3 over a junction at n = 3, and three
# components at r = 3.  The n = 4 runs divide 1260 images by [d]! (by d! at
# q = 1), 408 of them with a nonzero quotient; their digests were recorded
# while the quotient was still taken on grouped MultiLaurent coefficients.
@pytest.mark.parametrize("argv,total,digest", [
    (["-n", "3", "-r", "2", "-m", "1,2", "--deg", "3"], 2494,
     "901ef4881eca7fc226265a97a4174e350e9c7e7af42140a97a135d38e8865fe1"),
    (["-n", "2", "-r", "3", "-m", "1,2,1", "--deg", "2"], 2853,
     "727c905a54c281fafe0045d6563081e5c4446bf66010b9f5d75c934dd6343934"),
    (["-n", "4", "-r", "2", "-m", "2,2", "--deg", "0"], 1769,
     "49452c281489f9b3fa5eb8c7363a40b166767b0f01dcc84111e1351efdce2f95"),
    (["-n", "4", "-r", "2", "-m", "2,2", "--deg", "0", "--q1"], 1769,
     "a018ce117740ce6935bd307e7b83da723b05295cb24efaff8ade4bd51843c859"),
    # recorded before the table products and block verdicts were memoized
    (["-n", "3", "-r", "2", "-m", "2,2", "--deg", "2"], 3213,
     "c4ebb7614ec448d7e581af24720338c9b33f449a0e0d566e57d4846d865fa8eb"),
    # recorded while the divided powers were decided on the expanded m_nu h:
    # 7560 divided powers, 1660 of them with a nonzero quotient, and the
    # only pinned n = 4 run whose lprod has both Q_1 and Q_2 factors
    (["-n", "4", "-r", "3", "-m", "2,2,2", "--deg", "2"], 13310,
     "5913c29282888a1272e972fc819f3ac8d58fead0f7ffb8bac6b8e34279a5fbbc"),
])
def test_heavy_schur_suites_pinned(capsys, argv, total, digest):
    assert main(["verify", "--suite", "schur", *argv]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites["schur"]["total"] == total
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


# A failing run: R4 and R5 with the q-power of every q-commutator off by
# one.  The digest covers the 288 failed checks with their witness weights,
# target weights and the terms of m_nu * (A_nu - B_nu); it was recorded
# before the table products and block verdicts were memoized.
def test_failing_schur_run_pinned(capsys, monkeypatch):
    real = schur_suite.ow_qcomm
    monkeypatch.setattr(schur_suite, "ow_qcomm", lambda ring, a, b, e: real(ring, a, b, e + 1))
    argv = ["verify", "--suite", "schur", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "1"]
    assert main(argv) == 1
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert (suites["schur"]["total"], len(suites["schur"]["failed"])) == (1628, 288)
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "130449d77c45c62a283f399b997745858d00ba42117c2b470ee3483bf988c1e2"
    )


# A failing Lie run on (2, 2) at degree 1.  E[1,2;1] acts on V_tau as
# 4 tau + 1 in place of tau, which differs at every tau but -1/3 and
# survives at tau = 0, and [E[1,2;0], E[2,2;0]] is emptied in both orders, a
# lost bracket on a shared index.  The failed checks and the digest were
# recorded while the evaluation map had its own route through V_0.
def test_failing_lie_run_pinned(capsys, monkeypatch):
    real = lie_suite.LieContext

    def corrupted(shape):
        lctx = real(shape)
        ring = lctx.ring
        lctx._vtau[1, 2, 1] = mat_unit(lctx, 0, 1, ring.q.scale(4) + ring.one)
        a, b = (1, 2, 0), (2, 2, 0)
        lctx._bb_cache[a, b] = lctx._bb_cache[b, a] = lctx.zero()
        return lctx

    monkeypatch.setattr(lie_suite, "LieContext", corrupted)
    assert main(["verify", "--suite", "lie", "-m", "2,2", "-r", "2", "--deg", "1"]) == 1
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites["lie"]["total"] == 13
    assert sorted(c["check"] for c in suites["lie"]["checks"] if not c["ok"]) == [
        "eval-homomorphism", "eval-kills-positive-degree", "gr-leading-term", "jacobi",
        *["vtau-basis-closed-form"] * 2, *["vtau-homomorphism"] * 3,
    ]
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "f2983c3f79774b1aed55cc4ecae150d73aa2d7e2874f967366a7ab4a33240d11"
    )


# Shapes where the plus and minus sides differ: r = 2 Hecke windows (the
# README argv) and Lie brackets across a junction in the middle of m.
@pytest.mark.parametrize("argv,digest", [
    (["--suite", "hecke", "-n", "3", "-r", "2", "-m", "2,2"],
     "33c0cfe9eb7f2b13c228923455cf5a0b1b5c973bd7efe1da61972a006a069ac0"),
    (["--suite", "lie", "-m", "1,2,1", "-r", "3", "--deg", "2"],
     "fdcb84b98e31c928b854db4b0a310961832f52d4ee6fec64ac1852926d253f8e"),
    # Weyl characters and their products across the same junction
    (["--suite", "symfun", "-n", "3", "-r", "3", "-m", "1,2,1"],
     "8660b47dffb8739a90124ffca5d701d315d56cff6ac3502b5634c3ba5437a89c"),
])
def test_sign_shapes_suites_pinned(capsys, argv, digest):
    assert main(["verify", *argv]) == 0
    assert _suites_sha256(capsys) == digest


# One component: gr-exact-current runs, and most of its pairs are decided
# without building either side.  14 checks, digest recorded before that skip.
def test_one_component_lie_suites_pinned(capsys):
    assert main(["verify", "--suite", "lie", "-r", "1", "-m", "4", "--deg", "2"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites["lie"]["total"] == 14
    assert "gr-exact-current" in {c["check"] for c in suites["lie"]["checks"]}
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "e8badd6d5b87f544a885a6da6760a1e78b4b706e01a0b40d6305764924a7bf05"
    )


# Exhaustive Jacobi runs (four positions or fewer), digests recorded while
# Jacobi still walked every ordered triple; ``triples`` stays that count.
# One label has no strict triple but one ordered triple, and still passes.
@pytest.mark.parametrize("argv,triples,digest", [
    (["-m", "2,2", "-r", "2", "--deg", "2"], 110592,
     "c015e530a30cfbc31637517db04ce556f0b7d48e347ac6d6b2e201103c382d14"),
    (["-m", "1,1", "-r", "2", "--deg", "0"], 64,
     "98ac34fc880f71ed1ede02515d827aaafc5a7c2aa5fa88157121f1afcd2aa060"),
    (["-m", "1", "-r", "1", "--deg", "0"], 1,
     "5ad238e126aa3403eda9553d2cdd672a38e63628c11bcddc323cccf1e999f3eb"),
])
def test_exhaustive_jacobi_suites_pinned(capsys, argv, triples, digest):
    assert main(["verify", "--suite", "lie", *argv]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    (jacobi,) = [c for c in suites["lie"]["checks"] if c["check"] == "jacobi"]
    assert jacobi["ok"] and jacobi["params"]["triples"] == triples
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


# The README's ``--suite all`` line: every suite in one run, with the
# per-suite totals and the digest recorded before the evaluation map was
# read from V_0 and the Hecke terms were keyed (w, key).
def test_readme_all_suites_pinned(capsys):
    argv = ["verify", "--suite", "all", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "2",
            "--seed", "0"]
    assert main(argv) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert {name: s["total"] for name, s in suites.items()} == {
        "hecke": 440, "schur": 2853, "lie": 13, "symfun": 161, "q1": 934,
    }
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "378a27e8809a4e1e408038c3939f17f9a62cdf84c338900acf53ac12dddf8911"
    )


# Neither the q1 checks nor the hecke checks record n, m or q, so no pinned
# digest tells whether a run honoured those options: these tests record the
# context each runner builds.
def _record_contexts(monkeypatch, module, name):
    built = []
    base = getattr(module, name)

    class Recording(base):
        def __init__(self, *args, **kwargs):
            built.append((args, kwargs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, name, Recording)
    return built


def test_q1_runner_builds_the_requested_context(monkeypatch, capsys):
    built = _record_contexts(monkeypatch, schur_suite, "SchurContext")
    assert main(["verify", "--suite", "q1", "-n", "4", "-r", "3", "-m", "1,2,1"]) == 0
    assert built == [((4, Shape((1, 2, 1))), {"q_one": True})]


@pytest.mark.parametrize("flags,q_one", [([], False), (["--q1"], True)])
def test_hecke_runner_builds_the_requested_context(monkeypatch, capsys, flags, q_one):
    built = _record_contexts(monkeypatch, hecke_suite, "HeckeContext")
    assert main(["verify", "--suite", "hecke", "-n", "3", "-r", "2", "-m", "2,2", *flags]) == 0
    assert built == [((3, 2), {"q_one": q_one})]


def _suites_sha256(capsys):
    suites = json.loads(capsys.readouterr().out)["suites"]
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_schur_q1_suites_pinned(capsys):
    code = main([
        "verify", "--suite", "schur,q1", "-n", "2", "-r", "2", "-m", "1,2",
        "--deg", "1", "--dmax", "1",
    ])
    assert code == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    for name, families in PINNED_FAMILIES.items():
        counts = collections.Counter(c["check"] for c in suites[name]["checks"])
        assert counts == families
        assert suites[name]["total"] == sum(families.values())
    assert sum(PINNED_FAMILIES["schur"].values()) == 786
    assert sum(PINNED_FAMILIES["q1"].values()) == 329
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_SHA256


def test_character_tables_script_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "character_tables.py"
    out = subprocess.run(
        [sys.executable, str(script), "-m", "2,2", "-n", "3"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert len(out.splitlines()) == 30
    assert "  ch D((1),(1)): 7 weights, dimension 8" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "26c3616b551f0da7fb225475f0fa35f2b931efb88af284624aa7afcd7faa919c"
    )


def test_campaign_script_goes_on_past_usage_and_engine_errors(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # a negative n is a usage error; a doubled phi_jm breaks the X_t
    # induction check of the schur suite, an engine error
    monkeypatch.setattr(script, "CAMPAIGN", [
        (("symfun",), -1, (2,), 0), (("symfun",), 2, (2,), 0), (("schur",), 2, (2,), 1),
    ])
    real = schurops.phi_jm
    monkeypatch.setattr(schurops, "phi_jm", lambda *a: real(*a).scale(2))
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--outdir", str(tmp_path)])
    assert script.main() == 3
    captured = capsys.readouterr()
    rows = [line.split()[:3] for line in captured.out.splitlines()[-4:-1]]
    assert rows == [["symfun_n-1_r1_m2", "usage", "-"], ["symfun_n2_r1_m2", "pass", "130"],
                    ["schur_n2_r1_m2", "error", "-"]]
    assert captured.out.splitlines()[-1] == "1 pass, 0 FAIL, 1 usage, 1 error"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["symfun_n2_r1_m2.json"]
    errors = captured.err.splitlines()
    assert errors[0].startswith("error: -n must be at least 0")
    assert errors[1].startswith("engine error: ")


# ``cycloschur verify`` deals the parts of its suites round-robin to as many
# workers as there are usable CPUs: this process runs the first group, forked
# workers the others.  These tests set the CPU count by replacing
# ``os.sched_getaffinity``, compare a k-worker run with a one-worker run,
# and check that no worker outlives ``main()``.
def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify(monkeypatch, capsys, cpus, argv):
    _use_cpus(monkeypatch, cpus)
    code = main(["verify", *argv])
    _no_child_left()
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv,code,totals,digest", [
    # the README ``--suite all`` line: three workers at four CPUs
    (["--suite", "all", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "2", "--seed", "0"], 0,
     {"hecke": 440, "schur": 2853, "lie": 13, "symfun": 161, "q1": 934},
     "378a27e8809a4e1e408038c3939f17f9a62cdf84c338900acf53ac12dddf8911"),
    # the lie workload of the benchmark
    (["--suite", "lie,symfun", "-n", "3", "-r", "3", "-m", "2,2,2", "--deg", "2",
      "--seed", "0"], 0, {"lie": 13, "symfun": 420},
     "20e1e05b1dc47080fb6819c3471b196be23090f3afddc1e0aa5e88ba1b8e51cf"),
    # the failing run of test_failing_schur_run_pinned, beside q1
    (["--suite", "schur,q1", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "1"], 1,
     {"schur": 1628, "q1": 483}, None),
])
@pytest.mark.parametrize("cpus", [2, 4])
def test_workers_write_the_one_worker_report(monkeypatch, capsys, argv, code, totals, digest,
                                             cpus):
    if digest is None:
        real = schur_suite.ow_qcomm
        monkeypatch.setattr(schur_suite, "ow_qcomm",
                            lambda ring, a, b, e: real(ring, a, b, e + 1))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    one = _verify(monkeypatch, capsys, 1, argv)
    assert forks == []
    many = _verify(monkeypatch, capsys, cpus, argv)
    parts = sum(len(cli.RUNNERS[name]) for name in totals)
    assert len(forks) == min(cpus, parts) - 1
    assert many == one
    code_many, captured = many
    assert (code_many, captured.err) == (code, "")
    suites = json.loads(captured.out)["suites"]
    assert {name: s["total"] for name, s in suites.items()} == totals
    if digest is None:
        # the schur section is the pinned single-suite failing report
        suites = {"schur": suites["schur"]}
        digest = "130449d77c45c62a283f399b997745858d00ba42117c2b470ee3483bf988c1e2"
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


# The schur suite has two parts: the relations with a K or an I, then the
# relations among the X with the divided powers and the highest-weight
# eigenvalues.  The q1 suite has three: the q = 1 identities with (L1)-(L3),
# then (L4)-(L6), then the highest-weight eigenvalues.  A run forks one
# worker for each part beyond the first that a usable CPU is left for.
SCHUR_ARGVS = [
    ["--suite", "schur", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "2"],
    ["--suite", "schur", "-n", "3", "-m", "2,2", "--deg", "2"],
]
Q1_ARGVS = [
    # the q1 workload of the benchmark
    ["--suite", "q1", "-n", "3", "-r", "2", "-m", "2,2"],
    ["--suite", "q1", "-n", "3", "-r", "3", "-m", "1,2,1"],
]


@pytest.mark.parametrize("argv", SCHUR_ARGVS + Q1_ARGVS)
def test_a_split_run_uses_its_cpus(monkeypatch, capsys, argv):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    one = _verify(monkeypatch, capsys, 1, argv)
    assert forks == []
    assert one[0] == 0 and one[1].err == ""
    parts = len(cli.RUNNERS[argv[1]])
    for cpus in (2, 4):
        del forks[:]
        assert _verify(monkeypatch, capsys, cpus, argv) == one
        assert len(forks) == min(cpus, parts) - 1


def _junction_off_by_one(monkeypatch):
    real = schur_suite.at_junction
    monkeypatch.setattr(schur_suite, "at_junction",
                        lambda ring, jk, J, d: real(ring, jk, J, d + 1))


def _broken_quotient(monkeypatch):
    def broken(ctx, mu, D, g):
        raise EngineError("broken quotient")

    monkeypatch.setattr(schur_suite, "m_mu_divides", broken)


# Faults that only the second part reaches: a wrong degree of J in the
# R6-diagonal right-hand side (a verification failure) and an engine error
# in the divided powers.
@pytest.mark.parametrize("fault,code,line", [
    (_junction_off_by_one, 1, ""),
    (_broken_quotient, 3, "engine error: broken quotient\n"),
])
def test_a_fault_in_the_second_schur_part(monkeypatch, capsys, fault, code, line):
    fault(monkeypatch)
    argv = SCHUR_ARGVS[0]
    one = _verify(monkeypatch, capsys, 1, argv)
    assert _verify(monkeypatch, capsys, 2, argv) == one
    assert (one[0], one[1].err) == (code, line)
    if code == 1:
        failed = json.loads(one[1].out)["suites"]["schur"]["failed"]
        assert failed and {c["check"] for c in failed} == {"R6-diagonal"}
    else:
        assert one[1].out == ""


def _commutator_as_product(monkeypatch):
    monkeypatch.setattr(schur_suite, "ow_commutator",
                        lambda ring, a, b: schurops.ow_mul(ring, a, b))


def _broken_eigenvalue(monkeypatch):
    def broken(*args):
        raise EngineError("broken eigenvalue")

    monkeypatch.setattr(schur_suite, "hw_eigenvalue_pair", broken)


# Faults that only a later q1 part reaches: [a, b] read as the product a b
# in the (L6) left-hand sides (a verification failure, in the worker's part
# at two CPUs) and an engine error in the highest-weight eigenvalues (the
# last part, in this process at two CPUs).
@pytest.mark.parametrize("fault,code,line", [
    (_commutator_as_product, 1, ""),
    (_broken_eigenvalue, 3, "engine error: broken eigenvalue\n"),
])
def test_a_fault_in_a_later_q1_part(monkeypatch, capsys, fault, code, line):
    fault(monkeypatch)
    argv = ["--suite", "q1", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "1"]
    one = _verify(monkeypatch, capsys, 1, argv)
    assert _verify(monkeypatch, capsys, 2, argv) == one
    assert (one[0], one[1].err) == (code, line)
    if code == 1:
        failed = json.loads(one[1].out)["suites"]["q1"]["failed"]
        assert failed and {c["check"] for c in failed} == {"q1-L6"}
    else:
        assert one[1].out == ""


# The parts of a suite share one SchurContext within a run and in one
# process, and no context outlives its run: a second run builds its own, so
# an engine fault installed after the first run reaches the second.  The
# q1 suite's eigenvalue part builds no context.
@pytest.mark.parametrize("cpus", [1, 2])
def test_no_context_outlives_its_run(monkeypatch, capsys, cpus):
    built = _record_contexts(monkeypatch, schur_suite, "SchurContext")
    real = schurops.phi_jm
    for suite, q_one in (("schur", False), ("q1", True)):
        del built[:]
        monkeypatch.setattr(schurops, "phi_jm", real)
        argv = ["--suite", suite, "-n", "2", "-r", "1", "-m", "2", "--deg", "1"]
        assert _verify(monkeypatch, capsys, cpus, argv)[0] == 0
        assert built == [((2, Shape((2,))), {"q_one": q_one})]
        monkeypatch.setattr(schurops, "phi_jm", lambda *a: real(*a).scale(2))
        code, captured = _verify(monkeypatch, capsys, cpus, argv)
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("engine error: ")
        assert len(built) == 2


def _runner(outcome):
    """The parts of a one-part suite that returns no checks, or raises
    ``outcome``."""
    def run(config):
        if outcome is not None:
            raise outcome
        return []
    return (run,)


# Each case sets the runners of ``lie,symfun,q1``: at two CPUs this process
# runs lie and q1, a worker runs symfun.  A run stops at the first suite in
# suite order that raises, with that suite's exit code and stderr line.
@pytest.mark.parametrize("outcomes,line", [
    # a worker's engine error
    ((None, EngineError("broken"), None), "engine error: broken"),
    # any other exception in a worker
    ((None, ValueError("broken"), None), "internal error: ValueError: broken"),
    # the worker's suite comes first in suite order
    ((None, KeyError("first"), ValueError("second")), "internal error: KeyError: 'first'"),
    # this process's suite comes first
    ((ValueError("first"), KeyError("second"), None), "internal error: ValueError: first"),
])
def test_a_worker_failure_is_the_one_worker_failure(monkeypatch, capsys, tmp_path, outcomes,
                                                    line):
    for name, outcome in zip(("lie", "symfun", "q1"), outcomes):
        monkeypatch.setitem(cli.RUNNERS, name, _runner(outcome))
    out = tmp_path / "report.json"
    argv = ["--suite", "lie,symfun,q1", "--out", str(out)]
    for cpus in (1, 2):
        code, captured = _verify(monkeypatch, capsys, cpus, argv)
        assert (code, captured.out, captured.err) == (3, "", line + "\n")
        assert not out.exists()


# a worker that leaves before sending its result, with a failing status or not
@pytest.mark.parametrize("status", [1, 0])
def test_a_worker_that_dies_is_exit_3(monkeypatch, capsys, tmp_path, status):
    monkeypatch.setitem(cli.RUNNERS, "lie", _runner(None))
    monkeypatch.setitem(cli.RUNNERS, "symfun", (lambda config: os._exit(status),))
    out = tmp_path / "report.json"
    code, captured = _verify(monkeypatch, capsys, 2, ["--suite", "lie,symfun",
                                                      "--out", str(out)])
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        f"internal error: the worker running symfun ended with status {status} and no result\n"
    )
    assert not out.exists()


def test_this_process_failing_while_a_worker_runs(monkeypatch, capsys):
    def slow(config):
        time.sleep(30)
        return []

    # symfun comes after lie, so its worker is killed, not waited for
    monkeypatch.setitem(cli.RUNNERS, "lie", _runner(EngineError("broken")))
    monkeypatch.setitem(cli.RUNNERS, "symfun", (slow,))
    start = time.monotonic()
    code, captured = _verify(monkeypatch, capsys, 2, ["--suite", "lie,symfun"])
    assert time.monotonic() - start < 10
    assert (code, captured.out, captured.err) == (3, "", "engine error: broken\n")


def test_an_interrupt_kills_and_reaps_the_workers(monkeypatch):
    def interrupted(config):
        raise KeyboardInterrupt

    def slow(config):
        time.sleep(30)
        return []

    monkeypatch.setitem(cli.RUNNERS, "lie", (interrupted,))
    monkeypatch.setitem(cli.RUNNERS, "symfun", (slow,))
    _use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--suite", "lie,symfun"])
    assert time.monotonic() - start < 10
    _no_child_left()


# A run killed from outside, as a benchmark's deadline or ``timeout`` does,
# cannot reap its workers.  A worker holds none of the run's standard
# streams, so a reader of the run's output still sees its end at once.
KILLED_RUN = """
import os, sys, time
from pathlib import Path
from cycloschur import cli

os.sched_getaffinity = lambda pid: {0, 1}


def started(config):
    print("started", file=sys.stderr, flush=True)
    time.sleep(60)
    return []


def worker(config):
    Path(sys.argv[1]).write_text(str(os.getpid()))
    time.sleep(60)
    return []


cli.RUNNERS["lie"], cli.RUNNERS["symfun"] = (started,), (worker,)
cli.main(["verify", "--suite", "lie,symfun"])
"""


def test_a_killed_run_leaves_no_worker_on_its_output(tmp_path):
    pid_file = tmp_path / "worker.pid"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.Popen([sys.executable, "-c", KILLED_RUN, str(pid_file)], env=env,
                           stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
    worker = None
    try:
        assert run.stderr.readline() == b"started\n"
        deadline = time.monotonic() + 10
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        worker = int(pid_file.read_text())
        run.kill()
        start = time.monotonic()
        assert run.stdout.read() == b""
        assert run.stderr.read() == b""
        assert time.monotonic() - start < 10
    finally:
        run.kill()
        run.wait()
        run.stdout.close()
        run.stderr.close()
        if worker is not None:
            try:
                os.kill(worker, signal.SIGKILL)
            except ProcessLookupError:
                pass
