import contextlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwflow import analytic, bogoliubov, cli, cli_fock_verify, flow, fock
from bwflow.errors import ParseError, StepSizeUnderflow
from bwflow.opcore import QuadraticSpec, hs_norm
from analytic_reference import block_at
from conftest import SRC, fresh_env


def write_spec(tmp_path, name, doc, comments=()):
    path = tmp_path / name
    lines = [f"# {c}" for c in comments]
    lines.append(json.dumps(doc))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def generic_file(tmp_path):
    return write_spec(tmp_path, "generic.json",
                      {"blocks": [[1.0, 2.0, 0.5]], "label": "generic"})


@pytest.fixture()
def blowup_file(tmp_path):
    return write_spec(tmp_path, "blowup.json", {"blocks": [[0.0, 0.0, 1.0]]})


def test_spec_round_trip():
    omega = np.array([[np.sqrt(2.0), 0.3 + 0.1j], [0.3 - 0.1j, 1.0 / 3.0]])
    b = np.array([[0.1j, 0.25], [0.25, -0.7]])
    spec = QuadraticSpec.from_matrices(omega, b, c0=np.pi, label="rt")
    buf = io.StringIO()
    cli.dump_spec(spec, buf, comments=("written by the round-trip test",))
    back = cli.parse_spec_text(buf.getvalue())
    assert hs_norm(back.omega - spec.omega) <= 1e-15
    assert hs_norm(back.b - spec.b) <= 1e-15
    assert back.c0 == spec.c0
    assert back.label == "rt"


def test_spec_doc_validation():
    with pytest.raises(ParseError):
        cli.spec_from_doc({"blocks": [[1, 2, 0.5]], "omega": [], "b": [],
                           "dim": 1})
    with pytest.raises(ParseError):
        cli.spec_from_doc({"label": "empty"})
    with pytest.raises(ParseError):
        cli.spec_from_doc({"dim": 1, "omega": [[1.0, 0.0]]})  # b missing
    with pytest.raises(ParseError):
        cli.spec_from_doc({"dim": 1, "omega": [[1.0]], "b": [[0.0, 0.0]]})
    with pytest.raises(ParseError):
        cli.spec_from_doc({"dim": 2, "omega": [[1, 0]] * 4, "b": [[0, 0]] * 3})
    with pytest.raises(ParseError):
        cli.spec_from_doc({"blocks": []})
    with pytest.raises(ParseError):
        cli.spec_from_doc({"blocks": [[1.0, 2.0]]})


def test_comment_lines_and_parse_location(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text('# leading comment\n# another\n{"blocks": [[1, 2, 0.5]]}\n')
    spec = cli.load_spec(str(ok))
    assert spec.dim == 2

    bad = tmp_path / "bad.json"
    bad.write_text("# comment\n{ not json\n")
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert "bad.json:2:" in err


def test_missing_file_is_parse_error(capsys):
    assert cli.main(["check", "/nonexistent/spec.json"]) == cli.EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


def test_max_dim_env(tmp_path, monkeypatch, capsys):
    path = write_spec(tmp_path, "four.json",
                      {"blocks": [[1, 2, 0.1], [1, 2, 0.1]]})
    monkeypatch.setenv("BWFLOW_MAX_DIM", "2")
    assert cli.main(["check", path]) == cli.EXIT_PARSE
    assert "BWFLOW_MAX_DIM" in capsys.readouterr().err
    monkeypatch.setenv("BWFLOW_MAX_DIM", "8")
    assert cli.main(["check", path]) == cli.EXIT_OK
    capsys.readouterr()


def test_check_verdict_table(generic_file, capsys):
    assert cli.main(["check", generic_file]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for name in ("A1", "A2", "A3", "A4", "A5", "A6", "FB", "KM"):
        assert any(ln.startswith(name) for ln in out.splitlines())


def test_check_failing_spec(blowup_file, capsys):
    assert cli.main(["check", blowup_file]) == cli.EXIT_CONDITION
    capsys.readouterr()


def test_check_json_artifact(generic_file, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert cli.main(["check", generic_file, "--json", str(out_json)]) == 0
    capsys.readouterr()
    doc = json.loads(out_json.read_text())
    assert doc["verdicts"]["A3"] == "holds"
    assert isinstance(doc["margins"]["A3"], float)


def test_run_summary_and_csv(generic_file, tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    code = cli.main(["run", generic_file, "--t-end", "5", "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "converged: yes" in out
    assert "OmegaInf eigenvalues" in out
    first = csv.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == cli.CSV_HEADER
    # every emitted sample sits on the closed-form trajectory
    for ln in lines[1:]:
        t, hsb = (float(x) for x in ln.split(",")[:2])
        _, _, bt2, _ = analytic.exact_block(1.0, 2.0, 0.5, t)
        assert abs(hsb - np.sqrt(2.0 * bt2)) < 1e-7
    # byte-identical on a repeat run
    cli.main(["run", generic_file, "--t-end", "5", "--csv", str(csv)])
    capsys.readouterr()
    assert csv.read_bytes() == first


def test_run_blowup_exit(blowup_file, tmp_path, capsys):
    csv = tmp_path / "partial.csv"
    code = cli.main(["run", blowup_file, "--t-end", "1", "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_BLOWUP
    assert "blow-up detected" in out
    assert "T_max estimate" in out
    assert csv.read_text().splitlines()[0] == cli.CSV_HEADER


def test_diag_report_and_json(generic_file, tmp_path, capsys):
    out_json = tmp_path / "diag.json"
    code = cli.main(["diag", generic_file, "--t-end", "5",
                     "--json", str(out_json)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "symplectic residuals" in out
    assert "squeeze strengths" in out
    assert "holds: yes" in out
    doc = json.loads(out_json.read_text())
    assert doc["norm_bounds"] == [True, True]
    assert len(doc["u"]) == 4 and len(doc["alphas"]) == 2
    assert max(doc["transform_residuals"].values()) < 1e-6


def test_diag_stiff_block_checks_hold(tmp_path, capsys):
    # ||v|| and sinh(4 int ||B||) agree in every printed digit here, so only
    # a map and integral under one error control keep the bound
    path = tmp_path / "stiff.json"
    assert cli.main(["oracle", "block", "1", "1e4", "0.5", "--out", str(path)]) == 0
    out_json = tmp_path / "diag.json"
    code = cli.main(["diag", str(path), "--t-end", "1", "--json", str(out_json)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "holds: yes" in out and "map check failed" not in out
    doc = json.loads(out_json.read_text())
    assert doc["norm_bounds"] == [True, True]
    assert doc["transform_residuals"]["b"] <= 1e-6


def test_diag_evaluates_the_symplectic_residuals_once(generic_file, tmp_path, capsys,
                                                      monkeypatch):
    # printed, then checked by transform_spec and by decompose_generator:
    # one map, one evaluation
    calls = []
    real = bogoliubov._residuals
    monkeypatch.setattr(bogoliubov, "_residuals", lambda u, v: calls.append(1) or real(u, v))
    argv = ["diag", generic_file, "--t-end", "5", "--json", str(tmp_path / "diag.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1
    assert "symplectic residuals:" in capsys.readouterr().out


def test_diag_exits_1_when_a_map_check_fails(generic_file, tmp_path, capsys, monkeypatch):
    # a loose tolerance leaves the map outside MAP_TOL of symplectic
    code = cli.main(["diag", generic_file, "--t-end", "5", "--tol", "1e-4"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CONDITION
    assert "map check failed: symplectic residual" in out
    # a failing norm bound still prints the whole report and writes the JSON
    monkeypatch.setattr(bogoliubov, "norm_bounds", lambda m, int_b: (True, False))
    out_json = tmp_path / "diag.json"
    code = cli.main(["diag", generic_file, "--t-end", "5", "--json", str(out_json)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CONDITION
    assert "holds: NO" in out and "squeeze strengths" in out
    assert out.endswith("map check failed: norm bounds\n")
    assert json.loads(out_json.read_text())["norm_bounds"] == [True, False]


@pytest.mark.parametrize("command, t_end", [("run", 10.0), ("diag", 10.0),
                                            ("batch", 10.0), ("fock-verify", 2.0)])
def test_run_like_commands_default_horizon(command, t_end):
    parser = cli.build_parser()
    assert parser.parse_args([command, "x.json"]).t_end == t_end
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    assert f"(default {t_end:g})" in sub.format_help()


def test_diag_not_converged(tmp_path, capsys):
    path = write_spec(tmp_path, "flat.json", {"blocks": [[2.0, 2.0, 1.0]]})
    code = cli.main(["diag", path, "--t-end", "2"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_NOT_CONVERGED
    assert "not converged" in out


def test_diag_blowup(blowup_file, capsys):
    assert cli.main(["diag", blowup_file, "--t-end", "1"]) == cli.EXIT_BLOWUP
    capsys.readouterr()


def test_fock_verify_prints_both_signs(tmp_path, capsys):
    path = write_spec(tmp_path, "one.json",
                      {"dim": 1, "omega": [[2.0, 0.0]], "b": [[0.5, 0.0]]})
    code = cli.main(["fock-verify", path, "--cutoff", "24",
                     "--sector-cut", "8", "--t-end", "1"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    minus = [ln for ln in out.splitlines() if "scalar sign -1" in ln]
    plus = [ln for ln in out.splitlines() if "scalar sign +1" in ln]
    assert minus and plus
    res_minus = float(minus[0].split(":")[1])
    res_plus = float(plus[0].split(":")[1])
    assert res_minus < 1e-3 < res_plus
    assert "ground energy" in out


def test_fock_verify_residuals_pin_the_scalar_sign(tmp_path, capsys):
    # the unitary flow realizes dC/dt = -8 ||B||^2: across cutoffs at a
    # fixed sector cut, the -1 conjugation residual falls with the
    # truncation error while the +1 one stays at the size of the C offset
    path = write_spec(tmp_path, "one.json",
                      {"dim": 1, "omega": [[2.0, 0.0]], "b": [[0.5, 0.0]]})
    residuals = []
    for cutoff in (12, 16, 24):
        assert cli.main(["fock-verify", path, "--cutoff", str(cutoff),
                         "--sector-cut", "8", "--t-end", "2"]) == cli.EXIT_OK
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("conjugation residual")]
        assert [ln.split("scalar sign ")[1][:2] for ln in lines] == ["-1", "+1"]
        residuals.append([float(ln.rsplit(":", 1)[1]) for ln in lines])
    minus, plus = zip(*residuals)
    assert minus[0] > minus[1] > minus[2]
    assert all(m < p for m, p in zip(minus[1:], plus[1:]))


@pytest.mark.parametrize("c0", [0.0, 0.7])
def test_fock_verify_derives_the_plus_sign_run(c0):
    # fock-verify integrates once; its +1 lines read C out of that run's
    # Omega (flow.scalar_c) and agree bit for bit with an integration at +1
    spec = QuadraticSpec.from_matrices(np.diag([1.0, 2.0]),
                                       np.array([[0, 0.5], [0.5, 0]]), c0=c0)
    traj = flow.integrate(spec, 2.0, flow.Controls())
    plus = flow.integrate(spec, 2.0, flow.Controls(), scalar_sign=1.0).final
    final = traj.final
    derived_c = flow.scalar_c(spec.c0, spec.omega, final.omega, 1.0)
    assert final.t == plus.t
    assert np.array_equal(final.omega, plus.omega) and np.array_equal(final.b, plus.b)
    assert derived_c == plus.c  # the cInf +1 line
    assert flow.scalar_c(spec.c0, spec.omega, final.omega, -1.0) == final.c
    fk = fock.build_basis(2, 12)
    u = fock.propagate(fk, traj, 0.0, 2.0)
    derived_res, plus_res = (
        fock.conjugation_residual(fk, u, spec, QuadraticSpec.from_matrices(
            final.omega, final.b, c0=c, sym_tol=np.inf), 6) for c in (derived_c, plus.c))
    assert derived_res == plus_res


def test_fock_verify_guards(tmp_path, capsys):
    three = write_spec(tmp_path, "three.json", {
        "dim": 3,
        "omega": [[1.0, 0.0] if i % 4 == 0 else [0.0, 0.0] for i in range(9)],
        "b": [[0.0, 0.0]] * 9,
    })
    assert cli.main(["fock-verify", three]) == cli.EXIT_PARSE
    one = write_spec(tmp_path, "one.json",
                     {"dim": 1, "omega": [[2.0, 0.0]], "b": [[0.5, 0.0]]})
    assert cli.main(["fock-verify", one, "--cutoff", "16",
                     "--sector-cut", "14"]) == cli.EXIT_PARSE
    capsys.readouterr()


def test_oracle_specs_parse(capsys):
    cases = [
        ["oracle", "generic", "1", "2", "0.5"],
        ["oracle", "equal-product", "1", "4", "1"],
        ["oracle", "blowup", "1"],
        ["oracle", "block", "1", "2", "0.5", "2", "2", "0.25"],
        ["oracle", "pivotal", "3"],
        ["oracle", "mixed", "0.6", "3"],
    ]
    for argv in cases:
        assert cli.main(argv) == cli.EXIT_OK
        spec = cli.parse_spec_text(capsys.readouterr().out)
        assert spec.dim >= 2
    assert cli.main(["oracle", "pivotal", "3"]) == cli.EXIT_OK
    assert cli.parse_spec_text(capsys.readouterr().out).dim == 6


def test_oracle_blowup_comment(capsys):
    assert cli.main(["oracle", "blowup", "1"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    tmax_line = [ln for ln in out.splitlines() if ln.startswith("# tMax")][0]
    assert float(tmax_line.split("=")[1]) == pytest.approx(np.pi / 16)


def test_oracle_out_of_range(capsys):
    assert cli.main(["oracle", "generic", "1", "2"]) == cli.EXIT_PARSE
    assert cli.main(["oracle", "blowup", "-1"]) == cli.EXIT_PARSE
    assert cli.main(["oracle", "generic", "1", "2", "0.8"]) == cli.EXIT_PARSE
    assert cli.main(["oracle", "equal-product", "1", "2", "0.5"]) == cli.EXIT_PARSE
    # block-parameter guards deep in the closed forms must surface cleanly too
    assert cli.main(["oracle", "generic", "1", "2", "-1"]) == cli.EXIT_PARSE
    assert cli.main(["oracle", "block", "2", "1", "0.1"]) == cli.EXIT_PARSE
    # a grid reaching into t < 0 is a domain error, not a crash
    assert cli.main(["oracle", "generic", "1", "2", "0.5",
                     "--csv=-1:2:0.5"]) == cli.EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["generic", "1", "2", "nan"],
    ["blowup", "inf"],
    ["generic", "1", "2", "0.5", "--c0", "nan"],
    ["pivotal", "0.5"],
    ["mixed", "0.6", "nan"],
    ["generic", "1", "2", "0.5", "--csv", "0:nan:1"],
    ["generic", "1", "2", "0.5", "--csv", "0:inf:1"],
    ["generic", "1", "2", "0.5", "--csv", "0:1e12:1e-9"],
    ["pivotal", "40"],
], ids=["param-nan", "param-inf", "c0-nan", "k-not-integer", "k-nan", "grid-nan",
        "grid-inf", "grid-too-long", "k-past-max-dim"])
def test_oracle_rejects_bad_numbers(capsys, args):
    # these used to write a NaN, Infinity or oversized spec that run then
    # rejects, or to end in a traceback
    assert cli.main(["oracle", *args]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(("parse error:", "error:"))


def test_oracle_csv_matches_closed_form(capsys):
    code = cli.main(["oracle", "generic", "1", "2", "0.5",
                     "--csv", "0:2:0.5"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 6
    for ln in lines[1:]:
        t, hsb, c, mineig, motion, knorm = (float(x) for x in ln.split(","))
        lo, hi, bt2, ib = analytic.exact_block(1.0, 2.0, 0.5, t)
        assert abs(hsb - np.sqrt(2.0 * bt2)) < 1e-12
        assert abs(c + 16.0 * ib) < 1e-12
        assert abs(mineig - lo) < 1e-12
        assert motion == 0.0
        assert abs(knorm - np.sqrt(2.0 * bt2)) < 1e-12  # delta = 1


PIVOTAL_3 = [(2.0 * np.sqrt(2.0) * 2.0 ** -k, 2.0 * np.sqrt(2.0) * 2.0 ** -k, 2.0 ** -k)
             for k in (1, 2, 3)]
MIXED_06_3 = [(1.0, 2.0, 0.6), (0.75 ** 2, 0.75 ** 2, 0.25), (0.75 ** 3, 0.75 ** 3, 0.125)]


GRID = "0:0.15:0.05"


@pytest.mark.parametrize("args, grid, blocks, regimes, error", [
    # one family per regime (generic: test_oracle_csv_matches_closed_form);
    # b = 0 is a block at rest in either regime
    (["equal-product", "1", "4", "1"], GRID, [(1.0, 4.0, 1.0)], ["equal-product"], None),
    (["blowup", "1"], GRID, [(0.0, 0.0, 1.0)], ["blowup"], None),
    # 4 b^2 lies inside the product tolerance of Omega = 0, yet b > 0 blows up
    (["blowup", "1e-7"], "0:1:0.5", [(0.0, 0.0, 1e-7)], ["blowup"], None),
    (["block", "0", "0", "1e-7"], "0:1:0.5", [(0.0, 0.0, 1e-7)], ["blowup"], None),
    (["block", "1", "3", "0"], GRID, [(1.0, 3.0, 0.0)], ["generic"], None),
    (["block", "1", "2", "0.5", "2", "2", "0.25", "0", "0", "0.3", "1", "3", "0"], GRID,
     [(1.0, 2.0, 0.5), (2.0, 2.0, 0.25), (0.0, 0.0, 0.3), (1.0, 3.0, 0.0)],
     ["generic", "generic", "blowup", "generic"], None),
    (["pivotal", "3"], GRID, PIVOTAL_3, ["generic"] * 3, None),
    (["mixed", "0.6", "3"], GRID, MIXED_06_3, ["generic"] * 3, None),
    (["block", "1", "2", "0.8"], "0:1:0.5", None, None, "OutOfRange: no closed form"),
    # a block at rest answers no earlier than t = 0, as every other block
    (["block", "1", "2", "0"], "-1:1:0.5", None, None, "OutOfRange: t must be nonnegative"),
    # a family's check is the sign of the product gap, whatever b is
    (["generic", "1", "2", "0"], GRID, [(1.0, 2.0, 0.0)], ["generic"], None),
    (["generic", "0", "0", "0"], GRID, None, None, "NotInRegime"),
    (["generic", "0", "2", "0"], GRID, None, None, "NotInRegime"),
    (["generic", "1", "4", "1"], GRID, None, None, "NotInRegime"),
    (["generic", "0", "0", "1e-7"], GRID, None, None, "NotInRegime"),
    (["equal-product", "0", "0", "0"], GRID, [(0.0, 0.0, 0.0)], ["equal-product"], None),
    (["equal-product", "0", "2", "0"], GRID, [(0.0, 2.0, 0.0)], ["equal-product"], None),
    # om_- = om_+: the flat branch
    (["equal-product", "2", "2", "1"], GRID, [(2.0, 2.0, 1.0)], ["equal-product"], None),
    (["equal-product", "1", "2", "0"], GRID, None, None, "NotOnManifold"),
    (["equal-product", "0", "0", "1e-7"], GRID, None, None, "NotOnManifold"),
    (["blowup", "0"], GRID, None, None, "OutOfRange"),
    (["block", "0", "0", "0"], GRID, [(0.0, 0.0, 0.0)], ["equal-product"], None),
    (["block", "0", "2", "0"], GRID, [(0.0, 2.0, 0.0)], ["equal-product"], None),
    (["block", "0", "0", "1"], GRID, [(0.0, 0.0, 1.0)], ["blowup"], None),
    (["block", "1", "4", "1"], GRID, [(1.0, 4.0, 1.0)], ["equal-product"], None),
    # rho = sigma to rounding: C was nan on every row
    (["generic", "1", "2", "1e-9"], "0:1:0.5", [(1.0, 2.0, 1e-9)], ["generic"], None),
    # a kernel of Omega that B reaches: a ZeroDivisionError traceback
    (["block", "0", "1", "1e-7"], "0:1:0.5", None, None, "OutOfRange: no closed form"),
    # a gap small against 1 but not against the block: the flat branch
    (["block", "1e-6", "1e-6", "1e-7"], "0:1:0.5", [(1e-6, 1e-6, 1e-7)], ["generic"], None),
], ids=["equal-product", "blowup", "blowup-small-b", "block-small-b", "decoupled",
        "block-x4", "pivotal", "mixed", "negative-gap", "negative-time", "generic-b0",
        "generic-000", "generic-020", "generic-141", "generic-small-b", "eqp-000",
        "eqp-020", "eqp-221-flat", "eqp-120", "eqp-small-b", "blowup-0", "block-000",
        "block-020", "block-001", "block-141", "generic-tiny-b", "block-kernel-small-b",
        "block-small-scale"])
def test_oracle_csv_every_regime(capsys, args, grid, blocks, regimes, error):
    code = cli.main(["oracle", *args, f"--csv={grid}", "--c0", "0.3"])
    out, err = capsys.readouterr()
    if error:
        assert code == cli.EXIT_PARSE and out == ""
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        return
    assert code == cli.EXIT_OK and err == ""
    assert [analytic.block_regime(*blk) for blk in blocks] == regimes
    t0, t1, dt = (float(x) for x in grid.split(":"))
    lines = out.splitlines()
    assert lines[0] == cli.CSV_HEADER and len(lines) == 1 + round((t1 - t0) / dt) + 1
    for ln in lines[1:]:
        t, hsb, c, mineig, motion, knorm = (float(x) for x in ln.split(","))
        rows = [analytic.exact_block(*blk, t) for blk in blocks]
        deltas = [om_plus - om_minus for om_minus, om_plus, _ in blocks]
        assert np.isclose(hsb, np.sqrt(sum(2.0 * r[2] for r in rows)), rtol=1e-14)
        assert np.isclose(c, 0.3 - 16.0 * sum(r[3] for r in rows), rtol=1e-14)
        assert mineig == min(min(r[0], r[1]) for r in rows)
        assert motion == 0.0
        assert np.isclose(knorm, np.sqrt(sum(2.0 * r[2] * d * d
                                             for r, d in zip(rows, deltas))), rtol=1e-14)


def test_oracle_csv_of_a_small_block_starts_at_its_own_b(capsys):
    # the flat branch printed hsB = 7.07e-7 at t = 0, five times sqrt(2) b
    assert cli.main(["oracle", "block", "1e-6", "1e-6", "1e-7", "--csv", "0:1:0.5"]) == 0
    first = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(first[1]) == pytest.approx(math.sqrt(2.0) * 1e-7, rel=1e-15)
    assert float(first[2]) == 0.0


@pytest.mark.parametrize("args, n_rows", [
    (["blowup", "1.7e308"], None),
    # b_t^2 itself passes the float range at t = 0
    (["generic", "3e160", "3e160", "1e160", "--csv", "0:1:0.5"], None),
    (["generic", "0.5", "1e300", "1e4", "--csv", "0:1e20:5e19"], 3),
    (["generic", "1", "2", "0.5", "--csv", "0:1e308:1e307"], 11),
], ids=["spec-past-the-range", "rows-past-the-range", "knorm-near-the-range",
        "grid-at-the-range"])
def test_oracle_at_the_float_range(capsys, args, n_rows):
    # the first wrote Infinity and NaN into the spec and the second printed
    # rows of nan, both with exit 0; the third was refused as not finite,
    # since kNorm squared delta = 1e300; the fourth printed its rows with
    # overflow warnings, a traceback under python -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["oracle", *args])
    out, err = capsys.readouterr()
    if n_rows is None:
        assert code == cli.EXIT_PARSE
        assert out == "" and err.count("\n") == 1 and "not finite" in err
        return
    assert code == cli.EXIT_OK and err == ""
    rows = [[float(x) for x in ln.split(",")] for ln in out.splitlines()[1:]]
    assert len(rows) == n_rows
    block = tuple(float(x) for x in args[1:4])
    for t, *got in rows:
        om_minus, om_plus, bt2, ib = map(float, block_at(*block, t))
        hsb = math.sqrt(2.0 * bt2)
        want = [hsb, -16.0 * ib, min(om_minus, om_plus), 0.0, hsb * (block[1] - block[0])]
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_block_regime_decides_on_the_exact_gap(capsys):
    # in floats the first gap is -inf against a scale of inf, which passed
    # the tolerance as equal-product, and the second is inf - inf = nan,
    # which was negative-gap; the exact gaps are -4e320 and +5e320
    assert analytic.block_regime(0.0, 1.0, 1e160) == "negative-gap"
    assert cli.main(["oracle", "equal-product", "0", "1e307", "1e307"]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: NotOnManifold") and "negative-gap" in err
    assert cli.main(["oracle", "generic", "3e160", "3e160", "1e160"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["b"][1] == [1e160, 0.0]


def test_oracle_writes_spec_file(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert cli.main(["oracle", "generic", "1", "2", "0.5",
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.load_spec(str(out)).dim == 2


def test_batch_worst_code(generic_file, blowup_file, capsys):
    code = cli.main(["batch", generic_file, blowup_file, "--t-end", "1"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_BLOWUP
    assert f"== {generic_file} (exit 0)" in out
    assert f"== {blowup_file} (exit 3)" in out


def test_batch_csv_dir(tmp_path, generic_file, capsys):
    other = write_spec(tmp_path, "other.json", {"blocks": [[2.0, 2.0, 0.5]]})
    csv_dir = tmp_path / "csvs"
    code = cli.main(["batch", generic_file, other, "--t-end", "1",
                     "--csv-dir", str(csv_dir)])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    assert sorted(p.name for p in csv_dir.iterdir()) == [
        "generic.csv", "other.csv"]


def test_batch_csv_dir_keeps_partial_on_blowup(tmp_path, blowup_file, capsys):
    csv_dir = tmp_path / "csvs"
    code = cli.main(["batch", blowup_file, "--t-end", "1",
                     "--csv-dir", str(csv_dir)])
    capsys.readouterr()
    assert code == cli.EXIT_BLOWUP
    lines = (csv_dir / "blowup.csv").read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    # the partial trajectory must stop short of the exact blow-up time
    last_t = float(lines[-1].split(",")[0])
    assert 0.15 < last_t < np.pi / 16


@pytest.mark.parametrize("doc", [
    {"blocks": [[1.0, 2.0, 0.5]], "c0": float("nan")},
    {"blocks": [[1.0, float("inf"), 0.5]]},
    {"dim": 1, "omega": [[float("nan"), 0.0]], "b": [[0.0, 0.0]]},
    {"dim": 1, "omega": [[1.0, 0.0]], "b": [[0.1, float("-inf")]]},
], ids=["c0-nan", "block-inf", "omega-nan", "b-minus-inf"])
@pytest.mark.parametrize("command", ["check", "run"])
def test_non_finite_spec_numbers_are_parse_errors(tmp_path, capsys, doc, command):
    # json.loads accepts NaN and +-Infinity; the spec reader must not
    path = write_spec(tmp_path, "bad.json", doc)
    assert "NaN" in open(path).read() or "Infinity" in open(path).read()
    assert cli.main([command, path]) == cli.EXIT_PARSE
    assert "finite" in capsys.readouterr().err


def run_quietly(argv):
    """cli.main(argv), with numpy's overflow warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return cli.main(argv)


class Overran(Exception):
    """A command ran past its alarm (no OSError, which main reports as exit 2)."""


@contextlib.contextmanager
def alarm(seconds):
    """Raise Overran in the block once it has run for seconds."""
    def overran(signum, frame):
        raise Overran(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", [["run"], ["diag"], ["fock-verify", "--cutoff", "8"]])
def test_spec_entry_near_the_float_range_exits_2(tmp_path, capsys, command):
    # B = antidiag(1e308) is inf once symmetrized; the stepper refused that
    # state with a ValueError traceback and exit 1
    path = write_spec(tmp_path, "big.json", {"blocks": [[1.0, 2.0, 1e308]]})
    assert run_quietly([command[0], path, *command[1:]]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error:") and "not finite" in err


@pytest.mark.parametrize("command, doc", [
    ("run", {"blocks": [[1.0, 2.0, 1.7e308]]}),
    ("check", {"dim": 1, "omega": [[1.7e308, 0]], "b": [[1.7e308, 1.7e308]]}),
], ids=["blocks", "matrices"])
def test_spec_near_the_float_range_is_refused_without_warnings(tmp_path, command, doc):
    # making Omega and B hermitian/symmetric overflowed with two numpy
    # warnings before the parse error, a traceback with exit 1 under -W error
    path = write_spec(tmp_path, "big.json", doc)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "bwflow.cli", command, path],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_PARSE and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("parse error:")
    assert "not finite" in proc.stderr


def test_batch_reports_a_spec_near_the_float_range_and_runs_the_rest(tmp_path, generic_file,
                                                                      capsys):
    big = write_spec(tmp_path, "big.json", {"blocks": [[1.0, 2.0, 1e308]]})
    assert run_quietly(["batch", big, generic_file, "--t-end", "5"]) == cli.EXIT_PARSE
    out = capsys.readouterr().out
    assert f"== {big} (exit 2)" in out and f"== {generic_file} (exit 0)" in out


@pytest.mark.parametrize("b", [1e160, 1e300])
def test_check_certifies_no_overflowing_sandwich(tmp_path, capsys, b):
    # B Omega^-1 B~ overflows to nan; eigvalsh answered 0 for it, so A3 held
    # at margin 0 and A4 with a nan norm, and check exited 0
    path = write_spec(tmp_path, "big.json", {"blocks": [[1.0, 2.0, b]]})
    assert run_quietly(["check", path]) == cli.EXIT_CONDITION
    verdicts = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:9])
    assert verdicts["A3"] != "holds" and verdicts["A4"] != "holds"


def test_check_prints_a_finite_norm_for_entries_above_1e154(tmp_path, capsys):
    # ||B_0||_2 = sqrt(2) 1e160 overflowed in the plain sum of squares, and
    # check printed inf for it
    path = write_spec(tmp_path, "big.json", {"blocks": [[1.0, 2.0, 1e160]]})
    assert run_quietly(["check", path]) == cli.EXIT_CONDITION
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["A2", "holds", "1.41421e+160"]
    assert "  hs_b0 = 1.41421e+160" in lines


def test_check_prints_a_finite_a5_norm_for_entries_above_1e154(tmp_path, capsys):
    # ||B Omega^{-3/2}||_2 = sqrt(1 + 2^-3) 1e160: the column norms of B V
    # overflowed in their sums of squares, and check printed inf for it
    path = write_spec(tmp_path, "big.json", {"blocks": [[1.0, 2.0, 1e160]]})
    assert run_quietly(["check", path]) == cli.EXIT_CONDITION
    assert "  a5_norm = 1.06066e+160" in capsys.readouterr().out.splitlines()


def test_run_ends_when_the_error_estimate_is_nan(tmp_path):
    # B B~ overflows, so the initial step size and every error estimate were
    # nan, neither below the minimum step nor below 1: the stepper rejected
    # its step forever and run never ended
    path = write_spec(tmp_path, "hang.json", {
        "dim": 2, "omega": [[9.0144, 0], [-0.0391, -2.8863], [-0.0391, 2.8863], [1.0321, 0]],
        "b": [[-1e154, 0], [-0.25, 0], [-0.25, 0], [-1e4, 0]]})

    with alarm(10):
        code = run_quietly(["run", path, "--t-end", "5"])
    assert code in (cli.EXIT_BLOWUP, cli.EXIT_NOT_CONVERGED)


def test_diag_ends_at_the_attempt_bound_on_a_stiff_spec(tmp_path, capsys, monkeypatch):
    # A3 fails on the first spec and the explicit pair sits at its stability
    # limit: diag --t-end 5 needs on the order of 1e8 steps and did not end in
    # 100 s; the second, a zero mode coupled to one at 1e4, which the fuzz
    # test drew, reaches the full bound after about 12 s; warnings are
    # errors, as the second once handed its non-PSD Omega to the frozen
    # tail's bounds, which warned
    monkeypatch.setattr(flow, "MAX_ATTEMPTS", 200)
    for doc, options in [({"dim": 2, "omega": [[1e8, 0], [16328, 0], [16328, 0], [5.39, 0]],
                           "b": [[-0.787, 0], [1.73, 0], [1.73, 0], [3, 0]]}, ["--t-end", "5"]),
                         ({"blocks": [[0.0, 1e4, 1.0]]}, ["--t-end", "1e40", "--tol", "1e-13"])]:
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["diag", write_spec(tmp_path, "stiff.json", doc), *options])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == cli.EXIT_NOT_CONVERGED and elapsed < 1.0
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: NotConverged: gave up after 201 step attempts at t = ")


def test_check_leaves_a5_undetermined_on_a_non_finite_sandwich(tmp_path):
    # the p = 2 sandwich overflows to nan, and its eigvalsh ended check in a
    # LinAlgError traceback with exit 1
    path = write_spec(tmp_path, "big3.json", {
        "dim": 3,
        "omega": [[11.17, 0], [-11.8, 0], [-2.1, 0], [-11.8, 0], [19.08, 0], [1.38, 0],
                  [-2.1, 0], [1.38, 0], [3.37, 0]],
        "b": [[-1e300, 0], [2.02, 0], [-2.46, 0], [2.02, 0], [-2.8, 0], [1.78, 0],
              [-2.46, 0], [1.78, 0], [0.25, 0]]})
    proc = _run_cli(["check", path], tmp_path)
    assert proc.returncode == cli.EXIT_CONDITION
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split()[0] for ln in lines[:9]] == [
        "condition", "A1", "A2", "A3", "A4", "A5", "A6", "FB", "KM"]
    assert lines[5].split() == ["A5", "undetermined", "-"]
    assert lines[9] == "values:" and "  eps = 0.5" in lines


def _run_cli(args, cwd, timeout=60, address_space=None, stdout=subprocess.PIPE):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "bwflow.cli", *args], cwd=cwd, env=fresh_env(),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
                          preexec_fn=cap if address_space else None)


def readme_quick_start():
    """The bwflow command lines of the README's quick start, as argv lists."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Quick start", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [ln.split()[1:] for ln in block.splitlines() if ln.startswith("bwflow ")]


def test_readme_quick_start_runs_without_warnings(tmp_path):
    # each command as its own process with warnings turned into errors, and
    # the JSON documents, written through json.dump's default hook, parse
    argvs = readme_quick_start()
    assert [a[0] for a in argvs] == ["oracle", "check", "run", "diag", "fock-verify"]
    argvs += [["check", "generic.json", "--json", "check.json"],
              ["diag", "generic.json", "--t-end", "5", "--json", "diag.json"],
              ["fock-verify", "generic.json", "--cutoff", "12"]]
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "bwflow.cli", *argv],
                              cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, ""), argv
    assert json.loads((tmp_path / "check.json").read_text())["verdicts"]["A3"] == "holds"
    assert json.loads((tmp_path / "diag.json").read_text())["norm_bounds"] == [True, True]


# Prints the modules loaded after importing the command line and running
# the command in argv, if any, one per line.
_MODULES_AFTER = (
    "import contextlib, io, sys\n"
    "import bwflow.cli as cli\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert cli.main(sys.argv[1:]) == cli.EXIT_OK\n"
    "print('\\n'.join(sorted(sys.modules)))\n")


_HANDLERS = {"cli_check", "cli_run", "cli_diag", "cli_fock_verify", "cli_oracle", "cli_batch"}


@pytest.mark.parametrize("argv, handlers, unloaded", [
    ([], (), ()),
    (["check", "{spec}", "--json", "check.json"], ("cli_check",),
     ("flow", "stepping", "bogoliubov", "fock")),
    (["run", "{spec}", "--t-end", "5", "--csv", "run.csv"], ("cli_run",),
     ("bogoliubov", "fock", "conditions")),
    (["diag", "{spec}", "--t-end", "5", "--json", "diag.json"], ("cli_diag",),
     ("fock", "conditions")),
    (["fock-verify", "{spec}", "--cutoff", "8"], ("cli_fock_verify",),
     ("bogoliubov", "conditions")),
    (["oracle", "generic", "1", "2", "0.5", "--csv", "0:1:0.5"], ("cli_oracle",),
     ("bogoliubov", "fock", "conditions")),
    # batch runs each spec through run's handler
    (["batch", "{spec}", "--t-end", "5"], ("cli_batch", "cli_run"),
     ("bogoliubov", "fock", "conditions")),
], ids=["import", "check", "run", "diag", "fock-verify", "oracle", "batch"])
def test_command_loads_only_its_modules(tmp_path, argv, handlers, unloaded):
    # each command in a fresh interpreter: the import alone loads the front
    # end, a command adds its own handler module and what it runs, and none
    # loads scipy, numpy.ma, dataclasses, concurrent.futures or
    # multiprocessing
    spec = str(tmp_path / "readme.json")
    assert cli.main(["oracle", "generic", "1", "2", "0.5", "--out", spec]) == cli.EXIT_OK
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER,
                           *(arg.format(spec=spec) for arg in argv)],
                          cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    ours = {m for m in loaded if m.split(".")[0] == "bwflow"}
    if not argv:
        assert ours == {"bwflow", "bwflow.cli", "bwflow.errors", "bwflow.opcore"}
    assert {m.partition(".")[2] for m in ours} & _HANDLERS == set(handlers)
    assert not ours & {f"bwflow.{name}" for name in unloaded}
    assert not {m for m in loaded
                if m.split(".")[0] in ("scipy", "dataclasses", "multiprocessing")
                or m.split(".")[:2] in (["numpy", "ma"], ["concurrent", "futures"])}


def _imported(importtime_log: str) -> list:
    """The modules a -X importtime log records as loaded by an import statement."""
    return [ln.rsplit("|", 1)[1].strip() for ln in importtime_log.splitlines()
            if ln.startswith("import time:") and ln.count("|") == 2]


def test_module_entry_loads_the_front_end_once(tmp_path):
    # under python -m the front end runs as __main__; the handler's import of
    # bwflow.cli must find it, not compile and run cli.py a second time
    spec = str(tmp_path / "readme.json")
    assert cli.main(["oracle", "generic", "1", "2", "0.5", "--out", spec]) == cli.EXIT_OK
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "bwflow.cli",
                           "run", spec, "--t-end", "5"],
                          cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout.startswith("converged: yes")
    assert "bwflow.cli" not in _imported(proc.stderr)
    # the same log does record the front end when a handler loads it itself
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bwflow.cli_run"],
                          cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _imported(proc.stderr).count("bwflow.cli") == 1


# Runs cli.main on each argv of a JSON list and prints, as JSON, each exit
# code (SystemExit's included), stdout and stderr, and the bwflow modules
# then loaded.
_MAIN_EACH = (
    "import contextlib, io, json, sys\n"
    "import bwflow.cli as cli\n"
    "results = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        try:\n"
    "            code = cli.main(argv)\n"
    "        except SystemExit as exc:\n"
    "            code = exc.code\n"
    "    results.append([code, out.getvalue(), err.getvalue()])\n"
    "print(json.dumps([results, sorted(m for m in sys.modules if m.startswith('bwflow'))]))\n")


def test_usage_errors_and_help_load_no_handler(tmp_path, monkeypatch):
    # main parses before it imports a handler: no command, an unknown one
    # and each command's --help end in argparse's own exit code and text,
    # as the parser alone gives them, with no handler module loaded
    commands = ["check", "run", "diag", "fock-verify", "oracle", "batch"]
    argvs = [[], ["nope"]] + [[cmd, "--help"] for cmd in commands]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    proc = subprocess.run([sys.executable, "-c", _MAIN_EACH, json.dumps(argvs)], cwd=tmp_path,
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results, loaded = json.loads(proc.stdout)
    assert loaded == ["bwflow", "bwflow.cli", "bwflow.errors", "bwflow.opcore"]
    for argv, got in zip(argvs, results):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
        assert got == [exc.value.code, out.getvalue(), err.getvalue()], argv
    usage = "usage: bwflow [-h] {check,run,diag,fock-verify,oracle,batch} ...\n"
    assert results[0] == [2, "", usage + "bwflow: error: the following arguments are "
                          "required: command\n"]
    assert results[1][:2] == [2, ""] and results[1][2].startswith(usage)
    assert "invalid choice: 'nope'" in results[1][2]
    for cmd, (code, out, err) in zip(commands, results[2:]):
        assert (code, err) == (0, "") and out.startswith(f"usage: bwflow {cmd} [-h]")


def test_bare_package_import_resolves_every_public_name():
    code = ("import sys\n"
            "import bwflow\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'bwflow'))\n"
            "for name in bwflow.__all__:\n"
            "    getattr(bwflow, name)\n"
            "from bwflow import *\n"
            "print(Controls is bwflow.flow.Controls, QuadraticSpec is bwflow.opcore.QuadraticSpec,\n"
            "      set(bwflow.__all__) <= set(dir(bwflow)))\n"
            "print(hasattr(bwflow, 'no_such_name'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['bwflow', 'bwflow.errors']", "True True True", "False"]


@pytest.mark.parametrize("option", [
    "--t-end=nan", "--t-end=inf", "--t-end=-inf", "--tol=nan", "--tol=inf",
    "--tol=1e-16", "--conv-tol=nan", "--conv-tol=inf",
])
def test_bad_run_options_exit_2_without_hanging(generic_file, tmp_path, option):
    # these used to hang (non-finite horizon or tolerance) or leak a warning
    proc = _run_cli(["run", generic_file, option], cwd=tmp_path)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("parse error:") and "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("command, options", [
    ("run", ["--method", "split"]),
    ("diag", ["--paper-scalar-sign"]),
    ("fock-verify", ["--cutoff", "8", "--paper-scalar-sign"]),
])
def test_removed_options_exit_2(generic_file, tmp_path, command, options):
    # the adaptive pair is the only method; diag and fock-verify fix the
    # scalar sign (fock-verify prints both)
    proc = _run_cli([command, generic_file, *options], cwd=tmp_path)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stdout == ""
    assert "unrecognized arguments" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("n_specs", [1, 2])
def test_batch_validates_its_options_once(generic_file, blowup_file, tmp_path, n_specs):
    specs = [generic_file, blowup_file][:n_specs]
    proc = _run_cli(["batch", *specs, "--tol", "nan"], cwd=tmp_path)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("parse error:") and "Traceback" not in proc.stderr
    assert proc.stderr.count("parse error") == 1


@pytest.mark.parametrize("option", [
    "--tol=nan", "--tol=inf", "--tol=-inf", "--tol=-1",
    "--eps=nan", "--eps=inf", "--eps=-inf", "--eps=-0.5", "--eps=0",
])
def test_check_rejects_bad_tol_and_eps(generic_file, capsys, option):
    # a NaN tolerance used to print "fails" for conditions that hold
    assert cli.main(["check", generic_file, option]) == cli.EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("parse error:")


def test_check_accepts_zero_tol(generic_file, capsys):
    assert cli.main(["check", generic_file, "--tol=0"]) == cli.EXIT_OK
    assert "A1" in capsys.readouterr().out


@pytest.mark.parametrize("eps, a5_norm", [
    ("800", 0.1 * 2.0 ** 801),  # ||Omega^-801 B||_2 with Omega = diag(1/2, 2)
    ("1e300", math.inf),
], ids=["eps-800", "eps-1e300"])
def test_check_a5_norm_at_large_eps(tmp_path, capsys, eps, a5_norm):
    # a5_norm used to be the root of a trace whose lam^-(2 + 2 eps) overflowed:
    # nan, with numpy's warnings on stderr
    spec = str(tmp_path / "s.json")
    assert cli.main(["oracle", "generic", "0.5", "2", "0.1", "--out", spec]) == cli.EXIT_OK
    assert cli.main(["check", spec, "--json", str(tmp_path / "base.json")]) == cli.EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["check", spec, "--eps", eps, "--json", str(tmp_path / "big.json")])
    out = capsys.readouterr()
    assert code == cli.EXIT_OK and out.err == ""
    assert f"  a5_norm = {a5_norm:.6g}\n" in out.out
    base, big = (json.loads((tmp_path / f"{name}.json").read_text()) for name in ("base", "big"))
    assert big["verdicts"] == base["verdicts"]
    assert math.isclose(big["values"]["a5_norm"], a5_norm, rel_tol=1e-12)


def test_fock_verify_rejects_negative_sector_cut(generic_file, capsys):
    # an empty projection used to print residuals of exactly 0
    code = cli.main(["fock-verify", generic_file, "--cutoff", "8", "--sector-cut", "-1"])
    assert code == cli.EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and "nonnegative" in out.err



@pytest.mark.parametrize("cutoff", ["3", "0", "-1"])
def test_fock_verify_rejects_cutoff_below_4(generic_file, capsys, cutoff):
    # no sector cut was given, so the refusal must name the cutoff
    assert cli.main(["fock-verify", generic_file, "--cutoff", cutoff]) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", "parse error: cutoff must be at least 4\n")
    args = cli.build_parser().parse_args(["fock-verify", generic_file, "--cutoff", cutoff])
    with pytest.raises(ParseError) as err:
        cli_fock_verify.handle(args)
    assert err.value.field == "cutoff"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", [
    ["check", "{spec}", "--json"],
    ["diag", "{spec}", "--t-end", "1", "--json"],
    ["run", "{spec}", "--t-end", "1", "--csv"],
    ["oracle", "generic", "1", "2", "0.5", "--out"],
], ids=["check-json", "diag-json", "run-csv", "oracle-out"])
def test_unwritable_output_path_exits_2_before_the_work(generic_file, tmp_path, capsys,
                                                       monkeypatch, command, where):
    # such a path used to end in a traceback with exit 1, run --csv only
    # after integrating
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing the output path")

    monkeypatch.setattr(flow, "integrate", no_integration)
    path = tmp_path / "missing" / "out.txt" if where == "missing-dir" else tmp_path
    argv = [a.format(spec=generic_file) for a in command] + [str(path)]
    assert cli.main(argv) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: OutputError: cannot write {path}") and err.count("\n") == 1


def test_batch_csv_dir_under_a_file_exits_2(generic_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for csv_dir in (blocker, blocker / "csvs"):
        assert cli.main(["batch", generic_file, "--t-end", "1",
                         "--csv-dir", str(csv_dir)]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: OutputError: cannot make directory {csv_dir}")
        assert err.count("\n") == 1

@pytest.mark.parametrize("position", [1, 2])
def test_batch_csv_dir_refuses_two_specs_with_one_stem(generic_file, tmp_path, capsys, position):
    # both would write csvs/generic.csv: refused before any spec is run, and
    # named in command-line order wherever the original spec stands
    twin = tmp_path / "twin" / "generic.json"
    twin.parent.mkdir()
    twin.write_text(open(generic_file).read())
    first, second = (generic_file, str(twin)) if position == 1 else (str(twin), generic_file)
    csv_dir = tmp_path / "csvs"
    assert cli.main(["batch", first, second, "--t-end", "1",
                     "--csv-dir", str(csv_dir)]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: OutputError: cannot write {csv_dir / 'generic.csv'} "
                   f"for both {first} and {second}\n")
    assert not csv_dir.exists()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full, a device that is always full")


def assert_one_output_error(proc, what):
    # one line, so neither a traceback nor an "Exception ignored" at exit
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stderr.startswith(f"error: OutputError: cannot write {what}: ")
    assert proc.stderr.count("\n") == 1


@needs_dev_full
@pytest.mark.parametrize("command", [
    ["check", "{spec}", "--json"],
    ["diag", "{spec}", "--t-end", "5", "--json"],
    ["run", "{spec}", "--t-end", "1", "--csv"],
    ["oracle", "generic", "1", "2", "0.5", "--out"],
], ids=["check-json", "diag-json", "run-csv", "oracle-out"])
def test_full_disk_exits_2(generic_file, tmp_path, command):
    # a write that failed after the open used to end in an OSError
    # traceback with exit 1
    proc = _run_cli([a.format(spec=generic_file) for a in command] + ["/dev/full"],
                    cwd=tmp_path)
    assert_one_output_error(proc, "/dev/full")


@needs_dev_full
def test_full_stdout_exits_2(generic_file, tmp_path):
    with open("/dev/full", "w") as full:
        proc = _run_cli(["check", generic_file], cwd=tmp_path, stdout=full)
    assert_one_output_error(proc, "standard output")


@pytest.mark.parametrize("command", [
    ["diag", "{spec}", "--t-end", "5"],
    ["oracle", "generic", "1", "2", "0.5", "--csv", "0:5:100001"],
], ids=["diag", "oracle-csv"])
def test_closed_stdout_exits_2(generic_file, tmp_path, command):
    # as in `bwflow diag spec | head -1`: diag fails on the flush at exit,
    # the CSV grid on a write; both used to end in a BrokenPipeError
    # traceback with exit 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli([a.format(spec=generic_file) for a in command], cwd=tmp_path,
                        stdout=write_end)
    finally:
        os.close(write_end)
    assert_one_output_error(proc, "standard output")


@needs_dev_full
def test_batch_reports_a_full_disk_per_spec(generic_file, tmp_path):
    csv_dir = tmp_path / "csvs"
    csv_dir.mkdir()
    (csv_dir / "generic.csv").symlink_to("/dev/full")
    other = write_spec(tmp_path, "other.json", {"blocks": [[1.0, 2.0, 0.5]]})
    proc = _run_cli(["batch", generic_file, other, "--t-end", "1", "--csv-dir", str(csv_dir)],
                    cwd=tmp_path)
    assert proc.returncode == cli.EXIT_PARSE and proc.stderr == ""
    assert proc.stdout.startswith(f"== {generic_file} (exit 2)\n"
                                  f"error: OutputError: cannot write {csv_dir / 'generic.csv'}: ")
    assert f"== {other} (exit 0)\n" in proc.stdout
    assert (csv_dir / "other.csv").read_text().startswith("t,hsB,")


@pytest.mark.parametrize("content", [
    b"\xff\xfe" + json.dumps({"blocks": [[1, 2, 0.5]]}).encode("utf-16-le"),
    b"[" * 100000,
], ids=["utf-16", "nested"])
def test_spec_that_is_not_utf8_or_nests_too_deep_exits_2(tmp_path, content):
    # used to end in a UnicodeDecodeError or RecursionError traceback
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    proc = _run_cli(["check", str(path)], cwd=tmp_path)
    assert proc.returncode == cli.EXIT_PARSE and proc.stdout == ""
    assert proc.stderr.startswith("parse error: ") and proc.stderr.count("\n") == 1


def test_fock_verify_refuses_oversized_basis_before_building_it(generic_file, tmp_path):
    # cutoff 100 gives basis dim 5151 (under SIZE_LIMIT) but the propagator
    # would need gigabytes; the address-space cap turns any large allocation
    # into a MemoryError traceback instead of a refusal
    proc = _run_cli(["fock-verify", generic_file, "--cutoff", "100"], cwd=tmp_path,
                    address_space=2 ** 30)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: SizeLimit:") and "Traceback" not in proc.stderr


def test_run_long_horizon_exits(generic_file, tmp_path):
    # the stepper alone would take about a million steps past convergence
    proc = _run_cli(["run", generic_file, "--t-end", "1e6"], cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK
    assert "converged: yes" in proc.stdout and "at t = 1e+06" in proc.stdout


@pytest.mark.parametrize("command", [
    ["run"], ["diag"], ["fock-verify", "--cutoff", "8"], ["batch"],
], ids=["run", "diag", "fock-verify", "batch"])
def test_huge_horizon_exits_0(generic_file, tmp_path, command):
    # the frozen tail's sample offsets (2^k - 1) h used to leave the float
    # range, an OverflowError traceback with exit 1
    proc = _run_cli([command[0], generic_file, *command[1:], "--t-end", "1e308"], cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("horizon", ["1e308", "1.7e308"])
@pytest.mark.parametrize("command", [
    ["run"], ["diag"], ["fock-verify", "--cutoff", "8"],
], ids=["run", "diag", "fock-verify"])
def test_huge_horizon_runs_without_warnings(generic_file, tmp_path, command, horizon):
    # the frozen tail's e^{-tau w} and the stepper's growing step overflowed
    # near the float range, harmlessly but with numpy's RuntimeWarnings
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "bwflow.cli", command[0],
                           generic_file, *command[1:], "--t-end", horizon],
                          cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")


def test_blowup_at_a_huge_horizon_reports_without_warnings(tmp_path, capsys):
    # the frozen tail's drift guard multiplied a zero weight by the infinite
    # phi of a negative rate, numpy's "invalid value" warning before the report
    path = write_spec(tmp_path, "blowup.json", {"blocks": [[1.786, 2.826, 2.877]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path, "--tol", "0.5", "--t-end", "1e300"]) == cli.EXIT_BLOWUP
    assert capsys.readouterr() == (
        "blow-up detected\n  onset t* = 0.135426315 with ||B_t||_2 = 4.78979e+09\n"
        "  T_max estimate >= 0.135426315\n  guaranteed blow-up-free horizon T_0 = 0.00192015006\n",
        "")


def test_run_meets_conv_tol_below_the_noise_floor(generic_file, tmp_path):
    # the stepper alone never takes ||B_t|| below about 1e-10
    proc = _run_cli(["run", generic_file, "--t-end", "20", "--conv-tol", "1e-14"],
                    cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK
    assert proc.stdout.startswith("converged: yes")


def test_diag_long_horizon(generic_file, tmp_path):
    out_json = tmp_path / "diag.json"
    proc = _run_cli(["diag", generic_file, "--t-end", "500", "--json", str(out_json)],
                    cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK
    doc = json.loads(out_json.read_text())
    assert max(doc["symplectic_residuals"].values()) <= bogoliubov.MAP_TOL
    assert doc["norm_bounds"] == [True, True]


@pytest.fixture()
def not_psd_file(tmp_path):
    return write_spec(tmp_path, "notpsd.json",
                      {"dim": 1, "omega": [[-1.0, 0.0]], "b": [[0.0, 0.0]]})


@pytest.mark.parametrize("command", [["run"], ["diag"], ["fock-verify", "--cutoff", "8"]])
def test_not_psd_omega_exits_2(not_psd_file, capsys, command):
    # the README asks for a PSD omega; a spec without one used to end in a
    # NotPSD traceback with exit 1, and fock-verify printed the first lines
    # of its report before the refusal
    assert cli.main([command[0], not_psd_file, *command[1:]]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: NotPSD:") and err.count("\n") == 1


def test_batch_gives_not_psd_exit_2(not_psd_file, generic_file, capsys):
    assert cli.main(["batch", not_psd_file, generic_file, "--t-end", "1"]) == cli.EXIT_PARSE
    out = capsys.readouterr().out
    assert f"== {not_psd_file} (exit 2)\nerror: NotPSD:" in out
    assert f"== {generic_file} (exit 0)" in out


def test_run_without_pair_term_has_no_decay_rate(tmp_path, capsys):
    # with B = 0 nothing decays: the fit used to run over all-zero samples
    # and print "nan" after numpy's divide-by-zero warning
    doc = {"dim": 3, "omega": cli._matrix_to_pairs(np.eye(3)),
           "b": cli._matrix_to_pairs(np.zeros((3, 3)))}
    path = write_spec(tmp_path, "flat.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", path]) == cli.EXIT_OK
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out = capsys.readouterr().out
    assert "fitted decay rate: n/a (" in out and "nan" not in out


def test_batch_gives_each_spec_the_exit_code_of_run(generic_file, monkeypatch, capsys):
    # batch used to report every error but a blow-up as exit 2
    report = "error: StepSizeUnderflow: step size 1e-13 fell below h_min\n"

    def underflow(*args, **kwargs):
        raise StepSizeUnderflow("step size 1e-13 fell below h_min")

    monkeypatch.setattr(flow, "integrate", underflow)
    assert cli.main(["run", generic_file]) == cli.EXIT_NOT_CONVERGED
    assert capsys.readouterr().err == report
    assert cli.main(["batch", generic_file]) == cli.EXIT_NOT_CONVERGED
    assert capsys.readouterr().out == f"== {generic_file} (exit 4)\n" + report


@pytest.mark.parametrize("jobs", ["-3", "0"])
def test_batch_rejects_jobs_below_1(generic_file, capsys, jobs):
    # batch runs its specs in order in one process: it takes no --jobs at all
    with pytest.raises(SystemExit) as exc:
        cli.main(["batch", generic_file, "--jobs", jobs])
    assert exc.value.code == cli.EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and f"unrecognized arguments: --jobs {jobs}" in out.err


_LADDER = (0.0, 1e-300, 1e-160, 1e-20, 1e-8, 0.5, 1.0, 3.0, 1e4, 1e20, 1e40, 1e150)


def _signed(ladder):
    """A signed rung of the ladder, or uniform in [-3, 3]."""
    return st.one_of(st.builds(lambda x, sign: sign * x, st.sampled_from(ladder),
                               st.sampled_from((1.0, -1.0))),
                     st.floats(-3.0, 3.0))


# a spec entry: a signed rung of the ladder 0 ... 1e150, or uniform in [-3, 3]
_entries = _signed(_LADDER)


@st.composite
def spec_documents(draw):
    """A one-block spec, or a hermitian omega with a nonnegative diagonal
    (omega need not be PSD) and a symmetric b of dimension 1-3."""
    c0 = draw(st.floats(-10.0, 10.0, allow_nan=False))
    if draw(st.booleans()):
        return {"blocks": [[abs(draw(_entries)), abs(draw(_entries)), draw(_entries)]], "c0": c0}
    dim = draw(st.integers(1, 3))
    omega, b = np.zeros((2, dim, dim), complex)
    for i in range(dim):
        for j in range(i, dim):
            re = draw(_entries)
            z = complex(abs(re), 0.0) if i == j else complex(re, draw(_entries))
            omega[i, j], omega[j, i] = z, z.conjugate()
            b[i, j] = b[j, i] = complex(draw(_entries), draw(_entries))
    return {"dim": dim, "omega": cli._matrix_to_pairs(omega), "b": cli._matrix_to_pairs(b),
            "c0": c0}


@st.composite
def command_lines(draw):
    """A command and its options, with the spec path as "{spec}"."""
    command = draw(st.sampled_from(("check", "run", "diag", "fock-verify")))
    tol = draw(st.sampled_from(("1e-13", "1e-10", "1e-6", "1e-3", "0.11", "0.5")))
    if command == "check":
        return [command, "{spec}", "--tol", tol]
    t_end = draw(st.sampled_from(("1e-300", "1e-8", "0.5", "2", "5", "1e3", "1e40", "1e300")))
    cutoff = ["--cutoff", str(draw(st.integers(4, 12)))] if command == "fock-verify" else []
    return [command, "{spec}", "--t-end", t_end, "--tol", tol, *cutoff]


@settings(max_examples=300, derandomize=True, database=None)
@given(spec_documents(), command_lines())
def test_fuzzed_specs_end_in_a_documented_exit_code(tmp_path_factory, doc, argv):
    # every outcome is one of the exit codes 0-4 with at most one error line,
    # no exception escapes and no command runs past a 60 s alarm, well above
    # the 12 s a stiff spec takes to reach flow.MAX_ATTEMPTS; RuntimeWarnings
    # are not checked, since entries near 1e150 still overflow inside the
    # flow (diag on Omega = 1.41, B = 1e4 at tol 0.11)
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if arg == "{spec}" else arg for arg in argv]
    err = io.StringIO()
    with alarm(60), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_quietly(argv)
    assert code in range(5), argv
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(ln.startswith(("error: ", "parse error: ")) for ln in lines)


# an oracle parameter: the spec entries' ladder extended to the float range,
# the extension listed first, where hypothesis draws more often
_oracle_numbers = _signed((1.7e308, 1e307, 1e300) + _LADDER)


@st.composite
def oracle_lines(draw):
    """An oracle command line: optionally --c0, --paper-scalar-sign and a
    --csv grid, then a family and its parameters, after "--" since they may
    be negative."""
    argv = ["oracle"]
    if draw(st.booleans()):
        argv.append(f"--c0={draw(_oracle_numbers)!r}")
    if draw(st.booleans()):
        argv.append("--paper-scalar-sign")
    if draw(st.booleans()):
        # a grid that often ends at the largest float, whose last point may
        # pass stop when the step does not divide the span
        start, span = (abs(draw(_oracle_numbers)) for _ in range(2))
        stop = min(start + span, sys.float_info.max)
        if draw(st.booleans()):
            stop = sys.float_info.max
        step = (stop - start) / draw(st.sampled_from((1.0, 2.7, 10.0, 39.6))) or 1.0
        argv.append(f"--csv={start!r}:{stop!r}:{step!r}")
    family = draw(st.sampled_from(cli.ORACLE_FAMILIES))
    count = {"generic": 3, "equal-product": 3, "blowup": 1}.get(family, 0)
    if family == "block":
        count = 3 * draw(st.integers(1, 3))
    params = [draw(_oracle_numbers) for _ in range(count)]
    if family == "mixed":
        params.append(draw(st.one_of(_oracle_numbers, st.floats(0.5, 0.71))))
    if count % 3 == 0 and draw(st.integers(0, 3)):
        # mostly well-formed blocks, 0 <= omegaMinus <= omegaPlus and b >= 0,
        # an equal-product one on its manifold
        for i in range(0, count, 3):
            om_minus, om_plus = sorted(map(abs, params[i:i + 2]))
            b = (math.sqrt(om_minus) * math.sqrt(om_plus) / 2 if family == "equal-product"
                 else abs(params[i + 2]))
            params[i:i + 3] = [om_minus, om_plus, b]
    params = [repr(x) for x in params]
    if family in ("pivotal", "mixed"):
        params.append(str(draw(st.sampled_from((-1, 0, 1, 2, 3, 8, 33)))))
    return [*argv, "--", family, *params]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(oracle_lines(), st.booleans())
def test_fuzzed_oracle_lines_write_only_finite_numbers(tmp_path_factory, argv, to_file):
    # every outcome is exit 0 or 2 with at most one error line, under
    # warnings as errors; every number of the spec and the CSV is finite
    path = tmp_path_factory.mktemp("oracle") / "spec.json"
    if to_file:
        argv.insert(1, f"--out={path}")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE), argv
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(ln.startswith(("error: ", "parse error: ")) for ln in lines)
    if code != cli.EXIT_OK:
        return
    for text in filter(None, (out.getvalue(), path.read_text() if to_file else "")):
        if text.startswith("t,"):
            rows = [[float(x) for x in ln.split(",")] for ln in text.splitlines()[1:]]
            assert np.isfinite(rows).all(), argv
        else:
            doc = json.loads("".join(ln for ln in text.splitlines(True) if not ln.startswith("#")))
            numbers = [x for pair in doc["omega"] + doc["b"] for x in pair] + [doc["c0"]]
            assert np.isfinite(numbers).all(), argv
