import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from odelump import cli, parse_model
from odelump.cli import main
from conftest import cascade_text
from test_smt import MIN_PAIR_TEXT, SAT_111, fake, seq_cmd

GOLDEN = Path(__file__).parent / "golden"
PARTITION_BLOCK = "begin partition\n  {x1}, {x2, x3}\nend partition\n"


@pytest.fixture
def eq1(tmp_path):
    path = tmp_path / "eq1.ode"
    path.write_text(cascade_text(k1=2, k2=3, init=(1, "1/2", "1/2")))
    return path


@pytest.fixture
def eq1_bde(tmp_path):
    path = tmp_path / "eq1_bde.ode"
    path.write_text(cascade_text(k1=1, k2=1, init=(1, "1/2", "1/2"),
                                 extra=PARTITION_BLOCK))
    return path


def test_reduce_fde_writes_expected_model(eq1, tmp_path, capsys):
    out = tmp_path / "red.ode"
    report = tmp_path / "report.json"
    rc = main(["reduce", "--mode", "fde", "--in", str(eq1),
               "--partition", "one-block", "--out", str(out),
               "--report", str(report)])
    assert rc == 0
    reduced = parse_model(out.read_text()).system
    assert reduced.names == ("x1", "x2_x3")
    assert reduced.drifts[1].terms[0].coeff == Fraction(5)
    assert reduced.init == (Fraction(1), Fraction(1))

    data = json.loads(report.read_text())
    assert data["mode"] == "fde"
    assert data["backend"] == "syntactic"
    assert data["iterations"] >= 1
    assert data["blocks_before"] == 1
    assert data["blocks_after"] == 2
    assert data["variables_after"] <= data["variables_before"]
    assert data["blocks_after"] >= data["blocks_before"]
    assert data["monomials_before"] == 5
    assert data["monomials_after"] == 3
    assert isinstance(data["wall_time_ms"], int)
    assert data["warnings"] == []


def test_reduce_is_deterministic(eq1, tmp_path):
    outs = []
    for name in ("a.ode", "b.ode"):
        out = tmp_path / name
        rc = main(["reduce", "--mode", "fde", "--in", str(eq1),
                   "--partition", "one-block", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reduce_from_singleton_seed_is_identity(eq1, tmp_path):
    out = tmp_path / "red.ode"
    rc = main(["reduce", "--mode", "fde", "--in", str(eq1),
               "--partition", "singletons", "--out", str(out)])
    assert rc == 0
    reduced = parse_model(out.read_text()).system
    assert reduced.names == ("x1", "x2", "x3")


def test_reduce_bde_default_seed_from_init(eq1_bde, tmp_path):
    out = tmp_path / "red.ode"
    rc = main(["reduce", "--mode", "bde", "--in", str(eq1_bde), "--out", str(out)])
    assert rc == 0
    reduced = parse_model(out.read_text()).system
    assert reduced.names == ("x1", "x2")
    assert reduced.init == (Fraction(1), Fraction(1, 2))


def test_reduce_warns_on_unequal_inits(tmp_path, capsys):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(k1=1, k2=1, init=(1, 0, 5)))
    out = tmp_path / "red.ode"
    rc = main(["reduce", "--mode", "bde", "--in", str(model), "--out", str(out),
               "--partition", "file"])
    assert rc == 2  # no partition section in the file
    model.write_text(cascade_text(k1=1, k2=1, init=(1, 0, 5),
                                  extra=PARTITION_BLOCK))
    rc = main(["reduce", "--mode", "bde", "--in", str(model), "--out", str(out),
               "--partition", "file", "--report", str(tmp_path / "r.json")])
    assert rc == 0
    assert "unequal initial values" in capsys.readouterr().err
    data = json.loads((tmp_path / "r.json").read_text())
    assert any("unequal" in w for w in data["warnings"])


def test_check_passes_and_fails(tmp_path, capsys):
    ok_model = tmp_path / "ok.ode"
    ok_model.write_text(cascade_text(k1=1, k2=1, extra=PARTITION_BLOCK))
    assert main(["check", "--mode", "bde", "--in", str(ok_model)]) == 0

    bad_model = tmp_path / "bad.ode"
    bad_model.write_text(cascade_text(k1=1, k2=2, extra=PARTITION_BLOCK))
    capsys.readouterr()
    assert main(["check", "--mode", "bde", "--in", str(bad_model)]) == 1
    err = capsys.readouterr().err
    assert "(x2, x3)" in err


def test_reduce_refines_a_failing_file_partition(tmp_path, capsys):
    # The file's partition only seeds the refinement: reduce splits it and
    # succeeds (test_check_passes_and_fails rejects it as written).
    model = tmp_path / "bad.ode"
    model.write_text(cascade_text(k1=1, k2=2, extra=PARTITION_BLOCK))
    out = tmp_path / "red.ode"
    for mode, blocks in (("bde", "2 -> 3 blocks"), ("fde", "2 -> 2 blocks")):
        assert main(["reduce", "--mode", mode, "--in", str(model), "--out", str(out),
                     "--partition", "file"]) == 0
        assert blocks in capsys.readouterr().out


def test_check_requires_partition(tmp_path):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text())
    assert main(["check", "--mode", "bde", "--in", str(model)]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ode"
    bad.write_text("begin model begin init x = end init end model")
    assert main(["check", "--mode", "bde", "--in", str(bad)]) == 2
    assert "expected" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert main(["check", "--mode", "bde", "--in", str(tmp_path / "nope.ode")]) == 2


def test_simulate_and_compare(eq1, tmp_path, capsys):
    red = tmp_path / "red.ode"
    assert main(["reduce", "--mode", "fde", "--in", str(eq1),
                 "--partition", "one-block", "--out", str(red)]) == 0
    # the comparison partition comes from the original model file
    orig = tmp_path / "orig.ode"
    orig.write_text(cascade_text(k1=2, k2=3, init=(1, "1/2", "1/2"),
                                 extra=PARTITION_BLOCK))
    csv = tmp_path / "traj.csv"
    rc = main(["simulate", "--in", str(orig), "--t-end", "2", "--dt", "0.001",
               "--out", str(csv), "--compare", str(red), "--map-mode", "fde"])
    assert rc == 0
    out = capsys.readouterr().out
    error = float(out.split("max_error=")[1])
    assert error <= 1e-6
    header = csv.read_text().splitlines()[0]
    assert header == "time,x1,x2,x3"


def test_simulate_compare_needs_partition_and_mode(eq1, tmp_path, capsys):
    red = tmp_path / "red.ode"
    assert main(["reduce", "--mode", "fde", "--in", str(eq1),
                 "--partition", "one-block", "--out", str(red)]) == 0
    csv = tmp_path / "t.csv"
    assert main(["simulate", "--in", str(eq1), "--t-end", "1", "--dt", "0.01",
                 "--out", str(csv), "--compare", str(red)]) == 2
    assert not csv.exists()
    assert main(["simulate", "--in", str(eq1), "--t-end", "1", "--dt", "0.01",
                 "--out", str(csv), "--compare", str(red),
                 "--map-mode", "fde"]) == 2
    assert not csv.exists()
    capsys.readouterr()
    # the reduced model's width is checked before anything is integrated
    rc = main(["simulate", "--in", str(GOLDEN / "t04_partition.ode"), "--t-end", "1",
               "--dt", "0.1", "--out", str(csv), "--compare",
               str(GOLDEN / "t02_cascade.ode"), "--map-mode", "fde"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: reduced trajectory width does not match the partition\n"
    assert not csv.exists()


@pytest.mark.parametrize("bad", [["--t-end", "-1"], ["--dt", "0"], ["--sample", "0"],
                                 ["--t-end", "nan"], ["--t-end", "inf"],
                                 ["--t-end", "1e200", "--dt", "1e-100"]])
def test_simulate_bad_arguments_are_input_errors(bad, tmp_path, capsys):
    args = {"--t-end": "1", "--dt": "0.01", "--sample": "1"}
    args.update(zip(bad[::2], bad[1::2]))
    csv = tmp_path / "t.csv"
    argv = ["simulate", "--in", str(GOLDEN / "t02_cascade.ode"), "--out", str(csv)]
    rc = main(argv + [item for pair in args.items() for item in pair])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not csv.exists()


@pytest.mark.parametrize("mode", ["bde", "fde"])
@pytest.mark.parametrize("model", sorted(p.name for p in GOLDEN.glob("*.ode")))
def test_byte_order_mark_is_not_model_text(model, mode, tmp_path, capsys):
    """A model saved with a UTF-8 byte-order mark reduces as the model does."""
    marked = tmp_path / "marked.ode"
    marked.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / model).read_bytes())
    runs = []
    for source in (GOLDEN / model, marked):
        out = tmp_path / "out.ode"
        rc = main(["reduce", "--mode", mode, "--in", str(source), "--out", str(out)])
        runs.append((rc, out.read_bytes() if rc == 0 else None,
                     *capsys.readouterr()))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]


def test_convert_round_trip(eq1, tmp_path):
    rn = tmp_path / "model.rn.ode"
    assert main(["convert", "--in", str(eq1), "--to", "rn", "--out", str(rn)]) == 0
    text = rn.read_text()
    assert "begin reactions" in text
    back = tmp_path / "model.ode"
    assert main(["convert", "--in", str(rn), "--to", "ode", "--out", str(back)]) == 0
    assert parse_model(back.read_text()).system == parse_model(eq1.read_text()).system


def test_convert_rn_rejects_expression_drifts(tmp_path, capsys):
    model = tmp_path / "min.ode"
    model.write_text(MIN_PAIR_TEXT)
    assert main(["convert", "--in", str(model), "--to", "rn",
                 "--out", str(tmp_path / "x.ode")]) == 2
    assert capsys.readouterr().err == "error: reaction form requires polynomial drifts\n"
    assert not (tmp_path / "x.ode").exists()


def test_convert_smt2(tmp_path):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(k1=1, k2=1, extra=PARTITION_BLOCK))
    out = tmp_path / "phi.smt2"
    assert main(["convert", "--in", str(model), "--to", "smt2",
                 "--out", str(out)]) == 2  # --mode is required
    assert main(["convert", "--in", str(model), "--to", "smt2", "--mode", "bde",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("(set-logic QF_NRA)")
    assert "(check-sat)" in text


def test_convert_smt2_requires_partition(eq1, tmp_path):
    assert main(["convert", "--in", str(eq1), "--to", "smt2", "--mode", "bde",
                 "--out", str(tmp_path / "x.smt2")]) == 2


def test_oracle_prints_partition(tmp_path, capsys):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(k1=1, k2=1))
    rc = main(["oracle", "--mode", "bde", "--in", str(model)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "{x1}, {x2, x3}"


def test_oracle_guard(tmp_path):
    names = [f"v{i}" for i in range(11)]
    lines = ["begin model", "begin init"]
    lines += [f"  {nm} = 0" for nm in names]
    lines += ["end init", "begin ode", "end ode", "end model"]
    model = tmp_path / "big.ode"
    model.write_text("\n".join(lines))
    assert main(["oracle", "--mode", "bde", "--in", str(model)]) == 2


def test_smt_backend_with_scripted_solver(tmp_path, capsys):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(k1=1, k2=1))
    out = tmp_path / "red.ode"
    cmd = seq_cmd(tmp_path, [SAT_111, "unsat"])
    rc = main(["reduce", "--mode", "bde", "--in", str(model),
               "--partition", "one-block", "--backend", "smt",
               "--solver-cmd", cmd, "--out", str(out),
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["backend"] == "smt"
    assert data["blocks_after"] == 2
    # identical blocks as the syntactic backend
    out2 = tmp_path / "red2.ode"
    assert main(["reduce", "--mode", "bde", "--in", str(model),
                 "--partition", "one-block", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_solver_env_variable_fallback(tmp_path, monkeypatch, capsys):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(k1=1, k2=1, extra=PARTITION_BLOCK))
    reply = tmp_path / "reply.txt"
    reply.write_text("unsat\n")
    monkeypatch.setenv("ODELUMP_SOLVER", fake("reply", reply))
    assert main(["check", "--mode", "bde", "--backend", "smt",
                 "--in", str(model)]) == 0


def test_check_smt_reports_witness_on_sat(tmp_path, capsys):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(k1=1, k2=2, extra=PARTITION_BLOCK))
    # at x = (1/2, 1, 1) the block {x2, x3} has drifts -1/2 and 0
    witness = SAT_111.replace("x1 () Real 1.0", "x1 () Real (/ 1 2)")
    rc = main(["check", "--mode", "bde", "--backend", "smt",
               "--solver-cmd", seq_cmd(tmp_path, [witness]), "--in", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == "counterexample witness: x1=1/2, x2=1, x3=1\n"


def test_check_smt_unknown_is_a_solver_error(tmp_path, capsys):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(extra=PARTITION_BLOCK))
    rc = main(["check", "--mode", "fde", "--backend", "smt",
               "--solver-cmd", seq_cmd(tmp_path, ["unknown"]), "--in", str(model)])
    assert rc == 3
    assert capsys.readouterr().err == ("solver error: solver returned unknown: "
                                       "solver reported unknown\n")


def test_solver_error_exit_code(tmp_path):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(extra=PARTITION_BLOCK))
    rc = main(["check", "--mode", "bde", "--backend", "smt",
               "--solver-cmd", "no-such-solver-binary", "--in", str(model)])
    assert rc == 3


@pytest.mark.parametrize("command", ["reduce", "check"])
@pytest.mark.parametrize("timeout", ["0", "-5"])
def test_nonpositive_timeout_is_an_input_error(tmp_path, capsys, command, timeout):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(extra=PARTITION_BLOCK))
    cmd = seq_cmd(tmp_path, ["unsat", "unsat"])
    replies = (tmp_path / "seq.txt").read_text()
    argv = [command, "--mode", "bde", "--in", str(model), "--backend", "smt",
            "--solver-cmd", cmd, "--timeout", timeout]
    if command == "reduce":
        argv += ["--out", str(tmp_path / "red.ode")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --timeout must be a positive number of ms, not {timeout}\n"
    # the scripted solver never ran: it would have consumed a reply
    assert (tmp_path / "seq.txt").read_text() == replies
    assert not (tmp_path / "red.ode").exists()


def test_syntactic_backend_rejects_expression_drifts(tmp_path):
    model = tmp_path / "min.ode"
    model.write_text(MIN_PAIR_TEXT)
    assert main(["reduce", "--mode", "bde", "--in", str(model),
                 "--backend", "syntactic", "--partition", "one-block",
                 "--out", str(tmp_path / "o.ode")]) == 2


def test_usage_error_exit_code():
    assert main(["reduce", "--mode", "sideways"]) == 2


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise KeyError("invariant")

    monkeypatch.setitem(cli._DISPATCH, "oracle", broken)
    model = tmp_path / "m.ode"
    model.write_text(cascade_text())
    assert main(["oracle", "--mode", "bde", "--in", str(model)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "KeyError: 'invariant'" in err


def test_module_entry_point(tmp_path):
    model = tmp_path / "m.ode"
    model.write_text(cascade_text(k1=1, k2=1))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "odelump", "oracle", "--mode", "bde",
         "--in", str(model)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{x1}, {x2, x3}"


@pytest.mark.parametrize("mode", ["fde", "bde"])
@pytest.mark.parametrize("model", ["t14_bigger.ode", "t07_reactions.ode", "smt"])
def test_report_splits_the_wall_time_into_phases(model, mode, tmp_path):
    report = tmp_path / "r.json"
    argv = ["reduce", "--mode", mode, "--out", str(tmp_path / "red.ode"),
            "--report", str(report), "--partition", "one-block"]
    if model == "smt":  # the solver loop is the refine phase
        (tmp_path / "m.ode").write_text(MIN_PAIR_TEXT)
        argv += ["--in", str(tmp_path / "m.ode"),
                 "--solver-cmd", seq_cmd(tmp_path, [SAT_111, "unsat"] if mode == "bde"
                                         else ["unsat"])]
    else:
        argv += ["--in", str(GOLDEN / model)]
    assert main(argv) == 0
    data = json.loads(report.read_text())
    phases = data["phases_ms"]
    assert list(phases) == ["parse", "seed", "refine", "reduce", "serialize"]
    assert all(isinstance(v, float) and v >= 0 and v == round(v, 3) for v in phases.values())
    # wall_time_ms is truncated to whole ms; the phases sum to the elapsed
    # time rounded to 0.001 ms, up to float error
    assert -1e-6 <= sum(phases.values()) - data["wall_time_ms"] <= 1 + 1e-6
