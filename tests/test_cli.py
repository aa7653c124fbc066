"""CLI behavior: output channels, exit codes, config handling, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calibkit import CalibrationSpec, OrientedPlane, build_calibration, cli, critical, exterior, grassmann
from calibkit.cli import main

from conftest import BUILTIN_SPECS, svd_jet

# custom 5- and 6-forms on R^9, whose sub-minor tables reach 4 x 4 and 5 x 5 sub-minors
FIVE_FORM = "e12345 + e16789 + e13579 - e24689 + e23456"
SIX_FORM = "e123456 + e124789 + e356789 - e134679 + e235678"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_json_output(capsys):
    code, out, err = run(capsys, "module", "--family", "associative", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"dim_phi": 7, "dim_stab": 14, "n": 7, "p": 3}


def test_module_text_output(capsys):
    code, out, _ = run(capsys, "module", "--family", "cayley")
    assert code == 0
    assert "dim Phi = 7" in out
    assert "stabilizer dim = 21" in out


def test_module_custom_form(capsys):
    code, out, _ = run(capsys, "module", "--family", "custom", "--form", "e12", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out)["dim_phi"] == 4


def test_module_with_basis(capsys):
    """The block-sparse basis: the seven 4-term forms of Lambda^3_7, coefficients +-1/2."""
    code, out, _ = run(capsys, "module", "--family", "associative", "--basis", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 7
    assert all(len(form["terms"]) == 4 for form in payload["basis"])
    assert all(abs(abs(term["c"]) - 0.5) <= 1e-15 for form in payload["basis"] for term in form["terms"])


def test_usage_errors(capsys):
    assert run(capsys, "module", "--family", "nonsense")[0] == 2
    assert run(capsys, "module")[0] == 2  # missing family
    assert run(capsys, "module", "--family", "custom")[0] == 2  # missing form
    assert run(capsys, "nope")[0] == 2  # unknown subcommand
    assert run(capsys, "module", "--family", "associative", "--tol", "-1")[0] == 2  # no --tol


def test_check_exit_codes(capsys, tmp_path):
    # a random plane is not critical: exit 1
    code, out, _ = run(capsys, "check", "--family", "associative", "--seed", "0", "--json")
    assert code == 1
    assert json.loads(out)["is_critical"] is False
    # the calibrated coordinate plane: exit 0
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(OrientedPlane(np.eye(7)[:, :3]).to_json()))
    code, out, _ = run(capsys, "check", "--family", "associative", "--frame", str(frame), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_critical"] is True
    assert payload["value"] == pytest.approx(1.0)


@pytest.mark.parametrize("literal, value", [("1e-3*e123 + e145", 1e-3), ("2.5E+2*e123 - 1e-05*e145", 250.0)])
def test_custom_form_with_a_signed_exponent(capsys, tmp_path, literal, value):
    """A coefficient in scientific notation reaches the form: the plane e123 is critical with its value."""
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(OrientedPlane(np.eye(5)[:, :3]).to_json()))
    code, out, err = run(capsys, "check", "--family", "custom", "--form", literal, "--frame", str(frame), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == value


def test_check_rejects_frame_and_seed_together(capsys, tmp_path):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(OrientedPlane(np.eye(7)[:, :3]).to_json()))
    code, _, err = run(
        capsys, "check", "--family", "associative", "--frame", str(frame), "--seed", "1"
    )
    assert code == 2
    assert "exactly one" in err


def test_comass_small(capsys):
    code, out, _ = run(capsys, "comass", "--family", "associative", "--trials", "20", "--json")
    assert code == 0
    assert json.loads(out)["comass"] == pytest.approx(1.0, abs=1e-8)


def test_sff_exit_codes(capsys, tmp_path):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(OrientedPlane(np.eye(7)[:, :3]).to_json()))
    code, out, _ = run(capsys, "sff", "--family", "associative", "--frame", str(frame), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"solution_dim": 12, "all_trace_free": True}
    # negative verdict: solutions that are not trace-free
    frame5 = tmp_path / "frame5.json"
    frame5.write_text(json.dumps(OrientedPlane(np.eye(5)[:, 2:4]).to_json()))
    code, out, _ = run(
        capsys, "sff", "--family", "custom", "--form", "e12", "--n", "5",
        "--frame", str(frame5), "--json",
    )
    assert code == 1
    assert json.loads(out)["all_trace_free"] is False
    # negative verdict, as in check: the random plane is not critical
    code, _, err = run(capsys, "sff", "--family", "associative", "--seed", "3")
    assert code == 1
    assert "not critical" in err


def test_eds_subcommand(capsys):
    code, out, _ = run(capsys, "eds", "--family", "associative", "--trials", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cartan_bound"] == 4
    assert payload["actual_codim"] == 4
    assert payload["hodge_dual"] == {"codim_p": 4, "codim_dual": 4}
    code, out, _ = run(capsys, "eds", "--family", "coassociative", "--trials", "5", "--json")
    assert code == 1  # non-involutive verdict
    assert json.loads(out)["cartan_bound"] == 3


@pytest.mark.parametrize(
    "spec, code, codims",
    [
        (["--family", "associative"], 0, (4, 4)),
        (["--family", "coassociative"], 1, (4, 3)),
        (["--family", "cayley"], 0, (4, 4)),
        (["--family", "special_lagrangian", "--m", "3"], 1, (4, 3)),
        (["--family", "special_lagrangian", "--m", "4"], 1, (7, 4)),
        (["--family", "cartan", "--algebra", "su3"], 1, (11, 5)),
        (["--family", "cartan", "--algebra", "su4"], 1, (28, 12)),
    ],
    ids=["associative", "coassociative", "cayley", "slag3", "slag4", "su3", "su4"],
)
def test_eds_codims_agree_on_both_sides_of_the_hodge_dual(capsys, spec, code, codims):
    """Each family's eds run checks phi and *phi by finite differences without a RuntimeWarning (an error here)."""
    got, out, err = run(capsys, "eds", *spec, "--trials", "3", "--json")
    assert (got, err) == (code, "")
    payload = json.loads(out)
    assert (payload["actual_codim"], payload["cartan_bound"]) == codims
    assert payload["hodge_dual"]["codim_p"] == payload["hodge_dual"]["codim_dual"] == payload["actual_codim"]


@pytest.mark.parametrize(
    "literal, runs",
    [
        (FIVE_FORM, [("check", [], 1), ("search", ["--trials", "24"], 0), ("eds", ["--trials", "3"], 1)]),
        (SIX_FORM, [("check", [], 1), ("search", ["--trials", "8"], 0)]),
    ],
    ids=["five-form", "six-form"],
)
def test_custom_forms_of_degree_five_and_six_on_r9(capsys, literal, runs):
    """End-to-end runs of first_jet's sub-minor tables at p > 4, in check, search and eds."""
    for command, extra, code in runs:
        got, out, err = run(capsys, command, "--family", "custom", "--form", literal, "--n", "9", *extra, "--json")
        assert (got, err) == (code, "")
        assert json.loads(out)


def test_search_at_k_0_and_comass_over_a_module_of_rank_0(capsys):
    """Gauss-Newton with no normals (a 4-form on R^4), and a form without terms, whose module has rank 0."""
    code, out, err = run(capsys, "search", "--family", "custom", "--form", "e1234", "--n", "4", "--trials", "3", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["trials"] == 3 and np.shape(payload["planes"]) == (3, 4, 4)
    assert payload["residuals"] == [0.0] * 3 and np.allclose(np.abs(payload["values"]), 1.0, rtol=0.0, atol=1e-12)
    assert payload["clusters"] == [{"center": 1.0, "count": 3}]
    code, out, err = run(capsys, "comass", "--family", "custom", "--form", "0*e12", "--n", "4", "--trials", "3", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["comass"] == 0.0 and np.shape(payload["maximizer"]) == (2, 4)


def scaled_runs(capsys, tmp_path, name, c):
    """(exit code, payload) of check, sff, eds, search and comass on c phi, passed as a JSON form.

    check and sff take the coordinate plane of phi's largest term, a calibrated plane.
    """
    phi = build_calibration(CalibrationSpec.from_json(BUILTIN_SPECS[name]))
    form = exterior.form_to_json(phi)
    form["terms"] = [{"idx": term["idx"], "c": c * term["c"]} for term in form["terms"]]
    top = max(sorted(phi.coeffs), key=lambda idx: abs(phi.coeffs[idx]))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(OrientedPlane(np.eye(phi.n)[:, [i - 1 for i in top]]).to_json()))
    spec = ["--family", "custom", "--form", json.dumps(form), "--json"]
    commands = [
        ["check", "--frame", str(frame)],
        ["sff", "--frame", str(frame)],
        ["eds", "--trials", "3"],
        ["search", "--trials", "24"],
        ["comass", "--trials", "8"],
    ]
    runs = {}
    for argv in commands:
        code, out, _ = run(capsys, *argv, *spec)
        runs[argv[0]] = code, json.loads(out)
    return runs


@pytest.mark.parametrize("name", ["associative", "cayley", "slag3", "su3"])
def test_commands_on_a_scaled_form_keep_their_verdicts_and_scale_their_values(capsys, tmp_path, name):
    """For c in {1e-12, 1e-6, 1e6}, c phi gets c = 1's exit codes, counts and codims, and c times its values to 1e-12."""
    want = scaled_runs(capsys, tmp_path, name, 1.0)
    for c in (1e-12, 1e-6, 1e6):
        got = scaled_runs(capsys, tmp_path, name, c)
        assert [code for code, _ in got.values()] == [code for code, _ in want.values()]
        (check, sff, eds, search, comass), (check1, sff1, eds1, search1, comass1) = (
            [payload for _, payload in runs.values()] for runs in (got, want)
        )

        def scaled(a, b):
            return abs(a - c * b) <= 1e-12 * c * max(1.0, abs(b))

        assert check["is_critical"] == check1["is_critical"] and scaled(check["value"], check1["value"])
        assert (sff["solution_dim"], sff["all_trace_free"]) == (sff1["solution_dim"], sff1["all_trace_free"])
        assert all(eds[key] == eds1[key] for key in ("actual_codim", "cartan_bound", "hodge_dual"))
        assert [k["count"] for k in search["clusters"]] == [k["count"] for k in search1["clusters"]]
        assert all(scaled(a["center"], b["center"]) for a, b in zip(search["clusters"], search1["clusters"]))
        assert scaled(comass["comass"], comass1["comass"])


def test_eds_of_a_one_form_and_a_search_over_several_lockstep_blocks(capsys):
    """p = 1 in eds (every polar space is R^n), and 70 trials, which take three lockstep blocks."""
    code, out, err = run(capsys, "eds", "--family", "custom", "--form", "e1", "--n", "3", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["actual_codim"], payload["cartan_bound"], payload["polar_codims"]) == (2, 2, [2])
    assert payload["hodge_dual"] == {"codim_p": 2, "codim_dual": 2}
    assert 70 > 2 * grassmann._TRIAL_BLOCK
    code, out, err = run(capsys, "search", "--family", "associative", "--trials", "70", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["trials"] == 70 and np.shape(payload["planes"]) == (70, 3, 7)
    assert len(payload["values"]) == len(payload["residuals"]) == 70
    assert payload["clusters"] == [{"center": 1.0, "count": 70}]


def eds_payload_both_cofactor_paths(capsys, monkeypatch, literal, n):
    """The eds payload of a custom form, checked equal with first_jet's replacements taken from SVD cofactors."""
    args = ("eds", "--family", "custom", "--form", literal, "--n", str(n), "--trials", "3", "--json")
    code, table_out, _ = run(capsys, *args)
    table_jet, degrees = exterior.first_jet, set()

    def svd_first_jet(coeff_mat, idx0, frames, normals):
        values, _ = table_jet(coeff_mat, idx0, frames, normals)
        first = svd_jet(coeff_mat, idx0, frames, normals)
        if first.size:
            degrees.add(np.shape(idx0)[1])
        return values, first

    for module in (exterior, critical, grassmann):
        monkeypatch.setattr(module, "first_jet", svd_first_jet)
    assert run(capsys, *args) == (code, table_out, "")
    assert degrees  # the run took replacements from SVD cofactors
    return json.loads(table_out)


def test_eds_payload_independent_of_cofactor_path(capsys, monkeypatch):
    """The p = 6 dual of e123 on R^9 is evaluated through its own star, on 3 x 3 minors."""
    payload = eds_payload_both_cofactor_paths(capsys, monkeypatch, "e123", 9)
    assert payload["hodge_dual"] == {"codim_p": 18, "codim_dual": 18}


def test_eds_payload_independent_of_cofactor_path_at_half_degree(capsys, monkeypatch):
    """e123456 on R^12 and its dual (p = n/2) take first_jet's 6 x 6 minors."""
    payload = eds_payload_both_cofactor_paths(capsys, monkeypatch, "e123456", 12)
    assert payload["hodge_dual"] == {"codim_p": 36, "codim_dual": 36}


def test_spinor_subcommand(capsys):
    code, out, _ = run(capsys, "spinor", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_psi_forms"] == 7
    assert payload["dim_phi"] == 7
    assert payload["span_distance"] < 1e-9
    assert payload["component_norms"]["1"] == 0.0


def test_logs_go_to_stderr_not_stdout(capsys):
    code, out, err = run(capsys, "module", "--family", "custom", "--form", "e21", "--n", "4")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_config_file_overrides_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 10, "seed": 4}))
    code, out, _ = run(
        capsys, "search", "--family", "associative", "--config", str(cfg), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 10
    assert payload["params"]["master_seed"] == 4
    # explicit flags beat the config file
    code, out, _ = run(
        capsys, "search", "--family", "associative", "--config", str(cfg),
        "--trials", "5", "--json",
    )
    assert json.loads(out)["trials"] == 5


def test_search_payload_params_are_the_settings_a_caller_sets(capsys):
    """The step rule's constants are not search settings, so the payload's params hold only the four that are."""
    code, out, err = run(capsys, "search", "--family", "associative", "--trials", "2", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert set(payload["params"]) == {"max_iters", "grad_tol", "trials", "master_seed"}
    assert payload["params"]["trials"] == payload["trials"] == 2


@pytest.mark.parametrize("content", ['{"trials": "a"}', "[1, 2]", '{"tol": "x"}'])
def test_config_file_of_wrong_type_is_a_usage_error(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run(capsys, "search", "--family", "associative", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "--config" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--family", "associative", "--seed", "0", "--tol", "inf"],
        ["check", "--family", "associative", "--seed", "0", "--tol", "nan"],
        ["search", "--family", "associative", "--trials", "-3"],
        ["eds", "--family", "associative", "--trials", "0"],
        ["comass", "--family", "associative", "--trials", "0"],
        ["check", "--family", "associative", "--seed", "0", "--tol", "-1"],
    ],
)
def test_out_of_range_setting_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["search", "--family", "associative", "--tol", "1e-6"], "--tol"),
        (["comass", "--family", "associative", "--tol", "1e-6"], "--tol"),
        (["eds", "--family", "associative", "--tol", "1e-6"], "--tol"),
        (["check", "--family", "associative", "--trials", "5"], "--trials"),
        (["sff", "--family", "associative", "--trials", "5"], "--trials"),
        (["module", "--family", "associative", "--seed", "1"], "--seed"),
        (["module", "--family", "associative", "--trials", "5"], "--trials"),
        (["module", "--family", "associative", "--tol", "-1"], "--tol"),
        (["spinor", "--family", "associative"], "--family"),
        (["spinor", "--seed", "1"], "--seed"),
    ],
)
def test_option_the_subcommand_does_not_read_is_a_usage_error(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert option in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["module", "--family", "associative", "--m", "3"], "--m"),
        (["module", "--family", "cartan", "--algebra", "su3", "--phase", "0.5"], "--phase"),
        (["module", "--family", "special_lagrangian", "--m", "3", "--algebra", "su3"], "--algebra"),
        (["module", "--family", "associative", "--form", "e123"], "--form"),
        (["module", "--family", "associative", "--n", "7"], "--n"),
        (["module", "--family", "custom", "--form", '{"n": 4, "p": 2, "terms": [{"idx": [1, 2], "c": 1}]}', "--n", "4"], "--n"),
        (["module", "--family", "cartan", "--algebra", "su"], "--algebra"),
        (["module", "--family", "cartan", "--algebra", "su3x"], "--algebra"),
        (["module", "--family", "cartan", "--algebra", "su9"], "--algebra"),
        (["module", "--family", "special_lagrangian", "--m", "9"], "--m"),
        (["module", "--family", "cartan", "--algebra", "su6"], "--algebra"),
    ],
)
def test_spec_option_its_family_does_not_read_or_malformed_is_named(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert option in err


@pytest.mark.parametrize("command", ["check", "search"])
@pytest.mark.parametrize("from_config", [False, True])
def test_negative_seed_is_a_usage_error_that_names_it(capsys, tmp_path, command, from_config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -1}')
    source = ["--config", str(cfg)] if from_config else ["--seed", "-1"]
    code, out, err = run(capsys, command, "--family", "associative", *source)
    assert code == 2
    assert out == ""
    assert "seed" in err


def test_repeated_calls_in_one_process_agree(capsys):
    """The parser is built once per process; a call leaves nothing behind for the next."""
    calls = [
        ["check", "--family", "associative", "--seed", "2", "--json"],
        ["module", "--family", "special_lagrangian", "--m", "3", "--phase", "0.3", "--json"],
        ["module", "--family", "associative", "--seed", "1"],
        ["comass", "--family", "associative", "--trials", "4", "--seed", "5", "--json"],
        ["spinor"],
    ]
    first = [run(capsys, *argv) for argv in calls]
    second = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert first == second
    assert [code for code, _, _ in first] == [1, 0, 2, 0, 0]


def test_subcommand_runs_through_the_module_name(capsys, monkeypatch):
    """Dispatch reads cmd_* from the module at call time, so a function rebound after the first call runs."""
    run(capsys, "module", "--family", "associative")
    seen = []
    monkeypatch.setattr(cli, "cmd_module", lambda args, cfg: seen.append(args.family) or 0)
    assert run(capsys, "module", "--family", "cayley") == (0, "", "")
    assert seen == ["cayley"]


@pytest.mark.parametrize("name", ["phi_module", "build_calibration"])
def test_lapack_failure_is_a_numerical_failure(capsys, monkeypatch, name):
    """LinAlgError is a ValueError, yet a LAPACK failure exits 3, not 2, wherever it is raised."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, name, fail)
    code, out, err = run(capsys, "module", "--family", "associative", "--json")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "SVD did not converge" in err


def test_any_other_exception_exits_3_with_its_traceback(capsys, monkeypatch):
    """An exception that is neither a usage error nor a numerical failure exits 3, never 1, a negative verdict."""

    def fail(args, cfg):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "cmd_check", fail)
    code, out, err = run(capsys, "check", "--family", "associative", "--json")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("TypeError: unsupported operand")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["module", "--family", "custom", "--form", '{"n": 4}'], "'p'"),
        (["module", "--family", "custom", "--form", '{"n": 4, "p": 2, "terms": 5}'], "'terms'"),
        (["module", "--family", "custom", "--form", '{"n": 4, "p": 2, "terms": [{"idx": [1, 2], "c": [1]}]}'], "'c'"),
        (["module", "--family", "custom", "--form", '{"n": 4, "p": 2, "terms": [{"idx": [1, 2], "c": NaN}]}'], "'c'"),
        (["module", "--family", "custom", "--form", '{"n": 4, "p": 2, "terms": [{"idx": [1, 2], "c": Infinity}]}'], "'c'"),
        (["module", "--family", "custom", "--form", "1e999*e123"], "coefficient"),
        (["module", "--family", "special_lagrangian", "--m", "3", "--phase", "nan"], "phase"),
        (["check", "--family", "special_lagrangian", "--m", "3", "--phase", "inf", "--seed", "0"], "phase"),
        (["module", "--family", "custom", "--form", '{"n": 3, "p": 1, "terms": [{"idx": [1], "c": true}]}'], "'c'"),
    ],
)
def test_malformed_form_or_phase_is_a_usage_error(capsys, argv, field):
    """Malformed --form JSON and non-finite coefficients or phases exit 2 with a message naming the field."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize(
    "content",
    ['{"cluster_tol": NaN}', '{"grad_tol": Infinity}', '{"max_iters": 0}', '{"trials": 0}', '{"trails": 5}'],
)
def test_config_value_out_of_range_is_a_usage_error(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run(capsys, "search", "--family", "associative", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_unknown_config_key_is_named(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 5, "trails": 5}')
    code, out, err = run(capsys, "search", "--family", "associative", "--config", str(cfg))
    assert code == 2
    assert "'trails'" in err


_BAD_FRAME_FILES = [
    '{"n": 7}',
    "[[1, 0, 0, 0, 0, 0, 0]]",
    '{"columns": [[NaN, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}',
    '{"columns": [[Infinity, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]}',
]


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param(command, content, id=content if command == "check" else f"{command}-{content}")
        for command in ("check", "sff")
        for content in _BAD_FRAME_FILES
    ],
)
def test_malformed_frame_file_is_a_usage_error(capsys, tmp_path, command, content):
    frame = tmp_path / "frame.json"
    frame.write_text(content)
    code, out, err = run(capsys, command, "--family", "associative", "--frame", str(frame))
    assert code == 2
    assert out == ""
    assert "columns" in err


@pytest.mark.parametrize("command", ["check", "sff"])
@pytest.mark.parametrize("n, p", [(8, 3), (7, 4)])
def test_frame_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path, command, n, p):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(OrientedPlane(np.eye(n)[:, :p]).to_json()))
    code, out, err = run(capsys, command, "--family", "associative", "--frame", str(frame))
    assert code == 2
    assert out == ""
    assert f"{p}-plane in R^{n}" in err


@pytest.mark.parametrize("command", ["check", "sff"])
def test_rank_deficient_frame_is_a_usage_error(capsys, tmp_path, command):
    e = np.eye(7)
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"n": 7, "p": 3, "columns": [e[0].tolist(), e[0].tolist(), e[2].tolist()]}))
    code, out, err = run(capsys, command, "--family", "associative", "--frame", str(frame))
    assert code == 2
    assert out == ""
    assert "dependent" in err


def test_frame_off_orthonormal_is_reorthonormalized_with_a_warning(capsys, tmp_path):
    """Columns e1 + 1e-3 e4, e2, e3: the warning names the deviation and the value is the normalized plane's."""
    e = np.eye(7)
    frame = tmp_path / "frame.json"
    columns = [(e[0] + 1e-3 * e[3]).tolist(), e[1].tolist(), e[2].tolist()]
    frame.write_text(json.dumps({"n": 7, "p": 3, "columns": columns}))
    code, out, err = run(capsys, "check", "--family", "associative", "--frame", str(frame), "--json")
    assert "warning: frame re-orthonormalized (deviation 1.00e-06)" in err
    assert json.loads(out)["value"] == pytest.approx(1.0 / np.sqrt(1.0 + 1e-6), rel=0.0, abs=1e-15)


@pytest.mark.parametrize("exact", [True, False])
def test_orthonormal_frame_is_kept_without_a_warning(capsys, tmp_path, exact):
    """An orthonormal frame, exactly or to round-off, is evaluated as given and draws no warning."""
    if exact:
        columns = np.eye(7)[:, :3]
    else:
        columns, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((7, 3)))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"n": 7, "p": 3, "columns": columns.T.tolist()}))
    code, out, err = run(capsys, "check", "--family", "associative", "--frame", str(frame), "--json")
    assert "warning" not in err
    phi = build_calibration(CalibrationSpec.from_json({"family": "associative"}))
    assert json.loads(out)["value"] == phi.apply(columns)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "module", "--family", "associative", "--json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dim_phi"] == 7


@pytest.mark.parametrize(
    "argv, option",
    [
        (["check", "--family", "associative", "--frame", ""], "--frame"),
        (["sff", "--family", "associative", "--frame", ""], "--frame"),
        (["search", "--family", "associative", "--trials", "3", "--out", ""], "--out"),
        (["search", "--family", "associative", "--trials", "3", "--csv", ""], "--csv"),
        (["comass", "--family", "associative", "--trials", "3", "--config", ""], "--config"),
    ],
)
def test_empty_path_is_a_usage_error_that_names_it(capsys, argv, option):
    """An empty path neither falls back to a default plane or stdout nor goes unread."""
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert f"argument {option}: empty path" in err


def test_search_csv_output(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "search", "--family", "associative", "--trials", "5",
        "--csv", str(target), "--json",
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "trial,value,residual"
    assert len(lines) >= 2


def test_search_determinism_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["search", "--family", "associative", "--trials", "10", "--seed", "7", "--json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def _run_twice(args):
    """Run the CLI with args in two fresh processes; returns their stdout bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "calibkit.cli"] + args
    runs = [subprocess.run(argv, env=env, capture_output=True, timeout=300) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    return [r.stdout for r in runs]


@pytest.mark.parametrize(
    "algebra, trials", [("su3", "30"), ("su4", "24"), ("su5", "8")], ids=["su3-two-blocks", "su4", "su5"]
)
def test_seeded_searches_give_the_same_bytes_in_two_processes(algebra, trials):
    """Two fresh processes print the same catalog bytes: the module's per-block SVDs included.

    30 su3 trials span two lockstep blocks; 24 su4 trials take its tall
    Gauss-Newton Jacobians in one stack; su5, the largest built-in algebra,
    runs as `calibkit search --family cartan --algebra su5`.
    """
    a, b = _run_twice(["search", "--family", "cartan", "--algebra", algebra, "--trials", trials, "--seed", "5", "--json"])
    assert json.loads(a)["trials"] == int(trials)
    assert a == b


@pytest.mark.parametrize(
    "family, trials", [(["cayley"], "40"), (["cartan", "--algebra", "su4"], "24")], ids=["cayley-two-blocks", "su4"]
)
def test_seeded_comass_gives_the_same_bytes_in_two_processes(family, trials):
    """Two fresh processes print the same comass and maximizer bytes, the ascent's carried steps included.

    40 Cayley trials span two lockstep blocks; 24 su4 trials are one stack.
    """
    a, b = _run_twice(["comass", "--family", *family, "--trials", trials, "--seed", "1", "--json"])
    assert json.loads(a)["comass"] == pytest.approx(1.0, abs=1e-12)
    assert a == b


def test_importing_the_cli_fills_no_table():
    """A fresh `import calibkit.cli` builds none of the (n, p)-keyed tables: each is built on first use, so setup stays light."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import calibkit.cli\n"
        "from calibkit import exterior as e\n"
        "tables = (e._index_table, e._binomials, e._star_columns, e._minor_plan, e._gradients)\n"
        "print([f.cache_info().currsize for f in tables])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0, 0, 0, 0]"
