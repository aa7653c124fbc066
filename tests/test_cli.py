"""CLI behavior: output channels, exit codes, config handling, determinism."""

import json

import numpy as np
import pytest

from calibkit import OrientedPlane, exterior
from calibkit.cli import main


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
    code, out, _ = run(capsys, "module", "--family", "associative", "--basis", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 7


def test_usage_errors(capsys):
    assert run(capsys, "module", "--family", "nonsense")[0] == 2
    assert run(capsys, "module")[0] == 2  # missing family
    assert run(capsys, "module", "--family", "custom")[0] == 2  # missing form
    assert run(capsys, "nope")[0] == 2  # unknown subcommand
    assert run(capsys, "module", "--family", "associative", "--tol", "-1")[0] == 2


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
    # numerical failure: the random plane is not critical
    code, _, err = run(capsys, "sff", "--family", "associative", "--seed", "3")
    assert code == 3
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


def test_eds_payload_independent_of_cofactor_path(capsys, monkeypatch):
    """The dual of e123 on R^9 has p = 6, where first_jet takes SVD cofactors."""
    args = ("eds", "--family", "custom", "--form", "e123", "--n", "9", "--trials", "3", "--json")
    assert exterior._SVD_COFACTOR_P <= 6
    code, svd_out, _ = run(capsys, *args)
    monkeypatch.setattr(exterior, "_SVD_COFACTOR_P", 7)
    assert run(capsys, *args) == (code, svd_out, "")
    payload = json.loads(svd_out)
    assert payload["hodge_dual"] == {"codim_p": 18, "codim_dual": 18}


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
    ],
)
def test_out_of_range_setting_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "content", ['{"cluster_tol": NaN}', '{"grad_tol": Infinity}', '{"max_iters": 0}', '{"trials": 0}']
)
def test_config_value_out_of_range_is_a_usage_error(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run(capsys, "search", "--family", "associative", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("content", ['{"n": 7}', "[[1, 0, 0, 0, 0, 0, 0]]"])
def test_malformed_frame_file_is_a_usage_error(capsys, tmp_path, content):
    frame = tmp_path / "frame.json"
    frame.write_text(content)
    code, out, err = run(capsys, "check", "--family", "associative", "--frame", str(frame))
    assert code == 2
    assert out == ""
    assert "columns" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "module", "--family", "associative", "--json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dim_phi"] == 7


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
