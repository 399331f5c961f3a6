import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altwalk import cli


def run_cli(args):
    return cli.main(list(args))


def test_simulate_hadamard_single_step(tmp_path):
    code = run_cli(["simulate", "--a1_sq", "0.5", "--a2_sq", "0.5",
                    "--steps", "1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "distribution.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,probability"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[2]) == pytest.approx(0.25, abs=1e-14)
    summary = json.loads((tmp_path / "moments.json").read_text())
    assert summary["total_probability"] == pytest.approx(1.0, abs=1e-14)


def test_simulate_zero_steps(tmp_path):
    assert run_cli(["simulate", "--steps", "0", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "distribution.csv").read_text().splitlines()
    assert lines[1:] == ["0,0,1"]
    summary = json.loads((tmp_path / "moments.json").read_text())
    assert summary["mean_velocity"] is None


def test_simulate_missing_out_dir(tmp_path):
    missing = tmp_path / "not-here"
    assert run_cli(["simulate", "--steps", "1", "--out", str(missing)]) == cli.EXIT_IO


def test_simulate_requires_out():
    assert run_cli(["simulate", "--steps", "1"]) == cli.EXIT_CONFIG


def test_density_grid_zero_is_config_error(tmp_path):
    assert run_cli(["density", "--grid_n", "0", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_density_positive_inside(tmp_path):
    assert run_cli(["density", "--grid_n", "60", "--out", str(tmp_path)]) == 0
    inside_f = []
    for line in (tmp_path / "density.csv").read_text().splitlines()[1:]:
        v1, v2, f, inside = line.split(",")
        if inside == "1":
            inside_f.append(float(f))
    assert inside_f and min(inside_f) > 0.0
    assert (tmp_path / "boundary.csv").exists()


def test_density_degenerate_boundary_single_ellipse(tmp_path):
    assert run_cli(["density", "--a1_sq", "0.5", "--a2_sq", "0.5",
                    "--grid_n", "16", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "boundary.csv").read_text().splitlines()[1:]]
    pts = np.array([[float(a), float(b)] for a, b in rows])
    # the two ellipses coincide: boundary collapses to the unit circle
    assert np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0).max() < 1e-12


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text("a1_sq = 0.5\na2_sq = 0.5\nsteps = 1\n")
    out1 = tmp_path / "o1"
    out1.mkdir()
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len((out1 / "distribution.csv").read_text().splitlines()) == 5
    # flag overrides the file value
    out2 = tmp_path / "o2"
    out2.mkdir()
    assert run_cli(["simulate", "--config", str(cfg), "--steps", "0",
                    "--out", str(out2)]) == 0
    assert (out2 / "distribution.csv").read_text().splitlines()[1:] == ["0,0,1"]


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_malformed_config_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("a1_sq = banana\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_invalid_model_parameter(tmp_path):
    assert run_cli(["simulate", "--a1_sq", "1.5", "--steps", "1",
                    "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_zero_spinor_rejected(tmp_path):
    assert run_cli(["simulate", "--psi1_re", "0", "--psi2_re", "0",
                    "--steps", "1", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_nonfinite_spinor_rejected(tmp_path):
    assert run_cli(["simulate", "--psi1_re", "nan", "--steps", "1",
                    "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert run_cli(["density", "--psi2_im", "inf", "--grid_n", "8",
                    "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("psi1_re", ["1e-200", "1e200"])
def test_extreme_spinor_magnitudes_normalise(tmp_path, psi1_re):
    # the norm of (1e-200, 0) underflows and that of (1e200, 0) overflows unscaled
    outs = {}
    for value in ("1", psi1_re):
        outs[value] = tmp_path / value
        outs[value].mkdir()
        assert run_cli(["simulate", "--psi1_re", value, "--psi2_re", "0", "--steps", "1",
                        "--out", str(outs[value])]) == 0
    for name in ("distribution.csv", "moments.json"):
        assert (outs[psi1_re] / name).read_bytes() == (outs["1"] / name).read_bytes()


moderate = st.one_of(st.just(0.0), st.floats(1e-50, 1e50), st.floats(-1e50, -1e-50))


@settings(max_examples=300, deadline=None)
@given(st.tuples(moderate, moderate, moderate, moderate).filter(any))
def test_spinor_prescale_is_bit_identical(parts):
    # scaling by a power of two is exact, so moderate spinors keep their bits
    cfg = cli.RunConfig(psi1_re=parts[0], psi1_im=parts[1], psi2_re=parts[2], psi2_im=parts[3])
    spinor = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    unscaled = spinor / math.sqrt(float(np.sum(np.abs(spinor) ** 2)))
    assert np.array_equal(cli.spinor_from(cfg).view(np.int64), unscaled.view(np.int64))


def test_bins_key_removed(tmp_path):
    cfg = tmp_path / "bins.cfg"
    cfg.write_text("bins = 5\n")
    assert run_cli(["simulate", "--config", str(cfg), "--steps", "1",
                    "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_support_outputs(tmp_path):
    assert run_cli(["support", "--grid_n", "64", "--out", str(tmp_path)]) == 0
    constants = json.loads((tmp_path / "constants.json").read_text())
    assert constants["D_J"] == pytest.approx(0.64, abs=1e-12)
    corners = (tmp_path / "corners.csv").read_text().splitlines()
    assert len(corners) == 5  # header + four corner points


def test_verify_subset_and_reports(tmp_path):
    assert run_cli(["verify", "--only", "support", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "reports.jsonl").read_text().splitlines()
    names = [json.loads(line)["name"] for line in lines]
    assert names == ["support_containment", "support_tightness"]


def test_verify_corrupted_tolerance_fails(capsys):
    code = run_cli(["verify", "--only", "support",
                    "--tolerance", "support_containment=0"])
    assert code == cli.EXIT_VERIFY
    captured = capsys.readouterr()
    assert "support_containment" in captured.err


def test_verify_missing_out_dir_fails_before_running(tmp_path, monkeypatch):
    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran before the output directory was checked")

    monkeypatch.setattr(cli.verify, "run_suite", run_suite)
    missing = tmp_path / "not-here"
    assert run_cli(["verify", "--only", "support", "--out", str(missing)]) == cli.EXIT_IO


def test_verify_unknown_check():
    assert run_cli(["verify", "--only", "nope"]) == cli.EXIT_CONFIG


def test_verify_bad_tolerance_syntax():
    assert run_cli(["verify", "--only", "support",
                    "--tolerance", "support_containment"]) == cli.EXIT_CONFIG


def test_chars_small(tmp_path, capsys):
    code = run_cli(["chars", "--steps", "40", "--grid_n", "64",
                    "--xi", "0,0", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "chars.csv").read_text().splitlines()
    assert lines[0].startswith("xi1,xi2,")
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(1.0, abs=1e-9)  # empirical at xi = 0
    assert float(row[8]) < 1e-9  # all three agree exactly at xi = 0


def test_chars_missing_out_dir_fails_before_running(tmp_path, monkeypatch):
    def char_triples(*args, **kwargs):
        raise AssertionError("char_triples ran before the output directory was checked")

    monkeypatch.setattr(cli.verify, "char_triples", char_triples)
    missing = tmp_path / "not-here"
    assert run_cli(["chars", "--steps", "5", "--out", str(missing)]) == cli.EXIT_IO


def test_chars_bad_xi():
    assert run_cli(["chars", "--steps", "5", "--xi", "1;2"]) == cli.EXIT_CONFIG
    assert run_cli(["chars", "--steps", "5", "--xi", "4,0"]) == cli.EXIT_CONFIG


def test_byte_stable_outputs(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    out1.mkdir()
    out2.mkdir()
    for out in (out1, out2):
        assert run_cli(["density", "--grid_n", "40", "--out", str(out)]) == 0
        assert run_cli(["simulate", "--steps", "6", "--out", str(out)]) == 0
    assert (out1 / "density.csv").read_bytes() == (out2 / "density.csv").read_bytes()
    assert (out1 / "distribution.csv").read_bytes() == (out2 / "distribution.csv").read_bytes()
    assert (out1 / "moments.json").read_bytes() == (out2 / "moments.json").read_bytes()


def test_help_documents_every_key(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in list(cli._FLOAT_KEYS) + list(cli._INT_KEYS) + ["out", "config"]:
        assert f"--{key}" in text


def test_grid_alias(tmp_path):
    assert run_cli(["density", "--grid", "20", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "density.csv").read_text().splitlines()) == 401
