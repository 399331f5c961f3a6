import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altwalk import cli, lattice, limit, spectral
from oracles import per_cell_density_csv


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


def test_simulate_never_holds_the_walk_and_the_dense_window(tmp_path):
    # the walk's buffer is freed once its one class is squared, before ``moments``
    # builds the dense float64 window, so the peak stays below the two together
    t = 200
    buffer = 2 * ((1 + t) * (2 + t) + 1) * np.dtype(np.complex128).itemsize  # evolve's
    window = (2 * t + 1) ** 2 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        code = run_cli(["simulate", "--steps", str(t), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < buffer + window


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


def test_unallocatable_size_is_config_error(tmp_path, capsys):
    # the walk's first buffer would take 284 PiB; numpy refuses it without touching memory
    assert run_cli(["simulate", "--steps", "100000000", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("via_config", [False, True])
def test_empty_out_is_config_error(via_config, tmp_path, monkeypatch, capsys):
    # an empty path resolves to the working directory, which is not what was asked
    monkeypatch.chdir(tmp_path)
    if via_config:
        (tmp_path / "walk.cfg").write_text("out =\n")
        args = ["--config", "walk.cfg"]
    else:
        args = ["--out", ""]
    assert run_cli(["simulate", "--steps", "2", *args]) == cli.EXIT_CONFIG
    assert "output directory is required" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["walk.cfg"] if via_config else [])


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


@pytest.mark.parametrize("text, command, parsed, error", [
    ("steps 3\n", "simulate", {"steps": 3}, None),
    ("# a comment\n\nsteps = 3  # trailing\n\n", "simulate", {"steps": 3}, None),
    ("justakey\n", "simulate", None, "expected 'key = value'"),
    ("steps = 1.5\n", "simulate", None, "needs an integer"),
    ("a1_sq = x\n", "simulate", None, "needs a number"),
    (None, "simulate", None, "cannot read config file"),
    # a file may set keys the subcommand does not read
    ("seed = 3\n", "simulate", {"seed": 3}, None),
    ("psi1_re = 2\n", "support", {"psi1_re": 2.0}, None),
], ids=["whitespace", "comments", "no-value", "float-steps", "word-a1_sq", "missing-file",
        "simulate-seed", "support-psi"])
def test_config_file_forms(text, command, parsed, error, tmp_path, capsys):
    cfg = tmp_path / "walk.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    code = run_cli([command, "--config", str(cfg), "--out", str(out)])
    if error is None:
        assert code == cli.EXIT_OK
        assert cli.parse_config_file(str(cfg)) == parsed
    else:
        assert code == cli.EXIT_CONFIG
        assert error in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_undecodable_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"steps = 1\n\xff\n")
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


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
    assert sorted(constants) == ["D_J", "a", "axis_R1", "axis_R2", "axis_T1", "axis_T2", "b",
                                 "degenerate", "delta", "j_minus", "j_plus", "phi_1", "phi_2"]
    assert constants["D_J"] == pytest.approx(0.64, abs=1e-12)
    corners = (tmp_path / "corners.csv").read_text().splitlines()
    assert len(corners) == 5  # header + four corner points


def test_support_reduces_a_huge_phase_into_range(tmp_path):
    # the floor formula alone wrapped 1.7e308 to -2e292, and phi_1 followed it
    assert run_cli(["support", "--alpha1", "1.7e308", "--out", str(tmp_path)]) == 0
    constants = json.loads((tmp_path / "constants.json").read_text())
    assert abs(constants["phi_1"]) <= math.pi and abs(constants["phi_2"]) <= math.pi


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


@pytest.mark.parametrize("via_config", [False, True])
def test_verify_negative_seed_fails_before_running(via_config, tmp_path, monkeypatch, capsys):
    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran before the seed was checked")

    monkeypatch.setattr(cli.verify, "run_suite", run_suite)
    if via_config:
        cfg = tmp_path / "walk.cfg"
        cfg.write_text("seed = -1\n")
        args = ["verify", "--config", str(cfg)]
    else:
        args = ["verify", "--seed", "-1"]
    assert run_cli(args) == cli.EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err


def test_verify_accepts_size_keys_in_config(tmp_path):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text("steps = 3\ngrid_n = 5\n")
    assert run_cli(["verify", "--config", str(cfg), "--only", "support"]) == cli.EXIT_OK


def test_verify_unknown_check():
    assert run_cli(["verify", "--only", "nope"]) == cli.EXIT_CONFIG


def test_verify_bad_tolerance_syntax():
    assert run_cli(["verify", "--only", "support",
                    "--tolerance", "support_containment"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_verify_tolerance_below_zero_or_nan_rejected(value, capsys):
    assert run_cli(["verify", "--only", "support",
                    "--tolerance", f"support_containment={value}"]) == cli.EXIT_CONFIG
    assert "must be >= 0" in capsys.readouterr().err


def test_verify_infinite_tolerance_accepted():
    assert run_cli(["verify", "--only", "support",
                    "--tolerance", "support_containment=inf"]) == cli.EXIT_OK


def test_verify_jacobian_fails_where_no_draw_is_admissible(tmp_path, capsys):
    # |J| <= 4e-6 on this valid coin, below the check's 1e-4 gate: the sampling stops
    # after 100 draws per sample and both reports fail, even at an infinite tolerance
    args = ["verify", "--only", "jacobian", "--a1_sq", "0.999999", "--a2_sq", "0.000001",
            "--tolerance", "jacobian_fd=inf", "--out", str(tmp_path)]
    assert run_cli(args) == cli.EXIT_VERIFY
    assert "FAILED: jacobian_fd, jacobian_branch" in capsys.readouterr().err
    for line in (tmp_path / "reports.jsonl").read_text().splitlines():
        rep = json.loads(line)
        assert math.isnan(rep["metric"]) and rep["passed"] is False
        assert (rep["details"]["accepted"], rep["details"]["excluded"]) == (0, 100_000)


def test_chars_small(tmp_path, capsys):
    code = run_cli(["chars", "--steps", "40", "--grid_n", "64",
                    "--xi", "0,0", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "chars.csv").read_text().splitlines()
    assert lines[0].startswith("xi1,xi2,")
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(1.0, abs=1e-9)  # empirical at xi = 0
    assert float(row[8]) < 1e-9  # all three agree exactly at xi = 0


def test_chars_uses_grid_n_above_256(tmp_path):
    assert run_cli(["chars", "--steps", "3", "--grid_n", "300", "--xi", "1,0",
                    "--out", str(tmp_path)]) == 0
    row = (tmp_path / "chars.csv").read_text().splitlines()[1].split(",")
    model = cli.model_from(cli.RunConfig())
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([1.0, 0.0])))
    [want], _ = spectral.numeric_char_function(model, spectrum, [(1.0, 0.0)], 300)
    assert complex(float(row[4]), float(row[5])) == want
    [coarse], _ = spectral.numeric_char_function(model, spectrum, [(1.0, 0.0)], 256)
    assert coarse != want


def test_chars_missing_out_dir_fails_before_running(tmp_path, monkeypatch):
    def char_triples(*args, **kwargs):
        raise AssertionError("char_triples ran before the output directory was checked")

    monkeypatch.setattr(cli.verify, "char_triples", char_triples)
    missing = tmp_path / "not-here"
    assert run_cli(["chars", "--steps", "5", "--out", str(missing)]) == cli.EXIT_IO


@pytest.mark.parametrize("grid_n", ["0", "-3"])
def test_chars_nonpositive_grid_is_config_error(grid_n, monkeypatch, capsys):
    def char_triples(*args, **kwargs):
        raise AssertionError("char_triples ran before grid_n was checked")

    monkeypatch.setattr(cli.verify, "char_triples", char_triples)
    assert run_cli(["chars", "--steps", "5", "--grid_n", grid_n]) == cli.EXIT_CONFIG
    assert "grid_n must be positive" in capsys.readouterr().err


def test_chars_bad_xi():
    assert run_cli(["chars", "--steps", "5", "--xi", "1;2"]) == cli.EXIT_CONFIG
    assert run_cli(["chars", "--steps", "5", "--xi", "4,0"]) == cli.EXIT_CONFIG
    assert run_cli(["chars", "--steps", "5", "--xi", "nan,0"]) == cli.EXIT_CONFIG
    assert run_cli(["chars", "--steps", "5", "--xi", "0,nan"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("args, message", [
    (["simulate", "--steps", "-1"], "steps must be nonnegative, got -1"),
    (["support", "--grid_n", "2"], "grid_n must be at least 3 for a polyline, got 2"),
    (["verify", "--tolerance", "unitarity=abc"], "--tolerance unitarity: not a number: 'abc'"),
    (["chars", "--xi", "a,b"], "--xi components must be numbers: 'a,b'"),
    (["chars", "--steps", "0"], "steps must be at least 1, got 0"),
    # the one point of a 1 x 1 grid is a band crossing of this degenerate coin
    (["chars", "--a1_sq", "0.5", "--a2_sq", "0.5", "--beta2", "3.141592653589793",
      "--grid_n", "1"], "all grid points are spectrally degenerate"),
], ids=["negative-steps", "short-polyline", "tolerance-text", "xi-text", "zero-steps",
        "all-crossing-grid"])
def test_refusals_exit_2_and_write_nothing(args, message, tmp_path, capsys):
    assert run_cli([*args, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_all_crossing_chars_grid_refused_before_the_walk(evolve_steps, capsys):
    # the refusal depends only on the coin and grid_n, so no step is evolved first
    assert run_cli(["chars", "--a1_sq", "0.5", "--a2_sq", "0.5", "--beta2", "3.141592653589793",
                    "--grid_n", "1", "--steps", "600"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: all grid points are spectrally degenerate\n"
    assert sum(evolve_steps) == 0


# a valid coin whose squared modulus rounds the support axis axis_T1 to 0
TINY_MODULI = ["1e-300", "5e-324"]


@pytest.mark.parametrize("a1_sq", TINY_MODULI)
@pytest.mark.parametrize("args", [
    ["support"], ["density"], ["density", "--grid_n", "300"], ["chars", "--steps", "3"],
    ["verify", "--only", "support"],
], ids=["support", "density", "density-two-blocks", "chars", "verify"])
def test_tiny_modulus_refused_by_the_limit_layer(args, a1_sq, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli([*args, "--a1_sq", a1_sq, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: a coin modulus this small") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("a1_sq", TINY_MODULI)
def test_tiny_modulus_walk_still_runs(a1_sq, tmp_path):
    # the walk reads no support axis
    assert run_cli(["simulate", "--a1_sq", a1_sq, "--steps", "3", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["distribution.csv", "moments.json"]
    summary = json.loads((tmp_path / "moments.json").read_text())
    assert summary["total_probability"] == pytest.approx(1.0, abs=1e-14)


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


COIN_FLAGS = {"--a1_sq", "--a2_sq", "--alpha1", "--alpha2", "--beta1", "--beta2",
              "--delta1", "--delta2"}
SPINOR_FLAGS = {"--psi1_re", "--psi1_im", "--psi2_re", "--psi2_im"}
COMMAND_FLAGS = {
    "simulate": {"--help", "--config", *COIN_FLAGS, *SPINOR_FLAGS, "--steps", "--out"},
    "density": {"--help", "--config", *COIN_FLAGS, *SPINOR_FLAGS, "--grid_n", "--grid", "--out"},
    "support": {"--help", "--config", *COIN_FLAGS, "--grid_n", "--grid", "--out"},
    "verify": {"--help", "--config", *COIN_FLAGS, *SPINOR_FLAGS, "--seed", "--out",
               "--only", "--tolerance"},
    "chars": {"--help", "--config", *COIN_FLAGS, *SPINOR_FLAGS, "--steps", "--grid_n", "--grid",
              "--out", "--xi"},
}
# the flags of keys a subcommand does not read; a config file may still set the keys
REFUSED_FLAGS = [
    ("simulate", "--seed"), ("simulate", "--grid_n"), ("simulate", "--grid"),
    ("density", "--seed"), ("density", "--steps"),
    ("support", "--seed"), ("support", "--steps"), ("support", "--psi1_re"),
    ("support", "--psi1_im"), ("support", "--psi2_re"), ("support", "--psi2_im"),
    ("verify", "--steps"), ("verify", "--grid_n"), ("verify", "--grid"),
    ("chars", "--seed"),
]


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == COMMAND_FLAGS[command]


@pytest.mark.parametrize("command, flag", REFUSED_FLAGS,
                         ids=[command + flag for command, flag in REFUSED_FLAGS])
def test_refuses_flags_it_does_not_read(command, flag, tmp_path, monkeypatch, capsys):
    def resolve_config(args):
        raise AssertionError(f"{command} ran with a flag it does not read")

    monkeypatch.setattr(cli, "resolve_config", resolve_config)
    with pytest.raises(SystemExit) as exc:
        run_cli([command, flag, "5", "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"usage: altwalk {command}")
    assert f"altwalk {command}: error: unrecognized arguments: {flag} 5" in err
    assert list(tmp_path.iterdir()) == []


def test_grid_alias(tmp_path):
    assert run_cli(["density", "--grid", "20", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "density.csv").read_text().splitlines()) == 401


# --- density.csv against the per-cell writer -----------------------------------


def _density_spectrum():
    return spectral.fourier_initial(lattice.initial_state_delta(np.array([0.6, 0.8j])))


def assert_density_csv_matches_per_cell(tmp_path, mid, f, inside):
    cli._write_density_csv(tmp_path / "rows.csv", mid, f, inside)
    per_cell_density_csv(tmp_path / "cells.csv", mid, f, inside)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 2, 7, 97])
@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_density_csv_matches_per_cell_writer(coin, n, request, tmp_path):
    model = request.getfixturevalue(coin)
    mid = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    grid = limit.density_grid(model, _density_spectrum(), mid[:, None], mid[None, :])
    assert_density_csv_matches_per_cell(tmp_path, mid, grid.f, grid.inside)


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_density_csv_shell_cells(coin, request, tmp_path):
    # a point 1e-8 inside a corner (or, with no corners, the boundary) lies in
    # the shell: inside, not evaluable, f = 0
    model = request.getfixturevalue(coin)
    corners = limit.support_corners(model)
    rim = corners[0] if corners.size else limit.support_boundary(model, 8)[1]
    mid = np.concatenate([(1.0 - 1e-8) * rim, [0.0]])
    grid = limit.density_grid(model, _density_spectrum(), mid[:, None], mid[None, :])
    shell = grid.inside & ~grid.evaluable
    assert shell.any() and (grid.f[shell] == 0.0).all() and grid.evaluable.any()
    assert_density_csv_matches_per_cell(tmp_path, mid, grid.f, grid.inside)


def test_density_csv_signed_zero_and_nonfinite(tmp_path):
    mid = np.array([-0.5, 0.0, 0.25])
    f = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -2.5e-300], [np.nan, np.inf, 0.0]])
    inside = np.array([[False, False, True], [True, True, False], [False, True, True]])
    assert_density_csv_matches_per_cell(tmp_path, mid, f, inside)
    rows = (tmp_path / "rows.csv").read_text().splitlines()
    assert rows[2] == "-0.5,0,-0,0" and rows[4] == "0,-0.5,-0,1"


def test_density_cli_writes_the_grid(tmp_path):
    assert run_cli(["density", "--grid_n", "30", "--psi1_re", "0.6", "--psi2_im", "0.8",
                    "--out", str(tmp_path)]) == 0
    cfg = cli.RunConfig(psi1_re=0.6, psi2_im=0.8)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(cli.spinor_from(cfg)))
    mid = -1.0 + (2.0 * np.arange(30) + 1.0) / 30
    grid = limit.density_grid(cli.model_from(cfg), spectrum, mid[:, None], mid[None, :])
    per_cell_density_csv(tmp_path / "cells.csv", mid, grid.f, grid.inside)
    assert (tmp_path / "density.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
