import numpy as np
import pytest

from stopngo import cli
from stopngo.config import apply_overrides, default_config, emit_resolved, parse_config
from stopngo.errors import ConfigError
from stopngo.kernels import solve_kernels


def test_resolved_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "resolved.cfg"
    emit_resolved(cfg, path)
    assert parse_config(path) == cfg


def test_retired_keys_still_parse(tmp_path):
    # files written before the kernel resolution, the kernel tolerance and
    # the seed were removed keep parsing; the keys are ignored
    path = tmp_path / "old.cfg"
    path.write_text(
        "[kernels]\n"
        "resolution = 64\n"
        "tolerance = 1e-10\n"
        "\n"
        "[output]\n"
        "directory = elsewhere\n"
        "seed = 3\n"
    )
    cfg = parse_config(path)
    assert cfg.out_dir == "elsewhere"
    assert cfg.net == default_config().net
    assert cfg.sim == default_config().sim


def test_unit_suffixes(tmp_path):
    path = tmp_path / "units.cfg"
    path.write_text(
        "[network]\n"
        "segment_length = 2 km\n"
        "v_max = 162 km/h\n"
        "rho_max_1 = 666.7 veh/km\n"
        "tau_1 = 2 min\n"
        "q_star = 21600 veh/h\n"
    )
    cfg = parse_config(path)
    assert cfg.net.seg1.length == 2000.0
    assert cfg.net.seg1.v_max == pytest.approx(45.0, rel=1e-14)
    assert cfg.net.seg1.rho_max == pytest.approx(0.6667, rel=1e-14)
    assert cfg.net.seg1.tau == 120.0
    assert cfg.net.ss1.q_star == pytest.approx(6.0, rel=1e-14)
    # unspecified keys keep their defaults
    assert cfg.net.seg2.tau == 90.0
    assert cfg.sim.N == default_config().sim.N


@pytest.mark.parametrize(
    "line",
    [
        "segment_length = 2 lightyears",
        "segment_length = 2",
        "segment_length = twenty km",
        "q_star = 6 veh/s extra",
    ],
)
def test_malformed_quantity(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[network]\n{line}\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_integer_keys_reject_fractions(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[simulation]\ncells = 64.5\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/run.cfg")


def test_overrides():
    cfg = apply_overrides(default_config(), out="elsewhere", resolution=64)
    assert cfg.out_dir == "elsewhere"
    assert cfg.sim.N == 64
    cfg = apply_overrides(default_config(), loop="open", model="linear")
    assert cfg.sim.loop_mode == "open"
    assert cfg.sim.model == "linear"


def test_cli_steady_default(tmp_path, capsys):
    rc = cli.main(["steady", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dissipativity verdict: PASS" in out
    assert "0.412" in out  # closed form and sp1 agree to three places (0.41286...)
    assert (tmp_path / "steady.txt").read_text() == out


def test_cli_steady_equal_segments(tmp_path, capsys):
    path = tmp_path / "equal.cfg"
    path.write_text(
        "[network]\n"
        "rho_max_1 = 0.8 veh/m\n"
        "rho_max_2 = 0.8 veh/m\n"
        "tau_1 = 90 s\n"
        "tau_2 = 90 s\n"
    )
    rc = cli.main(["steady", "--config", str(path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closed form" in out and "inapplicable" not in out
    assert "dissipativity verdict: PASS" in out


def test_cli_steady_prints_closed_form_for_r1_below_r2(tmp_path, capsys):
    # the default segments swapped: r1 < r2
    path = tmp_path / "swapped.cfg"
    path.write_text(
        "[network]\n"
        "rho_max_1 = 0.8 veh/m\n"
        "rho_max_2 = 0.6667 veh/m\n"
        "tau_1 = 90 s\n"
        "tau_2 = 120 s\n"
    )
    rc = cli.main(["steady", "--config", str(path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    sp1_line = next(line for line in out.splitlines() if line.startswith("sp1"))
    cf_line = next(line for line in out.splitlines() if line.startswith("closed form ="))
    assert sp1_line.split("= ")[1] == cf_line.split("= ")[1].split()[0]
    assert "dissipativity verdict: PASS" in out


def test_cli_infeasible_flux(tmp_path, capsys):
    path = tmp_path / "over.cfg"
    path.write_text("[network]\nq_star = 7.6 veh/s\n")
    rc = cli.main(["steady", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "segment 1" in err


def test_cli_missing_config(tmp_path, capsys):
    rc = cli.main(["steady", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path)])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_cli_kernels_rerun_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(["kernels", "--out", str(out), "--resolution", "32"])
        assert rc == 0
        capsys.readouterr()
    for name in ("kernels_seg1.csv", "kernels_seg2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # one line per table: the method, the kernel magnitudes read from the
    # table and the transform gain 1 + 2|D|L of the constant kernels
    net = default_config().net
    lines = (out1 / "kernel_report.txt").read_text().splitlines()
    for seg_id in (1, 2):
        t = solve_kernels(seg_id, net, M=32)
        (line,) = [ln for ln in lines if ln.startswith(f"segment {seg_id}, M = ")]
        assert line.startswith(f"segment {seg_id}, M = 32: closed form, ")
        D = np.abs(t.Kvw).max()
        assert line.endswith(
            f"max|Kvw| = {D:.3e}, max|Kvv| = {np.abs(t.Kvv).max():.3e}, "
            f"transform gain = {1.0 + 2.0 * D * net.seg1.length:.3f}"
        )


def test_cli_simulate_quiescent(tmp_path, capsys):
    path = tmp_path / "quiet.cfg"
    path.write_text(
        "[simulation]\n"
        "cells = 64\n"
        "t_final = 60 s\n"
        "loop = open\n"
        "model = linear\n"
        "amplitude = 0\n"
        "record_every = 8\n"
    )
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()

    states = (out / "states.csv").read_text().splitlines()
    assert states[0] == "time,x,segment,rho,v,wbar,vtil,U0"
    body = np.array([row.split(",") for row in states[1:]], dtype=object)
    assert np.abs(body[:, 5].astype(float)).max() == 0.0  # wbar
    assert np.abs(body[:, 6].astype(float)).max() == 0.0  # vtil
    assert np.abs(body[:, 7].astype(float)).max() == 0.0  # U0
    assert (out / "norms.csv").exists()
    # the echoed configuration reproduces the run settings
    again = parse_config(out / "resolved.cfg")
    assert again.sim.N == 64
    assert again.sim.ic.eps == 0.0
