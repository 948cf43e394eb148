import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stopngo import cli
from stopngo.config import (
    _KEYS,
    _UNITS,
    RunConfig,
    apply_overrides,
    default_config,
    emit_resolved,
    parse_config,
)
from stopngo.errors import ConfigError, DomainError, InfeasibleError
from stopngo.kernels import solve_kernels
from stopngo.model import make_network
from stopngo.sim import ICSpec, SimConfig
from test_stability import _criterion_2_network

DEFAULT_RESOLVED = """\
[network]
segment_length = 2000 m
v_max = 45 m/s
rho_max_1 = 0.66669999999999996 veh/m
rho_max_2 = 0.80000000000000004 veh/m
gamma_1 = 1
gamma_2 = 1
tau_1 = 120 s
tau_2 = 90 s
q_star = 6 veh/s

[simulation]
cells = 256
cfl = 0.90000000000000002
t_final = 5474.787875026901 s
loop = closed
model = nonlinear
amplitude = 0.050000000000000003
wavenumber_1 = 1
wavenumber_2 = 1
phase_1 = 0
phase_2 = 0
record_every = 64

[output]
directory = out
"""

UNITS_FILE = """\
[network]
segment_length = 2.5 km
v_max = 120 km/h
rho_max_1 = 700 veh/km
rho_max_2 = 0.75 veh/m
gamma_1 = 1.2
tau_1 = 1.5 min
tau_2 = 0.025 h
q_star = 300 veh/min

[simulation]
cells = 96
cfl = 0.75
t_final = 20 min
loop = open
model = linear
amplitude = 0.1
wavenumber_1 = 2
wavenumber_2 = 3
phase_1 = 0.5
phase_2 = -1.25
record_every = 16

[output]
directory = runs/units
"""

UNITS_RESOLVED = """\
[network]
segment_length = 2500 m
v_max = 33.333333333333336 m/s
rho_max_1 = 0.70000000000000007 veh/m
rho_max_2 = 0.75 veh/m
gamma_1 = 1.2
gamma_2 = 1
tau_1 = 90 s
tau_2 = 90 s
q_star = 4.9999999999999991 veh/s

[simulation]
cells = 96
cfl = 0.75
t_final = 1200 s
loop = open
model = linear
amplitude = 0.10000000000000001
wavenumber_1 = 2
wavenumber_2 = 3
phase_1 = 0.5
phase_2 = -1.25
record_every = 16

[output]
directory = runs/units
"""

# the keys that hold numbers: their kind is a unit family, "number" or "integer"
NUMERIC_KEYS = [(section, key) for (section, key), (kind, _) in _KEYS.items() if isinstance(kind, str)]


def test_resolved_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "resolved.cfg"
    emit_resolved(cfg, path)
    assert parse_config(path) == cfg


@pytest.mark.parametrize("text, resolved", [(None, DEFAULT_RESOLVED), (UNITS_FILE, UNITS_RESOLVED)],
                         ids=["default", "units"])
def test_resolved_golden_bytes(tmp_path, text, resolved):
    # the exact text of resolved.cfg, for the default and for a file with units
    cfg = default_config()
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        cfg = parse_config(tmp_path / "run.cfg")
    emit_resolved(cfg, tmp_path / "resolved.cfg")
    assert (tmp_path / "resolved.cfg").read_bytes() == resolved.encode()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    reverse=st.booleans(),
    N=st.integers(32, 10**6),
    cfl=st.floats(0.0, 0.95, exclude_min=True),
    t_final=st.floats(1e-3, 1e7),
    loop=st.sampled_from(["open", "closed"]),
    model=st.sampled_from(["linear", "nonlinear"]),
    eps=st.floats(0.0, 10.0),
    k=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    phase=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    record_every=st.integers(1, 10**6),
    out=st.from_regex(r"[a-z0-9_./%-]{0,8}%[a-z0-9_./%-]{0,8}", fullmatch=True),
)
def test_resolved_round_trip_random(tmp_path_factory, u, reverse, N, cfl, t_final, loop, model,
                                    eps, k, phase, record_every, out):
    net = _criterion_2_network(u, reverse)
    assume(net is not None)
    ic = ICSpec(eps=eps, k1=k[0], k2=k[1], phase1=phase[0], phase2=phase[1])
    sim = SimConfig(t_final=t_final, N=N, cfl=cfl, loop_mode=loop, model=model, ic=ic,
                    record_every=record_every)
    cfg = RunConfig(net=net, sim=sim, out_dir=out)
    path = tmp_path_factory.mktemp("round") / "resolved.cfg"
    emit_resolved(cfg, path)
    # the file carries segment 1's steady flux rho* v*, and parse_config solves
    # the steady states for it; on about a third of these networks that flux
    # differs from the one they were solved for in the last bit, and segment
    # 2's steady state moves with it
    resolved = replace(cfg, net=make_network(net.seg1, net.seg2, net.ss1.q_star))
    assert parse_config(path) == resolved


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


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize("section, key", NUMERIC_KEYS)
def test_non_finite_values_refused(tmp_path, section, key, bad):
    kind = _KEYS[section, key][0]
    unit = f" {next(iter(_UNITS[kind]))}" if kind in _UNITS else ""
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {bad}{unit}\n")
    # the errors the command line reports with exit code 1
    with pytest.raises((ConfigError, DomainError, InfeasibleError), match=re.escape(key)):
        parse_config(path)


@pytest.mark.parametrize(
    "text, named",
    [
        ("[network]\nsegmnet_length = 3 km\n", "[network] segmnet_length"),
        ("[netwrok]\nq_star = 5 veh/s\n", "[netwrok] q_star"),
        ("[DEFAULT]\ncells = 64\n", "[DEFAULT] cells"),
    ],
    ids=["misspelt key", "unknown section", "default section"],
)
def test_unknown_keys_refused(tmp_path, text, named):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{named}: unknown key")):
        parse_config(path)


@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_unreadable_config_refused(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "binary":
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe[network]\n")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        parse_config(path)
    rc = cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_overrides():
    cfg = apply_overrides(default_config(), out="elsewhere", resolution=64)
    assert cfg.out_dir == "elsewhere"
    assert cfg.sim.N == 64
    cfg = apply_overrides(default_config(), loop="open", model="linear")
    assert cfg.sim.loop_mode == "open"
    assert cfg.sim.model == "linear"


@pytest.mark.parametrize(
    "out", ["runs #1", "runs ;1", " lead", "trail ", "two\nlines", ""],
    ids=["hash comment", "semicolon comment", "leading space", "trailing space", "line break",
         "empty"],
)
def test_output_directory_must_read_back(tmp_path, monkeypatch, capsys, out):
    # resolved.cfg would name another directory, and "" died in makedirs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match=r"^\[output\] directory: "):
        apply_overrides(default_config(), out=out)
    rc = cli.main(["steady", "--out", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: [output] directory: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_output_directory_from_a_run_file_must_read_back(tmp_path, capsys):
    path = tmp_path / "empty_dir.cfg"
    path.write_text("[output]\ndirectory =\n")
    assert cli.main(["steady", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: [output] directory: '' does not read back from a run file\n"


@pytest.mark.parametrize("out", ["runs#1", "a;b", "run %1", "with space"])
def test_output_directory_that_reads_back(tmp_path, out):
    cfg = apply_overrides(default_config(), out=out)
    emit_resolved(cfg, tmp_path / "resolved.cfg")
    assert parse_config(tmp_path / "resolved.cfg").out_dir == out


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


@pytest.mark.parametrize(
    "text",
    ["[simulation]\ncells = nan\n", "[network]\nsegmnet_length = 3 km\n"],
    ids=["nan cells", "misspelt key"],
)
def test_cli_bad_file_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    rc = cli.main(["steady", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: [")
    assert err.count("\n") == 1


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


def test_cli_closed_loop_simulate_solves_no_kernel_table(tmp_path, monkeypatch, capsys):
    # the closed loop's gains come from the network alone
    from stopngo import kernels

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel table was solved")

    monkeypatch.setattr(kernels, "solve_kernels", refuse)
    monkeypatch.setattr(cli, "solve_kernels", refuse)
    path = tmp_path / "closed.cfg"
    path.write_text("[simulation]\ncells = 32\nt_final = 60 s\nloop = closed\n"
                    "model = nonlinear\nrecord_every = 8\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert "loop = closed" in capsys.readouterr().out
    u0 = [float(row.rsplit(",", 1)[1]) for row in (out / "states.csv").read_text().splitlines()[1:]]
    assert any(u != 0.0 for u in u0)
