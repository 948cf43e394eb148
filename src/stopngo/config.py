"""Run configuration: a small INI dialect with explicit unit suffixes.

Dimensioned values are written "number unit" (for example "2 km" or
"45 m/s"); everything is converted to SI at parse time and the resolved
SI values can be echoed back out in a form that re-parses to the same
settings.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from functools import reduce

from .errors import ConfigError
from .model import NetworkParams, SegmentParams, make_network
from .sim import ICSpec, SimConfig

# the first unit of each family is the SI unit that emit_resolved writes
_UNITS = {
    "length": {"m": 1.0, "km": 1000.0},
    "speed": {"m/s": 1.0, "km/h": 1.0 / 3.6},
    "density": {"veh/m": 1.0, "veh/km": 1e-3},
    "time": {"s": 1.0, "min": 60.0, "h": 3600.0},
    "flux": {"veh/s": 1.0, "veh/min": 1.0 / 60.0, "veh/h": 1.0 / 3600.0},
}

# every key a run file may hold: its kind (a unit family, "number",
# "integer", the tuple of accepted words, or None for any text) and where
# its value sits in a RunConfig; segment_length and v_max are shared by
# both segments
_KEYS = {
    ("network", "segment_length"): ("length", "net.seg1.length"),
    ("network", "v_max"): ("speed", "net.seg1.v_max"),
    ("network", "rho_max_1"): ("density", "net.seg1.rho_max"),
    ("network", "rho_max_2"): ("density", "net.seg2.rho_max"),
    ("network", "gamma_1"): ("number", "net.seg1.gamma"),
    ("network", "gamma_2"): ("number", "net.seg2.gamma"),
    ("network", "tau_1"): ("time", "net.seg1.tau"),
    ("network", "tau_2"): ("time", "net.seg2.tau"),
    ("network", "q_star"): ("flux", "net.ss1.q_star"),
    ("simulation", "cells"): ("integer", "sim.N"),
    ("simulation", "cfl"): ("number", "sim.cfl"),
    ("simulation", "t_final"): ("time", "sim.t_final"),
    ("simulation", "loop"): (("open", "closed"), "sim.loop_mode"),
    ("simulation", "model"): (("linear", "nonlinear"), "sim.model"),
    ("simulation", "amplitude"): ("number", "sim.ic.eps"),
    ("simulation", "wavenumber_1"): ("integer", "sim.ic.k1"),
    ("simulation", "wavenumber_2"): ("integer", "sim.ic.k2"),
    ("simulation", "phase_1"): ("number", "sim.ic.phase1"),
    ("simulation", "phase_2"): ("number", "sim.ic.phase2"),
    ("simulation", "record_every"): ("integer", "sim.record_every"),
    ("output", "directory"): (None, "out_dir"),
}
# keys of older files, still accepted and ignored
_RETIRED = {("kernels", "resolution"), ("kernels", "tolerance"), ("output", "seed")}


@dataclass(frozen=True)
class RunConfig:
    net: NetworkParams
    sim: SimConfig
    out_dir: str


def _field(cfg: RunConfig, where: str):
    return reduce(getattr, where.split("."), cfg)


def _value(text: str, kind, where: str):
    """One key's value, read as its kind and converted to SI."""
    if kind is None or isinstance(kind, tuple):
        if kind is not None and text not in kind:
            raise ConfigError(f"{where}: expected one of {kind}, got {text!r}")
        return text
    units = _UNITS.get(kind)
    parts = text.split()
    if len(parts) != (1 if units is None else 2):
        shape = "a bare number" if units is None else f"'value unit' with unit in {sorted(units)}"
        raise ConfigError(f"{where}: expected {shape}, got {text!r}")
    if units is not None and parts[1] not in units:
        raise ConfigError(f"{where}: unknown {kind} unit {parts[1]!r}; accepted: {sorted(units)}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(f"{where}: not a number: {parts[0]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {parts[0]!r}")
    if kind == "integer":
        if value != int(value):
            raise ConfigError(f"{where}: expected an integer, got {value}")
        return int(value)
    return value if units is None else value * units[parts[1]]


def _text(value, kind) -> str:
    """The SI text that _value reads back as value."""
    if kind in _UNITS:
        return "%.17g %s" % (value, next(iter(_UNITS[kind])))
    return {"integer": "%d", "number": "%.17g"}.get(kind, "%s") % value


def default_network() -> NetworkParams:
    seg1 = SegmentParams(
        v_max=45.0, rho_max=0.6667, gamma=1.0, tau=120.0, length=2000.0, segment_id=1
    )
    seg2 = SegmentParams(
        v_max=45.0, rho_max=0.8, gamma=1.0, tau=90.0, length=2000.0, segment_id=2
    )
    return make_network(seg1, seg2, 6.0)


def default_config() -> RunConfig:
    net = default_network()
    window = net.ss1.kappa + net.ss2.kappa
    sim = SimConfig(
        t_final=10.0 * window,
        N=256,
        cfl=0.9,
        loop_mode="closed",
        model="nonlinear",
        ic=ICSpec(eps=0.05),
        record_every=64,
    )
    return RunConfig(net=net, sim=sim, out_dir="out")


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    given = {}
    for section, body in parser.items():
        for key, text in body.items():
            if (section, key) in _RETIRED:
                continue
            if (section, key) not in _KEYS:
                raise ConfigError(f"[{section}] {key}: unknown key")
            given[key] = _value(text, _KEYS[section, key][0], f"[{section}] {key}")
    base = default_config()
    value = {key: given.get(key, _field(base, where)) for (_, key), (_, where) in _KEYS.items()}

    def segment(i):
        return SegmentParams(v_max=value["v_max"], rho_max=value[f"rho_max_{i}"],
                             gamma=value[f"gamma_{i}"], tau=value[f"tau_{i}"],
                             length=value["segment_length"], segment_id=i)

    net = make_network(segment(1), segment(2), value["q_star"])
    ic = ICSpec(eps=value["amplitude"], k1=value["wavenumber_1"], k2=value["wavenumber_2"],
                phase1=value["phase_1"], phase2=value["phase_2"])
    sim = SimConfig(
        # the default horizon is ten windows of the network read from the file
        t_final=given.get("t_final", 10.0 * (net.ss1.kappa + net.ss2.kappa)),
        N=value["cells"], cfl=value["cfl"], loop_mode=value["loop"], model=value["model"],
        ic=ic, record_every=value["record_every"],
    )
    return RunConfig(net=net, sim=sim, out_dir=value["directory"])


def emit_resolved(cfg: RunConfig, path):
    """Echo the validated configuration in SI units. It re-parses to the same
    settings; q_star is segment 1's steady flux rho* v*, for which the steady
    states are solved again."""
    sections = {}
    for (section, key), (kind, where) in _KEYS.items():
        line = f"{key} = {_text(_field(cfg, where), kind)}"
        sections.setdefault(section, [f"[{section}]"]).append(line)
    with open(path, "w") as f:
        f.write("\n\n".join("\n".join(lines) for lines in sections.values()) + "\n")


def apply_overrides(cfg: RunConfig, out=None, resolution=None, loop=None,
                    model=None) -> RunConfig:
    given = {"N": resolution, "loop_mode": loop, "model": model}
    sim = replace(cfg.sim, **{name: value for name, value in given.items() if value is not None})
    return RunConfig(net=cfg.net, sim=sim, out_dir=cfg.out_dir if out is None else out)
