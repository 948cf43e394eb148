"""Run configuration: a small INI dialect with explicit unit suffixes.

Dimensioned values are written "number unit" (for example "2 km" or
"45 m/s"); everything is converted to SI at parse time and the resolved
SI values can be echoed back out in a form that re-parses identically.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace

from .errors import ConfigError
from .model import NetworkParams, SegmentParams, make_network
from .sim import ICSpec, SimConfig

_UNITS = {
    "length": {"m": 1.0, "km": 1000.0},
    "speed": {"m/s": 1.0, "km/h": 1.0 / 3.6},
    "density": {"veh/m": 1.0, "veh/km": 1e-3},
    "time": {"s": 1.0, "min": 60.0, "h": 3600.0},
    "flux": {"veh/s": 1.0, "veh/min": 1.0 / 60.0, "veh/h": 1.0 / 3600.0},
}


@dataclass(frozen=True)
class RunConfig:
    net: NetworkParams
    sim: SimConfig
    out_dir: str


def _quantity(text: str, kind: str, where: str) -> float:
    parts = text.split()
    if kind == "none":
        if len(parts) != 1:
            raise ConfigError(f"{where}: expected a bare number, got {text!r}")
        unit_factor = 1.0
    else:
        if len(parts) != 2:
            raise ConfigError(
                f"{where}: expected 'value unit' with unit in "
                f"{sorted(_UNITS[kind])}, got {text!r}"
            )
        try:
            unit_factor = _UNITS[kind][parts[1]]
        except KeyError:
            raise ConfigError(
                f"{where}: unknown {kind} unit {parts[1]!r}; "
                f"accepted: {sorted(_UNITS[kind])}"
            ) from None
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(f"{where}: not a number: {parts[0]!r}") from None
    return value * unit_factor


class _Reader:
    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser

    def get(self, section, key, kind, default):
        if not self.parser.has_option(section, key):
            return default
        raw = self.parser.get(section, key)
        return _quantity(raw, kind, f"[{section}] {key}")

    def get_int(self, section, key, default):
        val = self.get(section, key, "none", None)
        if val is None:
            return default
        if val != int(val):
            raise ConfigError(f"[{section}] {key}: expected an integer, got {val}")
        return int(val)

    def get_word(self, section, key, default, allowed=None):
        if not self.parser.has_option(section, key):
            return default
        raw = self.parser.get(section, key).strip()
        if allowed is not None and raw not in allowed:
            raise ConfigError(f"[{section}] {key}: expected one of {allowed}, got {raw!r}")
        return raw


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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    r = _Reader(parser)
    base = default_config()

    length = r.get("network", "segment_length", "length", base.net.seg1.length)
    v_max = r.get("network", "v_max", "speed", base.net.seg1.v_max)
    seg1 = SegmentParams(
        v_max=v_max,
        rho_max=r.get("network", "rho_max_1", "density", base.net.seg1.rho_max),
        gamma=r.get("network", "gamma_1", "none", base.net.seg1.gamma),
        tau=r.get("network", "tau_1", "time", base.net.seg1.tau),
        length=length,
        segment_id=1,
    )
    seg2 = SegmentParams(
        v_max=v_max,
        rho_max=r.get("network", "rho_max_2", "density", base.net.seg2.rho_max),
        gamma=r.get("network", "gamma_2", "none", base.net.seg2.gamma),
        tau=r.get("network", "tau_2", "time", base.net.seg2.tau),
        length=length,
        segment_id=2,
    )
    net = make_network(
        seg1, seg2, r.get("network", "q_star", "flux", base.net.ss1.q_star)
    )

    window = net.ss1.kappa + net.ss2.kappa
    sim = SimConfig(
        t_final=r.get("simulation", "t_final", "time", 10.0 * window),
        N=r.get_int("simulation", "cells", base.sim.N),
        cfl=r.get("simulation", "cfl", "none", base.sim.cfl),
        loop_mode=r.get_word("simulation", "loop", base.sim.loop_mode, ("open", "closed")),
        model=r.get_word(
            "simulation", "model", base.sim.model, ("linear", "nonlinear")
        ),
        ic=ICSpec(
            eps=r.get("simulation", "amplitude", "none", base.sim.ic.eps),
            k1=r.get_int("simulation", "wavenumber_1", base.sim.ic.k1),
            k2=r.get_int("simulation", "wavenumber_2", base.sim.ic.k2),
            phase1=r.get("simulation", "phase_1", "none", base.sim.ic.phase1),
            phase2=r.get("simulation", "phase_2", "none", base.sim.ic.phase2),
        ),
        record_every=r.get_int("simulation", "record_every", base.sim.record_every),
    )
    return RunConfig(net=net, sim=sim, out_dir=r.get_word("output", "directory", base.out_dir))


def emit_resolved(cfg: RunConfig, path):
    """Echo the validated configuration in SI units; re-parses identically."""
    net, sim = cfg.net, cfg.sim
    lines = [
        "[network]",
        "segment_length = %.17g m" % net.seg1.length,
        "v_max = %.17g m/s" % net.seg1.v_max,
        "rho_max_1 = %.17g veh/m" % net.seg1.rho_max,
        "rho_max_2 = %.17g veh/m" % net.seg2.rho_max,
        "gamma_1 = %.17g" % net.seg1.gamma,
        "gamma_2 = %.17g" % net.seg2.gamma,
        "tau_1 = %.17g s" % net.seg1.tau,
        "tau_2 = %.17g s" % net.seg2.tau,
        "q_star = %.17g veh/s" % net.ss1.q_star,
        "",
        "[simulation]",
        "cells = %d" % sim.N,
        "cfl = %.17g" % sim.cfl,
        "t_final = %.17g s" % sim.t_final,
        "loop = %s" % sim.loop_mode,
        "model = %s" % sim.model,
        "amplitude = %.17g" % sim.ic.eps,
        "wavenumber_1 = %d" % sim.ic.k1,
        "wavenumber_2 = %d" % sim.ic.k2,
        "phase_1 = %.17g" % sim.ic.phase1,
        "phase_2 = %.17g" % sim.ic.phase2,
        "record_every = %d" % sim.record_every,
        "",
        "[output]",
        "directory = %s" % cfg.out_dir,
        "",
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines))


def apply_overrides(cfg: RunConfig, out=None, resolution=None, loop=None,
                    model=None) -> RunConfig:
    sim = cfg.sim
    if loop is not None or model is not None:
        sim = replace(
            sim,
            loop_mode=loop if loop is not None else sim.loop_mode,
            model=model if model is not None else sim.model,
        )
    return RunConfig(
        net=cfg.net,
        sim=sim if resolution is None else replace(sim, N=resolution),
        out_dir=cfg.out_dir if out is None else out,
    )
