"""The benchmark's workloads: seeded inputs, set-up, operations and their gates.

Every call into stopngo goes through a module attribute (``sim.run_nonlinear``,
``stability.sp1``) in the minimal form the command line uses, so the tracing
wrappers see it and later refactors of optional keywords do not break it.

A workload object does its set-up in ``__init__``. ``execute(i)`` makes the
program calls of operation i and nothing else, so timing it times the
program; ``check(i, outputs)`` then applies the correctness gates, computes
the operation's digest and counts its work, untimed.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from stopngo import config, control, kernels, model, riemann, sim, stability
from stopngo.errors import AssumptionError, InfeasibleError

# Each gate reuses the bound of the acceptance criterion it mirrors.
MASS_ERR_BOUND = 1e-10  # criterion 7: vehicle-count accounting per step
KERNEL_BC_BOUND = 1e-12  # criterion 3: boundary residual of a kernel table
SP1_CLOSED_FORM_BOUND = 1e-6  # criterion 2: |sp1 - closed form| when r1 >= r2
# Linear closed loop: beta2(0) = g_t beta1(0) + g_a alpha2(0) holds by
# construction of the stepper; 1e-9 relative to the trace scale.
JUNCTION_REL_BOUND = 1e-9


class Digest:
    """SHA-256 over named values; arrays contribute dtype, shape and bytes."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, name, value):
        self._h.update(name.encode() + b"=")
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            self._h.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
        else:
            self._h.update(repr(value).encode())
        self._h.update(b";")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def record_arrays(record) -> dict[str, np.ndarray]:
    """Every array a simulation record holds, target states included."""
    arrays = {k: v for k, v in vars(record).items() if isinstance(v, np.ndarray)}
    for n, st in enumerate(getattr(record, "target", None) or ()):
        for k, v in vars(st).items():
            if isinstance(v, np.ndarray):
                arrays[f"target[{n}].{k}"] = v
    return arrays


def finite_violations(label, arrays) -> list[str]:
    return [f"{label}: {k} has non-finite entries" for k, v in arrays.items()
            if not np.all(np.isfinite(v))]


def nonlinear_violations(label, record) -> list[str]:
    """mass_err below the criterion-7 bound, and every recorded array finite."""
    out = finite_violations(label, record_arrays(record))
    mass = getattr(record, "mass_err", None)
    if mass is None or not mass < MASS_ERR_BOUND:
        out.append(f"{label}: mass_err {mass} not below {MASS_ERR_BOUND:g}")
    return out


def junction_defect(record, net) -> float | None:
    """Largest |beta2(0) - g_t beta1(0) - g_a alpha2(0)| over the recorded
    target states after t = 0, relative to the largest of the three traces.

    None when the record carries no target states. The t = 0 sample is
    exempt, as in ``control.target_residual``: sinusoid initial data are not
    compatible with the junction row.
    """
    targets = getattr(record, "target", None)
    if targets is None:
        return None
    rows = riemann.boundary_rows(net)
    defect = scale = 0.0
    for st in targets[1:]:
        b1, b2, a2 = st.beta1[0], st.beta2[-1], st.alpha2[-1]
        defect = max(defect, abs(b2 - rows.g_t * b1 - rows.g_a * a2))
        scale = max(scale, abs(b1), abs(b2), abs(a2))
    return defect / scale if scale > 0.0 else defect


def bc_violations(label, tables, residuals) -> list[str]:
    """bc residual of each table against the criterion-3 bound."""
    return [f"{label}: segment {t.segment_id} bc residual {bc:.3e} above {KERNEL_BC_BOUND:g}"
            for t, (_, bc) in zip(tables, residuals) if not bc <= KERNEL_BC_BOUND]


def setup_table_violations(tables, net) -> list[str]:
    residuals = [kernels.kernel_residual(t, net) for t in tables]
    return bc_violations("set-up kernel table", tables, residuals)


def sweeps(tables) -> int | None:
    """Sum of KernelTable.iterations, or None once the solver has no sweeps."""
    counts = [getattr(t, "iterations", None) for t in tables]
    return None if None in counts else int(sum(counts))


def kernel_pair(net, M):
    return kernels.solve_kernels(1, net, M=M), kernels.solve_kernels(2, net, M=M)


def window(net) -> float:
    return net.ss1.kappa + net.ss2.kappa


@dataclass
class Check:
    """What ``check`` returns for one operation."""

    digest: str
    violations: list[str]
    stats: dict
    outcome: dict


class SimulateClosed:
    """The default ``stopngo simulate``, two windows long, as one operation.

    The seed draws the phases of the two initial sinusoids; amplitude,
    wavenumbers, resolution and recording stride are the defaults.
    """

    name = "simulate_closed"
    N = 256
    WINDOWS = 2

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        phase1, phase2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        self.work_dir = work_dir
        self.net = config.default_network()
        self.cfg = sim.SimConfig(
            t_final=self.WINDOWS * window(self.net),
            N=self.N,
            loop_mode="closed",
            model="nonlinear",
            ic=sim.ICSpec(eps=0.05, phase1=float(phase1), phase2=float(phase2)),
            record_every=64,
        )
        self.tables = kernel_pair(self.net, self.N)
        self.n_ops = 1
        self.inputs = [{"phase1": float(phase1), "phase2": float(phase2)}]
        self.setup_sweeps = sweeps(self.tables)

    def paths(self):
        return (os.path.join(self.work_dir, "states.csv"),
                os.path.join(self.work_dir, "norms.csv"))

    def execute(self, i):
        states, norms = self.paths()
        record = sim.run_nonlinear(self.cfg, self.net, self.tables)
        sim.export_states_csv(record, states)
        sim.export_norms_csv(record, norms)
        return record, sim.norms_and_rate(record)

    def check(self, i, outputs) -> Check:
        record, hist = outputs
        states, norms = self.paths()
        violations = nonlinear_violations("closed-loop nonlinear run", record)
        # Reported, not gated: acceptance criterion 5 (closed loop beats open
        # loop) does not hold for this plant yet, and must stay visible.
        outcome = {
            "final_total_norm": float(hist.total[-1]),
            "fitted_rate_per_s": hist.rate,
            "u0_min": float(np.min(record.u0)),
            "u0_max": float(np.max(record.u0)),
            "mass_err": getattr(record, "mass_err", None),
        }
        outcome["states_sha256"] = file_sha256(states)
        outcome["norms_sha256"] = file_sha256(norms)
        d = Digest()
        for k in sorted(outcome):
            d.add(k, outcome[k])
        stats = {
            "steps": int(record.n_steps),
            "cell_steps": int(record.n_steps) * 2 * (self.N + 1),
            "records": int(len(record.times)),
            "export_bytes": os.path.getsize(states) + os.path.getsize(norms),
        }
        return Check(d.hexdigest(), violations, stats, outcome)

    def setup_violations(self) -> list[str]:
        return setup_table_violations(self.tables, self.net)


class DesignSweep:
    """Random admissible networks, each taken through ``steady`` and ``kernels``.

    Networks are drawn from the ranges of acceptance criterion 2, with either
    ordering of r1 and r2; building them (``make_network``, which rejects
    inadmissible draws) is set-up.
    """

    name = "design_sweep"
    M = 128
    N_NETWORKS = 8

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.nets, self.inputs = [], []
        while len(self.nets) < self.N_NETWORKS:
            v_max = rng.uniform(25.0, 50.0)
            length = rng.uniform(800.0, 3000.0)
            segs = [
                model.SegmentParams(
                    v_max=v_max,
                    rho_max=rng.uniform(0.3, 1.2),
                    gamma=rng.uniform(0.8, 2.2),
                    tau=rng.uniform(60.0, 200.0),
                    length=length,
                    segment_id=i + 1,
                )
                for i in range(2)
            ]
            hi = min(model.admissible_flux_interval(s)[1] for s in segs)
            q_star = rng.uniform(0.25, 0.9) * hi
            try:
                net = model.make_network(segs[0], segs[1], q_star)
            except (AssumptionError, InfeasibleError):
                continue
            self.nets.append(net)
            self.inputs.append({"segments": [vars(s) for s in segs], "q_star": q_star})
        self.n_ops = len(self.nets)
        self.setup_sweeps = 0

    def execute(self, i):
        net = self.nets[i]
        value = stability.sp1(stability.coupling_matrix(net))
        closed = stability.closed_form_condition(net)[0] if net.ss1.r >= net.ss2.r else None
        tables = kernel_pair(net, self.M)
        residuals = [kernels.kernel_residual(t, net) for t in tables]
        series = stability.simulate_difference(
            stability.build_difference_model(net), 1.0, horizon=12.0 * window(net)
        )
        return value, closed, tables, residuals, series

    def check(self, i, outputs) -> Check:
        value, closed, tables, residuals, series = outputs
        label = f"network {i}"
        violations = []
        if closed is not None and not abs(value - closed) <= SP1_CLOSED_FORM_BOUND:
            violations.append(f"{label}: |sp1 - closed form| = {abs(value - closed):.3e} "
                              f"above {SP1_CLOSED_FORM_BOUND:g}")
        violations += bc_violations(label, tables, residuals)
        arrays = {"sp1": np.asarray(value), "difference series": series.values}
        for t in tables:
            arrays[f"Kvw{t.segment_id}"] = t.Kvw
            arrays[f"Kvv{t.segment_id}"] = t.Kvv
        violations += finite_violations(label, arrays)
        d = Digest()
        d.add("sp1", value)
        d.add("closed_form", closed)
        d.add("residuals", residuals)
        d.add("sweeps", sweeps(tables))
        d.add("rate", series.rate)
        for k in sorted(arrays):
            d.add(k, arrays[k])
        return Check(d.hexdigest(), violations, {"sweeps": sweeps(tables)},
                     {"sp1": value, "closed_form": closed})

    def setup_violations(self) -> list[str]:
        return []


class ScenarioSweep:
    """Seeded initial-data scenarios on the default network, one window each.

    Every scenario runs the nonlinear open loop, the linear open loop and the
    linear closed loop, then ``target_residual``. The amplitude stays at or
    below the default 0.05: above about 0.057 the density peak at the inlet
    demands a ghost density beyond rho_max for the imposed flux q*, which no
    boundary treatment can meet.
    """

    name = "scenario_sweep"
    N = 128
    RECORD_EVERY = 8
    N_SCENARIOS = 6

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.net = config.default_network()
        self.tables = kernel_pair(self.net, self.N)
        self.ics = []
        for _ in range(self.N_SCENARIOS):
            self.ics.append(sim.ICSpec(
                eps=float(rng.uniform(0.01, 0.05)),
                k1=int(rng.integers(1, 4)),
                k2=int(rng.integers(1, 4)),
                phase1=float(rng.uniform(0.0, 2.0 * np.pi)),
                phase2=float(rng.uniform(0.0, 2.0 * np.pi)),
            ))
        self.n_ops = len(self.ics)
        self.inputs = [vars(ic) for ic in self.ics]
        self.setup_sweeps = sweeps(self.tables)

    def sim_config(self, ic, loop, model_name):
        return sim.SimConfig(t_final=window(self.net), N=self.N, loop_mode=loop,
                             model=model_name, ic=ic, record_every=self.RECORD_EVERY)

    def execute(self, i):
        ic, net = self.ics[i], self.net
        nonlinear = sim.run_nonlinear(self.sim_config(ic, "open", "nonlinear"), net)
        linear_open = sim.run_linear(self.sim_config(ic, "open", "linear"), net)
        linear_closed = sim.run_linear(self.sim_config(ic, "closed", "linear"), net, self.tables)
        residual = control.target_residual(linear_closed, net)
        return nonlinear, linear_open, linear_closed, residual

    def check(self, i, outputs) -> Check:
        nonlinear, linear_open, linear_closed, residual = outputs
        label = f"scenario {i}"
        violations = nonlinear_violations(f"{label} nonlinear open loop", nonlinear)
        violations += finite_violations(f"{label} linear open loop", record_arrays(linear_open))
        violations += finite_violations(f"{label} linear closed loop",
                                        record_arrays(linear_closed))
        defect = junction_defect(linear_closed, self.net)
        if defect is not None and not defect <= JUNCTION_REL_BOUND:
            violations.append(f"{label}: junction row defect {defect:.3e} relative "
                              f"above {JUNCTION_REL_BOUND:g}")
        d = Digest()
        runs = (("nonlinear", nonlinear), ("linear_open", linear_open),
                ("linear_closed", linear_closed))
        for tag, rec in runs:
            for k, v in sorted(record_arrays(rec).items()):
                d.add(f"{tag}.{k}", v)
        d.add("mass_err", getattr(nonlinear, "mass_err", None))
        d.add("target_residual", residual)
        d.add("junction_defect", defect)
        steps = sum(int(rec.n_steps) for _, rec in runs)
        stats = {
            "steps": steps,
            "cell_steps": steps * 2 * (self.N + 1),
            "records": sum(int(len(rec.times)) for _, rec in runs),
        }
        outcome = {"target_residual": residual, "junction_defect": defect}
        return Check(d.hexdigest(), violations, stats, outcome)

    def setup_violations(self) -> list[str]:
        return setup_table_violations(self.tables, self.net)


WORKLOADS = {w.name: w for w in (SimulateClosed, DesignSweep, ScenarioSweep)}
