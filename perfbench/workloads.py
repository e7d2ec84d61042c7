"""The three workloads: their inputs, one operation each, and its checks.

Every workload is a closed loop with one caller and no threads of its own.
Each operation goes through a public entry point of qsmc (`qsmc.cli.main`
or `qsmc.aircraft_benchmark`), looked up at call time so that the tracer's
wrappers apply.  `check` inspects the operation's output from outside the
program and returns (closed-loop samples simulated, problem or None).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random

import numpy as np

import reference

NOISE_HALFWIDTH = 0.005          # the shipped scenario's [noise] halfwidth
LADDER = "0.02,0.01,0.005"
SLOPE_BAND = (0.7, 1.3)          # the mm1 s_bound band of `qsmc sweep`
MM_PEAK_MAX = 5.0                # O(1): the contraction laws stay below this
DEADBEAT_RATIO_MIN = 4.0         # m1/m2 peaks at least this many times higher
DK_TOL = 1e-10


def _cli(argv):
    import qsmc.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = qsmc.cli.main(argv)
    return rc, buf.getvalue()


def _kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


class ColdRun:
    """`qsmc run aircraft --out DIR --plot` on a freshly parsed scenario,
    with the seeded measurement noise of the shipped halfwidth."""

    def __init__(self, seed, out_dir):
        rng = random.Random(seed)
        self.noise_seed = rng.randrange(2 ** 32)
        self.extra_samples = [rng.randrange(2000) for _ in range(3)]
        self.out_dir = os.path.join(out_dir, "cold_run")
        self.argv = ["run", "aircraft", "--out", self.out_dir, "--plot",
                     "--noise", repr(NOISE_HALFWIDTH), "--seed", str(self.noise_seed)]
        self.first_digest = None
        self.dk_ref = None

    def setup(self):
        import qsmc
        sc = qsmc.load_aircraft_scenario().scenario
        self.sc = sc
        self.csv_path = os.path.join(self.out_dir, f"aircraft_{sc.kind}.csv")
        # one short run pays the first-call costs before the timed operations
        _cli(["run", "aircraft", "--out", self.out_dir, "--plot", "--horizon", "0.05"])

    def op(self):
        return _cli(self.argv)

    def check(self, result):
        rc, _ = result
        if rc != 0:
            return 0, f"exit code {rc}"
        sc = self.sc
        with open(self.csv_path, "rb") as fh:
            raw = fh.read()
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        header, body = rows[0], rows[1:]
        if len(body) != sc.steps + 1:
            return 0, f"{len(body)} CSV rows, expected {sc.steps + 1}"
        for i, row in enumerate(body):
            if len(row) != len(header) or row[0] != str(i):
                return 0, f"CSV row {i} is malformed"
            if any(repr(float(v)) != v for v in row[1:]):
                return 0, f"CSV row {i} does not round-trip"
        for suffix in ("u", "x", "s"):
            svg = os.path.join(self.out_dir, f"aircraft_{sc.kind}_{suffix}.svg")
            with open(svg, encoding="utf-8") as fh:
                if not fh.read().rstrip().endswith("</svg>"):
                    return 0, f"{svg} is not a complete SVG"
        digest = hashlib.sha256(raw).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return 0, "CSV differs from the first operation's CSV"
        problem = self._check_dynamics(header, body)
        return len(body), problem

    def _check_dynamics(self, header, body):
        sc = self.sc
        A, B = sc.plant.A, sc.plant.B
        if self.dk_ref is None:
            segs = sc.disturbance.segments
            self.phi, self.gamma = reference.zoh_maps(A, B, sc.T)
            ks = reference.checked_samples(segs, sc.T, sc.steps, self.extra_samples)
            self.dk_ref = {k: reference.sampled_disturbance(A, B, segs, sc.T, k)
                           for k in ks}
        xcols = [header.index(f"x{i + 1}") for i in range(A.shape[0])]
        ucols = [header.index(f"u{i + 1}") for i in range(B.shape[1])]
        for k, d_ref in self.dk_ref.items():
            x0 = np.array([float(body[k][c]) for c in xcols])
            x1 = np.array([float(body[k + 1][c]) for c in xcols])
            u0 = np.array([float(body[k][c]) for c in ucols])
            err = np.max(np.abs(x1 - self.phi @ x0 - self.gamma @ u0 - d_ref))
            if not err <= DK_TOL:
                return f"d[{k}] from the trajectory is off by {err:.3e}"
        return None


class SeedBatch:
    """`aircraft_benchmark(noise=True, seeds=<10 seeds>)` on one scenario
    parsed during setup: 40 noisy runs, one noise realisation per seed."""

    def __init__(self, seed, out_dir):
        self.seeds = tuple(random.Random(seed).sample(range(2 ** 32), 10))
        self.first_table = None

    def setup(self):
        import qsmc
        self.sf = qsmc.load_aircraft_scenario()
        # fills the process-wide sampler cache, as a notebook's first call does
        qsmc.aircraft_benchmark(noise=False, seeds=self.seeds[:1],
                                scenario_file=self.sf)

    def op(self):
        import qsmc
        return qsmc.aircraft_benchmark(noise=True, seeds=self.seeds,
                                       scenario_file=self.sf)

    def check(self, rep):
        table = (tuple(sorted(rep.peak_median.items())),
                 tuple((k, r.u_peak, r.s_bound, r.x_bound)
                       for k, r in sorted(rep.runs.items())))
        if self.first_table is None:
            self.first_table = table
        elif table != self.first_table:
            return 0, "peak table differs from the first operation's"
        C = self.sf.scenario.plant.C
        steps = 0
        for kind, brun in rep.runs.items():
            traj = brun.trajectory
            steps = len(traj.k)
            noise = np.abs(traj.y - traj.x @ C.T)
            if not noise.max() <= NOISE_HALFWIDTH * (1 + 1e-9):
                return 0, f"{kind}: y - C x reaches {noise.max():.3e}"
            if not noise.max() > 0.5 * NOISE_HALFWIDTH:
                return 0, f"{kind}: no measurement noise in y"
        peaks = rep.peak_median
        contraction = max(peaks["mm1"], peaks["mm2"])
        deadbeat = min(peaks["m1"], peaks["m2"])
        if not contraction <= MM_PEAK_MAX:
            return 0, f"contraction-law peak {contraction:.3f} is not O(1)"
        if not deadbeat >= DEADBEAT_RATIO_MIN * contraction:
            return 0, (f"deadbeat peak {deadbeat:.3f} is not "
                       f"{DEADBEAT_RATIO_MIN}x the contraction peak {contraction:.3f}")
        return len(rep.seeds) * len(rep.runs) * steps, None


class PeriodLadder:
    """`qsmc sweep aircraft --controller mm1 --metric s_bound` over the
    three-rung ladder, parsed fresh each time.  The sweep is noise-free, so
    its inputs do not depend on the seed."""

    def __init__(self, seed, out_dir):
        self.argv = ["sweep", "aircraft", "--controller", "mm1",
                     "--metric", "s_bound", "--ladder", LADDER]

    def setup(self):
        import qsmc
        self.horizon = qsmc.load_aircraft_scenario().scenario.horizon

    def op(self):
        return _cli(self.argv)

    def check(self, result):
        rc, text = result
        if rc != 0:
            return 0, f"exit code {rc}"
        kv = _kv(text)
        periods = [float(kv[f"points.{i}.T"]) for i in range(len(LADDER.split(",")))]
        if any(kv[f"points.{i}.certified"] != "true" for i in range(len(periods))):
            return 0, "a rung of the ladder is not certified"
        slope = float(kv["slope"])
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1] or kv["in_band"] != "true":
            return 0, f"s_bound slope {slope} outside {SLOPE_BAND}"
        samples = sum(math.floor(self.horizon / T + 1e-9) + 1 for T in periods)
        return samples, None


WORKLOADS = {"cold_run": ColdRun, "seed_batch": SeedBatch,
             "period_ladder": PeriodLadder}
