"""Hybrid closed-loop simulation.

Between samples the plant is continuous, x' = A x + B (u[k] + f(t)) with
u held; across samples the state moves by the exact affine map

    x[k+1] = state_map x[k] + input_map u[k] + d[k],

where d[k] is exact too (one exosystem block exponential per segment, see
discretization.DisturbanceSampler), so the default integration carries no
truncation error; the whole d sequence is taken as one table before the
loop.  An RK4 sub-stepping path exists for inter-sample
visualization and cross-checks; it splits sub-intervals at disturbance
segment boundaries and pins each piece to its owning segment's forms, so
it too sees only smooth integrands.

The controller is handed the measured switching vector s[k] = H y[k]
only - y[k] carries the measurement noise - while the noiseless
s_true[k] = H C x[k] is logged in parallel for analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import ControllerState, make_gains
from .discretization import DisturbanceSampler, discretize
from .errors import ConfigError, DivergenceError
from .plant import ContinuousPlant, DisturbanceSignal, NoiseSpec, zero_signal
from .surface import build_surface

_OVERFLOW = 1e12

# default steady-state measurement window: the last fifth of a segment
_WINDOW_FRACTION = 0.2


@dataclass(frozen=True)
class Scenario:
    plant: ContinuousPlant
    H: np.ndarray
    kind: str
    T: float
    horizon: float
    disturbance: DisturbanceSignal | None = None
    noise: NoiseSpec = NoiseSpec()
    alpha: float | None = None
    beta: float | None = None
    x0: np.ndarray | None = None
    substeps: int = 1
    record_intersample: bool = False
    form: str = "recursive"

    def __post_init__(self):
        if self.T <= 0 or self.horizon <= 0:
            raise ConfigError("T and horizon must be positive")
        if self.substeps < 1:
            raise ConfigError("substeps must be >= 1")
        if self.disturbance is None:
            object.__setattr__(self, "disturbance", zero_signal(self.plant.m))
        if self.x0 is None:
            object.__setattr__(self, "x0", np.zeros(self.plant.n))
        else:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (self.plant.n,):
                raise ConfigError(f"x0 must have {self.plant.n} entries")
            object.__setattr__(self, "x0", x0)

    @property
    def steps(self) -> int:
        return int(math.floor(self.horizon / self.T + 1e-9))

    def with_(self, **kw) -> "Scenario":
        return replace(self, **kw)


@dataclass
class Trajectory:
    T: float
    k: np.ndarray
    t: np.ndarray
    x: np.ndarray        # true state, (steps+1) x n
    y: np.ndarray        # measured output (noise included)
    s: np.ndarray        # H y, what the controller saw
    s_true: np.ndarray   # H C x
    u: np.ndarray
    f: np.ndarray        # disturbance at sample instants
    summary: dict = field(default_factory=dict)
    inter_t: np.ndarray | None = None
    inter_x: np.ndarray | None = None

    @property
    def u_peak(self) -> float:
        return float(np.max(np.abs(self.u)))


def default_steady_window(sig: DisturbanceSignal, horizon: float):
    """Last fifth of the last constant-or-zero segment that ends within the
    horizon, else the last fifth of the horizon."""
    for seg in reversed(sig.segments):
        end = min(seg.t_end, horizon)
        if seg.t_start < end and end < math.inf and all(
                f.sup_d1 == 0.0 for f in seg.forms) and end <= horizon + 1e-12:
            return (end - _WINDOW_FRACTION * (end - seg.t_start), end)
    return (horizon * (1 - _WINDOW_FRACTION), horizon)


def run(scenario: Scenario, sampler: DisturbanceSampler | None = None) -> Trajectory:
    """Simulate the closed loop; deterministic for a fixed noise seed."""
    plant, T = scenario.plant, scenario.T
    disc = discretize(plant, T)
    design = build_surface(plant, disc, scenario.H)  # raises if assumptions fail
    gains = make_gains(design, alpha=scenario.alpha, beta=scenario.beta)
    controller = ControllerState(kind=scenario.kind, gains=gains, form=scenario.form)
    if sampler is None:
        sampler = DisturbanceSampler(plant, T, scenario.disturbance)
    noise = scenario.noise.stream()
    hc = design.H @ plant.C

    steps = scenario.steps
    # the eq oracle also reads d[steps], for the input logged at the last
    # sample, and takes it as zero when the disturbance ends before then
    dk = sampler.table(0, steps + 1 if sampler.covers(steps) else steps)
    n, m, p = plant.n, plant.m, plant.p
    X = np.empty((steps + 1, n))
    Y = np.empty((steps + 1, p))
    S = np.empty((steps + 1, m))
    St = np.empty((steps + 1, m))
    U = np.empty((steps + 1, m))
    F = np.empty((steps + 1, m))
    inter_t: list = []
    inter_x: list = []

    x = scenario.x0.copy()
    xi_prev = None
    for k in range(steps + 1):
        nx = np.max(np.abs(x))
        if not np.isfinite(nx) or nx > _OVERFLOW:
            raise DivergenceError(k, float(nx))
        y = plant.C @ x + noise.sample(p)
        s_meas = design.H @ y
        X[k] = x
        Y[k] = y
        S[k] = s_meas
        St[k] = hc @ x
        F[k] = scenario.disturbance.value(k * T) if k * T < scenario.disturbance.t_end \
            else scenario.disturbance.value(np.nextafter(scenario.disturbance.t_end, 0))
        if scenario.kind == "eq":
            # oracle law: g[k] from ground truth (reduced state + actual d[k])
            g_k = None
            if controller.k >= 1:
                xi = design.annihilator @ x
                d_s = hc @ dk[k] if k < len(dk) else np.zeros(m)
                g_k = T * design.drift_from_xi @ xi + d_s
            u = controller.step(s_meas, g_k=g_k)
        else:
            u = controller.step(s_meas)
        U[k] = u
        if k < steps:
            if scenario.record_intersample:
                x = _advance_rk4(plant, scenario.disturbance, x, u, k * T, T,
                                 scenario.substeps, inter_t, inter_x)
            else:
                x = disc.state_map @ x + disc.input_map @ u + dk[k]

    traj = Trajectory(T=T, k=np.arange(steps + 1), t=np.arange(steps + 1) * T,
                      x=X, y=Y, s=S, s_true=St, u=U, f=F)
    if scenario.record_intersample:
        traj.inter_t = np.array(inter_t)
        traj.inter_x = np.array(inter_x)
    window = default_steady_window(scenario.disturbance, scenario.horizon)
    traj.summary = {"u_peak": traj.u_peak, "steps": steps, "T": T,
                    "kind": scenario.kind, "window": window}
    if window[1] <= scenario.horizon + 1e-12 and window[0] >= 0:
        try:
            sb, xb = measure_quasi_sliding(traj, window)
            traj.summary["s_bound"] = sb
            traj.summary["x_bound"] = xb
        except ConfigError:
            pass
    return traj


def _advance_rk4(plant, sig, x, u, t0, T, substeps, inter_t, inter_x):
    """One sampling interval by classical RK4, split at disturbance
    boundaries; inter-sample states are appended to inter_t/inter_x."""
    A, B = plant.A, plant.B
    bounds = sig.boundaries_within(t0, t0 + T)
    pieces = [t0] + bounds + [t0 + T]
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        seg = sig.segment_index(0.5 * (lo + hi))
        width = hi - lo
        nsub = max(1, int(round(substeps * width / T)))
        h = width / nsub
        t = lo
        for _ in range(nsub):
            def deriv(tt, xx):
                return A @ xx + B @ (u + sig.value_in_segment(seg, tt))
            k1 = deriv(t, x)
            k2 = deriv(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = deriv(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = deriv(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            inter_t.append(t)
            inter_x.append(x.copy())
    return x


def measure_quasi_sliding(traj: Trajectory, window) -> tuple:
    """(s_bound, x_bound): peak infinity-norms of the noiseless switching
    vector and of the state over a time window inside the trajectory."""
    t0, t1 = window
    if t0 < traj.t[0] - 1e-12 or t1 > traj.t[-1] + 1e-12 or t1 <= t0:
        raise ConfigError(
            f"window [{t0}, {t1}] outside trajectory [{traj.t[0]}, {traj.t[-1]}]")
    mask = (traj.t >= t0 - 1e-12) & (traj.t <= t1 + 1e-12)
    if not np.any(mask):
        raise ConfigError("window contains no samples")
    s_bound = float(np.max(np.abs(traj.s_true[mask])))
    x_bound = float(np.max(np.abs(traj.x[mask])))
    return s_bound, x_bound


# ---------------------------------------------------------------------------
# trajectory export

def csv_header(n: int, p: int, m: int) -> str:
    cols = (["k", "t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"y{i + 1}" for i in range(p)]
            + [f"s{i + 1}" for i in range(m)]
            + [f"strue{i + 1}" for i in range(m)]
            + [f"u{i + 1}" for i in range(m)]
            + [f"f{i + 1}" for i in range(m)])
    return ",".join(cols)


def export_csv(traj: Trajectory, path) -> None:
    n = traj.x.shape[1]
    p = traj.y.shape[1]
    m = traj.u.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_header(n, p, m) + "\n")
        for i in range(traj.x.shape[0]):
            row = ([f"{traj.k[i]:d}", repr(float(traj.t[i]))]
                   + [repr(float(v)) for v in traj.x[i]]
                   + [repr(float(v)) for v in traj.y[i]]
                   + [repr(float(v)) for v in traj.s[i]]
                   + [repr(float(v)) for v in traj.s_true[i]]
                   + [repr(float(v)) for v in traj.u[i]]
                   + [repr(float(v)) for v in traj.f[i]])
            fh.write(",".join(row) + "\n")
