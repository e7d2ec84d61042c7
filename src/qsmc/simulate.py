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

Every control law is a set of taps (controllers.law_taps), so the whole
closed loop is one linear recursion.  run_batch steps R runs that share
plant, period, surface, horizon and disturbance as one stacked recursion;
run is a batch of one.  Noise is drawn as one table per distinct noise
spec before the loop, and y, s_true and f are filled after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import law_taps, make_gains
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


# fields every run of a batch shares; kind, form, alpha, beta, noise and
# x0 may differ from run to run
_SHARED = ("plant", "T", "H", "horizon", "disturbance", "record_intersample",
           "substeps")


def _same(a, b) -> bool:
    if isinstance(a, ContinuousPlant):
        return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "ABC")
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def run(scenario: Scenario, sampler: DisturbanceSampler | None = None) -> Trajectory:
    """Simulate the closed loop; deterministic for a fixed noise seed."""
    return run_batch([scenario], sampler)[0]


def run_batch(scenarios, sampler: DisturbanceSampler | None = None) -> list:
    """Simulate R closed loops that share plant, T, H, horizon and
    disturbance as one stacked recursion; returns their trajectories in
    order, each deterministic for a fixed noise seed.

    Each run's record of sample k is one row z[k] = [s, u, x, d, v] (v the
    measurement noise).  Its law's taps become one row block W that reads
    the rows of samples k-2..k, so a step of all runs is
    s = z Ms, u = W (z[k-2], z[k-1], z[k]), x[k+1] = z Mx.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ConfigError("run_batch needs at least one scenario")
    base = scenarios[0]
    for sc in scenarios[1:]:
        for name in _SHARED:
            if not _same(getattr(base, name), getattr(sc, name)):
                raise ConfigError(f"scenarios in one batch must share {name}")
    plant, T, sig, steps = base.plant, base.T, base.disturbance, base.steps
    disc = discretize(plant, T)
    design = build_surface(plant, disc, base.H)  # raises if assumptions fail
    taps = [law_taps(make_gains(design, alpha=sc.alpha, beta=sc.beta), sc.kind, sc.form)
            for sc in scenarios]
    if sampler is None:
        sampler = DisturbanceSampler(plant, T, sig)
    # the eq oracle feeds d[k] into u[k], so it also reads d[steps]
    eq = any(tp.K_g is not None for tp in taps)
    dk = sampler.table(0, steps + 1 if eq else steps)

    R, n, m, p = len(scenarios), plant.n, plant.m, plant.p
    hc = design.H @ plant.C
    cs, cu = slice(0, m), slice(m, 2 * m)
    cx, cd = slice(2 * m, 2 * m + n), slice(2 * m + n, 2 * m + 2 * n)
    cv = slice(2 * m + 2 * n, 2 * m + 2 * n + p)
    w = 2 * m + 2 * n + p
    # two leading zero rows stand for the history before sample 0
    Z = np.zeros((R, steps + 3, w))
    Z[:, 2:2 + len(dk), cd] = dk
    noise: dict = {}
    for r, sc in enumerate(scenarios):
        if sc.noise not in noise:
            noise[sc.noise] = sc.noise.stream().table(steps + 1, p)
        Z[r, 2:, cv] = noise[sc.noise]
        Z[r, 2, cx] = sc.x0
    Ms = np.zeros((w, m))                  # s = H (C x + v)
    Ms[cx] = hc.T
    Ms[cv] = design.H.T
    Mx = np.zeros((w, n))                  # x+ = state_map x + input_map u + d
    Mx[cu] = disc.input_map.T
    Mx[cx] = disc.state_map.T
    Mx[cd] = np.eye(n)

    def lag(i, cols):
        """Columns of sample k-i's `cols` in the window of samples k-2..k."""
        return slice((2 - i) * w + cols.start, (2 - i) * w + cols.stop)

    W = np.zeros((R, m, 3 * w))
    for r, tp in enumerate(taps):
        for i, K in enumerate(tp.K):
            W[r, :, lag(i, cs)] = K
        for j, C in enumerate(tp.C, start=1):
            W[r, :, lag(j, cu)] = C
        if tp.K_g is not None:
            # g[k] = T drift_from_xi xi[k] + H C d[k], xi = annihilator x
            W[r, :, lag(0, cx)] = T * tp.K_g @ design.drift_from_xi @ design.annihilator
            W[r, :, lag(0, cd)] = tp.K_g @ hc
    warmup = np.array([tp.warmup for tp in taps])
    rk4 = base.record_intersample
    inter_t: list = [[] for _ in scenarios]
    inter_x: list = [[] for _ in scenarios]

    # a diverging run overflows harmlessly; it is reported after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            Z[:, k + 2, cs] = Z[:, k + 2] @ Ms
            u = (W @ Z[:, k:k + 3].reshape(R, 3 * w, 1))[:, :, 0]
            if k < 2:
                u[warmup > k] = 0.0
            Z[:, k + 2, cu] = u
            if k == steps:
                break
            if rk4:
                for r in range(R):
                    Z[r, k + 3, cx] = _advance_rk4(
                        plant, sig, Z[r, k + 2, cx], u[r], k * T, T,
                        base.substeps, inter_t[r], inter_x[r])
            else:
                Z[:, k + 3, cx] = Z[:, k + 2] @ Mx
        X = Z[:, 2:, cx].copy()
        norms = np.max(np.abs(X), axis=2)
        bad = ~(norms <= _OVERFLOW)
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        r = int(np.argmax(bad[:, k]))
        raise DivergenceError(k, float(norms[r, k]), run=r if R > 1 else None)

    S, U = Z[:, 2:, cs].copy(), Z[:, 2:, cu].copy()
    Y = X @ plant.C.T
    Y += Z[:, 2:, cv]
    del Z
    St = X @ hc.T
    t = np.arange(steps + 1) * T
    # past its end the disturbance holds its last defined value
    F = sig.values(np.minimum(t, np.nextafter(sig.t_end, 0)))
    window = default_steady_window(sig, base.horizon)
    trajs = []
    for r, sc in enumerate(scenarios):
        traj = Trajectory(T=T, k=np.arange(steps + 1), t=t.copy(), x=X[r], y=Y[r],
                          s=S[r], s_true=St[r], u=U[r], f=F.copy())
        if rk4:
            traj.inter_t = np.array(inter_t[r])
            traj.inter_x = np.array(inter_x[r])
        traj.summary = {"u_peak": traj.u_peak, "steps": steps, "T": T,
                        "kind": sc.kind, "window": window}
        if window[1] <= base.horizon + 1e-12 and window[0] >= 0:
            try:
                sb, xb = measure_quasi_sliding(traj, window)
                traj.summary["s_bound"] = sb
                traj.summary["x_bound"] = xb
            except ConfigError:
                pass
        trajs.append(traj)
    return trajs


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
