"""Hybrid closed-loop simulation.

Between samples the plant is continuous, x' = A x + B (u[k] + f(t)) with
u held; across samples the state moves by the exact affine map

    x[k+1] = state_map x[k] + input_map u[k] + d[k],

where d[k] is exact too (one exosystem block exponential per segment, see
discretization.DisturbanceSampler), so the integration carries no
truncation error; the whole d sequence is taken as one table before the
loop.

The controller is handed the measured switching vector s[k] = H y[k]
only - y[k] carries the measurement noise - while the noiseless
s_true[k] = H C x[k] is logged in parallel for analysis.

Every control law is a set of taps (controllers.law_taps), so the whole
closed loop is one linear recursion psi[k+1] = A_cl psi[k] + drive[k] on a
lifted state, held as one controllers.Loop value (closed_loop).
run_batches takes several batches of runs that share plant, period,
surface, horizon and disturbance, builds what they share once
(discretization, surface, each distinct law's Loop and its blocked-scan
carry, the d table, the f column and one lockstep draw of every distinct
noise spec's table) and then yields each batch as one stacked recursion;
run_batch is a run_batches of one batch and run a batch of one.  The drive
of every sample is known before the loop, which steps the warm-up samples
one at a time and the rest as a blocked scan that advances all blocks
together; y, s_true and f are filled after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import Loop, closed_loop, law_taps, lifted_slices, make_gains
from .discretization import _EDGE, DisturbanceSampler, discretize
from .errors import ConfigError, DisturbanceRangeError, DivergenceError
from .plant import (ContinuousPlant, DisturbanceSignal, NoiseSpec,
                    noise_tables, zero_signal)
from .surface import SurfaceDesign, build_surface

_OVERFLOW = 1e12

# samples per block of the blocked scan: a batch takes 2 BLOCK + steps/BLOCK
# Python iterations and pads its last block with up to BLOCK - 1 samples
BLOCK = 16

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

    def __post_init__(self):
        if not (0 < self.T < math.inf and 0 < self.horizon < math.inf):
            raise ConfigError(f"T and horizon must be finite and positive, "
                              f"got T = {self.T}, horizon = {self.horizon}")
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
    def rate(self) -> float:
        """The contraction rate in time: beta if given, else (1 - alpha) / T.
        A period override holds it fixed and recomputes alpha."""
        if self.beta is not None:
            return self.beta
        if self.alpha is None:
            raise ConfigError("need alpha or beta")
        return (1.0 - self.alpha) / self.T

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


# fields every run of a batch shares; kind, alpha, beta, noise and x0 may
# differ from run to run
_SHARED = ("plant", "T", "H", "horizon", "disturbance")


def _same(a, b) -> bool:
    if isinstance(a, ContinuousPlant):
        return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "ABC")
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def run(scenario: Scenario) -> Trajectory:
    """Simulate the closed loop; deterministic for a fixed noise seed."""
    return run_batch([scenario])[0]


def run_batch(scenarios) -> list:
    """Simulate R closed loops that share plant, T, H, horizon and
    disturbance as one stacked recursion; returns their trajectories in
    order, each deterministic for a fixed noise seed.  A batch of one
    run_batches."""
    return next(run_batches([scenarios]))


@dataclass(frozen=True)
class _Shared:
    """What every batch of one run_batches call shares."""
    base: Scenario
    design: SurfaceDesign
    loops: dict          # (kind, alpha, beta) -> controllers.Loop
    carry: dict          # same key -> A^BLOCK, formed in long double
    warm: Loop           # the loop with the law rows zeroed
    dk: np.ndarray       # d[0..steps], or d[0..steps) when no run is eq
    noise: dict          # noise spec -> (steps + 1, p) table
    t: np.ndarray
    F: np.ndarray
    window: tuple


def _law_key(sc: Scenario) -> tuple:
    return (sc.kind, sc.alpha, sc.beta)


def run_batches(batches):
    """Yield the trajectories of each batch of scenarios in turn, each list
    equal to run_batch of that batch alone.

    Every run of every batch must share plant, T, H, horizon and
    disturbance; that is checked before anything runs.  What the batches
    share is then built once: the discretization and surface, each
    distinct law's Loop (taps, matrices and spectral radius) and its
    blocked-scan carry, the d[k] table, the noise table of every distinct
    noise spec (one lockstep lane draw, rng.symmetric_tables), the f column
    and the steady window.  Each batch is psi[k+1] = A_cl psi[k] + drive[k] on the
    lifted state of controllers.closed_loop, with drive[k] = B_d d[k] +
    B_v v[k] known for every sample before the loop; the warm-up samples
    are stepped one at a time and the rest is a blocked scan.  Only one
    batch's working arrays are alive at a time."""
    batches = [list(batch) for batch in batches]
    if not batches or not all(batches):
        raise ConfigError("run_batch needs at least one scenario")
    runs = [sc for batch in batches for sc in batch]
    base = runs[0]
    for sc in runs[1:]:
        for name in _SHARED:
            if not _same(getattr(base, name), getattr(sc, name)):
                raise ConfigError(f"scenarios in one batch must share {name}")
    plant, T, sig, steps = base.plant, base.T, base.disturbance, base.steps
    # the eq oracle feeds d[k] into u[k], so it also reads d[steps]; without
    # it d[steps] only moves x[steps + 1], which is not kept
    eq = any(sc.kind == "eq" for sc in runs)
    if eq and (steps + 1) * T > sig.t_end + _EDGE:
        raise DisturbanceRangeError(
            f"the eq oracle reads d[{steps}], one period past the horizon: "
            f"sample {steps} covers [{steps * T}, {(steps + 1) * T}), "
            f"outside [0, {sig.t_end})")
    disc = discretize(plant, T)
    design = build_surface(plant, disc, base.H)  # raises if assumptions fail
    loops = {}
    for sc in runs:
        key = _law_key(sc)
        if key not in loops:
            gains = make_gains(design, alpha=sc.alpha, beta=sc.beta)
            loops[key] = closed_loop(design, law_taps(gains, sc.kind))
    carry = {key: np.linalg.matrix_power(loop.A.astype(np.longdouble),
                                         BLOCK).astype(float)
             for key, loop in loops.items()}
    dk = DisturbanceSampler(plant, T, sig).table(0, steps + 1 if eq else steps)
    specs = list(dict.fromkeys(sc.noise for sc in runs))
    noise = dict(zip(specs, noise_tables([spec.stream() for spec in specs],
                                         steps + 1, plant.p)))
    t = np.arange(steps + 1) * T
    # past its end the disturbance holds its last defined value
    F = sig.values(np.minimum(t, np.nextafter(sig.t_end, 0)))
    shared = _Shared(base, design, loops, carry, closed_loop(design), dk, noise,
                     t, F, default_steady_window(sig, base.horizon))
    for batch in batches:
        # the batch's working arrays are locals of _run_one and die with it
        yield _run_one(shared, batch)


def _run_one(shared: _Shared, scenarios: list) -> list:
    """One batch of run_batches on the parts every batch shares."""
    base, design = shared.base, shared.design
    plant, T, steps = base.plant, base.T, base.steps
    keys = [_law_key(sc) for sc in scenarios]
    loops = [shared.loops[key] for key in keys]
    dk = shared.dk
    if all(loop.taps.K_g is None for loop in loops):
        dk = dk[:steps]
    R, n, m = len(scenarios), plant.n, plant.m
    A = np.stack([loop.A for loop in loops])
    warm = shared.warm
    warmup = np.array([loop.taps.warmup for loop in loops])
    # samples stepped one at a time; the scan takes the rest in blocks
    stepped = min(int(warmup.max()), steps + 1)
    blocks = -(-(steps + 1 - stepped) // BLOCK)
    # psi[k] is row k; drive[k] is written into row k + 1 and the
    # recursion adds A_cl psi[k] onto it
    psi = np.zeros((R, stepped + blocks * BLOCK + 1, A.shape[1]))
    for r, (sc, loop) in enumerate(zip(scenarios, loops)):
        v = shared.noise[sc.noise]
        drive = psi[r, 1:steps + 2]
        wu = min(warmup[r], steps + 1)
        for rows, each in ((slice(0, wu), warm), (slice(wu, None), loop)):
            np.matmul(v[rows], each.B_v.T, out=drive[rows])
            d = dk[rows]
            drive[rows][:len(d)] += d @ each.B_d.T
        psi[r, 0, :n] = sc.x0
    # psi[k] holds x[k]; psi[k + 1] holds s[k] and u[k]
    xs, ss, _, us, _ = lifted_slices(n, m)

    # a diverging run overflows harmlessly; it is reported after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(stepped):
            Ak = np.where((warmup > k)[:, None, None], warm.A, A)
            psi[:, k + 1] += (Ak @ psi[:, k, :, None])[:, :, 0]
        if blocks:
            _blocked_scan(A, psi[:, stepped:], blocks,
                          np.stack([shared.carry[key] for key in keys]))
        X = psi[:, :steps + 1, xs].copy()
        norms = np.max(np.abs(X), axis=2)
        bad = ~(norms <= _OVERFLOW)
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        r = int(np.argmax(bad[:, k]))
        raise DivergenceError(k, float(norms[r, k]), run=r if R > 1 else None,
                              rho_cl=loops[r].rho)

    S = psi[:, 1:steps + 2, ss].copy()
    U = psi[:, 1:steps + 2, us].copy()
    del psi, drive   # drive is a view of psi; free it before the read-out
    hc = design.H @ plant.C
    Y = X @ plant.C.T
    for r, sc in enumerate(scenarios):
        Y[r] += shared.noise[sc.noise]
    St = X @ hc.T
    window = shared.window
    trajs = []
    for r, (sc, loop) in enumerate(zip(scenarios, loops)):
        traj = Trajectory(T=T, k=np.arange(steps + 1), t=shared.t.copy(), x=X[r],
                          y=Y[r], s=S[r], s_true=St[r], u=U[r], f=shared.F.copy())
        traj.summary = {"u_peak": traj.u_peak, "steps": steps, "T": T,
                        "kind": sc.kind, "window": window, "rho_cl": loop.rho,
                        "warmup": int(warmup[r])}
        if window[1] <= base.horizon + 1e-12 and window[0] >= 0:
            try:
                sb, xb = measure_quasi_sliding(traj, window)
                traj.summary["s_bound"] = sb
                traj.summary["x_bound"] = xb
            except ConfigError:
                pass
        trajs.append(traj)
    return trajs


def _blocked_scan(A, psi, blocks, carry):
    """Advance psi[j+1] = A psi[j] + (row j+1 as given) over `blocks`
    blocks of BLOCK samples, in place; psi is (R, blocks BLOCK + 1, N) with
    row 0 the start state and carry is A^BLOCK.

    A chunked linear scan in three passes, each vectorized over all blocks:
    step every block from zero through its drives to get its response at
    its last sample; carry the block-start states c_b with A^L, one product
    per block; then step every block from c_b through its drives again,
    writing each sample over its drive.  Only the carry uses a power of A.
    A high-gain law makes A strongly non-normal, and a power formed by
    double products carries errors of eps |A| |A^(L-1)|, far above
    eps |A^L|; the caller therefore forms A^L in numpy's long double
    (80-bit extended on x86-64) and rounds it once."""
    R, _, N = A.shape
    L = BLOCK
    drives = psi[:, 1:].reshape(R, blocks, L, N, copy=False)
    A_t = A.transpose(0, 2, 1)
    end = drives[:, :, 0].copy()
    for j in range(1, L):
        end = end @ A_t
        end += drives[:, :, j]
    start = np.empty((R, blocks, N))
    start[:, 0] = psi[:, 0]
    for b in range(blocks - 1):
        start[:, b + 1] = (carry @ start[:, b, :, None])[:, :, 0] + end[:, b]
    prev = start
    for j in range(L):
        drives[:, :, j] += prev @ A_t
        prev = drives[:, :, j]


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
    """Write the trajectory as CSV: k, then every float column in repr form
    (the shortest string that reads back to the same double)."""
    n = traj.x.shape[1]
    p = traj.y.shape[1]
    m = traj.u.shape[1]
    cols = np.hstack([traj.t[:, None], traj.x, traj.y, traj.s, traj.s_true,
                      traj.u, traj.f]).tolist()
    lines = [csv_header(n, p, m)]
    lines += [f"{k:d}," + ",".join(map(repr, row))
              for k, row in zip(traj.k.tolist(), cols)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
