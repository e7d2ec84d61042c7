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
(discretization, surface, the d table, the steady window's rows, one
lockstep draw of every distinct noise spec's table, and one record per
distinct law, _Law: its Loop, with alpha from controllers.contraction_alpha,
its B_d d[k] rows and its scan parts), stacks the records of each distinct
tuple of laws once, and then yields each batch as one stacked recursion;
run_batch is a run_batches of one batch and run a batch of one.

Outside the recursion a batch is a fixed handful of passes over the whole
stack, whatever its size: the drive is one stacked product B_v v[k] plus
the shared B_d d[k] rows, with only the warm-up rows patched per run; the
loop steps the longest warm-up of any law one sample at a time, whatever
laws share the batch, so every run's samples fall on the same blocks
alone or in a batch, and the rest is a blocked scan that advances all
blocks together; the divergence guard is one test over every state, and
only a tripped guard looks for the step and run; u_peak, s_bound and
x_bound are one reduction each, the bounds over the window's rows only.
A trajectory forms y, s_true and the disturbance column f only when they
are read (Trajectory).

In the scan (_blocked_scan) a block's response from a zero start is a
fixed linear map of its inputs, so each law's block ends are one product
of its v and d rows with gains formed once per law; the d part is shared
by every batch.  The block-start states follow a recursion of the same
form with A_cl^L in place of A_cl, which one doubling prefix scan solves
(Kogge and Stone, IEEE Trans. Computers C-22(8), 1973).  Every power of
A_cl is formed in long double and rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .controllers import (WARMUP, Loop, check_alpha_beta, closed_loop,
                          contraction_alpha, law_taps, lifted_slices)
from .discretization import _EDGE, DisturbanceSampler, discretize
from .errors import ConfigError, DisturbanceRangeError, DivergenceError
from .numtext import SLICE, count_cells, join_cells, repr_cells
from .plant import (ContinuousPlant, DisturbanceSignal, NoiseSpec,
                    check_finite, noise_tables, zero_signal)
from .surface import build_surface

_OVERFLOW = 1e12

# the most samples a run may hold (see Scenario.steps)
MAX_STEPS = 10 ** 6

# samples per block of the blocked scan; the last block is padded with up
# to BLOCK - 1 samples.  After its stepped samples a batch takes
# ceil(log2 blocks) passes of the carry and BLOCK of the fill
BLOCK = 16

# samples every batch steps one at a time before the scan: the longest
# warm-up of any law
_STEPPED = max(WARMUP.values())

# default steady-state measurement window: the last fifth of a segment
_WINDOW_FRACTION = 0.2


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run's inputs and the only home of the rules on its
    fields, each refusal a ConfigError naming its field: T and horizon
    finite and positive, H m x p and finite, m disturbance channels, n
    finite x0 entries, (alpha, beta) passing controllers.check_alpha_beta
    (field alpha).  contraction_alpha checks alpha's range, steps the count."""
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
        for name, value in (("T", self.T), ("horizon", self.horizon)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}",
                                  name)
        m, n, p = self.plant.m, self.plant.n, self.plant.p
        if np.shape(self.H) != (m, p):
            raise ConfigError(f"H must be {m}x{p} for this plant, got "
                              f"{'x'.join(map(str, np.shape(self.H)))}", "H")
        check_finite("H", self.H)
        if self.disturbance is None:
            object.__setattr__(self, "disturbance", zero_signal(m))
        elif self.disturbance.m != m:
            raise ConfigError(f"each segment needs {m} channel forms", "disturbance")
        if self.x0 is None:
            object.__setattr__(self, "x0", np.zeros(n))
        else:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (n,):
                raise ConfigError(f"x0 must have {n} entries, got {x0.size}", "x0")
            check_finite("x0", x0)
            object.__setattr__(self, "x0", x0)
        check_alpha_beta(self.T, self.alpha, self.beta)

    @property
    def rate(self) -> float:
        """The contraction rate in time: beta if given, else (1 - alpha) / T."""
        return self.beta if self.beta is not None else (1.0 - self.alpha) / self.T

    def at_period(self, T: float) -> "Scenario":
        """The same scenario at period T with its contraction rate held fixed
        in time: beta kept, alpha cleared, so each law's alpha is
        recomputed as 1 - beta T."""
        return replace(self, T=T, alpha=None, beta=self.rate)

    @property
    def steps(self) -> int:
        """The samples a run takes, refused past MAX_STEPS (field horizon): a
        run holds them all at once, at its peak about 360 bytes a sample on
        the aircraft plant, so the bound keeps it under about 0.4 GB."""
        n = self.horizon / self.T
        if not n <= MAX_STEPS:
            raise ConfigError(f"horizon {self.horizon} holds {n:.3g} samples of T = "
                              f"{self.T}, past the {MAX_STEPS} a run may hold", "horizon")
        return int(math.floor(n + 1e-9))

    def with_(self, **kw) -> "Scenario":
        return replace(self, **kw)


@dataclass
class Trajectory:
    """One run's samples.  x, s and u are views of the batch's lifted
    states, and k and t are shared, read-only, by every run of one
    run_batches call.  y, s_true and f are formed on first read and kept:
    y = x C^T + v from the run's noise rows, s_true = x (H C)^T, and f is
    the call's one disturbance column, shared read-only."""
    T: float
    k: np.ndarray
    t: np.ndarray
    x: np.ndarray        # true state, (steps+1) x n
    s: np.ndarray        # H y, what the controller saw
    u: np.ndarray
    _noise: np.ndarray = field(repr=False)       # the v rows y carries
    _columns: _Columns = field(repr=False)
    summary: dict = field(default_factory=dict)

    @cached_property
    def y(self) -> np.ndarray:
        """Measured output, noise included."""
        y = self.x @ self._columns.C.T
        y += self._noise
        return y

    @cached_property
    def s_true(self) -> np.ndarray:
        """H C x, the noiseless switching vector."""
        return self.x @ self._columns.hc.T

    @property
    def f(self) -> np.ndarray:
        """The disturbance at the sample instants."""
        return self._columns.f

    @property
    def u_peak(self) -> float:
        return float(np.max(np.abs(self.u)))


class _Columns:
    """What the trajectories of one run_batches call read in common: the
    read-only k and t, the maps C and H C that y and s_true are formed
    with, and the disturbance column f, formed on its first read."""

    def __init__(self, plant: ContinuousPlant, H: np.ndarray,
                 sig: DisturbanceSignal, steps: int, T: float):
        self.C = plant.C
        self.hc = H @ plant.C
        self.k = _read_only(np.arange(steps + 1))
        self.t = _read_only(np.arange(steps + 1) * T)
        self._sig = sig

    @cached_property
    def f(self) -> np.ndarray:
        # past its end the disturbance holds its last defined value
        sig = self._sig
        return _read_only(sig.values(np.minimum(self.t, np.nextafter(sig.t_end, 0))))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    if a is b:
        return True
    if isinstance(a, ContinuousPlant):
        return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "ABC")
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def run(scenario: Scenario) -> Trajectory:
    """Simulate the closed loop; deterministic for a fixed noise seed.  A
    horizon shorter than one period is refused, since the run would take
    no step (run_batch keeps such a one-sample run)."""
    if scenario.steps < 1:
        raise ConfigError(f"horizon {scenario.horizon} is shorter than one "
                          f"period T = {scenario.T}: the run would take no step")
    return run_batch([scenario])[0]


def run_batch(scenarios) -> list:
    """Simulate R closed loops that share plant, T, H, horizon and
    disturbance as one stacked recursion; returns their trajectories in
    order, each deterministic for a fixed noise seed.  A batch of one
    run_batches."""
    return next(run_batches([scenarios]))


@dataclass(frozen=True)
class _Law:
    """What every batch of one run_batches call reads of one distinct law
    (_law): its Loop, its B_d d[k] rows and the parts of its blocked scan."""
    loop: Loop
    dd: np.ndarray       # B_d d[k]: the warm-up loop's own rows unless eq
    carry: list          # A^(L 2^s) per pass of the carry, while they fit
    gain_v: np.ndarray   # (L p, N): a block's v rows, flattened, times
                         # gain_v are the v part of its end from zero
    end_d: np.ndarray    # (blocks - 1, N): the d part of every block end


@dataclass(frozen=True)
class _Shared:
    """What every batch of one run_batches call shares."""
    base: Scenario
    laws: dict           # (kind, alpha, beta) -> _Law
    warm: Loop           # the loop with the law rows zeroed
    warm_dd: np.ndarray  # its B_d d[k] for k in 0..steps, or 0..steps - 1
                         # when no run is eq
    noise: dict          # noise spec -> (steps + 1, p) table
    stepped: int         # samples stepped one at a time
    blocks: int          # blocks of the scan after them
    columns: _Columns
    window: tuple
    rows: slice | None   # the window's samples; None when it gives no bound
    stacks: dict = field(default_factory=dict)   # law keys -> _Stack


@dataclass(frozen=True)
class _Stack:
    """What a batch reads of its laws, stacked over its runs; built once per
    distinct tuple of law keys (_stack)."""
    loops: list
    A: np.ndarray        # (R, N, N)
    B_vT: np.ndarray     # (R, p, N)
    warmup: np.ndarray   # (R,) warm-up samples of each run
    dd: np.ndarray       # the B_d d[k] rows, shared or stacked
    gain_v: np.ndarray   # (R, L p, N)
    end_d: np.ndarray    # (blocks - 1, N), or stacked
    carry: list          # each carry power every law has, stacked


def _law_key(sc: Scenario) -> tuple:
    return (sc.kind, sc.alpha, sc.beta)


def run_batches(batches):
    """Yield the trajectories of each batch of scenarios in turn, each list
    equal to run_batch of that batch alone.

    Every run of every batch must share plant, T, H, horizon and
    disturbance; that is checked before anything runs.  What the batches
    share is then built once: the discretization and surface, the d[k]
    table, one _Law per distinct law (its Loop, its B_d d[k] rows, which
    every law but eq shares with the warm-up loop, and its scan parts),
    the noise table of every distinct noise spec (one lockstep lane draw,
    rng.symmetric_tables), the sample times and the steady window with its
    rows; each distinct tuple of laws stacks its records on its first
    batch (_stack).  Each batch is
    psi[k+1] = A_cl psi[k] + drive[k] on the lifted state of
    controllers.closed_loop, with drive[k] = B_v v[k] + B_d d[k] known for
    every sample before the loop; the first _STEPPED samples are stepped
    one at a time and the rest is a blocked scan.  Only one batch's working
    arrays are alive at a time."""
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
            alpha = contraction_alpha(T, sc.alpha, sc.beta)
            loops[key] = closed_loop(design, law_taps(design, alpha, sc.kind))
    dk = DisturbanceSampler(plant, T, sig).table(0, steps + 1 if eq else steps)
    stepped = min(_STEPPED, steps + 1)
    blocks = -(-(steps + 1 - stepped) // BLOCK)
    # block b of the scan starts after sample stepped + b BLOCK - 1; the
    # last block's end is never read, so only full blocks of d are taken
    d_rows = dk[stepped:stepped + max(blocks - 1, 0) * BLOCK]
    warm = closed_loop(design)
    warm_dd = dk @ warm.B_d.T
    laws = {key: _law(loop, dk, warm_dd, d_rows, blocks)
            for key, loop in loops.items()}
    specs = list(dict.fromkeys(sc.noise for sc in runs))
    noise = dict(zip(specs, noise_tables([spec.stream() for spec in specs],
                                         steps + 1, plant.p)))
    columns = _Columns(plant, design.H, sig, steps, T)
    window = default_steady_window(sig, base.horizon)
    # the window's samples, found once for every run; a window outside the
    # run gives no s_bound or x_bound
    rows = _window_rows(columns.t, window)
    shared = _Shared(base, laws, warm, warm_dd, noise, stepped, blocks,
                     columns, window, rows)
    for batch in batches:
        # the batch's working arrays die with _run_one, except psi, which
        # lives as long as the batch's trajectories
        yield _run_one(shared, batch)


def _stack(shared: _Shared, keys: tuple) -> _Stack:
    """The _Stack of a batch whose runs have these law keys, in order."""
    laws = [shared.laws[key] for key in keys]
    loops = [law.loop for law in laws]
    return _Stack(
        loops=loops, A=np.stack([loop.A for loop in loops]),
        B_vT=np.stack([loop.B_v.T for loop in loops]),
        warmup=np.array([loop.taps.warmup for loop in loops]),
        dd=_shared_or_stacked([law.dd for law in laws]),
        gain_v=np.stack([law.gain_v for law in laws]),
        end_d=_shared_or_stacked([law.end_d for law in laws]),
        carry=[np.stack(powers) for powers in zip(*(law.carry for law in laws))])


def _run_one(shared: _Shared, scenarios: list) -> list:
    """One batch of run_batches on the parts every batch shares and the
    stacks of its laws, built on the first batch with these laws."""
    keys = tuple(_law_key(sc) for sc in scenarios)
    if keys not in shared.stacks:
        shared.stacks[keys] = _stack(shared, keys)
    stack = shared.stacks[keys]
    base, columns = shared.base, shared.columns
    plant, T, steps = base.plant, base.T, base.steps
    R, n, m = len(scenarios), plant.n, plant.m
    loops, A, warmup = stack.loops, stack.A, stack.warmup
    warm, warm_dd = shared.warm, shared.warm_dd
    # samples stepped one at a time; the scan takes the rest in blocks
    stepped, blocks = shared.stepped, shared.blocks
    # psi[k] is row k; drive[k] is written into row k + 1 and the
    # recursion adds A_cl psi[k] onto it
    psi = np.zeros((R, stepped + blocks * BLOCK + 1, A.shape[1]))
    drive = psi[:, 1:steps + 2]
    # the drive of every run: one stacked product B_v v[k], then the shared
    # B_d d[k] added on; runs that share a noise table or a B_d share rows
    tables = [shared.noise[sc.noise] for sc in scenarios]
    v = _shared_or_stacked(tables)
    np.matmul(v, stack.B_vT, out=drive)
    drive[:, :len(warm_dd)] += stack.dd
    # the warm-up rows of a run are driven by the loop with its law zeroed
    for r in np.flatnonzero(warmup):
        wu = min(warmup[r], steps + 1)
        np.matmul(tables[r][:wu], warm.B_v.T, out=drive[r, :wu])
        drive[r, :min(wu, len(warm_dd))] += warm_dd[:wu]
    psi[:, 0, :n] = np.array([sc.x0 for sc in scenarios])
    # psi[k] holds x[k]; psi[k + 1] holds s[k] and u[k]
    xs, ss, _, us, _ = lifted_slices(n, m)

    # a diverging run overflows harmlessly; the guard is one test over the
    # whole stack, and only a tripped guard looks for the step and run
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(stepped):
            Ak = np.where((warmup > k)[:, None, None], warm.A, A)
            psi[:, k + 1] += (Ak @ psi[:, k, :, None])[:, :, 0]
        if blocks:
            # every block end but the last from the inputs: the shared d
            # part plus one product of the v rows, flattened per block
            inputs = v[..., stepped:stepped + (blocks - 1) * BLOCK, :]
            end = inputs.reshape(inputs.shape[:-2] + (blocks - 1, BLOCK * plant.p))
            end = end @ stack.gain_v
            end += stack.end_d
            _blocked_scan(A, psi[:, stepped:], blocks, stack.carry, end)
        X = psi[:, :steps + 1, xs]
        if not np.all(np.abs(X) <= _OVERFLOW):
            norms = np.max(np.abs(X), axis=2)
            bad = ~(norms <= _OVERFLOW)
            k = int(np.argmax(bad.any(axis=0)))
            r = int(np.argmax(bad[:, k]))
            raise DivergenceError(k, float(norms[r, k]), run=r if R > 1 else None,
                                  rho_cl=loops[r].rho)

    # x, s and u are views of psi, not copies: a kept trajectory holds its
    # batch's psi alive, which costs less than three strided copies per batch
    S = psi[:, 1:steps + 2, ss]
    U = psi[:, 1:steps + 2, us]
    # the read-out: one reduction over the stack per figure, the bounds over
    # the window's rows only
    u_peak = np.max(np.abs(U), axis=(1, 2)).tolist()
    rows = shared.rows
    if rows is not None:
        X_w = X[:, rows]
        s_bound = np.max(np.abs(X_w @ columns.hc.T), axis=(1, 2)).tolist()
        x_bound = np.max(np.abs(X_w), axis=(1, 2)).tolist()
    trajs = []
    for r, (sc, loop) in enumerate(zip(scenarios, loops)):
        traj = Trajectory(T=T, k=columns.k, t=columns.t, x=X[r], s=S[r], u=U[r],
                          _noise=tables[r], _columns=columns)
        traj.summary = {"u_peak": u_peak[r], "steps": steps, "T": T,
                        "kind": sc.kind, "window": shared.window, "rho_cl": loop.rho,
                        "warmup": int(warmup[r])}
        if rows is not None:
            traj.summary["s_bound"] = s_bound[r]
            traj.summary["x_bound"] = x_bound[r]
        trajs.append(traj)
    return trajs


def _shared_or_stacked(arrays):
    """The one array when every entry is the same object, else the stack."""
    if all(a is arrays[0] for a in arrays):
        return arrays[0]
    return np.stack(arrays)


def _law(loop: Loop, dk: np.ndarray, warm_dd: np.ndarray, d_rows: np.ndarray,
         blocks: int) -> _Law:
    """One law's _Law for a scan of `blocks` blocks: dk is the d table,
    warm_dd its rows through the warm-up loop, which every law but eq
    shares, and d_rows the d rows of the scan's blocks but the last.

    A high-gain law makes A strongly non-normal, and a power formed by
    double products carries errors of eps |A| |A^(j-1)|, far above
    eps |A^j|; the gains and the carry's powers A^(L 2^s), 2^s < blocks,
    are therefore formed in numpy's long double (80-bit extended on x86-64)
    and rounded once.  The powers stop at the first that does not fit a
    double, whose inf would turn a zero state into nan."""
    L, N = BLOCK, len(loop.A)
    A = loop.A.astype(np.longdouble)
    p = loop.B_v.shape[1]
    gains = [np.hstack([loop.B_v, loop.B_d]).astype(np.longdouble)]
    for _ in range(L - 1):
        gains.append(A @ gains[-1])
    # entry j is (A^(L-1-j) [B_v B_d]).T, rounded once
    stacked = np.stack(gains[::-1]).transpose(0, 2, 1).astype(float)
    gain_v, gain_d = (stacked[:, cols].reshape(-1, N)
                      for cols in (slice(None, p), slice(p, None)))
    end_d = d_rows.reshape(-1, len(gain_d)) @ gain_d
    carry, power = [], np.linalg.matrix_power(A, L)
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 ** len(carry) < blocks and np.isfinite(rounded := power.astype(float)).all():
            carry.append(rounded)
            power = power @ power
    # only the eq law's g[k] term changes B_d
    dd = warm_dd if loop.taps.K_g is None else dk @ loop.B_d.T
    return _Law(loop, dd, carry, gain_v, end_d)


def _blocked_scan(A, psi, blocks, carry, end):
    """Advance psi[j+1] = A psi[j] + (row j+1 as given) over `blocks`
    blocks of BLOCK samples, in place; psi is (R, blocks BLOCK + 1, N) with
    row 0 the start state, carry holds the powers A^(BLOCK 2^s) (_law) and
    end the responses of the first blocks - 1 blocks at their last sample
    from a zero start.

    The block starts follow c_b = A^L c_(b-1) + end_(b-1).  With c_0 in row
    0 and end_(b-1) in row b, pass s adds A^(L k) times the row k = 2^s
    above to every row from k on, the product formed before the add; after
    the passes with k < blocks, row b holds c_b.  A power missing from the
    carry is applied as repeated products of the largest one there.  Then
    every block is stepped from c_b through its drives, writing each sample
    over its drive; only the given ends and the carry use powers of A."""
    R, _, N = A.shape
    L = BLOCK
    drives = psi[:, 1:].reshape(R, blocks, L, N, copy=False)
    A_t = A.transpose(0, 2, 1)
    start = np.concatenate([psi[:, :1], end], axis=1)
    # (P^T, samples P spans): A, then A^(L 2^s) for each power of the carry
    spans = [(A_t, 1)] + [(P.transpose(0, 2, 1), L << s) for s, P in enumerate(carry)]
    k = 1
    while k < blocks:
        P_t, span = spans[min(k.bit_length(), len(spans) - 1)]
        term = start[:, :-k]
        for _ in range(L * k // span):
            term = term @ P_t
        start[:, k:] += term
        k *= 2
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


def _window_rows(t: np.ndarray, window) -> slice | None:
    """The rows of the sample times t (ascending) inside the window, the
    rows measure_quasi_sliding reads; None when the window is empty or
    reaches outside t."""
    t0, t1 = window
    if t0 < t[0] - 1e-12 or t1 > t[-1] + 1e-12 or t1 <= t0:
        return None
    inside = np.flatnonzero((t >= t0 - 1e-12) & (t <= t1 + 1e-12))
    return slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else None


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
    (the shortest string that reads back to the same double), formatted by
    numtext as many rows at a time as fill one of its slices, so the text in
    memory stays small."""
    n = traj.x.shape[1]
    p = traj.y.shape[1]
    m = traj.u.shape[1]
    step = max(1, SLICE // (1 + n + p + 4 * m))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_header(n, p, m) + "\n")
        for lo in range(0, len(traj.k), step):
            rows = slice(lo, lo + step)
            values = np.hstack([traj.t[rows, None], traj.x[rows], traj.y[rows],
                                traj.s[rows], traj.s_true[rows], traj.u[rows],
                                traj.f[rows]])
            cells = np.concatenate([count_cells(traj.k[rows])[:, None],
                                    repr_cells(values)], axis=1)
            fh.write(join_cells(cells, ",", "\n"))
