"""Independent routes for the output checks.

The simulator advances x[k+1] = Phi x[k] + Gamma u[k] + d[k] with d[k]
from adaptive quadrature (`quad_vec`).  Here d[k] comes from the exosystem
block exponential instead (Van Loan, IEEE TAC 1978): on a smooth piece every
disturbance form is f(t) = E z(t) with z' = S z, so

    int_a^b exp(A (b - t)) B f(t) dt = [expm([[A, B E], [0, S]] (b - a))]_12 z(a),

and the piece is carried to the end of the sample by exp(A (t1 - b)).  No
quadrature and no code of the program is involved; only the parsed plant
matrices and disturbance forms are read.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# pieces shorter than this share of T are skipped, as the simulator does
_EDGE = 1e-13


def zoh_maps(A, B, T):
    """(Phi, Gamma) of the zero-order hold at period T."""
    n, m = B.shape
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A
    blk[:n, n:] = B
    e = expm(blk * T)
    return e[:n, :n], e[:n, n:]


def exosystem(forms, t):
    """(S, E, z) such that the forms give f(t + s) = E expm(S s) z."""
    S_blocks, E_cols, z = [], [], []
    m = len(forms)
    for ch, form in enumerate(forms):
        kind = type(form).__name__
        if kind == "ZeroForm":
            continue
        if kind == "ConstForm":
            S = np.zeros((1, 1))
            E = np.zeros((m, 1))
            E[ch] = [1.0]
            state = [form.level]
        elif kind == "SinForm":      # offset + amp sin(w t + phase)
            w, th = form.omega, form.omega * t + form.phase
            S = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, w], [0.0, -w, 0.0]])
            E = np.zeros((m, 3))
            E[ch] = [1.0, 1.0, 0.0]
            state = [form.offset, form.amp * math.sin(th), form.amp * math.cos(th)]
        elif kind == "CosForm":      # amp cos(w t)
            w, th = form.omega, form.omega * t
            S = np.array([[0.0, -w], [w, 0.0]])
            E = np.zeros((m, 2))
            E[ch] = [1.0, 0.0]
            state = [form.amp * math.cos(th), form.amp * math.sin(th)]
        else:
            raise ValueError(f"no exosystem for disturbance form {kind}")
        S_blocks.append(S)
        E_cols.append(E)
        z.extend(state)
    q = len(z)
    S = np.zeros((q, q))
    at = 0
    for blk in S_blocks:
        size = blk.shape[0]
        S[at:at + size, at:at + size] = blk
        at += size
    E = np.hstack(E_cols) if E_cols else np.zeros((m, 0))
    return S, E, np.array(z)


def sampled_disturbance(A, B, segments, T, k):
    """d[k] = int_{kT}^{(k+1)T} exp(A ((k+1)T - t)) B f(t) dt."""
    n = A.shape[0]
    t0, t1 = k * T, (k + 1) * T
    cuts = [t0] + [s.t_start for s in segments[1:] if t0 < s.t_start < t1] + [t1]
    total = np.zeros(n)
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= _EDGE * T:
            continue
        mid = 0.5 * (a + b)
        seg = next(s for s in segments if s.t_start <= mid < s.t_end)
        S, E, z = exosystem(seg.forms, a)
        if z.size == 0:
            continue
        q = z.size
        blk = np.zeros((n + q, n + q))
        blk[:n, :n] = A
        blk[:n, n:] = B @ E
        blk[n:, n:] = S
        piece = expm(blk * (b - a))[:n, n:] @ z
        total += expm(A * (t1 - b)) @ piece
    return total


def checked_samples(segments, T, steps, extra):
    """Samples next to each disturbance step, the first and last sample,
    and the given extra ones."""
    ks = {0, steps - 1, *extra}
    for seg in segments[1:]:
        if seg.t_start < steps * T:
            kb = int(math.floor(seg.t_start / T))
            ks.update((kb - 1, kb, kb + 1))
    return sorted(k for k in ks if 0 <= k < steps)
