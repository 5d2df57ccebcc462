"""Correctness checks for the benchmark's workloads.

Every check compares the program's output with a value computed here,
apart from the program (the normal CDF, closed-form KL, a plain-Python
trial), or with a property the method must have. None of them compares
with a saved copy of earlier output. Each function returns a list
of error strings; an empty list means the output passed.

The standard-error multiple K_SE is fixed here, before any run, and every
SE-based check uses it.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

K_SE = 5.0
REL_TOL = 1e-12


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def parse_rows(text: str) -> list[dict]:
    """CSV text from the CLI as a list of rows (strings keyed by column)."""
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_rows(rows: list[dict], sigmas, T: int, grid, R: int, seed: int) -> list[str]:
    """Properties of `neyman-bai sweep` output for adaptive Neyman + AIPW."""
    s1, s2 = sigmas
    errors = []
    if [float(r["x"]) for r in rows] != [float(x) for x in grid]:
        return [f"sweep rows cover x = {[r['x'] for r in rows]}, expected {list(grid)}"]
    limit = (s1 + s2) / math.sqrt(math.e)
    target = s1 / (s1 + s2)
    for r in rows:
        x = float(r["x"])
        if (int(r["T"]), int(r["R"]), int(r["seed"])) != (T, R, seed):
            errors.append(f"x={x}: T/R/seed columns {r['T']}/{r['R']}/{r['seed']} differ from the input")
        gap = float(r["gap"])
        misid = float(r["misid_prob"])
        scaled = float(r["scaled_regret"])
        slack = K_SE * math.sqrt(T) * float(r["regret_se"])
        if scaled > limit + slack:
            errors.append(f"x={x}: scaled regret {scaled:.6g} > limit {limit:.6g} + {K_SE:g}*SE {slack:.3g}")
        n1_frac = float(r["n1_frac"])
        if abs(n1_frac - target) > 0.02:
            errors.append(f"x={x}: n1_frac {n1_frac:.6g} not within 0.02 of {target:.6g}")
        want_gap = x * (s1 + s2) / math.sqrt(T)
        if not _close(gap, want_gap):
            errors.append(f"x={x}: gap {gap!r} != x*(s1+s2)/sqrt(T) = {want_gap!r}")
        want_regret = gap * misid
        if not _close(float(r["mean_regret"]), want_regret):
            errors.append(f"x={x}: mean_regret {r['mean_regret']} != gap*misid_prob = {want_regret!r}")
    return errors


def gaussian_kl(m_p: float, v_p: float, m_q: float, v_q: float) -> float:
    """KL(N(m_p, v_p) || N(m_q, v_q))."""
    d = m_p - m_q
    return 0.5 * math.log(v_q / v_p) + (v_p + d * d) / (2.0 * v_q) - 0.5


def check_transport_report(report, baseline, alternative, T: int, R: int) -> list[str]:
    """check_transportation on Gaussian arms under the uniform block schedule.

    `baseline` and `alternative` are ((mu1, var1), (mu2, var2)) pairs. With
    T/2 pulls per arm, {recommend arm 1} = {mean1_hat >= mean2_hat} has
    probability Phi((mu1 - mu2) / sqrt(var1/n + var2/n)).
    """
    errors = []
    n = T // 2
    if not report.satisfied:
        errors.append(f"transportation inequality not satisfied: lhs {report.lhs} < rhs {report.rhs}")
    if report.mean_n1 != n:
        errors.append(f"mean_n1 {report.mean_n1!r} != {n}")
    kl1 = gaussian_kl(*baseline[0], *alternative[0])
    kl2 = gaussian_kl(*baseline[1], *alternative[1])
    want_lhs = n * (kl1 + kl2)
    if not _close(report.lhs, want_lhs):
        errors.append(f"lhs {report.lhs!r} != {n}*(KL1+KL2) = {want_lhs!r}")
    for label, got, model in (
        ("baseline", report.p_baseline, baseline),
        ("alternative", report.p_alternative, alternative),
    ):
        (m1, v1), (m2, v2) = model
        exact = phi((m1 - m2) / math.sqrt(v1 / n + v2 / n))
        se = math.sqrt(exact * (1.0 - exact) / R)
        if abs(got - exact) > K_SE * se:
            errors.append(
                f"{label} event frequency {got:.6g} not within {K_SE:g}*SE "
                f"({K_SE * se:.3g}) of Phi = {exact:.6g}"
            )
    return errors


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """numpy.random.Philox keyed by [seed, stream], counter 0."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def adaptive_aipw_trial(
    seed: int, i: int, mus, sds, T: int, eta: float = 1e-3, w_min: float = 0.01
) -> tuple[int, int, float, float]:
    """Replication i of adaptive Neyman + AIPW, one round at a time.

    Streams: arm-1 outcomes Philox(key=[seed, 4i]), arm-2 outcomes
    [seed, 4i+1], selection uniforms [seed, 4i+2]. Outcomes are
    mu + sd * standard_normal. Round 1 picks arm 1 with probability 1/2;
    later rounds use w1 = s1/(s1+s2) from population-variance estimates of
    the rounds before (eta when an arm is unseen or its estimate is 0),
    clamped to [w_min, 1-w_min]. Arm 1 is played when u_t < w1. The AIPW
    mean of arm a is (1/T) sum_t [1{A_t=a}(Y_t - m_a)/w_t(a) + m_a], m_a the
    running mean before round t (0 while unseen). Returns (recommended arm,
    arm-1 pulls, mu1_hat, mu2_hat); ties recommend arm 1.
    """
    y = [
        (mus[a] + sds[a] * philox_generator(seed, 4 * i + a).standard_normal(T)).tolist()
        for a in (0, 1)
    ]
    u = philox_generator(seed, 4 * i + 2).random(T).tolist()
    n = [0, 0]
    mean = [0.0, 0.0]
    m2 = [0.0, 0.0]
    acc = [0.0, 0.0]
    for t in range(T):
        if t == 0:
            w1 = 0.5
        else:
            s = [
                math.sqrt(m2[a] / n[a] if n[a] > 0 and m2[a] > 0.0 else eta)
                for a in (0, 1)
            ]
            w1 = min(max(s[0] / (s[0] + s[1]), w_min), 1.0 - w_min)
        a = 0 if u[t] < w1 else 1
        w = (w1, 1.0 - w1)
        obs = y[a][t]
        for b in (0, 1):
            acc[b] += mean[b] + ((obs - mean[b]) / w[b] if b == a else 0.0)
        n[a] += 1
        d = obs - mean[a]
        mean[a] += d / n[a]
        m2[a] += d * (obs - mean[a])
    mu1, mu2 = acc[0] / T, acc[1] / T
    return (1 if mu1 >= mu2 else 2), n[0], mu1, mu2


def check_resimulation(reps, simulate, indices) -> list[str]:
    """Compare replicate() rows with an independent re-simulation.

    `reps` is engine.replicate's result; `simulate(i)` returns
    (recommended, n1, mu1, mu2) for replication i. Arm and pull count must
    match exactly, estimates within 1e-9.
    """
    errors = []
    for i in indices:
        rec, n1, mu1, mu2 = simulate(i)
        got = (int(reps.recommended[i]), int(reps.n1[i]), float(reps.mu_hat[i, 0]), float(reps.mu_hat[i, 1]))
        if (got[0], got[1]) != (rec, n1) or abs(got[2] - mu1) > 1e-9 or abs(got[3] - mu2) > 1e-9:
            errors.append(
                f"replication {i}: replicate gives (arm, n1, mu1, mu2) = {got}, "
                f"re-simulation gives {(rec, n1, mu1, mu2)}"
            )
    return errors
