"""Independent reference implementations used only by tests.

Everything here enumerates label sequences exhaustively or perturbs inputs
numerically; none of it shares code with the package's inference or
training paths.
"""

import itertools

import numpy as np


def all_sequences(T: int, L: int) -> np.ndarray:
    return np.array(list(itertools.product(range(L), repeat=T)), dtype=np.int64)


def path_scores(em: np.ndarray, trans: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """Score every sequence, accumulating left to right in the same
    operation order as the dynamic program: ((s + transition) + emission)."""
    T = em.shape[0]
    scores = em[0][seqs[:, 0]].astype(np.float64)
    for t in range(1, T):
        scores = (scores + trans[seqs[:, t - 1], seqs[:, t]]) + em[t][seqs[:, t]]
    return scores


def brute_log_z(em: np.ndarray, trans: np.ndarray) -> float:
    scores = path_scores(em, trans, all_sequences(em.shape[0], em.shape[1]))
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_posteriors(em: np.ndarray, trans: np.ndarray):
    """(unary (T,L), pairwise (T-1,L,L)) marginals by full enumeration."""
    T, L = em.shape
    seqs = all_sequences(T, L)
    scores = path_scores(em, trans, seqs)
    w = np.exp(scores - scores.max())
    w /= w.sum()
    unary = np.zeros((T, L))
    for t in range(T):
        for y in range(L):
            unary[t, y] = w[seqs[:, t] == y].sum()
    pairwise = np.zeros((max(T - 1, 0), L, L))
    for t in range(T - 1):
        for i in range(L):
            for j in range(L):
                pairwise[t, i, j] = w[(seqs[:, t] == i) & (seqs[:, t + 1] == j)].sum()
    return unary, pairwise


def brute_viterbi(em: np.ndarray, trans: np.ndarray):
    """Exhaustive argmax. Among max-scoring sequences, picks the one whose
    reversed tuple is lexicographically smallest, which reproduces a
    backtrace that prefers the lower label index at every step."""
    seqs = all_sequences(em.shape[0], em.shape[1])
    scores = path_scores(em, trans, seqs)
    best = scores.max()
    candidates = seqs[scores == best]
    pick = min(range(len(candidates)), key=lambda i: tuple(candidates[i][::-1]))
    return list(int(v) for v in candidates[pick]), float(best)


def central_differences(fun, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Gradient of fun (scalar-valued) by central finite differences."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += step
        xm = x.copy()
        xm.flat[i] -= step
        g.flat[i] = (fun(xp) - fun(xm)) / (2 * step)
    return g


def brute_nll_and_gradient(batch, n_features: int, n_labels: int, x: np.ndarray, l2: float = 0.0):
    """NLL + (l2/2)|x|^2 of a batch and its gradient, sentence by sentence
    from enumeration: the sum of brute_log_z minus the gold path scores, and
    brute_posteriors expected counts minus empirical counts, plus l2*x.

    batch holds (feature ids per position, label ids) pairs; x is the flat
    weight vector, emission (F, L) then transition (L, L), row-major.
    """
    F, L = n_features, n_labels
    w_e = x[: F * L].reshape(F, L)
    w_t = x[F * L :].reshape(L, L)
    nll = 0.0
    g_e = np.zeros((F, L))
    g_t = np.zeros((L, L))
    for feats, y in batch:
        T = len(y)
        em = np.zeros((T, L))
        for t, ids in enumerate(feats):
            for k in ids:
                em[t] += w_e[k]
        gold = sum(em[t, y[t]] for t in range(T)) + sum(w_t[y[t], y[t + 1]] for t in range(T - 1))
        nll += brute_log_z(em, w_t) - gold
        unary, pairwise = brute_posteriors(em, w_t)
        for t, ids in enumerate(feats):
            for k in ids:
                g_e[k] += unary[t]
                g_e[k, y[t]] -= 1.0
        g_t += pairwise.sum(axis=0)
        for t in range(T - 1):
            g_t[y[t], y[t + 1]] -= 1.0
    grad = np.concatenate([g_e.ravel(), g_t.ravel()])
    return nll + 0.5 * l2 * float(x @ x), grad + l2 * x
