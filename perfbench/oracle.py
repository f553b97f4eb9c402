"""Reference values computed without foeslab's fast paths.

Every function here enumerates outcomes its own way (np.unravel_index in
Fortran order, which is foeslab's little-endian index encoding) and scores
them with its own statistics code, so a bug in foeslab's enumeration,
scoring, normalization or reductions cannot also hide in the check.
"""

from __future__ import annotations

import itertools

import numpy as np

CHUNK = 1 << 16
# foeslab's modal-set tie tolerance, restated rather than imported
MODAL_TIE_TOL = 1e-9


def outcome_digits(n_variables: int, k: int, start: int, stop: int) -> np.ndarray:
    """Digit matrix (rows = outcome indices start..stop-1), variable 0 first."""
    idx = np.arange(start, stop, dtype=np.int64)
    return np.stack(np.unravel_index(idx, (k,) * n_variables, order="F"), axis=1)


def graph_counts(n_nodes: int, x: np.ndarray) -> np.ndarray:
    """(m, 3) edge, 2-star and triangle counts of 0/1 edge rows.

    Loops over node pairs and triples explicitly instead of the incidence
    product and fancy indexing foeslab uses.
    """
    pairs = list(itertools.combinations(range(n_nodes), 2))
    pos = {p: e for e, p in enumerate(pairs)}
    x = x.astype(np.int64)
    deg = np.zeros((x.shape[0], n_nodes), dtype=np.int64)
    for e, (a, b) in enumerate(pairs):
        deg[:, a] += x[:, e]
        deg[:, b] += x[:, e]
    tri = np.zeros(x.shape[0], dtype=np.int64)
    for a, b, c in itertools.combinations(range(n_nodes), 3):
        tri += x[:, pos[(a, b)]] & x[:, pos[(a, c)]] & x[:, pos[(b, c)]]
    return np.stack([x.sum(axis=1), (deg * (deg - 1) // 2).sum(axis=1), tri],
                    axis=1).astype(np.float64)


def score_rows(model: dict, digits: np.ndarray) -> np.ndarray:
    """Unnormalized log score of digit rows for a model description."""
    kind = model["kind"]
    if kind == "bernoulli":
        return model["theta"] * digits.sum(axis=1).astype(np.float64)
    if kind == "multinomial":
        counts = np.stack([(digits == j).sum(axis=1)
                           for j in range(len(model["thetas"]))], axis=1)
        return counts.astype(np.float64) @ np.asarray(model["thetas"])
    if kind == "graph":
        return graph_counts(model["nodes"], digits) @ np.asarray(model["theta"])
    if kind == "rbm_marginal":
        x = 2.0 * digits - 1.0
        z = model["theta_h"][None, :] + x @ model["theta_vh"].T
        return x @ model["theta_v"] + np.logaddexp(z, -z).sum(axis=1)
    raise ValueError(f"no reference scorer for {kind!r}")


def model_shape(model: dict) -> tuple[int, int]:
    """(n_variables, alphabet size) of a model description."""
    kind = model["kind"]
    if kind == "bernoulli":
        return model["n"], 2
    if kind == "multinomial":
        return model["n"], len(model["thetas"])
    if kind == "graph":
        return model["nodes"] * (model["nodes"] - 1) // 2, 2
    if kind == "rbm_marginal":
        return model["theta_v"].size, 2
    raise ValueError(f"no reference shape for {kind!r}")


def scores(model: dict) -> np.ndarray:
    """Scores of every outcome in index order, enumerated in chunks."""
    n, k = model_shape(model)
    total = k**n
    return np.concatenate([
        score_rows(model, outcome_digits(n, k, lo, min(lo + CHUNK, total)))
        for lo in range(0, total, CHUNK)])


def log_probs(model: dict) -> np.ndarray:
    s = scores(model)
    m = s.max()
    return s - (m + np.log(np.exp(s - m).sum()))


def modal_mask(logp: np.ndarray, epsilon: float) -> np.ndarray:
    threshold = (1.0 - epsilon) * logp.max() + epsilon * logp.min()
    return logp > threshold - MODAL_TIE_TOL


def one_flip_max(s: np.ndarray, n_variables: int) -> float:
    """Largest |s[i] - s[i xor 2^v]| over binary outcomes i and variables v."""
    idx = np.arange(s.size, dtype=np.int64)
    return max(float(np.abs(s - s[idx ^ (1 << v)]).max()) for v in range(n_variables))


def tv_from_trace(trace: np.ndarray, logp: np.ndarray) -> float:
    emp = np.zeros(logp.size)
    np.add.at(emp, trace, 1.0)
    return 0.5 * float(np.abs(emp / trace.size - np.exp(logp)).sum())


def rbm_joint_table(theta_v, theta_h, theta_vh) -> np.ndarray:
    """Joint score f(x, h) for every visible row x and hidden column h."""
    x = 2.0 * outcome_digits(theta_v.size, 2, 0, 2**theta_v.size) - 1.0
    h = 2.0 * outcome_digits(theta_h.size, 2, 0, 2**theta_h.size) - 1.0
    return ((x @ theta_v)[:, None] + (h @ theta_h)[None, :]
            + x @ theta_vh.T @ h.T)


def rbm_bounds(theta_v, theta_h, theta_vh) -> dict:
    """Bound-report quantities read off the brute-force joint table."""
    f = rbm_joint_table(theta_v, theta_h, theta_vh)
    col_half_range = 0.5 * (f.max(axis=0) - f.min(axis=0))
    phi = f.max(axis=1)
    m = f.max(axis=1, keepdims=True)
    marginal = (m + np.log(np.exp(f - m).sum(axis=1, keepdims=True)))[:, 0]
    return {"lrep_joint": float(f.max() - f.min()),
            "lrep_marginal": float(marginal.max() - marginal.min()),
            "a_n": float(phi.max() - phi.min()),
            "b_n": float(col_half_range.max()),
            "c_n": float(col_half_range.min())}
