# Per-state f-divergences between student and teacher, evaluated exactly
# over the whole vocabulary, plus their analytic gradients w.r.t. the
# student logits.
from __future__ import annotations

import numpy as np

from .policies import ALL_STATES, read_only

REVERSE_KL = "reverse_kl"
JENSEN_SHANNON = "js"
KINDS = (REVERSE_KL, JENSEN_SHANNON)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown divergence kind {kind!r}; expected one of {KINDS}")


def divergence(p: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    """D_kind(p || q) over the last axis: one value per row of a table, or a
    0-d value for one distribution."""
    # only a zero probability makes a log below warn (its term is masked
    # out), so the error state is set just when one is present
    if np.count_nonzero(p) == p.size and np.count_nonzero(q) == q.size:
        return _divergence(p, q, kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _divergence(p, q, kind)


def _divergence(p: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    # clamped at zero: rounding on near-identical rows can otherwise leak
    # tiny negative values into the (nonnegative) budget arithmetic
    if kind == REVERSE_KL:
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        return np.maximum(terms.sum(axis=-1), 0.0)
    m = 0.5 * (p + q)
    left = np.where(p > 0, p * (np.log(p) - np.log(m)), 0.0)
    right = np.where(q > 0, q * (np.log(q) - np.log(m)), 0.0)
    return np.maximum(0.5 * (left.sum(axis=-1) + right.sum(axis=-1)), 0.0)


def per_state_cost(student, teacher, state: int, kind: str = REVERSE_KL) -> float:
    """Budget cost at one state: D_kind(student row || teacher row)."""
    _check_kind(kind)
    return float(divergence(student.action_probs(state),
                            teacher.action_probs(state), kind))


def _grad_wrt_probs(p: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    # dD/dp_a; constants that vanish under the simplex constraint are kept,
    # the chain rule below projects them out.
    if kind == REVERSE_KL:
        return np.log(p) - np.log(q) + 1.0
    m = 0.5 * (p + q)
    return 0.5 * (np.log(p) - np.log(m))


def divergence_gradient(student, teacher, state,
                        kind: str = REVERSE_KL) -> np.ndarray:
    """Exact gradient of per_state_cost w.r.t. the student logits.

    For reverse KL this is the score-function expectation
    E_{a~pi}[grad log pi(a|s) (1 + log pi(a|s) - log mu(a|s))], carried
    through the probability floor so it matches finite differences exactly.
    Nonzero only in the row for `state`; `policies.ALL_STATES` gives every
    state's row at once (for a stacked student, every cell's rows against
    the teacher's rows of their states). The whole table is built once per
    student logits, teacher and kind (kept in `student.tables`, read-only),
    with the per-state formulas along the last axis, so each row has the
    bits of a one-row computation.
    """
    _check_kind(kind)
    key = ("divergence_gradient", teacher, kind)
    table = student.tables.get(key)
    if table is None:
        q = student.raw_probs(ALL_STATES)
        p = student.action_probs(ALL_STATES)
        mu = teacher.rows(student.num_states)
        scale = 1.0 + student.vocab_size * student.floor
        with np.errstate(divide="ignore", invalid="ignore"):
            w = q * _grad_wrt_probs(p, mu, kind)
            table = (w - q * w.sum(axis=-1, keepdims=True)) / scale
        student.tables[key] = read_only(table)
    if state is ALL_STATES:
        return table
    g = np.zeros_like(table)
    g[state] = table[state]
    return read_only(g)


def max_cost_bound(teacher) -> float:
    """Upper bound on any reverse KL against this (floored) teacher."""
    return float(-np.log(teacher.probs.min()))
