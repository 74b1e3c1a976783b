# Per-state f-divergences between student and teacher, evaluated exactly
# over the whole vocabulary, plus their analytic gradients w.r.t. the
# student logits.
from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .policies import ALL_STATES, read_only

REVERSE_KL = "reverse_kl"
JENSEN_SHANNON = "js"
KINDS = (REVERSE_KL, JENSEN_SHANNON)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown divergence kind {kind!r}; expected one of {KINDS}")


def _log_errors(p: np.ndarray, q: np.ndarray):
    """The error state for logs of p and q entries. Only a zero entry makes
    such a log warn, so it is quiet just when p or q has one."""
    if np.count_nonzero(p) == p.size and np.count_nonzero(q) == q.size:
        return nullcontext()
    return np.errstate(divide="ignore", invalid="ignore")


def divergence(p: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    """D_kind(p || q) over the last axis: one value per row of a table, or a
    0-d value for one distribution."""
    with _log_errors(p, q):
        return _divergence(p, q, kind)[0]


def _divergence(p: np.ndarray, q: np.ndarray,
                kind: str) -> tuple[np.ndarray, np.ndarray]:
    """D_kind(p || q) over the last axis, and the log ratio that its
    gradient reads: log p - log q for reverse KL, log p - log m for JS."""
    # clamped at zero: rounding on near-identical rows can otherwise leak
    # tiny negative values into the (nonnegative) budget arithmetic
    if kind == REVERSE_KL:
        ratio = np.log(p) - np.log(q)
        terms = np.where(p > 0, p * ratio, 0.0)
        return np.maximum(terms.sum(axis=-1), 0.0), ratio
    m = 0.5 * (p + q)
    log_m = np.log(m)
    ratio = np.log(p) - log_m
    left = np.where(p > 0, p * ratio, 0.0)
    right = np.where(q > 0, q * (np.log(q) - log_m), 0.0)
    return (np.maximum(0.5 * (left.sum(axis=-1) + right.sum(axis=-1)), 0.0),
            ratio)


def per_state_cost(student, teacher, state: int, kind: str = REVERSE_KL) -> float:
    """Budget cost at one state: D_kind(student row || teacher row)."""
    _check_kind(kind)
    return float(divergence(student.action_probs(state),
                            teacher.action_probs(state), kind))


def state_divergences(student, teacher, kind: str):
    """(costs, ratio): `divergence` of every student row against the
    teacher's row of its state, and the log ratio of its gradient, built in
    one pass once per logits, teacher and kind (in `student.tables`)."""
    key = ("divergence", teacher, kind)
    entry = student.tables.get(key)
    if entry is None:
        p = student.action_probs(ALL_STATES)
        with _log_errors(p, teacher.rows(len(p))):
            entry = _divergence(p, teacher.rows(len(p)), kind)
        entry = student.tables[key] = tuple(map(read_only, entry))
    return entry


def divergence_gradient(student, teacher, state,
                        kind: str = REVERSE_KL) -> np.ndarray:
    """Exact gradient of per_state_cost w.r.t. the student logits.

    For reverse KL this is the score-function expectation
    E_{a~pi}[grad log pi(a|s) (1 + log pi(a|s) - log mu(a|s))], carried
    through the probability floor so it matches finite differences exactly.
    Nonzero only in the row for `state`; `policies.ALL_STATES` gives every
    state's row at once (for a stacked student, every cell's rows). The
    whole table is built once per student logits, teacher and kind (kept in
    `student.tables`, read-only) from `state_divergences`' log ratio, with
    the per-state formulas along the last axis.
    """
    _check_kind(kind)
    key = ("divergence_gradient", teacher, kind)
    table = student.tables.get(key)
    if table is None:
        p, q = student.action_probs(ALL_STATES), student.raw_probs(ALL_STATES)
        with _log_errors(p, teacher.rows(len(p))):
            ratio = state_divergences(student, teacher, kind)[1]
            w = q * (ratio + 1.0 if kind == REVERSE_KL else 0.5 * ratio)
            table = (w - q * w.sum(axis=-1, keepdims=True)) / (
                1.0 + student.vocab_size * student.floor)
        student.tables[key] = read_only(table)
    if state is ALL_STATES:
        return table
    g = np.zeros_like(table)
    g[state] = table[state]
    return read_only(g)


def max_cost_bound(teacher) -> float:
    """Upper bound on any reverse KL against this (floored) teacher."""
    return float(-np.log(teacher.probs.min()))
