"""The array estimator against the scalar loops it replaced, bit for bit.

The reference functions below are the per-trajectory loops the library used
before it worked on `TrajectoryBatch` arrays. The array code must reproduce
their every bit (compared with `tobytes()`, so signed zeros count), which
holds only while it accumulates in the loops' order.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from crldistill import divergence as dv
from crldistill import env, gradients, shaping, verification
from crldistill.env import TrajectoryBatch
from crldistill.policies import (ALL_STATES, SoftmaxPolicy, TeacherPolicy,
                                 teacher_copy)
from crldistill.shaping import ConstrainedRewardSpec
from crldistill.verification import random_instance

# ---------------------------------------------------------------------------
# Reference: the scalar loops, over each row's per-step lists

STEP_FIELDS = ("states", "tokens", "rewards", "costs", "penalties")
BATCH_FIELDS = ("states", "tokens", "lengths", "rewards", "costs",
                "penalties", "terminated")


def rows(batch):
    """Each row of a batch as its first `lengths[k]` entries, as lists."""
    steps = [getattr(batch, name).tolist() for name in STEP_FIELDS]
    return [SimpleNamespace(terminated=done, **{
        name: column[k][:n] for name, column in zip(STEP_FIELDS, steps)})
        for k, (n, done) in enumerate(zip(batch.lengths.tolist(),
                                          batch.terminated.tolist()))]


def ref_remaining(costs, budget):
    out, remaining = [], budget
    for c in costs:
        out.append(remaining)
        remaining -= c
    return out


def ref_shape(traj, spec):
    if spec.mode == shaping.UNAUGMENTED:
        return [r if rem >= 0.0 else -(spec.penalty + p) for r, p, rem in
                zip(traj.rewards, traj.penalties,
                    ref_remaining(traj.costs, spec.budget))]
    if spec.mode == shaping.SAUTE:
        z, out = spec.budget, []
        for r, c in zip(traj.rewards, traj.costs):
            out.append(r if z >= 0.0 else -spec.penalty)
            z -= c
        return out
    if spec.mode == shaping.LAGRANGIAN:
        return [r - spec.lagrange_weight * c
                for r, c in zip(traj.rewards, traj.costs)]
    if spec.mode == shaping.REWARD_ONLY:
        return list(traj.rewards)
    return [-c for c in traj.costs]


def ref_flags(traj, spec):
    return [rem <= spec.boundary_tol
            for rem in ref_remaining(traj.costs, spec.budget)]


def ref_returns_to_go(rewards, discount):
    g, out = 0.0, [0.0] * len(rewards)
    for t in range(len(rewards) - 1, -1, -1):
        g = rewards[t] + discount * g
        out[t] = g
    return out


def ref_group_baselines(credits, groups):
    base = [[0.0] * len(c) for c in credits]
    for members in groups:
        depth = max(len(credits[i]) for i in members)
        for t in range(depth):
            alive = [i for i in members if len(credits[i]) > t]
            mean = sum(credits[i][t] for i in alive) / len(alive)
            for i in alive:
                base[i][t] = mean
    return base


def ref_weights(trajs, weights):
    if weights is None:
        return [1.0 / max(len(trajs), 1)] * len(trajs)
    return list(weights)


def ref_term_i(student, trajs, shaped, groups, credit, discount, weights):
    if credit == "to-go":
        credits = [ref_returns_to_go(r, discount) for r in shaped]
    else:
        credits = [list(r) for r in shaped]
    base = ref_group_baselines(credits, groups) if groups else \
        [[0.0] * len(c) for c in credits]
    table = np.zeros_like(student.logits)
    for traj, cred, bs, w in zip(trajs, credits, base,
                                 ref_weights(trajs, weights)):
        for s, a, c, b in zip(traj.states, traj.tokens, cred, bs):
            adv = (c - b) * w
            table[s] -= adv * student.action_probs(s)
            table[s, a] += adv
    return table


def ref_term_ii(student, teacher, trajs, spec, weights):
    table = np.zeros_like(student.logits)
    kind, coefficient, mask = shaping.term_ii_rule(spec)
    if coefficient == 0.0:
        return table
    for traj, w in zip(trajs, ref_weights(trajs, weights)):
        flags = ref_flags(traj, spec) if mask else [True] * len(traj.states)
        scale = w * coefficient
        for s, flagged in zip(traj.states, flags):
            if flagged:
                table -= scale * dv.divergence_gradient(student, teacher, s,
                                                        kind)
            scale *= spec.discount
    return table


def ref_enumerate(mdp, student, teacher, spec):
    """The recursive depth-first walk: (leaf, probability) pairs in
    lexicographic token order, each leaf per-step lists."""
    probs, cost, pen = env.state_tables(mdp, student, teacher, spec)
    cost, pen = cost.tolist(), pen.tolist()
    results = []

    def leaf(ss, aa, rr, terminated, prob):
        results.append((SimpleNamespace(
            states=list(ss), tokens=list(aa), rewards=list(rr),
            costs=[cost[s] for s in ss], penalties=[pen[s] for s in ss],
            terminated=terminated), prob))

    def walk(state, depth, prob, ss, aa, rr):
        if depth == mdp.horizon_cap:
            leaf(ss, aa, rr, False, prob)
            return
        row = probs[state]
        for a in range(mdp.vocab_size):
            pa = prob * row[a]
            nxt, r, done = env.step(mdp, state, a)
            ss.append(state)
            aa.append(a)
            rr.append(r)
            if done:
                leaf(ss, aa, rr, True, pa)
            else:
                walk(nxt, depth + 1, pa, ss, aa, rr)
            ss.pop()
            aa.pop()
            rr.pop()

    walk(mdp.initial_state, 0, 1.0, [], [], [])
    return results


def ref_rollout(mdp, student, teacher, spec, rng):
    """The per-step loop: one softmax row, cumsum, searchsorted and row
    divergence at every step."""
    states, tokens, rewards, costs, pens = [], [], [], [], []
    s = mdp.initial_state
    terminated = False
    for _ in range(mdp.horizon_cap):
        p = student.action_probs(s)
        a = min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")),
                mdp.vocab_size - 1)
        nxt, r, done = env.step(mdp, s, a)
        states.append(s)
        tokens.append(a)
        rewards.append(r)
        mu = teacher.action_probs(s)
        cost = float(dv.divergence(p, mu, spec.cost_kind))
        costs.append(cost)
        pens.append(cost if spec.penalty_kind == spec.cost_kind
                    else float(dv.divergence(p, mu, spec.penalty_kind)))
        s = nxt
        if done:
            terminated = True
            break
    return SimpleNamespace(states=states, tokens=tokens, rewards=rewards,
                           costs=costs, penalties=pens, terminated=terminated)


def ref_divergence(p, q, kind):
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == dv.REVERSE_KL:
            terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
            return max(float(terms.sum()), 0.0)
        m = 0.5 * (p + q)
        left = np.where(p > 0, p * (np.log(p) - np.log(m)), 0.0)
        right = np.where(q > 0, q * (np.log(q) - np.log(m)), 0.0)
        return max(float(0.5 * (left.sum() + right.sum())), 0.0)


def ref_gradient_row(student, teacher, s, kind):
    row = student.logits[s]
    e = np.exp(row - row.max())
    q = e / e.sum()
    p = (q + student.floor) / (1.0 + q.shape[-1] * student.floor) \
        if student.floor else q
    mu = teacher.action_probs(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == dv.REVERSE_KL:
            w = q * (np.log(p) - np.log(mu) + 1.0)
        else:
            w = q * (0.5 * (np.log(p) - np.log(0.5 * (p + mu))))
        return (w - q * w.sum()) / (1.0 + student.vocab_size * student.floor)


def ref_assumptions(mdp, teacher, spec, samples, seed, floor=1e-8):
    """The per-state loop of `check_assumptions`: (worst penalty, all
    finite, teacher copy feasible)."""
    rng = np.random.default_rng([seed, 13])
    bound = dv.max_cost_bound(teacher)
    finite, worst = True, 0.0
    for _ in range(samples):
        student = SoftmaxPolicy(
            rng.normal(scale=3.0, size=(mdp.num_states, mdp.vocab_size)),
            floor=floor)
        for s in range(mdp.num_states):
            val = dv.per_state_cost(student, teacher, s, spec.penalty_kind)
            grad = dv.divergence_gradient(student, teacher, s,
                                          spec.penalty_kind)
            if not (np.isfinite(val) and np.isfinite(grad).all()):
                finite = False
                continue
            worst = max(worst, val)
            if spec.penalty_kind == dv.REVERSE_KL and val > bound + 1e-9:
                finite = False
    copy = teacher_copy(teacher)
    copy_feasible = all(
        dv.per_state_cost(copy, teacher, s, spec.cost_kind)
        * mdp.horizon_cap <= spec.budget
        for s in range(mdp.num_states))
    return worst, finite, copy_feasible


# ---------------------------------------------------------------------------
# Cases

SETTINGS = ((1.0, dv.REVERSE_KL), (0.9, dv.JENSEN_SHANNON))


def specs(budget):
    for discount, penalty_kind in SETTINGS:
        for mode in shaping.MODES:
            yield ConstrainedRewardSpec(
                budget=budget, mode=mode, discount=discount,
                penalty_kind=penalty_kind, lagrange_weight=0.5,
                boundary_tol=0.05)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_estimator(student, teacher, trajs, spec, groups=None,
                    weights=None):
    """`trajs`: a batch, or a list of equally wide ones."""
    ref = rows(TrajectoryBatch.stack(trajs))
    shaped = [ref_shape(t, spec) for t in ref]
    credit = "step" if spec.mode == shaping.KL_ONLY else "to-go"
    term_i = ref_term_i(student, ref, shaped, groups, credit,
                        spec.discount, weights)
    term_ii = ref_term_ii(student, teacher, ref, spec, weights)
    kw = {"baseline": gradients.BASELINE_GROUP, "groups": groups} \
        if groups else {}
    est = gradients.total_gradient(student, teacher, trajs, spec,
                                   weights=weights, **kw)
    assert_same_bits(est.term_i, term_i)
    assert_same_bits(est.term_ii, term_ii)
    assert_same_bits(est.table, term_i + term_ii)
    return est


@pytest.mark.parametrize("chunk", range(3))
def test_estimator_matches_scalar_loops(chunk):
    # 10 instances per chunk x 2 settings x 6 modes x {sampled without
    # baseline, sampled with groups, exact leaf weights}
    rng = np.random.default_rng([chunk, 41])
    fired = truncated = last_step = 0
    for _ in range(10):
        mdp, student, teacher = random_instance(rng)
        budget = float(rng.uniform(0.05, 1.0))
        for spec in specs(budget):
            stream = np.random.default_rng(rng.integers(2**32))
            trajs = [env.rollout(mdp, student, teacher, spec, stream)
                     for _ in range(10)]
            stacked = TrajectoryBatch.stack(trajs)
            done = stacked.terminated
            truncated += (~done).sum()
            last_step += (done & (stacked.lengths == mdp.horizon_cap)).sum()
            check_estimator(student, teacher, trajs, spec)
            check_estimator(student, teacher, trajs, spec,
                            groups=[[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]])
            leaves, probs = env.enumerate_batch(mdp, student, teacher, spec)
            est = check_estimator(student, teacher, leaves, spec,
                                  weights=probs)
            fired += bool(est.term_ii.any())
    assert fired and truncated and last_step


def test_estimator_edge_batches():
    mdp = env.chain_with_distractors(decision_states=2, horizon_cap=4)
    teacher = env.tension_teacher(mdp)
    student = SoftmaxPolicy(np.random.default_rng(5).normal(
        size=(mdp.num_states, mdp.vocab_size)))
    for spec in specs(0.2):
        # an empty batch gives zero tables
        empty = env.rollout_batch(mdp, student, teacher, spec,
                                  np.zeros((0, mdp.horizon_cap)))
        est = check_estimator(student, teacher, empty, spec)
        assert not est.table.any()
        # rows of every length, in one group
        uniforms = np.random.default_rng(9).random((5, mdp.horizon_cap))
        batch = env.rollout_batch(mdp, student, teacher, spec, uniforms)
        singles = [env.rollout_batch(mdp, student, teacher, spec, row[None])
                   for row in uniforms]
        check_estimator(student, teacher, singles, spec,
                        groups=[[0, 1, 2, 3, 4]])
        # trailing zero columns leave every bit unchanged
        wider = TrajectoryBatch(*(
            np.pad(a, ((0, 0), (0, 3))) if a.ndim == 2 else a
            for a in (getattr(batch, name) for name in BATCH_FIELDS)))
        for trajs in (singles, wider):
            assert_same_bits(
                gradients.total_gradient(student, teacher, batch, spec).table,
                gradients.total_gradient(student, teacher, trajs,
                                         spec).table)


def full_returns_to_go(rewards, discount):
    """The column loop over every column, trailing all-zero ones included."""
    out = np.empty_like(rewards)
    g = np.zeros(len(rewards))
    for t in range(rewards.shape[1] - 1, -1, -1):
        g = rewards[:, t] + discount * g
        out[:, t] = g
    return out


def test_returns_to_go_skips_trailing_zero_columns():
    # horizon_cap-wide rollouts end well before their last columns; kl-only
    # shapes -costs, so the rows hold -0.0 past their lengths
    mdp = env.chain_with_distractors(decision_states=2, horizon_cap=6)
    teacher = env.tension_teacher(mdp)
    student = SoftmaxPolicy(np.random.default_rng(123).normal(
        scale=0.7, size=(mdp.num_states, mdp.vocab_size)))
    stream = np.random.default_rng(7)
    skipped = negative_zeros = 0
    for spec in specs(0.2):
        for _ in range(10):
            batch = TrajectoryBatch.stack(
                [env.rollout(mdp, student, teacher, spec, stream)
                 for _ in range(4)])
            shaped = shaping.shape_rewards(batch, spec)
            for rewards in (shaped, np.zeros((0, 6)), -np.zeros((3, 6))):
                for discount in (1.0, 0.9):
                    assert_same_bits(
                        gradients._returns_to_go(rewards, discount),
                        full_returns_to_go(rewards, discount))
            skipped += not shaped[:, -1].any()
            negative_zeros += np.signbit(shaped[~batch.live]).any()
    assert skipped and negative_zeros


def test_shaping_matches_scalar_loops():
    rng = np.random.default_rng(43)
    for _ in range(10):
        mdp, student, teacher = random_instance(rng)
        for spec in specs(float(rng.uniform(0.05, 1.0))):
            batch, _ = env.enumerate_batch(mdp, student, teacher, spec)
            trajs = rows(batch)
            shaped = shaping.shape_rewards(batch, spec)
            flags = shaping.boundary_flags(batch, spec)
            for k, traj in enumerate(trajs):
                n = len(traj.states)
                assert shaped[k, :n].tolist() == ref_shape(traj, spec)
                assert not shaped[k, n:].any()
                assert flags[k, :n].tolist() == ref_flags(traj, spec)
                assert not flags[k, n:].any()
                one_row = TrajectoryBatch(*(getattr(batch, name)[k:k + 1]
                                            for name in BATCH_FIELDS))
                assert shaping.shape_rewards(one_row, spec)[0, :n].tolist() \
                    == ref_shape(traj, spec)
            for discount in (1.0, 0.9):
                togo = gradients._returns_to_go(shaped, discount)
                for k, traj in enumerate(trajs):
                    n = len(traj.states)
                    assert togo[k, :n].tolist() == ref_returns_to_go(
                        ref_shape(traj, spec), discount)


def check_enumeration(mdp, student, teacher, spec):
    leaves, probs = zip(*ref_enumerate(mdp, student, teacher, spec))
    batch, got = env.enumerate_batch(mdp, student, teacher, spec)
    # the leaves padded with zeros to the longest one
    lengths = np.array([len(leaf.states) for leaf in leaves])
    assert_same_bits(batch.lengths, lengths)
    for name in STEP_FIELDS:
        want = np.zeros((len(leaves), lengths.max()),
                        getattr(batch, name).dtype)
        for k, leaf in enumerate(leaves):
            want[k, :lengths[k]] = getattr(leaf, name)
        assert_same_bits(getattr(batch, name), want)
    assert_same_bits(batch.terminated,
                     np.array([leaf.terminated for leaf in leaves]))
    assert_same_bits(got, np.array(probs))
    return batch


def test_pair_view_is_the_batch_rows():
    # the (leaf, probability) view that the benchmark's finite-difference
    # filter reads: row k's first lengths[k] entries, in leaf order
    rng = np.random.default_rng(43)
    for _ in range(10):
        mdp, student, teacher = random_instance(rng)
        for spec in specs(float(rng.uniform(0.05, 1.0))):
            batch, probs = env.enumerate_batch(mdp, student, teacher, spec)
            pairs = env.enumerate_trajectories(mdp, student, teacher, spec)
            assert [p for _, p in pairs] == probs.tolist()
            for (leaf, _), row in zip(pairs, rows(batch), strict=True):
                assert (leaf.states, leaf.tokens, leaf.task_rewards,
                        leaf.costs, leaf.penalty_divergences,
                        leaf.terminated) == \
                    (row.states, row.tokens, row.rewards, row.costs,
                     row.penalties, row.terminated)


def test_enumeration_matches_the_recursive_walk():
    rng = np.random.default_rng(43)
    for _ in range(10):
        mdp, student, teacher = random_instance(rng)
        budget = float(rng.uniform(0.05, 1.0))
        for discount, penalty_kind in SETTINGS:
            check_enumeration(mdp, student, teacher, ConstrainedRewardSpec(
                budget=budget, discount=discount, penalty_kind=penalty_kind))
    # a tree with rows cut at horizon_cap and leaves at several depths
    mdp = env.chain_with_distractors(decision_states=3, horizon_cap=3)
    student = SoftmaxPolicy(np.random.default_rng(5).normal(
        size=(mdp.num_states, mdp.vocab_size)))
    for discount, penalty_kind in SETTINGS:
        batch = check_enumeration(
            mdp, student, env.tension_teacher(mdp), ConstrainedRewardSpec(
                discount=discount, penalty_kind=penalty_kind))
        assert not batch.terminated.all()
        assert len(set(batch.lengths[batch.terminated].tolist())) > 1


def test_rollout_matches_the_per_step_loop():
    rng = np.random.default_rng(53)
    truncated = terminated = 0
    for _ in range(30):
        mdp, student, teacher = random_instance(rng)
        for _, penalty_kind in SETTINGS:
            spec = ConstrainedRewardSpec(penalty_kind=penalty_kind)
            key = int(rng.integers(2**32))
            got_rng = np.random.default_rng(key)
            want_rng = np.random.default_rng(key)
            for _ in range(20):
                batch = env.rollout(mdp, student, teacher, spec, got_rng)
                assert batch.states.shape == (1, mdp.horizon_cap)
                [got] = rows(batch)
                want = ref_rollout(mdp, student, teacher, spec, want_rng)
                assert got.states == want.states
                assert got.tokens == want.tokens
                for name in ("rewards", "costs", "penalties"):
                    assert np.array(getattr(got, name)).tobytes() == \
                        np.array(getattr(want, name)).tobytes()
                assert got.terminated is want.terminated
                truncated += not got.terminated
                terminated += got.terminated
            # both have drawn exactly as many values from the stream
            assert got_rng.random() == want_rng.random()
    assert truncated and terminated


def one_step_rows(tokens, rewards):
    """A batch of one-step rows acting from state 0, with zero costs."""
    n = len(rewards)
    return TrajectoryBatch(
        np.zeros((n, 1), dtype=np.int64), np.array(tokens)[:, None],
        np.ones(n, dtype=np.int64), np.array(rewards, dtype=float)[:, None],
        np.zeros((n, 1)), np.zeros((n, 1)), np.ones(n, dtype=bool))


def test_accumulation_keeps_the_loop_order():
    # one state visited by four rows whose advantages sum differently in
    # other orders: 1e16 + 3 and 1e16 + 1 round
    student = SoftmaxPolicy.uniform(1, 2, floor=0.0)
    advs = (1e16, 3.0, -1e16, 1.0)
    batch = one_step_rows([0] * 4, advs)
    trajs = rows(batch)
    shaped = [[r] for r in advs]
    weights = [1.0] * 4
    want = ref_term_i(student, trajs, shaped, None, "step", 1.0, weights)
    got = gradients.total_gradient(
        student, None, batch, ConstrainedRewardSpec(mode=shaping.REWARD_ONLY),
        weights=weights).term_i
    assert_same_bits(got, want)
    # the case has teeth: the reversed order, and the probability parts and
    # token parts summed apart and then added (two bincounts), differ
    reversed_order = ref_term_i(student, trajs[::-1], shaped[::-1], None,
                                "step", 1.0, weights)
    assert reversed_order.tobytes() != want.tobytes()
    probs_part, token_part = np.zeros((1, 2)), np.zeros((1, 2))
    for adv in advs:
        probs_part[0] -= adv * student.action_probs(0)
        token_part[0, 0] += adv
    assert (probs_part + token_part).tobytes() != want.tobytes()


def test_group_sums_keep_the_member_order():
    # ten members of one group: a pairwise sum (numpy's for 8 or more
    # terms) gives 8 where the running sum gives 1
    student = SoftmaxPolicy.uniform(1, 2, floor=0.0)
    rewards = [1e16] + [1.0] * 7 + [-1e16, 1.0]
    trajs = one_step_rows([k % 2 for k in range(10)], rewards)
    groups = [list(range(10))]
    base = gradients._group_baselines(np.array([[r] for r in rewards]),
                                      groups, np.ones((10, 1), dtype=bool))
    assert base[0, 0] == 1.0 / 10
    check_estimator(student, None, trajs,
                    ConstrainedRewardSpec(mode=shaping.REWARD_ONLY),
                    groups=groups)


def test_group_array_equals_group_lists():
    # training passes its equal groups as one (G, size) index array
    rng = np.random.default_rng(43)
    for _ in range(10):
        mdp, student, teacher = random_instance(rng)
        for spec in specs(float(rng.uniform(0.05, 1.0))):
            stream = np.random.default_rng(rng.integers(2**32))
            trajs = [env.rollout(mdp, student, teacher, spec, stream)
                     for _ in range(12)]
            lists = check_estimator(student, teacher, trajs, spec,
                                    groups=[[0, 1, 2], [3, 4, 5],
                                            [6, 7, 8], [9, 10, 11]])
            array = gradients.total_gradient(
                student, teacher, trajs, spec,
                baseline=gradients.BASELINE_GROUP,
                groups=np.arange(12).reshape(4, 3))
            assert_same_bits(array.table, lists.table)
    with pytest.raises(ValueError, match="at least 2"):
        gradients.total_gradient(student, teacher, trajs, spec,
                                 baseline=gradients.BASELINE_GROUP,
                                 groups=np.arange(12).reshape(12, 1))


@pytest.mark.parametrize("floor", [0.0, 1e-8, 1e-3])
def test_whole_table_equals_per_state(floor):
    # vocab above 8 takes numpy's unrolled pairwise-sum path
    rng = np.random.default_rng(47)
    for _ in range(40):
        n, v = int(rng.integers(2, 7)), int(rng.integers(2, 13))
        student = SoftmaxPolicy(rng.normal(scale=rng.choice([1.0, 40.0]),
                                           size=(n, v)), floor=floor)
        teacher = TeacherPolicy(rng.dirichlet(np.full(v, 0.3), size=n))
        mdp = env.TokenMdp(n, v, np.zeros((n, v), dtype=np.int64), 0,
                           frozenset({n - 1}), 2)
        for cost_kind, penalty_kind in ((dv.REVERSE_KL, dv.JENSEN_SHANNON),
                                        (dv.JENSEN_SHANNON, dv.REVERSE_KL)):
            spec = ConstrainedRewardSpec(cost_kind=cost_kind,
                                         penalty_kind=penalty_kind)
            probs, cost, pen = env.state_tables(mdp, student, teacher, spec)
            for s in range(n):
                p = student.action_probs(s)
                assert probs[s].tobytes() == p.tobytes()
                mu = teacher.action_probs(s)
                assert cost[s] == ref_divergence(p, mu, cost_kind)
                assert pen[s] == ref_divergence(p, mu, penalty_kind)
            for kind in dv.KINDS:
                table = dv.divergence_gradient(student, teacher, ALL_STATES,
                                               kind)
                for s in range(n):
                    row = dv.divergence_gradient(student, teacher, s, kind)
                    assert table[s].tobytes() == row[s].tobytes()
                    assert table[s].tobytes() == ref_gradient_row(
                        student, teacher, s, kind).tobytes()


@pytest.mark.parametrize("floor", [0.0, 1e-8, 1e-3])
def test_cached_softmax_rows_match_the_one_row_formula(floor):
    # action_probs(s) is a row of the cached whole table, so the rows are
    # compared with the softmax of each logit row on its own
    rng = np.random.default_rng(61)
    for _ in range(40):
        n, v = int(rng.integers(2, 7)), int(rng.integers(2, 13))
        student = SoftmaxPolicy(rng.normal(scale=rng.choice([1.0, 40.0]),
                                           size=(n, v)), floor=floor)
        for s in range(n):
            row = student.logits[s]
            e = np.exp(row - row.max())
            q = e / e.sum()
            p = (q + floor) / (1.0 + v * floor) if floor else q
            assert student.raw_probs(ALL_STATES)[s].tobytes() == q.tobytes()
            assert student.action_probs(ALL_STATES)[s].tobytes() == \
                p.tobytes()


def test_assumptions_match_the_per_state_loop():
    # teachers with zero entries and no floor make the reverse-KL penalty
    # and its gradient non-finite; a budget of 1e-40 is below the floored
    # teacher copy's cost
    rng = np.random.default_rng(59)
    outcomes = set()
    for k in range(40):
        mdp, _, teacher = random_instance(rng)
        if k % 4 == 3:
            probs = teacher.probs.copy()
            probs[probs < 0.15] = 0.0
            teacher = TeacherPolicy(probs / probs.sum(axis=1, keepdims=True),
                                    floor=0.0)
        budget = 1e-40 if k % 5 == 4 else float(rng.uniform(0.05, 1.0))
        for kind in dv.KINDS:
            spec = ConstrainedRewardSpec(budget=budget, cost_kind=kind,
                                         penalty_kind=kind)
            with np.errstate(divide="ignore"):
                report = verification.check_assumptions(mdp, teacher, spec,
                                                        samples=5, seed=k)
                worst, finite, copy_feasible = ref_assumptions(
                    mdp, teacher, spec, samples=5, seed=k)
            assert report.max_deviation.hex() == worst.hex()
            assert report.passed is finite
            assert report.details["teacher_copy_feasible"] is copy_feasible
            outcomes.add((finite, copy_feasible))
    assert outcomes >= {(True, True), (True, False), (False, True)}
