import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from crldistill import env, policies, shaping
from crldistill.divergence import (JENSEN_SHANNON, REVERSE_KL,
                                   divergence_gradient)
from crldistill.env import EnumerationCapExceeded, TokenMdp
from crldistill.policies import SoftmaxPolicy, TeacherPolicy
from crldistill.shaping import ConstrainedRewardSpec
from crldistill.verification import random_instance


def uniform_pair(mdp):
    student = SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size)
    teacher = TeacherPolicy(
        np.full((mdp.num_states, mdp.vocab_size), 1.0 / mdp.vocab_size))
    return student, teacher


def test_chain_topology():
    mdp = env.chain(length=3)
    assert mdp.num_states == 5
    goal, sink = 3, 4
    assert mdp.transition[0, 0] == 1
    assert mdp.transition[2, 0] == goal
    assert mdp.transition[1, 1] == sink
    # per-state tables, built once and read-only
    assert mdp.terminal.tolist() == [False, False, False, True, True]
    assert mdp.reward_of.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
    assert mdp.terminal is mdp.terminal and mdp.reward_of is mdp.reward_of
    for table in (mdp.terminal, mdp.reward_of):
        with pytest.raises(ValueError):
            table[0] = 1


def test_chain_with_distractors_topology():
    mdp = env.chain_with_distractors(decision_states=3)
    commit_good, commit_bad, goal, fail = 3, 4, 5, 6
    # advancing through every decision state reaches the goal via the commit
    s = 0
    for _ in range(3):
        s = int(mdp.transition[s, 0])
    assert s == commit_good
    assert int(mdp.transition[commit_good, 1]) == goal
    # both derailing tokens lead to the fail state via the bad commit
    for dec in range(3):
        for tok in (1, 2):
            assert int(mdp.transition[dec, tok]) == commit_bad
    assert int(mdp.transition[commit_bad, 0]) == fail
    assert mdp.task_reward[goal] == 1.0
    assert mdp.task_reward[fail] == 0.0


def test_token_mdp_validation():
    trans = np.array([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        TokenMdp(2, 2, np.array([[5, 0], [0, 0]]), 0, frozenset({1}), 4)
    with pytest.raises(ValueError):
        TokenMdp(2, 2, trans, 1, frozenset({1}), 4)  # initial is terminal
    with pytest.raises(ValueError):
        TokenMdp(2, 2, trans, 0, frozenset({1}), 4, {1: 0.5})  # non-binary


def test_step_bounds():
    mdp = env.chain(2)
    with pytest.raises(ValueError):
        env.step(mdp, 0, 5)
    with pytest.raises(ValueError):
        env.step(mdp, -1, 0)
    nxt, reward, done = env.step(mdp, 1, 0)
    assert (nxt, reward, done) == (2, 1.0, True)


def test_rollout_is_deterministic_given_stream():
    mdp = env.chain_with_distractors()
    student, teacher = uniform_pair(mdp)
    spec = ConstrainedRewardSpec()
    t1 = env.rollout(mdp, student, teacher, spec, np.random.default_rng(7))
    t2 = env.rollout(mdp, student, teacher, spec, np.random.default_rng(7))
    assert_same_batch(t1, t2)


def test_rollout_records_costs_at_acting_states():
    mdp = env.chain(2)
    student = SoftmaxPolicy(np.array([[10.0, -10.0]] * mdp.num_states))
    teacher = TeacherPolicy(np.full((mdp.num_states, 2), 0.5))
    spec = ConstrainedRewardSpec()
    traj = env.rollout(mdp, student, teacher, spec, np.random.default_rng(0))
    # one row as wide as a rollout_batch row
    assert traj.states.shape == traj.costs.shape == (1, mdp.horizon_cap)
    assert traj.lengths.tolist() == [2]
    assert traj.states.tolist() == [[0, 1] + [0] * (mdp.horizon_cap - 2)]
    assert traj.terminated.tolist() == [True]
    assert traj.rewards.sum() == 1.0


class _FixedStream:
    """Stand-in generator that hands out prepared uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = self.values[self.used:self.used + n]
        self.used += n
        return float(out[0]) if size is None else out.reshape(size)


def looping_mdp(horizon_cap=4):
    """Token 1 loops on the start state, so episodes can truncate; token 0
    advances to a state whose token 0 reaches the goal."""
    trans = np.array([[1, 0, 3], [2, 0, 3], [2, 2, 2], [3, 3, 3]])
    return TokenMdp(4, 3, trans, 0, frozenset({2, 3}), horizon_cap,
                    {2: 1.0, 3: 0.0})


BATCH_FIELDS = ("states", "tokens", "lengths", "rewards", "costs",
                "penalties", "terminated")


def assert_same_batch(a, b):
    for name in BATCH_FIELDS:
        got, want = getattr(a, name), getattr(b, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("penalty_kind", [REVERSE_KL, JENSEN_SHANNON])
@pytest.mark.parametrize("mode", shaping.MODES)
def test_rollout_batch_matches_rollout_per_key(mode, penalty_kind):
    mdp = looping_mdp()
    rng = np.random.default_rng(11)
    student = SoftmaxPolicy(rng.normal(size=(4, 3)))
    teacher = TeacherPolicy(rng.dirichlet(np.ones(3), size=4))
    spec = ConstrainedRewardSpec(mode=mode, penalty_kind=penalty_kind)
    keys = [[5, k] for k in range(64)]
    uniforms = np.stack([np.random.default_rng(key).random(mdp.horizon_cap)
                         for key in keys])
    batch = env.rollout_batch(mdp, student, teacher, spec, uniforms)
    assert_same_batch(env.TrajectoryBatch.stack(
        [env.rollout(mdp, student, teacher, spec, np.random.default_rng(key))
         for key in keys]), batch)
    # the batch covers a row truncated at horizon_cap and a row that
    # terminates on its last allowed step
    full = batch.terminated[batch.lengths == mdp.horizon_cap]
    assert not full.all() and full.any()
    if penalty_kind != spec.cost_kind:
        assert (batch.costs != batch.penalties).any()


def test_rollout_batch_matches_rollout_on_random_instances():
    # terminal states of random instances have outgoing transitions, which
    # an ended row must not follow; rows are cut at horizon_cap, and some
    # batches end before it. Each cell of a stacked student (C=3) samples
    # what it samples alone, and what env.rollout samples from each row.
    rng = np.random.default_rng(17)
    cut = early = 0
    for k in range(100):
        mdp, student, teacher = random_instance(rng)
        cells = [student] + [SoftmaxPolicy(rng.normal(
            scale=1.5, size=student.logits.shape)) for _ in range(2)]
        stack = SoftmaxPolicy(np.concatenate([c.logits for c in cells]))
        spec = ConstrainedRewardSpec(
            penalty_kind=(REVERSE_KL, JENSEN_SHANNON)[k % 2])
        uniforms = rng.random((3, 16, mdp.horizon_cap))
        batch = env.rollout_batch(mdp, stack, teacher, spec, uniforms)
        n = mdp.num_states
        for c, cell in enumerate(cells):
            alone = env.rollout_batch(mdp, cell, teacher, spec, uniforms[c])
            assert_same_batch(env.TrajectoryBatch.stack(
                [env.rollout(mdp, cell, teacher, spec, _FixedStream(row))
                 for row in uniforms[c]]), alone)
            part = batch.block(16 * c, 16 * (c + 1))
            assert part.states.tobytes() == np.where(
                alone.live, alone.states + n * c, 0).tobytes()
            for name in set(BATCH_FIELDS) - {"states"}:
                assert getattr(part, name).tobytes() == \
                    getattr(alone, name).tobytes(), name
            cut += (~alone.terminated).any()
            early += alone.lengths.max() < mdp.horizon_cap
    assert cut and early


@pytest.mark.parametrize("kind", [REVERSE_KL, JENSEN_SHANNON])
def test_stacked_student_rows_equal_each_cells_tables(kind):
    # a student that stacks C cells' logit tables (cell c's state s in row
    # c * S + s) samples and scores each cell as that cell alone would
    mdp = env.chain_with_distractors(decision_states=2, horizon_cap=6)
    teacher = env.tension_teacher(mdp)
    rng = np.random.default_rng(4)
    n = mdp.num_states
    cells = [SoftmaxPolicy(rng.normal(scale=2.0, size=(n, 3)))
             for _ in range(3)]
    stack = SoftmaxPolicy(np.concatenate([c.logits for c in cells]))
    spec = ConstrainedRewardSpec(cost_kind=kind, penalty_kind=REVERSE_KL)
    uniforms = rng.random((3, 16, mdp.horizon_cap))
    batch = env.rollout_batch(mdp, stack, teacher, spec, uniforms)
    assert len(batch) == 48
    stacked_tables = env.state_tables(mdp, stack, teacher, spec)
    grads = divergence_gradient(stack, teacher, policies.ALL_STATES, kind)
    for c, cell in enumerate(cells):
        rows = slice(n * c, n * (c + 1))
        for got, want in zip(stacked_tables,
                             env.state_tables(mdp, cell, teacher, spec)):
            assert got[rows].tobytes() == want.tobytes()
        assert grads[rows].tobytes() == divergence_gradient(
            cell, teacher, policies.ALL_STATES, kind).tobytes()
        alone = env.rollout_batch(mdp, cell, teacher, spec, uniforms[c])
        part = batch.block(16 * c, 16 * (c + 1))
        # the stacked batch names cell c's states by their stacked rows
        assert part.states.tobytes() == np.where(
            alone.live, alone.states + n * c, 0).tobytes()
        for name in set(BATCH_FIELDS) - {"states"}:
            assert getattr(part, name).tobytes() == \
                getattr(alone, name).tobytes(), name
    with pytest.raises(ValueError, match="cannot sample 2 cells"):
        env.rollout_batch(mdp, stack, teacher, spec, uniforms[:2])


def test_sampling_rule_on_cumulative_boundaries():
    mdp = looping_mdp(horizon_cap=2)
    # unfloored uniform rows: cumulative probabilities 1/3, 2/3, 1 exactly
    # as np.cumsum rounds them; u on a boundary takes the next token, and
    # u >= cum[-1] clips to the last token
    student = SoftmaxPolicy.uniform(4, 3, floor=0.0)
    teacher = TeacherPolicy(np.full((4, 3), 1.0 / 3.0))
    spec = ConstrainedRewardSpec()
    cum = np.cumsum(student.action_probs(0))
    uniforms = np.array([[cum[0], cum[0]],
                         [cum[1], 0.0],
                         [cum[2], 0.0],
                         [np.nextafter(cum[2], 2.0), 0.0],
                         [np.nextafter(cum[0], 0.0), cum[0]]])
    trajs = env.rollout_batch(mdp, student, teacher, spec, uniforms)
    assert trajs.tokens.tolist() == [[1, 1], [2, 0], [2, 0], [2, 0], [0, 1]]
    assert trajs.lengths.tolist() == [2, 1, 1, 1, 2]
    assert_same_batch(env.TrajectoryBatch.stack(
        [env.rollout(mdp, student, teacher, spec, _FixedStream(row))
         for row in uniforms]), trajs)


@pytest.mark.parametrize("draws,tokens,terminated", [
    ([0.9], [2], True),                       # ends on its first step
    ([0.5, 0.1, 0.1], [1, 0, 0], True),       # loops once, then ends
    ([0.1, 0.5, 0.1, 0.1], [0, 1, 0, 0], True),  # ends on its last step
    ([0.5] * 4, [1] * 4, False),              # cut at horizon_cap
])
def test_rollout_draws_once_per_step(draws, tokens, terminated):
    mdp = looping_mdp(horizon_cap=4)
    student = SoftmaxPolicy.uniform(4, 3, floor=0.0)
    teacher = TeacherPolicy(np.full((4, 3), 1.0 / 3.0))
    stream = _FixedStream(draws + [0.0] * mdp.horizon_cap)
    traj = env.rollout(mdp, student, teacher, ConstrainedRewardSpec(), stream)
    n = int(traj.lengths[0])
    assert (traj.tokens[0, :n].tolist(), bool(traj.terminated[0])) == \
        (tokens, terminated)
    assert stream.used == n


def test_stack_concatenates_equally_wide_batches():
    mdp = looping_mdp()
    student, teacher = uniform_pair(mdp)
    spec = ConstrainedRewardSpec()
    uniforms = np.random.default_rng(2).random((3, mdp.horizon_cap))
    batch = env.rollout_batch(mdp, student, teacher, spec, uniforms)
    assert env.TrajectoryBatch.stack(batch) is batch
    assert_same_batch(env.TrajectoryBatch.stack(
        [env.rollout_batch(mdp, student, teacher, spec, uniforms[:1]),
         env.rollout_batch(mdp, student, teacher, spec, uniforms[1:])]),
        batch)
    narrow = env.rollout_batch(looping_mdp(horizon_cap=2), student, teacher,
                               spec, uniforms[:, :2])
    with pytest.raises(ValueError, match="equally wide"):
        env.TrajectoryBatch.stack([batch, narrow])
    with pytest.raises(ValueError, match="equally wide"):
        env.TrajectoryBatch.stack([])


def test_rollout_batch_checks_uniform_shape():
    mdp = looping_mdp()
    student, teacher = uniform_pair(mdp)
    with pytest.raises(ValueError, match="horizon_cap"):
        env.rollout_batch(mdp, student, teacher, ConstrainedRewardSpec(),
                          np.zeros((2, mdp.horizon_cap - 1)))


def test_stream_block_equals_sequential_draws():
    # rollout_batch reads a key's draws as one block of horizon_cap; the
    # scalar path draws them one per step
    for key in ([0, 1, 0, 0, 0, 0], [3, 0, 39, 9, 7, 7], [12345, 2]):
        block = np.random.default_rng(key).random(8)
        rng = np.random.default_rng(key)
        assert block.tolist() == [rng.random() for _ in range(8)]


def test_enumeration_probabilities_sum_to_one():
    mdp = env.chain_with_distractors()
    student, teacher = uniform_pair(mdp)
    spec = ConstrainedRewardSpec()
    _, probs = env.enumerate_batch(mdp, student, teacher, spec)
    assert abs(sum(probs.tolist()) - 1.0) < 1e-12


def test_enumeration_matches_sampling():
    mdp = env.chain(2, horizon_cap=4)
    student = SoftmaxPolicy(np.array([[1.0, 0.0]] * mdp.num_states))
    teacher = TeacherPolicy(np.full((mdp.num_states, 2), 0.5))
    spec = ConstrainedRewardSpec()
    leaves, probs = env.enumerate_batch(mdp, student, teacher, spec)
    exact_success = float(probs @ leaves.rewards.sum(axis=1))
    rng = np.random.default_rng(3)
    trajs = env.rollout_batch(mdp, student, teacher, spec,
                              rng.random((20000, mdp.horizon_cap)))
    sampled = trajs.rewards.sum() / len(trajs)
    assert abs(exact_success - sampled) < 0.02


def test_enumeration_cap_raises():
    trans = np.zeros((2, 4), dtype=np.int64)
    mdp = TokenMdp(2, 4, trans, 0, frozenset({1}), 10)
    student, teacher = uniform_pair(mdp)
    with pytest.raises(EnumerationCapExceeded):
        env.enumerate_batch(mdp, student, teacher, ConstrainedRewardSpec(),
                            leaf_cap=100)


def test_enumeration_cap_counts_every_leaf():
    # every token from the root terminates: three leaves of one step
    mdp = TokenMdp(2, 3, np.ones((2, 3), dtype=np.int64), 0, frozenset({1}),
                   4)
    student, teacher = uniform_pair(mdp)
    spec = ConstrainedRewardSpec()
    with pytest.raises(EnumerationCapExceeded):
        env.enumerate_batch(mdp, student, teacher, spec, leaf_cap=2)
    assert len(env.enumerate_batch(mdp, student, teacher, spec,
                                   leaf_cap=3)[0]) == 3
    # the cap raises exactly when the tree has more leaves than it allows
    rng = np.random.default_rng(31)
    for _ in range(20):
        mdp, student, teacher = random_instance(rng)
        leaves = len(env.enumerate_batch(mdp, student, teacher, spec)[0])
        batch, _ = env.enumerate_batch(mdp, student, teacher, spec,
                                       leaf_cap=leaves)
        assert len(batch) == leaves
        with pytest.raises(EnumerationCapExceeded):
            env.enumerate_batch(mdp, student, teacher, spec,
                                leaf_cap=leaves - 1)


def test_tree_is_built_once_per_mdp():
    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp)
    spec = ConstrainedRewardSpec()
    rng = np.random.default_rng(5)
    first, second = (env.enumerate_batch(
        mdp, SoftmaxPolicy(rng.normal(size=(mdp.num_states, mdp.vocab_size))),
        teacher, spec)[0] for _ in range(2))
    assert first.costs.tobytes() != second.costs.tobytes()
    for name in ("states", "tokens", "lengths"):
        shared = getattr(first, name)
        assert shared is getattr(second, name)
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 1


def assert_stack_is_per_cell(mdp, students, teacher, spec):
    """Enumerating the stacked students gives each cell's one-cell batch
    and probabilities bit for bit, its acting states offset by c * S."""
    stacked = SoftmaxPolicy(np.concatenate([p.logits for p in students]))
    batch, probs = env.enumerate_batch(mdp, stacked, teacher, spec)
    leaves = mdp.leaf_count
    assert len(batch) == len(probs) == len(students) * leaves
    for c, student in enumerate(students):
        one, one_probs = env.enumerate_batch(mdp, student, teacher, spec)
        rows = slice(c * leaves, (c + 1) * leaves)
        offset = np.where(one.live, c * mdp.num_states, 0)
        assert batch.states[rows].tobytes() == (one.states + offset).tobytes()
        for name in ("tokens", "lengths", "rewards", "costs", "penalties",
                     "terminated"):
            assert getattr(batch, name)[rows].tobytes() == \
                getattr(one, name).tobytes(), name
        assert probs[rows].tobytes() == one_probs.tobytes()


def test_stacked_enumeration_is_per_cell_on_the_tension_mdp():
    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp)
    rng = np.random.default_rng(8)
    students = [SoftmaxPolicy(rng.normal(size=(mdp.num_states,
                                               mdp.vocab_size)))
                for _ in range(3)]
    for spec in (ConstrainedRewardSpec(),
                 ConstrainedRewardSpec(penalty_kind=JENSEN_SHANNON)):
        assert_stack_is_per_cell(mdp, students, teacher, spec)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_stacked_enumeration_is_per_cell_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    mdp, student, teacher = random_instance(rng)
    students = [student] + [
        SoftmaxPolicy(rng.normal(scale=1.5, size=student.logits.shape))
        for _ in range(2)]
    assert_stack_is_per_cell(mdp, students, teacher,
                             ConstrainedRewardSpec(budget=0.3))


def test_stacked_enumeration_cap_counts_every_cell(monkeypatch):
    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp)
    stacked = SoftmaxPolicy(np.zeros((3 * mdp.num_states, mdp.vocab_size)))
    spec = ConstrainedRewardSpec()
    monkeypatch.setattr(np, "repeat", lambda *a, **k: pytest.fail("built"))
    with pytest.raises(EnumerationCapExceeded):
        env.enumerate_batch(mdp, stacked, teacher, spec,
                            leaf_cap=3 * mdp.leaf_count - 1)
    # nothing was built: no tree or stacked tables, no policy tables
    assert mdp._stacks == {} and stacked.tables == {}
    monkeypatch.undo()
    batch, _ = env.enumerate_batch(mdp, stacked, teacher, spec,
                                   leaf_cap=3 * mdp.leaf_count)
    assert len(batch) == 3 * mdp.leaf_count


def test_transition_is_a_read_only_copy():
    trans = np.array([[1, 1], [1, 1]], dtype=np.int64)
    mdp = TokenMdp(2, 2, trans, 0, frozenset({1}), 4)
    with pytest.raises(ValueError):
        mdp.transition[0, 0] = 0
    trans[0, 0] = 0
    assert mdp.transition[0, 0] == 1


def test_enumeration_cap_raises_before_building(monkeypatch):
    # no terminal is reachable, so every row runs to horizon_cap: 4 ** 10
    # leaves, counted without building a depth
    trans = np.zeros((2, 4), dtype=np.int64)
    mdp = TokenMdp(2, 4, trans, 0, frozenset({1}), 10)
    student, teacher = uniform_pair(mdp)

    def no_depths(*args, **kwargs):
        raise AssertionError("a depth of the tree was built")

    monkeypatch.setattr(np, "repeat", no_depths)
    with pytest.raises(EnumerationCapExceeded):
        env.enumerate_batch(mdp, student, teacher, ConstrainedRewardSpec(),
                            leaf_cap=100)
    assert mdp.leaf_count == 4 ** 10


def test_tension_teacher_rows():
    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp, advance=0.86)
    row = teacher.action_probs(0)
    assert row[0] == pytest.approx(0.86, abs=1e-6)
    assert row[1] == pytest.approx(0.07, abs=1e-6)
    np.testing.assert_allclose(teacher.probs.sum(axis=1), 1.0, atol=1e-12)
    # non-decision states stay uniform
    np.testing.assert_allclose(teacher.action_probs(3),
                               np.full(3, 1 / 3), atol=1e-6)
    with pytest.raises(ValueError):
        env.tension_teacher(mdp, advance=1.5)


def test_task_file_roundtrip(tmp_path):
    mdp = env.chain_with_distractors(decision_states=2)
    path = tmp_path / "task.yaml"
    env.save_task(mdp, path)
    loaded = env.load_task(path)
    assert loaded.num_states == mdp.num_states
    assert loaded.vocab_size == mdp.vocab_size
    assert loaded.horizon_cap == mdp.horizon_cap
    assert loaded.terminal_states == mdp.terminal_states
    assert loaded.task_reward == mdp.task_reward
    np.testing.assert_array_equal(loaded.transition, mdp.transition)


def test_task_file_rejects_bad_keys(tmp_path):
    path = tmp_path / "task.yaml"
    path.write_text("num_states: 2\nbogus: 1\n")
    with pytest.raises(ValueError, match="unknown task keys"):
        env.load_task(path)
    path.write_text("num_states: 2\n")
    with pytest.raises(ValueError, match="missing task keys"):
        env.load_task(path)


@pytest.mark.parametrize("key,value", [
    ("num_states", 2.9), ("num_states", True), ("vocab_size", 2.0),
    ("initial_state", True), ("horizon_cap", 2.5), ("horizon_cap", "4"),
    ("transition target", 1.5)])
def test_task_file_rejects_sizes_that_are_not_counts(tmp_path, key, value):
    # a 2-state, 2-token task that loads with any of its counts truncated
    doc = {"num_states": 2, "vocab_size": 2, "initial_state": 0,
           "horizon_cap": 3, "transitions": {"0 0": 1, "0 1": 0, "1 0": 1,
                                             "1 1": 1},
           "terminal_rewards": {1: 1.0}}
    if key == "transition target":
        doc["transitions"]["0 1"] = value
    else:
        doc[key] = value
    path = tmp_path / "task.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=f"^{key} must be an integer >= 0"):
        env.load_task(path)


def test_task_file_rejects_a_partial_map_before_allocating(tmp_path):
    # one transition of 20000 x 1000: the map cannot be total, and is
    # rejected before a 160 MB states x tokens table is built
    path = tmp_path / "task.yaml"
    path.write_text("num_states: 20000\nvocab_size: 1000\ninitial_state: 0\n"
                    "horizon_cap: 4\ntransitions: {'0 0': 1}\n"
                    "terminal_rewards: {1: 1.0}\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be total"):
            env.load_task(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("penalty_kind", [REVERSE_KL, JENSEN_SHANNON])
def test_state_tables_reuse_cost_only_when_kinds_agree(penalty_kind):
    from crldistill.divergence import per_state_cost

    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp)
    student = SoftmaxPolicy(np.random.default_rng(4).normal(
        size=(mdp.num_states, mdp.vocab_size)))
    spec = ConstrainedRewardSpec(penalty_kind=penalty_kind)
    probs, cost, pen = env.state_tables(mdp, student, teacher, spec)
    states = range(mdp.num_states)
    np.testing.assert_array_equal(
        probs, [student.action_probs(s) for s in states])
    assert cost.tolist() == [per_state_cost(student, teacher, s)
                             for s in states]
    assert pen.tolist() == [per_state_cost(student, teacher, s, penalty_kind)
                            for s in states]
    assert (pen is cost) == (penalty_kind == spec.cost_kind)
