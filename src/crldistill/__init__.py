"""Budget-constrained policy distillation on finite token MDPs.

Teacher-to-student distillation posed as a constrained MDP: maximize task
reward subject to a per-episode budget on the cumulative divergence from the
teacher, using history-reconstructed shaped rewards instead of state
augmentation. Ships the baseline method grid, exact enumeration oracles and
executable checks of the underlying guarantees.
"""

from .divergence import (JENSEN_SHANNON, REVERSE_KL, divergence_gradient,
                         max_cost_bound, per_state_cost)
from .env import (EnumerationCapExceeded, TokenMdp, TrajectoryBatch, chain,
                  chain_with_distractors, enumerate_batch, load_task,
                  rollout, rollout_batch, save_task, step, tension_teacher)
from .evaluation import EvalResult, evaluate_policy
from .gradients import (GradientEstimate, exact_gradient,
                        explicit_dependence_term, finite_difference_gradient,
                        likelihood_ratio_term, objective_value,
                        shaped_return, total_gradient)
from .harness import (ExperimentConfig, MetricsRecord, emit_reports,
                      pareto_front, run_experiment)
from .policies import (SoftmaxPolicy, TeacherPolicy, floor_distribution,
                       load_policy, save_policy, teacher_copy)
from .shaping import (KL_LONG_HORIZON, KL_ONLY, LAGRANGIAN, MODES,
                      REWARD_ONLY, SAUTE, UNAUGMENTED, ConstrainedRewardSpec,
                      boundary_flags, lagrangian_step_reward,
                      remaining_budget, saute_reward, shape_rewards,
                      term_ii_rule, unaug_reward)
from .training import (Checkpoint, TrainConfig, TrainingDiverged,
                       method_label, resume, train, warm_start)
from .verification import (TheoremReport, check_assumptions,
                           check_bellman_residual,
                           check_constraint_satisfaction,
                           check_monotone_in_n, check_return_equivalence,
                           check_violation_trend, random_instance)

__version__ = "0.1.0"
