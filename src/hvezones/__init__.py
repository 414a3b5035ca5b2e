"""Privacy-preserving location alert zones.

Reference hidden-vector encryption over a pluggable bilinear group,
Gray-code hypercube encodings of a spatial grid that minimize pairing
work, boolean minimization of alert-zone tokens, and a Markov model of
dynamically evolving zones.
"""

from .group import BilinearGroup, GroupError
from .grid import Cell, Grid, GridEncoding, read_encoding, write_encoding
from .hve import (Ciphertext, HveToken, MessageSpace, PublicKey, QueryResult,
                  SecretKey, encrypt, gen_token, query, setup)
from .optimizers import (OpCounter, gray_optimizer, hge_baseline, msgo,
                         random_baseline, sgo)
from .tokens import (TokenSet, minimize, pairing_cost, write_token_set,
                     zone_probability)
from .dynamics import (ConvergenceError, StateSpace, StationaryDistribution,
                       TransitionMatrix, UniformChain, build_q_independent,
                       build_q_spatial, cell_marginals, damp, evolve,
                       stationary_exact, stationary_monte_carlo)
from .bench import (ExperimentConfig, SigmoidModel, TrialResult, add_noise,
                    gen_probabilities, run_depth_sweep, run_dynamics,
                    run_experiment, run_timing, sample_zone, write_csv)

__version__ = "0.1.0"
