"""friendbias: multi-level friendship-bias distributions on sparse random
graphs, under backtracking, non-backtracking, and lazy explorations."""

from .graph_core import (ComponentInfo, Graph, PreconditionError,
                         analyze_components, build_graph, induced_subgraph,
                         largest_component, load_edge_list, save_edge_list,
                         validate_for_exploration)
from .generators import (GenSpec, erase_to_simple, gen_configuration_model,
                         gen_erdos_renyi, generate, mix_seed, realize,
                         sample_degree_sequence)
from .kernels import DistVector, WalkOperator, bias_all, bias_profile
from .measures import EmpiricalMeasure, ks_distance, levy_distance, w1_distance
from .stationary import (MixingProfile, mixing_profile, mixing_time,
                         pi_vertex, stationarity_residual, stationary_bias,
                         tv_distance)
from .tree_limits import (OffspringLaw, exact_mu, sample_mu, sample_mu_star,
                          truncated_poisson)
from .oracle import oracle_avg_bias, oracle_k_step, small_graph_corpus

__version__ = "0.1.0"
