"""friendbias: multi-level friendship-bias distributions on sparse random
graphs, under backtracking, non-backtracking, and lazy explorations."""

from .graph_core import (ComponentInfo, Graph, analyze_components, build_graph,
                         drop_isolated, induced_subgraph, largest_component,
                         load_edge_list, save_edge_list,
                         validate_for_exploration)
from .generators import (GenSpec, erase_to_simple, gen_configuration_model,
                         gen_erdos_renyi, generate, mix_seed, realize,
                         sample_degree_sequence)
from .kernels import (DistVector, KernelError, WalkOperator, bias_all, bias_k,
                      bias_profile)
from .measures import EmpiricalMeasure, ks_distance, levy_distance, w1_distance
from .stationary import (MixingProfile, mixing_profile, mixing_time,
                         pi_component, pi_vertex, stationarity_residual,
                         stationary_bias, tv_distance)
from .tree_limits import (GWTree, OffspringLaw, bt_bias_on_finite_tree,
                          exact_mu, nb_bias_on_tree, sample_gw, sample_mu,
                          sample_mu_star, size_bias, stationary_tree_bias,
                          truncated_poisson)
from .oracle import (WalkSet, bt_avg_bias_is_zero, enumerate_walks,
                     oracle_avg_bias, oracle_k_step, small_graph_corpus)

__version__ = "0.1.0"
